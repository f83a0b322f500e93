"""Adversarial traffic scenarios and fault campaigns.

The subsystem has three pieces:

* :mod:`repro.scenarios.registry` + :mod:`repro.scenarios.generators` —
  a seeded registry of open-loop traffic generators (bit-reversal,
  transpose, shuffle, tornado, hot-spot, many-to-one, poisson,
  permutation) with a continuous load knob λ, all producing
  :class:`~repro.routing.api.ScheduleColumns` (``build_columns``), or
  plain ``(path, release_step)`` schedules (``build_schedule``);
* :mod:`repro.scenarios.campaign` — the fault-campaign engine: kill k
  links/nodes at a mid-run step and replay the scenario with and without
  IDA failover over edge-disjoint paths (the paper's §1 reliability
  claim as a measured delivered fraction);
* :mod:`repro.scenarios.sweeps` — saturation-throughput sweeps (offered
  vs accepted load, latency percentiles) per scenario.

Every generator is also a fuzz subject (:mod:`repro.qa` pulls the
registry into its construction table) via
:class:`~repro.scenarios.subject.ScenarioSubject`.
"""

from repro.scenarios import generators as _generators  # noqa: F401  (registers builtins)
from repro.scenarios.campaign import (
    ArmReport,
    CampaignConfig,
    CampaignReport,
    run_campaign,
)
from repro.scenarios.registry import (
    Schedule,
    ScenarioGenerator,
    build_columns,
    build_schedule,
    get_scenario,
    register_scenario,
    scenario_names,
    schedule_digest,
)
from repro.scenarios.subject import ScenarioSubject, scenario_subject
from repro.scenarios.sweeps import format_sweep_rows, saturation_sweep

__all__ = [
    "Schedule",
    "ScenarioGenerator",
    "register_scenario",
    "get_scenario",
    "scenario_names",
    "build_columns",
    "build_schedule",
    "schedule_digest",
    "ScenarioSubject",
    "scenario_subject",
    "CampaignConfig",
    "ArmReport",
    "CampaignReport",
    "run_campaign",
    "saturation_sweep",
    "format_sweep_rows",
]

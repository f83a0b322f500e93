"""Saturation-throughput sweeps over the scenario generators.

For each offered load λ the sweep builds the scenario's schedule, runs it
through a store-and-forward engine with a :class:`repro.obs.LinkRecorder`
attached, and reports offered vs accepted load plus the p50/p99 packet
latency and the measured link congestion.  Offered load is packets
injected per node per step of the injection horizon; accepted load is
packets *delivered* per node per step of the actual run (which stretches
past the horizon once queues saturate), so the accepted-load curve
flattens at the saturation throughput while p99 latency turns upward —
the classical open-loop saturation picture, per scenario.

With ``engine="batched"`` (the default) every load point becomes one
lane of a single :class:`repro.routing.batched.BatchedStoreForward` run —
the whole sweep advances in one tensor step loop with per-lane recorders,
producing the same rows as the per-point reference loop (the batched
differential in :mod:`repro.qa` holds the engines to field identity).
The generators' :class:`~repro.routing.api.ScheduleColumns` go to either
engine as they are, and packet, hop and latency counts come from those
columns, so the batched sweep never builds a path tuple.

Results are plain row dicts (the :mod:`repro.analysis.sweep` convention)
and can additionally be labeled into a
:class:`repro.obs.MetricsRegistry` by scenario name.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.hypercube.graph import Hypercube
from repro.obs.recorder import LinkRecorder
from repro.routing.batched import BatchedStoreForward
from repro.routing.simulator import StoreForwardSimulator
from repro.scenarios.registry import build_columns

__all__ = ["saturation_sweep", "format_sweep_rows", "SWEEP_ENGINES"]

SWEEP_ENGINES = ("batched", "reference")


def _percentile(values: Sequence[int], q: float) -> float:
    """Nearest-rank percentile of a sorted sequence (0 when empty)."""
    if not values:
        return 0.0
    k = max(0, min(len(values) - 1, int(round(q * (len(values) - 1)))))
    return float(values[k])


def saturation_sweep(
    scenario: str,
    n: int,
    loads: Sequence[float],
    *,
    horizon: int = 32,
    seed: Any = 0,
    engine: str = "batched",
    metrics: Optional[Any] = None,
    **params: Any,
) -> List[Dict[str, Any]]:
    """Offered vs accepted load and latency percentiles across ``loads``.

    One row per load: ``scenario``, ``load`` (offered λ), ``offered`` /
    ``accepted`` (packets per node per step, measured), ``packets``,
    ``delivered``, ``makespan``, ``latency_p50`` / ``latency_p99`` (steps
    from release to arrival), and ``congestion`` (max packets across any
    directed link).  Deterministic given ``seed``; each load point draws
    from its own namespaced stream.  ``metrics`` (a
    :class:`repro.obs.MetricsRegistry`) gains scenario-labeled series.

    ``engine`` selects ``"batched"`` (every load point as one lane of a
    single batched run, one tensor step loop) or ``"reference"`` (the
    per-point scalar engine, priority tie-break) — identical rows.
    """
    if engine not in SWEEP_ENGINES:
        raise ValueError(
            f"engine must be one of {SWEEP_ENGINES}, got {engine!r}"
        )
    host = Hypercube(n)
    schedules = [
        build_columns(
            scenario,
            host,
            load=load,
            horizon=horizon,
            seed=f"{seed}:{scenario}:{load}",
            **params,
        )
        for load in loads
    ]
    recorders = [LinkRecorder(host) for _ in schedules]
    if engine == "batched":
        results = BatchedStoreForward(host).run_many(
            schedules, recorders=recorders
        )
    else:
        results = [
            StoreForwardSimulator(host, tie_break="priority").run(
                schedule, recorder=recorder
            )
            for schedule, recorder in zip(schedules, recorders)
        ]

    rows: List[Dict[str, Any]] = []
    for load, schedule, result, recorder in zip(
        loads, schedules, results, recorders
    ):
        done = np.array(result.done_steps, dtype=np.int64)
        moved = (done >= 0) & (np.diff(schedule.offsets) > 1)
        latencies = np.sort(done[moved] - schedule.release[moved]).tolist()
        cells = host.num_nodes * horizon
        run_cells = host.num_nodes * max(result.makespan, horizon)
        row = {
            "scenario": scenario,
            "load": load,
            "offered": round(len(schedule) / cells, 4) if cells else 0.0,
            "accepted": (
                round(result.delivered / run_cells, 4) if run_cells else 0.0
            ),
            "packets": len(schedule),
            "delivered": result.delivered,
            "makespan": result.makespan,
            "latency_p50": _percentile(latencies, 0.50),
            "latency_p99": _percentile(latencies, 0.99),
            "congestion": recorder.congestion,
        }
        rows.append(row)
        if metrics is not None:
            metrics.counter(
                "scenarios.packets", scenario=scenario, load=load
            ).inc(len(schedule))
            metrics.counter(
                "scenarios.delivered", scenario=scenario, load=load
            ).inc(result.delivered)
            metrics.gauge(
                "scenarios.accepted_load", scenario=scenario, load=load
            ).set(row["accepted"])
            hist = metrics.histogram(
                "scenarios.latency", scenario=scenario, load=load
            )
            for lat in latencies:
                hist.observe(lat)
    return rows


def format_sweep_rows(rows: Sequence[Dict[str, Any]]) -> str:
    """Fixed-width table of sweep rows (the CLI / benchmark view)."""
    if not rows:
        return "(no rows)"
    cols = [
        "scenario", "load", "offered", "accepted", "packets",
        "makespan", "latency_p50", "latency_p99", "congestion",
    ]
    widths = {
        c: max(len(c), *(len(str(r.get(c, ""))) for r in rows)) for c in cols
    }
    header = "  ".join(c.ljust(widths[c]) for c in cols)
    lines = [header, "-" * len(header)]
    for r in rows:
        lines.append(
            "  ".join(str(r.get(c, "")).ljust(widths[c]) for c in cols)
        )
    return "\n".join(lines)

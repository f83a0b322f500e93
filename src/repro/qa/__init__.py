"""repro.qa — fuzzing, metamorphic and differential QA for the reproduction.

The paper's theorems are checked mechanically by ``verify()`` and the
oracle registry; this package makes those checks *adversarial*:

* :mod:`repro.qa.constructions` — every ``core/`` builder as a seeded
  sampler with shrink candidates;
* :mod:`repro.qa.oracles` — the paper's claimed numbers registered as
  per-kind oracles;
* :mod:`repro.qa.metamorphic` — automorphism-invariance of verification
  reports and simulated metrics;
* :mod:`repro.qa.differential` — field-for-field agreement of the two
  simulator engines, the serving, IDA and schedule-normalization kernels
  against their referees, plus networkx max-flow width cross-checks;
* :mod:`repro.qa.fuzzer` — the sample/check/shrink loop;
* :mod:`repro.qa.corpus` — replayable on-disk reproducers.

CLI: ``repro qa {fuzz,batched,replay,corpus}``.
"""

from repro.qa.constructions import ConstructionSpace, FuzzConstruction, default_space
from repro.qa.corpus import Corpus, CorpusEntry, default_corpus_dir
from repro.qa.differential import (
    cold_start_differential,
    ida_differential,
    max_flow_width_check,
    route_batch_differential,
    schedule_differential,
    verification_differential,
)
from repro.qa.fuzzer import Fuzzer, FuzzFailure, FuzzReport
from repro.qa.metamorphic import map_schedule, metamorphic_check
from repro.qa.schedules import (
    all_host_paths,
    embedding_schedule,
    random_schedule,
    random_worm_schedule,
    schedule_from_jsonable,
    schedule_to_jsonable,
    shrink_schedule,
    shrink_worm_schedule,
)

__all__ = [
    "ConstructionSpace",
    "FuzzConstruction",
    "default_space",
    "Corpus",
    "CorpusEntry",
    "default_corpus_dir",
    "cold_start_differential",
    "ida_differential",
    "max_flow_width_check",
    "route_batch_differential",
    "schedule_differential",
    "verification_differential",
    "Fuzzer",
    "FuzzFailure",
    "FuzzReport",
    "map_schedule",
    "metamorphic_check",
    "all_host_paths",
    "embedding_schedule",
    "random_schedule",
    "random_worm_schedule",
    "schedule_from_jsonable",
    "schedule_to_jsonable",
    "shrink_schedule",
    "shrink_worm_schedule",
]

"""Metamorphic testing: everything must be automorphism-invariant.

``Aut(Q_n)`` (dimension permutations composed with XOR translations) acts
on embeddings and schedules without changing anything the paper measures:
load, dilation, congestion, width, and every simulated delivery quantity.
The metamorphic layer exploits that as a free oracle — push a fuzzed
embedding through random automorphisms and demand

* the relabeled embedding's non-strict :meth:`verify` report lists the
  same invariants with the same outcomes and *identical* metrics, and
* a schedule drawn from the embedding's own paths, mapped hop by hop
  through the automorphism, produces a field-for-field identical
  :class:`~repro.routing.api.SimResult` and the same measured link
  congestion.

The simulation side uses :class:`~repro.routing.batched.BatchedStoreForward`,
whose static-priority tie-break depends only on packet order — never on
link *labels* — so its outcome is exactly isomorphism-invariant (the
reference engine's FIFO tie-break is not: same-step re-enqueue order
follows edge-id order, which relabeling permutes).
"""

from __future__ import annotations

import random
from typing import Any, List, Optional, Tuple

from repro.core.verification import InvariantCheck, VerificationReport
from repro.hypercube.automorphisms import HypercubeAutomorphism, relabel_embedding
from repro.obs.recorder import LinkRecorder
from repro.qa.schedules import Schedule, embedding_schedule
from repro.routing.batched import BatchedStoreForward

__all__ = ["metamorphic_check", "map_schedule"]


def map_schedule(schedule: Schedule, auto: HypercubeAutomorphism) -> Schedule:
    """Push every packet path of ``schedule`` through ``auto`` hop by hop."""
    return [(tuple(auto(v) for v in path), release) for path, release in schedule]


def _report_signature(report: VerificationReport) -> Tuple:
    """What must survive relabeling: check names+outcomes and all metrics."""
    return (
        tuple((c.name, c.passed) for c in report.checks),
        tuple(sorted(report.metrics.items())),
    )


def metamorphic_check(
    emb: Any,
    rng: random.Random,
    images: int = 8,
    simulate: bool = True,
    max_packets: int = 60,
) -> List[InvariantCheck]:
    """Verify ``images`` random automorphism images of ``emb``.

    Returns one :class:`InvariantCheck` per image per property (report
    equality, sim-result equality, congestion equality); the caller treats
    any failed check as a fuzzing finding.  ``simulate=False`` skips the
    simulation side (used when shrinking report-level failures).
    """
    checks: List[InvariantCheck] = []
    base_report = emb.verify(strict=False)
    base_sig = _report_signature(base_report)

    schedule: Optional[Schedule] = None
    base_sim = None
    base_congestion = None
    if simulate:
        schedule = embedding_schedule(emb, rng, max_packets=max_packets)
        recorder = LinkRecorder(host=emb.host)
        base_sim = BatchedStoreForward(emb.host).run(
            schedule, recorder=recorder
        )
        base_congestion = recorder.congestion

    for i in range(images):
        auto = HypercubeAutomorphism.random(emb.host.n, rng)
        try:
            image = relabel_embedding(emb, auto, verify=False)
        except Exception as err:  # noqa: BLE001 - a finding, not a crash
            checks.append(
                InvariantCheck(
                    f"meta:image{i}:relabel",
                    False,
                    f"relabeling raised {type(err).__name__}: {err}",
                )
            )
            continue
        sig = _report_signature(image.verify(strict=False))
        checks.append(
            InvariantCheck(
                f"meta:image{i}:report",
                sig == base_sig,
                "report invariants/metrics changed under automorphism"
                if sig != base_sig
                else f"report invariant under {auto}",
            )
        )
        if not simulate or sig != base_sig:
            continue
        recorder = LinkRecorder(host=emb.host)
        image_sim = BatchedStoreForward(emb.host).run(
            map_schedule(schedule, auto), recorder=recorder
        )
        diff = base_sim.diff_fields(image_sim)
        checks.append(
            InvariantCheck(
                f"meta:image{i}:sim",
                not diff,
                f"SimResult fields {diff} changed under automorphism"
                if diff
                else "simulated metrics invariant",
            )
        )
        checks.append(
            InvariantCheck(
                f"meta:image{i}:congestion",
                recorder.congestion == base_congestion,
                f"measured congestion {recorder.congestion} != {base_congestion}"
                if recorder.congestion != base_congestion
                else "measured congestion invariant",
            )
        )
    return checks

"""The seeded construction fuzzer: sample, check, shrink, persist, replay.

One fuzzing *point* is ``(construction kind, parameter dict, point seed)``.
For each point the fuzzer runs, in order:

1. **build** — the construction builder itself (a sampler only draws
   points the builder accepts, so an exception is a finding);
2. **verify** — the embedding's own non-strict :meth:`verify` report,
   plus the fast/reference verification referee
   (:func:`repro.qa.differential.verification_differential`);
3. **oracle** — the registered per-construction paper oracles
   (:mod:`repro.qa.oracles` via :mod:`repro.core.verification`);
4. **metamorphic** — random automorphism images must preserve the
   verification report and simulated metrics (:mod:`repro.qa.metamorphic`);
5. **differential** — the reference and batched store-and-forward
   engines must agree field-for-field, recorder snapshot included, on a
   schedule drawn from the embedding's paths, checked as a one-lane batch
   (:func:`repro.qa.differential.batched_differential_check`, which also
   shrinks any divergence), the wormhole pair (:class:`WormholeSimulator`
   vs :class:`BatchedWormhole`) must agree on a random worm schedule
   (:func:`repro.qa.differential.batched_wormhole_differential_check`),
   and the serving layer's batched CSR gather must be field-identical
   to per-call routing on a fuzzed request batch
   (:func:`repro.qa.differential.route_batch_differential`);
6. **batched_differential** — the batched tensor engines
   (:mod:`repro.routing.batched`) must reproduce the reference
   engines lane-for-lane on fuzzed schedule batches: every ``SimResult``
   field (including ``done_steps=-1`` fault drops under per-lane
   ``FaultModel``s) and the full wormhole observable (including
   per-lane deadlock state), with shrinking to a minimal failing batch;
7. **cold_start_differential** — the embedding's CSR serialized through
   a real memmapped store file must hydrate field-identical to the
   fresh in-memory export and resolve fuzzed requests identically
   (:func:`repro.qa.differential.cold_start_differential`);
8. **flow** — networkx max-flow cross-examination of claimed widths;
9. **ida_differential** — the table-driven GF(256) IDA kernels must match
   a shift-and-xor dispersal byte for byte and reconstruct fuzzed
   messages from every m-subset of their pieces
   (:func:`repro.qa.differential.ida_differential`);
10. **schedule_differential** — the columnar schedule normalizer both
    packet engines share must match the per-item algorithm field by
    field on every accepted item shape, and raise its exceptions on
    malformed items (:func:`repro.qa.differential.schedule_differential`);
11. **builder_differential** — the array builders of Theorems 1-2 and
    Corollaries 1-3 must export, verify and (once read) hold exactly
    what their dict-of-tuples referees build
    (:func:`repro.qa.differential.builder_differential`; draws nothing).

Stages added later run after the earlier ones, so the earlier stages'
draws from the point seed, which saved reproducers replay, do not depend
on them.

A failing point is shrunk against the construction's own ``shrink``
candidates (greedily, preserving the failing stage) and saved to the
:class:`~repro.qa.corpus.Corpus` as a replayable reproducer.  Every draw
derives from the point seed alone, so ``replay`` reruns the exact
automorphisms and schedules the original finding saw.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro._compat import resolve_rng
from repro.core.verification import run_oracles
from repro.qa import oracles as _oracles  # noqa: F401 - importing registers them
from repro.qa.constructions import ConstructionSpace, default_space
from repro.qa.corpus import Corpus, CorpusEntry
from repro.fault.faults import FaultModel
from repro.qa.differential import (
    batched_differential_check,
    builder_differential,
    batched_wormhole_differential_check,
    cold_start_differential,
    ida_differential,
    max_flow_width_check,
    route_batch_differential,
    schedule_differential,
    verification_differential,
)
from repro.qa.metamorphic import metamorphic_check
from repro.qa.schedules import (
    embedding_schedule,
    random_worm_schedule,
    random_worm_schedule_batch,
    schedule_from_jsonable,
    schedule_to_jsonable,
)

__all__ = ["FuzzFailure", "FuzzReport", "Fuzzer"]

STAGES = (
    "build",
    "verify",
    "oracle",
    "metamorphic",
    "differential",
    "batched_differential",
    "cold_start_differential",
    "flow",
    "ida_differential",
    "schedule_differential",
    "builder_differential",
)


@dataclass
class FuzzFailure:
    """One failing point (possibly already shrunken)."""

    kind: str
    params: Dict
    stage: str
    detail: str
    schedule: Optional[List] = None
    faults: Optional[Dict[str, Any]] = None

    def to_entry(self, point_seed: str) -> CorpusEntry:
        return CorpusEntry(
            kind=self.kind,
            params=dict(self.params),
            stage=self.stage,
            detail=self.detail,
            point_seed=point_seed,
            schedule=self.schedule,
            faults=self.faults,
        )


def _lane_faults(divergence: Any) -> Optional[Dict[str, Any]]:
    """The diverging lane's fault model in :class:`CorpusEntry` form, or
    None when shrinking dropped the faults or the lane never had any."""
    model = divergence.faults[divergence.lane] if divergence.faults else None
    if model is None:
        return None
    return {
        "failed": sorted(model.failed),
        "failed_nodes": sorted(model.failed_nodes),
        "active_from": int(model.active_from),
    }


@dataclass
class FuzzReport:
    """Outcome of one fuzzing run."""

    points: int = 0
    failures: List[CorpusEntry] = field(default_factory=list)
    elapsed_s: float = 0.0
    per_kind: Dict[str, int] = field(default_factory=dict)
    budget_exhausted: bool = False

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        verdict = "OK" if self.ok else f"{len(self.failures)} failure(s)"
        extra = " (budget exhausted)" if self.budget_exhausted else ""
        return (
            f"fuzzed {self.points} point(s) across {len(self.per_kind)} "
            f"construction kind(s) in {self.elapsed_s:.1f}s{extra}: {verdict}"
        )


class Fuzzer:
    """Drives the sample -> check -> shrink -> persist loop.

    ``images`` automorphism images and ``flow_samples`` max-flow probes run
    per point; ``checks`` restricts the stages (mostly for tests).
    """

    def __init__(
        self,
        space: Optional[ConstructionSpace] = None,
        corpus: Optional[Corpus] = None,
        seed: int = 0,
        images: int = 4,
        max_packets: int = 60,
        flow_samples: int = 2,
        checks: Sequence[str] = STAGES,
    ):
        unknown = set(checks) - set(STAGES)
        if unknown:
            raise ValueError(f"unknown check stage(s): {sorted(unknown)}")
        self.space = space if space is not None else default_space()
        self.corpus = corpus
        self.seed = seed
        self.images = images
        self.max_packets = max_packets
        self.flow_samples = flow_samples
        self.checks = tuple(checks)

    # -- one point ----------------------------------------------------------

    def check_point(
        self, kind: str, params: Dict, point_seed: str
    ) -> Optional[FuzzFailure]:
        """Run every enabled stage on one point; None means all passed."""
        construction = self.space.get(kind)
        rng = resolve_rng(point_seed)
        try:
            subject = construction.build(params)
        except Exception as err:  # noqa: BLE001 - builder crash IS the finding
            if "build" not in self.checks:
                return None
            return FuzzFailure(
                kind, params, "build", f"{type(err).__name__}: {err}"
            )

        if "verify" in self.checks:
            report = subject.verify(strict=False)
            if not report.ok:
                first = report.failures[0]
                return FuzzFailure(
                    kind, params, "verify", f"{first.name}: {first.detail}"
                )
            # referee: the vectorized kernels must agree with the scalar walk
            for check in verification_differential(subject):
                if not check.passed:
                    return FuzzFailure(
                        kind, params, "verify", f"{check.name}: {check.detail}"
                    )

        if "oracle" in self.checks:
            for check in run_oracles(kind, subject, params):
                if not check.passed:
                    return FuzzFailure(
                        kind, params, "oracle", f"{check.name}: {check.detail}"
                    )

        if "metamorphic" in self.checks:
            for check in metamorphic_check(
                subject, rng, images=self.images, max_packets=self.max_packets
            ):
                if not check.passed:
                    return FuzzFailure(
                        kind, params, "metamorphic", f"{check.name}: {check.detail}"
                    )

        if "differential" in self.checks:
            schedule = embedding_schedule(
                subject, rng, max_packets=self.max_packets
            )
            divergence = batched_differential_check(subject.host, [schedule])
            if divergence is not None:
                return FuzzFailure(
                    kind,
                    params,
                    "differential",
                    divergence.describe(),
                    schedule=schedule_to_jsonable(
                        divergence.schedules[divergence.lane]
                    ),
                )
            for check in route_batch_differential(subject, rng):
                if not check.passed:
                    return FuzzFailure(
                        kind, params, "differential",
                        f"{check.name}: {check.detail}",
                    )
            worm_schedule = random_worm_schedule(subject.host, rng)
            worm_divergence = batched_wormhole_differential_check(
                subject.host, [worm_schedule]
            )
            if worm_divergence is not None:
                return FuzzFailure(
                    kind, params, "differential",
                    worm_divergence.describe(),
                    schedule=schedule_to_jsonable(
                        worm_divergence.schedules[worm_divergence.lane]
                    ),
                )

        if "batched_differential" in self.checks:
            lanes = rng.randint(2, 4)
            batch = [
                embedding_schedule(
                    subject, rng, max_packets=max(4, self.max_packets // 2)
                )
                for _ in range(lanes)
            ]
            faults = None
            # tiny hosts (Q_1 has a single undirected link) cap the kill
            # count below the 1-2 links the mix otherwise draws
            max_kill = min(2, subject.host.num_edges // 2)
            if max_kill >= 1 and rng.random() < 0.5:
                faults = [
                    FaultModel.random_links(
                        subject.host,
                        k=rng.randint(1, max_kill),
                        rng=rng,
                        active_from=rng.choice([0, 1, 3]),
                    )
                    if rng.random() < 0.5
                    else None
                    for _ in range(lanes)
                ]
            divergence = batched_differential_check(
                subject.host, batch, faults=faults
            )
            if divergence is not None:
                return FuzzFailure(
                    kind,
                    params,
                    "batched_differential",
                    divergence.describe(),
                    schedule=schedule_to_jsonable(
                        divergence.schedules[divergence.lane]
                    ),
                    faults=_lane_faults(divergence),
                )
            worm_batch = random_worm_schedule_batch(subject.host, rng)
            worm_divergence = batched_wormhole_differential_check(
                subject.host, worm_batch
            )
            if worm_divergence is not None:
                return FuzzFailure(
                    kind,
                    params,
                    "batched_differential",
                    worm_divergence.describe(),
                    schedule=schedule_to_jsonable(
                        worm_divergence.schedules[worm_divergence.lane]
                    ),
                )

        if "cold_start_differential" in self.checks:
            for check in cold_start_differential(subject, rng):
                if not check.passed:
                    return FuzzFailure(
                        kind, params, "cold_start_differential",
                        f"{check.name}: {check.detail}",
                    )

        if "flow" in self.checks:
            for check in max_flow_width_check(
                subject, rng, samples=self.flow_samples
            ):
                if not check.passed:
                    return FuzzFailure(
                        kind, params, "flow", f"{check.name}: {check.detail}"
                    )

        if "ida_differential" in self.checks:
            for check in ida_differential(subject, rng):
                if not check.passed:
                    return FuzzFailure(
                        kind, params, "ida_differential",
                        f"{check.name}: {check.detail}",
                    )

        if "schedule_differential" in self.checks:
            for check in schedule_differential(subject, rng):
                if not check.passed:
                    return FuzzFailure(
                        kind, params, "schedule_differential",
                        f"{check.name}: {check.detail}",
                    )

        if "builder_differential" in self.checks:
            for check in builder_differential(kind, params):
                if not check.passed:
                    return FuzzFailure(
                        kind, params, "builder_differential",
                        f"{check.name}: {check.detail}",
                    )
        return None

    # -- shrinking ----------------------------------------------------------

    def shrink(self, failure: FuzzFailure, point_seed: str) -> FuzzFailure:
        """Greedily minimize a failing point, preserving its stage.

        Tries the construction's shrink candidates in order; any candidate
        that still fails at the same stage becomes the new point, until no
        candidate does (a local minimum).  Differential schedules shrink
        separately inside :func:`batched_differential_check`.
        """
        construction = self.space.get(failure.kind)
        improved = True
        while improved:
            improved = False
            for candidate in construction.shrink(failure.params):
                smaller = self.check_point(failure.kind, candidate, point_seed)
                if smaller is not None and smaller.stage == failure.stage:
                    failure = smaller
                    improved = True
                    break
        return failure

    # -- the loop -----------------------------------------------------------

    def run(
        self,
        seeds: int = 200,
        budget_s: Optional[float] = None,
        kinds: Optional[Sequence[str]] = None,
        on_point=None,
    ) -> FuzzReport:
        """Fuzz up to ``seeds`` points within ``budget_s`` wall seconds.

        ``kinds`` restricts sampling to a subset of the space;
        ``on_point(index, kind, failure_or_none)`` is a progress hook.
        Every finding is shrunk and (when the fuzzer has a corpus) saved.
        """
        allowed = list(kinds) if kinds else list(self.space.kinds())
        for kind in allowed:
            self.space.get(kind)  # validate early
        report = FuzzReport()
        start = time.monotonic()
        for index in range(seeds):
            if budget_s is not None and time.monotonic() - start > budget_s:
                report.budget_exhausted = True
                break
            sample_rng = resolve_rng(f"{self.seed}:sample:{index}")
            point_seed = f"{self.seed}:point:{index}"
            kind = allowed[sample_rng.randrange(len(allowed))]
            params = self.space.get(kind).sample(sample_rng)
            report.points += 1
            report.per_kind[kind] = report.per_kind.get(kind, 0) + 1
            failure = self.check_point(kind, params, point_seed)
            if failure is not None:
                failure = self.shrink(failure, point_seed)
                entry = failure.to_entry(point_seed)
                if self.corpus is not None:
                    self.corpus.save(entry)
                report.failures.append(entry)
            if on_point is not None:
                on_point(index, kind, failure)
        report.elapsed_s = time.monotonic() - start
        return report

    # -- replay -------------------------------------------------------------

    def replay(self, entry: CorpusEntry) -> Optional[FuzzFailure]:
        """Re-run a corpus entry's point; None means it no longer fails.

        The stored point seed reproduces the original run's automorphism
        and schedule draws exactly.  For ``differential`` and
        ``batched_differential`` entries the saved minimal lane is
        re-checked directly as well, as a one-lane batch, so a reproducer
        stays meaningful even if the embedding-derived schedule drifts.
        Worm lanes (``(path, num_flits, release)`` items) go to the
        wormhole check, packet lanes to the store-and-forward one, under
        the entry's saved fault model when it has one.
        """
        failure = self.check_point(entry.kind, dict(entry.params), entry.point_seed)
        if failure is not None:
            return failure
        if entry.stage in ("differential", "batched_differential") and entry.schedule:
            construction = self.space.get(entry.kind)
            try:
                subject = construction.build(dict(entry.params))
            except Exception as err:  # noqa: BLE001
                return FuzzFailure(
                    entry.kind, dict(entry.params), "build",
                    f"{type(err).__name__}: {err}",
                )
            lane = schedule_from_jsonable(entry.schedule)
            if len(lane[0]) == 3:
                divergence = batched_wormhole_differential_check(
                    subject.host, [lane]
                )
            else:
                faults = None
                if entry.faults is not None:
                    faults = [
                        FaultModel(
                            subject.host,
                            set(entry.faults["failed"]),
                            set(entry.faults["failed_nodes"]),
                            active_from=entry.faults["active_from"],
                        )
                    ]
                divergence = batched_differential_check(
                    subject.host, [lane], faults=faults
                )
            if divergence is not None:
                return FuzzFailure(
                    entry.kind,
                    dict(entry.params),
                    entry.stage,
                    divergence.describe(),
                    schedule=schedule_to_jsonable(
                        divergence.schedules[divergence.lane]
                    ),
                    faults=_lane_faults(divergence),
                )
        return None

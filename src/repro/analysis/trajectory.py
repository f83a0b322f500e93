"""Recorded performance trajectory: fast engines timed against their references.

The repo carries five fast/reference pairs — vectorized verification vs
the scalar ``verify_reference`` walk, :class:`BatchedStoreForward` vs
:class:`StoreForwardSimulator`, :class:`BatchedWormhole` vs
:class:`WormholeSimulator` (single schedules, and 100-lane batches
against the scalar loop), the service's batched
``route_batch()`` vs its per-call ``route()``, and the cold start of a
fresh service over a memmapped store artifact vs a full rebuild of the
same embedding.  This module times both sides of each pair on
fixed named workloads and writes the result as machine-readable *points*
(``workload``, ``engine``, ``wall_s``, ``speedup``) to ``BENCH_perf.json``.

The committed ``BENCH_perf.json`` at the repo root is the performance
trajectory to date; :func:`compare_to_baseline` gates CI on it.  The gate
compares *speedup ratios*, not wall times — ratios are what the vectorized
layer promises and they transfer across machines, where absolute times do
not.  Each workload also cross-checks that the two engines still agree on
the answer, so a "fast" engine cannot buy its speedup with a wrong result.

Run via ``repro bench`` or ``python benchmarks/trajectory.py``.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

__all__ = [
    "SCHEMA_VERSION",
    "Workload",
    "default_workloads",
    "run_trajectory",
    "write_trajectory",
    "load_trajectory",
    "compare_to_baseline",
    "format_points",
]

SCHEMA_VERSION = 1


@dataclass
class Workload:
    """One named fast-vs-reference timing subject.

    ``build()`` constructs the shared input once (untimed); ``fast(ctx)``
    and ``reference(ctx)`` each run one engine to completion and return its
    answer.  ``agree(ref_out, fast_out)`` decides whether the answers
    match; ``reference=None`` marks a scale probe timed on the fast engine
    alone (e.g. the Q_20 verification, where the scalar walk is the point
    of the exercise to avoid).  ``quick`` workloads form the CI smoke
    subset; ``repeats=1`` opts heavyweight probes out of repetition.
    """

    name: str
    description: str
    build: Callable[[], Any]
    fast: Callable[[Any], Any]
    reference: Optional[Callable[[Any], Any]] = None
    agree: Optional[Callable[[Any, Any], bool]] = None
    quick: bool = False
    repeats: Optional[int] = None


def _verify_signature(report: Any) -> tuple:
    return (
        tuple((c.name, c.passed) for c in report.checks),
        tuple(sorted(report.metrics.items())),
    )


def _verify_workload(name: str, n: int, quick: bool, scale_only: bool = False,
                     repeats: Optional[int] = None) -> Workload:
    def build():
        from repro.core import embed_cycle_load1

        return embed_cycle_load1(n)

    return Workload(
        name=name,
        description=(
            f"multipath-cycle verification on Q_{n} "
            f"({'vectorized kernels only' if scale_only else 'vectorized kernels vs scalar walk'})"
        ),
        build=build,
        fast=lambda emb: emb.verify(strict=False),
        reference=None if scale_only else (
            lambda emb: emb.verify_reference(strict=False)
        ),
        agree=lambda ref, fast: _verify_signature(ref) == _verify_signature(fast),
        quick=quick,
        repeats=repeats,
    )


def _worm_work(n: int, num_flits: int, overlays: int) -> tuple:
    from repro.hypercube.graph import Hypercube
    from repro.routing.permutation import dimension_order_path, random_permutation

    work = []
    for s in range(overlays):
        perm = random_permutation(1 << n, seed=s + 1)
        work += [
            (dimension_order_path(n, u, v), num_flits, s + 1)
            for u, v in enumerate(perm)
            if u != v
        ]
    return Hypercube(n), work


def _run_reference_worms(ctx) -> int:
    from repro.routing.wormhole import WormholeSimulator

    host, work = ctx
    sim = WormholeSimulator(host)
    for path, flits, release in work:
        sim.inject(path, flits, release)
    return sim.run()


def _wormhole_workload(name: str, n: int, num_flits: int, overlays: int,
                       quick: bool) -> Workload:
    from repro.routing.batched import BatchedWormhole

    return Workload(
        name=name,
        description=(
            f"Section-7 wormhole traffic on Q_{n}: {overlays} overlaid "
            f"random permutations, M={num_flits} flits, e-cube routes"
        ),
        build=lambda: _worm_work(n, num_flits, overlays),
        fast=lambda ctx: BatchedWormhole(ctx[0]).run(ctx[1]).makespan,
        reference=_run_reference_worms,
        agree=lambda ref, fast: ref == fast,
        quick=quick,
    )


def _batched_worm_work(n: int, lanes: int, worms: int, num_flits: int) -> tuple:
    from repro.hypercube.graph import Hypercube
    from repro.routing.permutation import dimension_order_path, random_permutation

    comp = (1 << n) - 1
    batches = []
    for b in range(lanes):
        srcs = random_permutation(1 << n, seed=b + 1)[:worms]
        batches.append(
            [
                (dimension_order_path(n, u, u ^ comp), num_flits, 1 + (i % 4))
                for i, u in enumerate(srcs)
            ]
        )
    return Hypercube(n), batches


def _lane_outcome(makespan, recorder) -> tuple:
    return (
        makespan,
        tuple(
            sorted(
                (int(e), int(c))
                for e, c in recorder.link_transmissions.items()
            )
        ),
    )


def _batched_wormhole_workload(name: str, n: int, lanes: int, worms: int,
                               num_flits: int, quick: bool) -> Workload:
    from repro.obs import LinkRecorder
    from repro.routing.batched import BatchedWormhole
    from repro.routing.wormhole import WormholeSimulator

    def fast(ctx):
        host, batches = ctx
        recs = [LinkRecorder(host=host) for _ in batches]
        outs = BatchedWormhole(host).run_many(batches, recorders=recs)
        return [
            _lane_outcome(o.makespan, r) for o, r in zip(outs, recs)
        ]

    def reference(ctx):
        host, batches = ctx
        res = []
        for sched in batches:
            sim = WormholeSimulator(host)
            rec = LinkRecorder(host=host)
            for path, flits, release in sched:
                sim.inject(path, flits, release)
            res.append(_lane_outcome(sim.run(recorder=rec), rec))
        return res

    return Workload(
        name=name,
        description=(
            f"{lanes} independent Q_{n} wormhole runs in one batched call: "
            f"{worms} complement-traffic worms per lane, M={num_flits} "
            f"flits, per-lane congestion recorders vs the scalar loop"
        ),
        build=lambda: _batched_worm_work(n, lanes, worms, num_flits),
        fast=fast,
        reference=reference,
        agree=lambda ref, fast_out: ref == fast_out,
        quick=quick,
        repeats=1,
    )


def _storeforward_workload(name: str, n: int, reps: int, quick: bool) -> Workload:
    from repro.hypercube.graph import Hypercube
    from repro.routing.batched import BatchedStoreForward
    from repro.routing.permutation import dimension_order_path, random_permutation
    from repro.routing.simulator import StoreForwardSimulator

    def build():
        perm = random_permutation(1 << n, seed=1)
        paths = [
            dimension_order_path(n, u, v) for u, v in enumerate(perm) if u != v
        ]
        work = [(p, r + 1) for p in paths for r in range(reps)]
        return Hypercube(n), work

    return Workload(
        name=name,
        description=(
            f"store-and-forward permutation traffic on Q_{n}, "
            f"{reps} staggered waves (priority tie-break on both engines)"
        ),
        build=build,
        fast=lambda ctx: BatchedStoreForward(ctx[0]).run(ctx[1]).makespan,
        reference=lambda ctx: StoreForwardSimulator(
            ctx[0], tie_break="priority"
        ).run(ctx[1]).makespan,
        agree=lambda ref, fast: ref == fast,
        quick=quick,
    )


def _service_workload(name: str, n: int, requests: int, quick: bool) -> Workload:
    def build():
        import tempfile

        from repro._compat import resolve_rng
        from repro.service.api import RoutingService
        from repro.service.registry import EmbeddingRegistry
        from repro.service.specs import EmbeddingSpec, RouteRequest

        registry = EmbeddingRegistry(
            cache_dir=tempfile.mkdtemp(prefix="repro-bench-")
        )
        service = RoutingService(registry=registry)
        spec = EmbeddingSpec.make("cycle", n=n)
        shard = service.shard_for(spec)  # build + publish outside the timer
        edges = shard.csr.edges
        stream = resolve_rng(0)
        batch = []
        for _ in range(requests):
            u, v = edges[stream.randrange(len(edges))]
            batch.append((v, u) if stream.random() < 0.5 else (u, v))
        service.route_batch(spec, batch[:1])  # warm the resolve path
        return service, spec, [RouteRequest(edge) for edge in batch]

    def agree(ref, fast_out):
        if len(ref) != len(fast_out.requests):
            return False
        return all(
            resp.paths == fast_out.paths(i) for i, resp in enumerate(ref)
        )

    return Workload(
        name=name,
        description=(
            f"one route_batch() vs {requests} per-call route()s on the "
            f"Q_{n} multipath cycle (both orientations, store-file shard)"
        ),
        build=build,
        fast=lambda ctx: ctx[0].route_batch(ctx[1], ctx[2]),
        reference=lambda ctx: [ctx[0].route(ctx[1], r) for r in ctx[2]],
        agree=agree,
        quick=quick,
    )


def _cold_start_workload(name: str, n: int, requests: int, quick: bool) -> Workload:
    def build():
        import tempfile

        from repro._compat import resolve_rng
        from repro.service.registry import EmbeddingRegistry
        from repro.service.specs import EmbeddingSpec

        cache_dir = tempfile.mkdtemp(prefix="repro-coldstart-")
        spec = EmbeddingSpec.make("cycle", n=n)
        # warm the on-disk store artifact once, outside the timer: build +
        # verify + admit is exactly the cost the cold start must not pay
        registry = EmbeddingRegistry(cache_dir=cache_dir)
        registry.get_or_build(spec)
        view = registry.get_store(spec)
        edges = view.csr.edges
        stream = resolve_rng(0)
        batch = []
        for _ in range(requests):
            u, v = edges[stream.randrange(len(edges))]
            batch.append((v, u) if stream.random() < 0.5 else (u, v))
        view.close()
        return cache_dir, spec, batch

    def _serve(cache_dir, spec, batch):
        from repro.service.api import RoutingService
        from repro.service.registry import EmbeddingRegistry

        svc = RoutingService(registry=EmbeddingRegistry(cache_dir=cache_dir))
        out = svc.route_batch(spec, batch)
        return out.nodes, out.path_offsets, out.request_offsets

    def fast(ctx):
        # a fresh service over the warm cache dir: registry open + memmap
        # hydrate + one batched resolve, i.e. process start -> first answer
        cache_dir, spec, batch = ctx
        return _serve(cache_dir, spec, batch)

    def reference(ctx):
        # the same first answer without the store tier: full rebuild
        import tempfile

        _, spec, batch = ctx
        return _serve(tempfile.mkdtemp(prefix="repro-coldref-"), spec, batch)

    def agree(ref, fast_out):
        import numpy as np

        return all(np.array_equal(r, f) for r, f in zip(ref, fast_out))

    return Workload(
        name=name,
        description=(
            f"cold start on the Q_{n} multipath cycle: fresh service over "
            f"the memmapped store artifact vs full rebuild, each serving "
            f"one route_batch() of {requests} requests"
        ),
        build=build,
        fast=fast,
        reference=reference,
        agree=agree,
        quick=quick,
        repeats=1,
    )


def default_workloads() -> List[Workload]:
    """The recorded trajectory: quick CI subset plus the full-scale probes.

    The full set carries the acceptance anchors: Q_16 multipath-cycle
    verification (claimed >= 5x), the Q_12 Section-7 wormhole workload
    (claimed >= 3x), and the Q_20 verification completing at all.
    """
    return [
        _verify_workload("verify:cycle-multipath:q12", 12, quick=True),
        _verify_workload("verify:cycle-multipath:q16", 16, quick=False),
        _verify_workload(
            "verify:cycle-multipath:q20", 20, quick=False,
            scale_only=True, repeats=1,
        ),
        _storeforward_workload("storeforward:q10:perm-x4", 10, reps=4, quick=True),
        _service_workload("service:route-batch:q12", 12, requests=16384, quick=True),
        _cold_start_workload(
            "service:cold-start:q20", 20, requests=16384, quick=True,
        ),
        _wormhole_workload("wormhole:q10:m16x2", 10, num_flits=16, overlays=2, quick=True),
        _wormhole_workload("wormhole:q12:m16x4", 12, num_flits=16, overlays=4, quick=False),
        _batched_wormhole_workload(
            "batched:q12:wormhole-x100", 12,
            lanes=100, worms=64, num_flits=128, quick=True,
        ),
    ]


def _best_time(fn: Callable[[Any], Any], ctx: Any, repeats: int) -> tuple:
    best = None
    out = None
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        out = fn(ctx)
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best, out


def run_trajectory(
    workloads: Optional[Sequence[Workload]] = None,
    names: Optional[Sequence[str]] = None,
    quick: bool = False,
    repeats: int = 3,
    on_workload: Optional[Callable[[Workload, List[Dict]], None]] = None,
) -> Dict:
    """Time the selected workloads; returns the ``BENCH_perf.json`` payload.

    ``quick=True`` restricts to the CI smoke subset; ``names`` restricts to
    an explicit list (checked against the known names).  Each workload
    yields one point per engine; the fast point carries the measured
    speedup (``None`` for scale probes with no reference side).  An
    engine-disagreement turns into a failed point (``agree: false``) rather
    than an exception, so the regression gate can report it.
    """
    selected = list(workloads) if workloads is not None else default_workloads()
    if names:
        known = {w.name for w in selected}
        unknown = [n for n in names if n not in known]
        if unknown:
            raise ValueError(
                f"unknown workload(s) {unknown}; known: {sorted(known)}"
            )
        selected = [w for w in selected if w.name in names]
    elif quick:
        selected = [w for w in selected if w.quick]

    points: List[Dict] = []
    for w in selected:
        ctx = w.build()
        runs = w.repeats if w.repeats is not None else repeats
        fast_s, fast_out = _best_time(w.fast, ctx, runs)
        ref_s = None
        agree = None
        if w.reference is not None:
            ref_s, ref_out = _best_time(w.reference, ctx, runs)
            agree = bool(w.agree(ref_out, fast_out)) if w.agree else None
            points.append(
                {
                    "workload": w.name,
                    "engine": "reference",
                    "wall_s": round(ref_s, 6),
                    "speedup": None,
                }
            )
        fast_point = {
            "workload": w.name,
            "engine": "fast",
            "wall_s": round(fast_s, 6),
            "speedup": round(ref_s / fast_s, 3) if ref_s is not None else None,
        }
        if agree is not None:
            fast_point["agree"] = agree
        points.append(fast_point)
        if on_workload is not None:
            on_workload(w, points[-2 if ref_s is not None else -1:])
    return {
        "schema": SCHEMA_VERSION,
        "quick": bool(quick),
        "repeats": repeats,
        "workloads": {w.name: w.description for w in selected},
        "points": points,
    }


def write_trajectory(payload: Dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def load_trajectory(path: str) -> Dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def compare_to_baseline(
    current: Dict, baseline: Dict, max_regression: float = 0.25
) -> List[str]:
    """Problems in ``current`` relative to ``baseline``; empty means pass.

    A fast point regresses when its speedup drops more than
    ``max_regression`` below the baseline speedup for the same workload
    (ratios transfer across machines; wall times do not).  Disagreeing
    engines and workloads that lost their speedup entirely are always
    problems.  Baseline workloads missing from the current run are ignored
    — the quick CI subset checks only what it measures.
    """
    problems: List[str] = []
    base_speedup = {
        p["workload"]: p["speedup"]
        for p in baseline.get("points", [])
        if p.get("engine") == "fast" and p.get("speedup") is not None
    }
    for p in current.get("points", []):
        if p.get("engine") != "fast":
            continue
        name = p["workload"]
        if p.get("agree") is False:
            problems.append(f"{name}: engines disagree on the answer")
        base = base_speedup.get(name)
        if base is None:
            continue
        cur = p.get("speedup")
        if cur is None:
            problems.append(f"{name}: no speedup measured (baseline {base}x)")
            continue
        floor = base * (1.0 - max_regression)
        if cur < floor:
            problems.append(
                f"{name}: speedup {cur}x fell below {floor:.2f}x "
                f"(baseline {base}x, max regression {max_regression:.0%})"
            )
    return problems


def format_points(payload: Dict) -> str:
    """Human-readable table of a trajectory payload."""
    rows = []
    by_workload: Dict[str, Dict[str, Dict]] = {}
    for p in payload.get("points", []):
        by_workload.setdefault(p["workload"], {})[p["engine"]] = p
    for name, engines in by_workload.items():
        ref = engines.get("reference")
        fast = engines.get("fast", {})
        speedup = fast.get("speedup")
        rows.append(
            (
                name,
                f"{ref['wall_s']:.3f}s" if ref else "-",
                f"{fast.get('wall_s', float('nan')):.3f}s",
                f"{speedup}x" if speedup is not None else "-",
                {True: "yes", False: "NO", None: "-"}[fast.get("agree")],
            )
        )
    headers = ("workload", "reference", "fast", "speedup", "agree")
    widths = [
        max(len(str(h)), max((len(str(r[i])) for r in rows), default=0))
        for i, h in enumerate(headers)
    ]
    lines = ["  ".join(str(h).ljust(w) for h, w in zip(headers, widths))]
    lines.append("-" * len(lines[0]))
    for r in rows:
        lines.append("  ".join(str(c).ljust(w) for c, w in zip(r, widths)))
    return "\n".join(lines)

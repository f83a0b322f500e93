"""Differential testing: two engines, one answer — plus a max-flow referee.

Each simulation semantics has one reference engine, the referee, and one
fast engine from :mod:`repro.routing.batched`.  The reference
:class:`~repro.routing.simulator.StoreForwardSimulator` (run with the
``"priority"`` tie-break) and
:class:`~repro.routing.batched.BatchedStoreForward` implement the same
synchronous link-bound model with the same winner rule (lowest injection
index per link per step), so on any unit-service schedule they must
return *field-for-field identical* :class:`~repro.routing.api.SimResult`s
and recorder snapshots.  :func:`batched_differential_check` asserts exactly
that lane by lane, with per-lane fault models, and on divergence shrinks
the batch to a minimal reproducer before reporting.  A single schedule is
checked as a one-lane batch: ``batched_differential_check(host,
[schedule])``.

The same contract holds at flit granularity: the reference
:class:`~repro.routing.wormhole.WormholeSimulator` and
:class:`~repro.routing.batched.BatchedWormhole` implement identical
wormhole semantics and answer the same ``run_many``, so
:func:`batched_wormhole_differential_check` runs a batch through both and
demands identical makespans, per-worm final states, link ownership *and*
recorder snapshots in every lane — and identical deadlocks, since a
schedule that deadlocks one engine must deadlock the other at the same
step.

:func:`verification_differential` referees the third fast/reference pair:
the vectorized ``verify()`` kernels against the scalar
``verify_reference()`` walk, compared signature-for-signature (check
names + outcomes, all metrics).

:func:`route_batch_differential` referees the serving layer's fourth
fast/reference pair: the flat CSR gather behind
:meth:`repro.service.api.RoutingService.route_batch` against per-call
:func:`repro.service.api.disjoint_paths`, on a fuzzed batch of guest
edges drawn in both orientations — the batch answer must be
*field-identical*, path for path, node for node.

:func:`ida_differential` referees the fault-tolerant path's kernels:
table-driven :func:`~repro.fault.ida.disperse` against a dispersal
computed from the field's definition (shift-and-xor products reduced by
``0x11B``, no tables), and :func:`~repro.fault.ida.reconstruct` against
the message itself, from every m-subset of the pieces.

:func:`builder_differential` referees the array builders of Theorems 1-2
and Corollaries 1-3 against the dict-of-tuples builders they replaced:
the two CSR exports must be identical array for array (digest included)
while the array embedding's dicts are still unbuilt, then the two
verification reports, then the dicts themselves, key order included.

:func:`schedule_differential` referees what both packet engines share,
so no engine pair can: the single-pass columnar
:func:`~repro.routing.api.normalize_schedule` against the per-item
algorithm that builds one :class:`~repro.routing.api.SimRequest` per
item, on every accepted item shape and on malformed items, and on the
same schedules given as :class:`~repro.routing.api.ScheduleColumns`, the
shape the traffic generators emit.

Independently, :func:`max_flow_width_check` cross-examines claimed
edge-disjoint widths with an algorithm that shares no code with the
verifier: networkx max-flow over the directed hypercube with unit
capacities.  For a width-w bundle between host images u, v the whole
host must admit a u->v flow of at least w, and the subgraph of *only*
the bundle's own directed edges must admit exactly ``len(paths)`` —
anything less means the paths were not truly disjoint, anything more
means the bundle double-counted an edge.
"""

from __future__ import annotations

import itertools
import math
import random
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.verification import InvariantCheck
from repro.fault.ida import disperse, reconstruct
from repro.hypercube.pathcode import flatten_paths
from repro.obs.recorder import LinkRecorder
from repro.qa.schedules import (
    Schedule,
    WormSchedule,
    embedding_schedule,
    shrink_batch,
    shrink_schedule,
    shrink_worm_schedule,
)
from repro.routing.api import (
    ScheduleColumns,
    SimRequest,
    SimResult,
    normalize_schedule,
)
from repro.routing.batched import BatchedStoreForward, BatchedWormhole
from repro.routing.simulator import StoreForwardSimulator
from repro.routing.wormhole import WormholeSimulator

__all__ = [
    "BatchDivergence",
    "builder_differential",
    "batched_differential_check",
    "batched_wormhole_differential_check",
    "verification_differential",
    "route_batch_differential",
    "cold_start_differential",
    "gf256_mul_reference",
    "ida_differential",
    "schedule_differential",
    "max_flow_width_check",
]


# -- wormhole engines --------------------------------------------------------


def _worm_outcomes(engine: Any, batch: List[WormSchedule]) -> List[Dict[str, Any]]:
    """Every lane's observable on either wormhole engine's ``run_many``.

    It covers every surface the engines share: the makespan (or the
    deadlock message), each worm's final ``(done_step, head_link,
    flits_crossed)``, the surviving link-ownership map, and the recorder
    snapshot (per-link flit counts + delivery histogram).
    """
    recs = [LinkRecorder(host=engine.host) for _ in batch]
    outs = engine.run_many(batch, recorders=recs)
    return [
        {
            "makespan": out.makespan,
            "deadlock": out.deadlock,
            "worms": tuple(
                (w.done_step, w.head_link, tuple(w.flits_crossed))
                for w in out.worms
            ),
            "owner": out.owner,
            "recorder": rec.snapshot(),
        }
        for out, rec in zip(outs, recs)
    ]


# -- batched tensor engines --------------------------------------------------


@dataclass
class BatchDivergence:
    """A batch on which the batched engine disagrees with the reference.

    ``lane`` is the index of the first diverging lane in the (already
    minimized) ``schedules``; ``reference``/``fast`` are that lane's two
    outcomes — ``SimResult``-like for store-and-forward, observable dicts
    for wormhole.  ``fields`` names what differs ("recorder" covers the
    per-lane congestion snapshot).
    """

    host_n: int
    engine: str
    schedules: List[List]
    faults: Optional[List[Any]]
    lane: int
    fields: Tuple[str, ...]
    reference: Any
    fast: Any

    def describe(self) -> str:
        sizes = [len(lane) for lane in self.schedules]
        return (
            f"{self.engine} batch diverges on Q_{self.host_n} "
            f"(lanes={sizes}, faults={'yes' if self.faults else 'no'}) at "
            f"lane {self.lane} on {self.fields}: "
            f"reference {self.reference} vs batched {self.fast}"
        )


def _batch_diverging_lane(
    host: Any,
    batch: List[Schedule],
    faults: Optional[List[Any]],
    batched_cls: Optional[type] = None,
) -> Optional[Tuple[int, Tuple[str, ...], SimResult, SimResult]]:
    """First lane where run_many() differs from the per-lane reference.

    Identity is total per lane: every ``SimResult`` measured field
    (makespan, delivered, injected, steps, ``done_steps`` including the
    ``-1`` fault-drop sentinel) plus the recorder's congestion snapshot
    (the reference's per-link queue peaks have no batched counterpart and
    are left out).
    """
    if batched_cls is None:
        # resolved at call time so tests can swap in a sabotaged engine
        batched_cls = BatchedStoreForward
    batch_recs = [LinkRecorder(host=host) for _ in batch]
    results = batched_cls(host).run_many(
        batch, recorders=batch_recs, faults=faults
    )
    for i, schedule in enumerate(batch):
        ref_rec = LinkRecorder(host=host)
        reference = StoreForwardSimulator(host, tie_break="priority").run(
            schedule,
            recorder=ref_rec,
            faults=faults[i] if faults else None,
        )
        fields = reference.diff_fields(results[i])
        if fields:
            return i, fields, reference, results[i]
        ref_rec.queue_peak.clear()
        if ref_rec.snapshot() != batch_recs[i].snapshot():
            return i, ("recorder",), reference, results[i]
    return None


def batched_differential_check(
    host: Any,
    batch: List[Schedule],
    faults: Optional[List[Any]] = None,
    batched_cls: Optional[type] = None,
) -> Optional[BatchDivergence]:
    """None when every lane matches the reference engine; else a minimized
    :class:`BatchDivergence`.

    Shrinking is greedy over :func:`repro.qa.schedules.shrink_batch`
    (drop lane halves, drop single lanes, then shrink one lane at a
    time), interleaved with dropping the fault models entirely — the
    minimal reproducer is usually a single short lane, often fault-free.
    """
    found = _batch_diverging_lane(host, batch, faults, batched_cls)
    if found is None:
        return None
    current = [
        list(zip(lane.paths, lane.release.tolist()))
        if isinstance(lane, ScheduleColumns)
        else [(tuple(p), int(r)) for p, r in lane]
        for lane in batch
    ]
    cur_faults = list(faults) if faults else None

    def lanes_and_faults(candidate):
        # lane-drop candidates shorten the batch; faults must follow.
        # shrink_batch preserves lane order, so align by lane identity.
        if cur_faults is None or len(candidate) == len(current):
            return cur_faults
        kept, j = [], 0
        for lane in candidate:
            while j < len(current) and current[j] is not lane:
                j += 1
            if j < len(current):
                kept.append(cur_faults[j])
                j += 1
            else:
                return None  # rewritten lane: keep faults positionally
        return kept

    shrinking = True
    while shrinking:
        shrinking = False
        if cur_faults is not None:
            if _batch_diverging_lane(host, current, None, batched_cls) is not None:
                cur_faults = None
                shrinking = True
                continue
        for candidate in shrink_batch(current, shrink_schedule):
            cand_faults = lanes_and_faults(candidate)
            if cand_faults is None and cur_faults is not None:
                cand_faults = cur_faults[: len(candidate)] if len(
                    candidate
                ) == len(current) else None
                if cand_faults is None:
                    continue
            if _batch_diverging_lane(
                host, candidate, cand_faults, batched_cls
            ) is not None:
                current = candidate
                cur_faults = cand_faults
                shrinking = True
                break
    found = _batch_diverging_lane(host, current, cur_faults, batched_cls)
    assert found is not None
    lane, fields, reference, fast = found
    return BatchDivergence(
        host.n,
        "store-forward",
        current,
        cur_faults,
        lane,
        fields,
        reference.measured(),
        fast.measured(),
    )


def _batched_worm_lane(
    host: Any, batch: List[WormSchedule], buffer_capacity: int
) -> Optional[Tuple[int, Tuple[str, ...], Dict[str, Any], Dict[str, Any]]]:
    """First lane where BatchedWormhole differs from WormholeSimulator."""
    fast = _worm_outcomes(BatchedWormhole(host, buffer_capacity), batch)
    reference = _worm_outcomes(WormholeSimulator(host, buffer_capacity), batch)
    for i, (ref, got) in enumerate(zip(reference, fast)):
        fields = tuple(k for k in ref if ref[k] != got[k])
        if fields:
            return i, fields, ref, got
    return None


def batched_wormhole_differential_check(
    host: Any, batch: List[WormSchedule], buffer_capacity: int = 1
) -> Optional[BatchDivergence]:
    """None when every wormhole lane matches WormholeSimulator; else
    minimized.

    Agreement is the full wormhole observable per lane — makespan or the
    deadlock message (same step, same worm count), per-worm final state,
    surviving link ownership, recorder snapshot.  A deadlocked lane must
    freeze in the batched engine exactly where the reference raised.
    """
    if _batched_worm_lane(host, batch, buffer_capacity) is None:
        return None
    current = [
        [(tuple(p), int(m), int(r)) for p, m, r in lane] for lane in batch
    ]
    shrinking = True
    while shrinking:
        shrinking = False
        for candidate in shrink_batch(current, shrink_worm_schedule):
            if _batched_worm_lane(host, candidate, buffer_capacity) is not None:
                current = candidate
                shrinking = True
                break
    found = _batched_worm_lane(host, current, buffer_capacity)
    assert found is not None
    lane, fields, reference, fast = found
    return BatchDivergence(
        host.n,
        "wormhole",
        current,
        None,
        lane,
        fields,
        {k: reference[k] for k in fields},
        {k: fast[k] for k in fields},
    )


# -- verification kernels ----------------------------------------------------


def verification_differential(emb: Any) -> List[InvariantCheck]:
    """Referee the vectorized verify against the scalar reference walk.

    Both must produce the same check names with the same outcomes in the
    same order, and identical metrics.  Failure *details* are allowed to
    differ when several invariants are broken at once (batch checking may
    pick a different offender than the per-hop walk), so details are
    compared only on fully passing reports, where they are deterministic.
    Embeddings without a ``verify_reference`` contribute no checks.
    """
    if not hasattr(emb, "verify_reference"):
        return []
    fast = emb.verify(strict=False)
    reference = emb.verify_reference(strict=False)
    checks: List[InvariantCheck] = []
    fast_sig = tuple((c.name, c.passed) for c in fast.checks)
    ref_sig = tuple((c.name, c.passed) for c in reference.checks)
    checks.append(
        InvariantCheck(
            "diff:verify:checks",
            fast_sig == ref_sig,
            f"vectorized checks {fast_sig} != reference {ref_sig}"
            if fast_sig != ref_sig
            else f"{len(fast_sig)} checks agree with the scalar referee",
        )
    )
    fast_metrics = tuple(sorted(fast.metrics.items()))
    ref_metrics = tuple(sorted(reference.metrics.items()))
    checks.append(
        InvariantCheck(
            "diff:verify:metrics",
            fast_metrics == ref_metrics,
            f"vectorized metrics {fast_metrics} != reference {ref_metrics}"
            if fast_metrics != ref_metrics
            else "metrics agree with the scalar referee",
        )
    )
    if fast.ok and reference.ok:
        fast_details = tuple(c.detail for c in fast.checks)
        ref_details = tuple(c.detail for c in reference.checks)
        checks.append(
            InvariantCheck(
                "diff:verify:details",
                fast_details == ref_details,
                "passing-report details differ from the scalar referee"
                if fast_details != ref_details
                else "passing details agree with the scalar referee",
            )
        )
    return checks


def route_batch_differential(
    emb: Any, rng: random.Random, requests: int = 32
) -> List[InvariantCheck]:
    """Referee the flatten and the batched CSR gather against per-call lookup.

    Every bundle of :func:`~repro.core.fast_verify.flatten_embedding`,
    each path turned by its reverse flag, must equal
    :func:`repro.service.api.disjoint_paths` for the bundle's edge.  Then
    ``requests`` guest edges (each served in a random orientation) are
    resolved in one :meth:`~repro.core.fast_verify.PathCSR.take`, and the
    slice each request owns must equal per-call routing for that edge —
    same bundle order, same path order, same nodes.  Subjects that are
    not embeddings (simulation scenarios route by packet id, not guest
    edge) contribute no checks.
    """
    from repro.core.embedding import (
        Embedding,
        MultiCopyEmbedding,
        MultiPathEmbedding,
    )
    from repro.core.fast_verify import embedding_csr, flatten_embedding
    from repro.service.api import disjoint_paths

    if not isinstance(emb, (Embedding, MultiCopyEmbedding, MultiPathEmbedding)):
        return []
    layout = flatten_embedding(emb)
    flat, starts = layout.nodes.tolist(), layout.path_offsets.tolist()
    bounds, flips = layout.bundle_offsets.tolist(), layout.path_reversed.tolist()
    wrong = [
        edge
        for g, edge in enumerate(layout.edges)
        if tuple(
            tuple(flat[starts[p] : starts[p + 1]][:: -1 if flips[p] else 1])
            for p in range(bounds[g], bounds[g + 1])
        )
        != tuple(tuple(p) for p in disjoint_paths(emb, edge))
    ]
    flatten_check = InvariantCheck(
        "diff:batch:flatten",
        not wrong,
        f"flattened bundle of {wrong[0]} differs from per-call routing"
        if wrong
        else f"{len(layout.edges)} flattened bundle(s) agree with per-call routing",
    )
    csr = embedding_csr(emb)
    if not csr.edges:
        return [flatten_check]
    batch = []
    for _ in range(requests):
        u, v = csr.edges[rng.randrange(len(csr.edges))]
        batch.append((v, u) if rng.random() < 0.5 else (u, v))
    nodes, path_offsets, request_offsets = csr.take(batch)
    checks: List[InvariantCheck] = []
    for i, edge in enumerate(batch):
        expected = tuple(tuple(p) for p in disjoint_paths(emb, edge))
        lo, hi = int(request_offsets[i]), int(request_offsets[i + 1])
        got = tuple(
            tuple(nodes[path_offsets[j] : path_offsets[j + 1]].tolist())
            for j in range(lo, hi)
        )
        if got != expected:
            checks.append(
                InvariantCheck(
                    f"diff:batch:{edge}",
                    False,
                    f"batched gather returned {got} but per-call routing "
                    f"returned {expected}",
                )
            )
    checks.append(
        InvariantCheck(
            "diff:batch",
            not checks,
            f"{len(checks)} of {len(batch)} batched request(s) diverge "
            f"from per-call routing"
            if checks
            else f"{len(batch)} batched request(s) agree with per-call routing",
        )
    )
    return [flatten_check] + checks


def cold_start_differential(
    emb: Any, rng: random.Random, requests: int = 16
) -> List[InvariantCheck]:
    """Referee the memmapped store tier against the freshly built CSR.

    Serializes the embedding's CSR through a real store file (tmp
    directory, full write/fsync/rename path), re-opens it with eager
    payload verification, and demands the hydrated
    :class:`~repro.core.fast_verify.PathCSR` be **field-identical** to
    the in-memory export — every contract array byte-for-byte, the edge
    table, and the resolved answer for a fuzzed batch of requests in
    both orientations.  This is the proof obligation behind the
    instant-start tier: serving off the file must be indistinguishable
    from serving off a fresh build.  Non-embedding subjects contribute
    no checks.
    """
    import tempfile
    from pathlib import Path

    import numpy as np

    from repro.core.embedding import (
        Embedding,
        MultiCopyEmbedding,
        MultiPathEmbedding,
    )
    from repro.core.fast_verify import embedding_csr
    from repro.service.store import open_store, write_store

    if not isinstance(emb, (Embedding, MultiCopyEmbedding, MultiPathEmbedding)):
        return []
    fresh = embedding_csr(emb)
    if not len(fresh.edges):
        return []
    checks: List[InvariantCheck] = []
    with tempfile.TemporaryDirectory(prefix="repro-coldstart-") as tmp:
        path = Path(tmp) / "subject.rpstore"
        write_store(
            path, fresh, "{}", spec_key="cold-start-qa", kind="qa"
        )
        view = open_store(path)
        try:
            view.verify_payload()
            mapped = view.csr
            fields = ("nodes", "path_offsets", "bundle_offsets", "path_reversed")
            identical = mapped.host_n == fresh.host_n and all(
                np.array_equal(getattr(mapped, f), getattr(fresh, f))
                for f in fields
            )
            checks.append(
                InvariantCheck(
                    "diff:coldstart:fields",
                    identical,
                    "memmapped CSR fields diverge from the fresh export"
                    if not identical
                    else "memmapped CSR is field-identical to the fresh export",
                )
            )
            edges_equal = list(mapped.edges) == list(fresh.edges)
            checks.append(
                InvariantCheck(
                    "diff:coldstart:edges",
                    edges_equal,
                    "memmapped edge table diverges from the fresh export"
                    if not edges_equal
                    else f"{len(fresh.edges)} edge(s) round-tripped exactly",
                )
            )
            batch = []
            for _ in range(requests):
                u, v = fresh.edges[rng.randrange(len(fresh.edges))]
                batch.append((v, u) if rng.random() < 0.5 else (u, v))
            got = mapped.take(batch)
            want = fresh.take(batch)
            routed = all(np.array_equal(g, w) for g, w in zip(got, want))
            checks.append(
                InvariantCheck(
                    "diff:coldstart:routing",
                    routed,
                    "memmapped resolve diverges from the fresh CSR"
                    if not routed
                    else f"{len(batch)} request(s) resolve identically off the file",
                )
            )
        finally:
            view.close()
    return checks


# -- array builders ------------------------------------------------------------


def _builder_pair(
    kind: str, params: Dict[str, Any]
) -> Optional[Tuple[Callable[..., Any], Callable[..., Any], Tuple[Any, ...], Dict[str, Any]]]:
    """``(array builder, dict-of-tuples builder, args, kwargs)`` of a point."""
    from repro.core.cycle_multipath import (
        embed_cycle_load1,
        embed_cycle_load2,
        reference_embed_cycle_load1,
        reference_embed_cycle_load2,
    )
    from repro.core.grid_multipath import (
        embed_grid_multipath,
        reference_embed_grid_multipath,
    )
    from repro.core.large_copy import (
        large_cycle_embedding,
        reference_large_cycle_embedding,
    )

    if kind == "cycle":
        return embed_cycle_load1, reference_embed_cycle_load1, (params["n"],), {}
    if kind == "cycle2":
        return (
            embed_cycle_load2,
            reference_embed_cycle_load2,
            (params["n"],),
            {"prefer_width": params.get("wide", False)},
        )
    if kind == "grid":
        return (
            embed_grid_multipath,
            reference_embed_grid_multipath,
            (tuple(params["dims"]),),
            {"torus": params.get("torus", False)},
        )
    if kind == "large-cycle":
        return large_cycle_embedding, reference_large_cycle_embedding, (params["n"],), {}
    return None


def builder_differential(kind: str, params: Dict[str, Any]) -> List[InvariantCheck]:
    """Referee an array builder against its dict-of-tuples referee.

    For a ``cycle``, ``cycle2``, ``grid`` or ``large-cycle`` point, both
    builders run fresh.  First, before the array embedding's dicts
    exist, the two :func:`~repro.core.fast_verify.embedding_csr` exports
    must match in every array, the edge table, the lookup and the store
    payload digest; then the two non-strict ``verify()`` reports must
    match, with the array embedding still unread; only then are its
    dicts built and compared with the referee's (key order included),
    with the other fields: ``step_of``, ``info``, ``name`` and
    ``load_allowed`` for a multipath embedding, ``name`` for a
    large cycle's :class:`~repro.core.embedding.Embedding`.  Draws
    nothing from any rng; other kinds contribute no checks.
    """
    from repro.core.embedding import MultiPathEmbedding
    from repro.core.fast_verify import embedding_csr
    from repro.service.store import payload_digest

    pair = _builder_pair(kind, params)
    if pair is None:
        return []
    build, build_reference, args, kwargs = pair
    fast, reference = build(*args, **kwargs), build_reference(*args, **kwargs)
    checks: List[InvariantCheck] = []

    def check(name: str, passed: bool, ok: str, bad: str) -> None:
        checks.append(InvariantCheck(f"diff:builder:{name}", passed, ok if passed else bad))

    got, want = embedding_csr(fast), embedding_csr(reference)
    fields = ("nodes", "path_offsets", "bundle_offsets", "path_reversed")
    differ = [
        f
        for f in fields
        if getattr(got, f).dtype != getattr(want, f).dtype
        or not np.array_equal(getattr(got, f), getattr(want, f))
    ]
    if got.edges.radix != want.edges.radix or not np.array_equal(got.edges.uv, want.edges.uv):
        differ.append("edges")
    if got.lookup.base != want.lookup.base or not all(
        np.array_equal(getattr(got.lookup, f), getattr(want.lookup, f))
        for f in ("keys", "gids", "flips")
    ):
        differ.append("lookup")
    if payload_digest(got) != payload_digest(want):
        differ.append("payload_digest")
    check("csr", not differ, f"{got.num_paths} path(s) export identically",
          f"array export differs from the referee's in {differ}")

    fast_report, ref_report = fast.verify(strict=False), reference.verify(strict=False)
    check("unread", fast.carried is not None,
          "export and verify left the dicts unbuilt",
          "export or verify built the array embedding's dicts")
    check("verify",
          fast_report.checks == ref_report.checks and fast_report.metrics == ref_report.metrics,
          "verification reports agree",
          f"array report {fast_report.checks} {fast_report.metrics} != "
          f"referee's {ref_report.checks} {ref_report.metrics}")

    multipath = isinstance(reference, MultiPathEmbedding)
    dicts = ("vertex_map", "edge_paths", "step_of") if multipath else ("vertex_map", "edge_paths")
    for field in dicts:
        same = list(getattr(fast, field).items()) == list(getattr(reference, field).items())
        check(field, same, f"{field} agrees in order and content",
              f"{field} differs from the referee's")
    names = ("info", "name", "load_allowed") if multipath else ("name",)
    attrs = [a for a in names if getattr(fast, a) != getattr(reference, a)]
    check("attributes", not attrs, f"{', '.join(names)} agree",
          f"{attrs} differ from the referee's")
    return checks


# -- IDA kernels ---------------------------------------------------------------

_IDA_SUBSETS = 64  # every m-subset up to this many, else this many sampled


def gf256_mul_reference(a: int, b: int) -> int:
    """GF(256) product by shift-and-xor, reduced by ``0x11B``; no tables."""
    out = 0
    while b:
        if b & 1:
            out ^= a
        a <<= 1
        if a & 0x100:
            a ^= 0x11B
        b >>= 1
    return out


def _gf256_inv_reference(a: int) -> int:
    """``a^254``: the inverse of a nonzero ``a`` (the unit group has order 255)."""
    out, k = 1, 254
    while k:
        if k & 1:
            out = gf256_mul_reference(out, a)
        a = gf256_mul_reference(a, a)
        k >>= 1
    return out


def _disperse_reference(message: bytes, w: int, m: int) -> List[Tuple[int, bytes]]:
    """IDA dispersal from its definition, one scalar product at a time.

    The layout is the wire contract: a 4-byte big-endian length header,
    zero padding to ``m`` equal rows, and piece ``i`` = row ``i`` of the
    ``w x m`` Cauchy matrix ``1/(x_i + y_j)`` (``x = m..m+w-1``,
    ``y = 0..m-1``) times those rows.
    """
    framed = len(message).to_bytes(4, "big") + message
    cols = -(-len(framed) // m)
    framed += b"\0" * (m * cols - len(framed))
    pieces = []
    for i, x in enumerate(range(m, m + w)):
        piece = bytearray(cols)
        for k in range(m):
            coeff = _gf256_inv_reference(x ^ k)
            for j in range(cols):
                piece[j] ^= gf256_mul_reference(coeff, framed[k * cols + j])
        pieces.append((i, bytes(piece)))
    return pieces


def ida_differential(subject: Any, rng: random.Random) -> List[InvariantCheck]:
    """Referee the table-driven IDA kernels against the field's definition.

    Draws four cases, each with ``w`` in [1, 12], ``m`` in [1, w] and a
    message of 0 bytes, 1 byte, or up to 300 random bytes (two cases).
    :func:`~repro.fault.ida.disperse` must match
    :func:`_disperse_reference` byte for byte.
    :func:`~repro.fault.ida.reconstruct` must return the message from
    every m-subset of the pieces (64 sampled subsets when there are more),
    given in shuffled order with one piece duplicated, and must raise
    ``ValueError`` when given ``m - 1`` distinct pieces.  Dispersal does
    not depend on the construction, so ``subject`` is not consulted; it
    is taken to share the signature of the other stages.
    """
    checks: List[InvariantCheck] = []
    for size in (0, 1, rng.randint(0, 300), rng.randint(0, 300)):
        w = rng.randint(1, 12)
        m = rng.randint(1, w)
        message = rng.randbytes(size)
        label = f"w={w},m={m},len={size}"
        pieces = disperse(message, w, m)
        if pieces != _disperse_reference(message, w, m):
            checks.append(
                InvariantCheck(
                    f"diff:ida:disperse:{label}",
                    False,
                    "table-driven pieces differ from the shift-and-xor reference",
                )
            )
        if math.comb(w, m) <= _IDA_SUBSETS:
            subsets = list(itertools.combinations(range(w), m))
        else:
            subsets = [tuple(rng.sample(range(w), m)) for _ in range(_IDA_SUBSETS)]
        lost = 0
        for subset in subsets:
            given = [pieces[i] for i in subset] + [pieces[rng.choice(subset)]]
            rng.shuffle(given)
            try:
                lost += reconstruct(given, w, m) != message
            except ValueError:
                lost += 1
        if lost:
            checks.append(
                InvariantCheck(
                    f"diff:ida:reconstruct:{label}",
                    False,
                    f"{lost} of {len(subsets)} m-subset(s) did not "
                    f"reconstruct the message",
                )
            )
        short = [pieces[i] for i in rng.sample(range(w), m - 1)]
        try:
            reconstruct(short + short[:1], w, m)
        except ValueError:
            pass
        else:
            checks.append(
                InvariantCheck(
                    f"diff:ida:threshold:{label}",
                    False,
                    f"reconstruct accepted {m - 1} distinct piece(s)",
                )
            )
    checks.append(
        InvariantCheck(
            "diff:ida",
            not checks,
            f"{len(checks)} IDA kernel check(s) failed"
            if checks
            else "disperse matches the reference and every subset reconstructs",
        )
    )
    return checks


# -- schedule normalization ----------------------------------------------------


class _Items(Sequence):
    """An accepted item or path container that is neither a tuple nor a list."""

    def __init__(self, items: Any) -> None:
        self._items = tuple(items)

    def __getitem__(self, index: Any) -> Any:
        return self._items[index]

    def __len__(self) -> int:
        return len(self._items)

    def __repr__(self) -> str:
        return f"_Items({self._items!r})"


# items normalization must reject, each with the reference's exception
_MALFORMED = (
    42,
    None,
    np.array([0, 1]),
    [True, 1],
    (0.5, 1),
    [(0, 1)],
    ([0, 1], 1, 1, 1),
    [],
    _Items(()),
    ((), 1),
    ([], 2, 0),
    ([0, 1], 0),
    ([0, 1], -3),
    ([0, 1], 0, 0),
    ([0, 1], 1, 0),
    (_Items([0, 1]), 0),
    ([0, 1], "x"),
)


def _normalize_reference(schedule: Any) -> List[SimRequest]:
    """Schedule normalization item by item, one :class:`SimRequest` each.

    The algorithm :func:`~repro.routing.api.normalize_schedule` replaced:
    every item passes the ``Sequence`` ABC checks and becomes a validated
    request, so each shape and each error comes from one obvious branch.
    """
    out: List[SimRequest] = []
    for item in schedule:
        if isinstance(item, SimRequest):
            out.append(item)
            continue
        if not isinstance(item, Sequence):
            raise TypeError(f"schedule item {item!r} is not a path or tuple")
        if len(item) == 0:
            raise ValueError("packet path must contain at least one node")
        first = item[0]
        if isinstance(first, int) and not isinstance(first, bool):
            out.append(SimRequest(tuple(item)))  # bare path
        elif isinstance(first, Sequence):
            path, rest = tuple(first), tuple(item[1:])
            if len(rest) == 1:
                out.append(SimRequest(path, int(rest[0])))
            elif len(rest) == 2:
                out.append(SimRequest(path, int(rest[0]), int(rest[1])))
            else:
                raise TypeError(
                    "tuple schedule items must be (path, release[, service])"
                )
        else:
            raise TypeError(f"schedule item {item!r} is not a path or tuple")
    return out


def _normalized(normalize: Callable[[Any], Any], schedule: Any) -> Dict[str, Any]:
    """What normalizing ``schedule`` yields, field by field, or its error."""
    try:
        out = normalize(schedule)
    except Exception as err:  # noqa: BLE001 - the error is the outcome compared
        return {"error": (type(err).__name__, str(err))}
    if isinstance(out, list):  # the reference's requests, as columns
        out = _as_columns([(r.path, r.release_step, r.service_time) for r in out])
    return {
        "paths": out.paths,
        "release": (out.release.dtype.name, out.release.tolist()),
        "service": (out.service.dtype.name, out.service.tolist()),
    }


def _as_columns(packets: List[Any]) -> ScheduleColumns:
    """``(path, release, service)`` packets as columns, built unchecked."""
    return ScheduleColumns(
        *flatten_paths([path for path, _, _ in packets]),
        np.array([r for _, r, _ in packets], dtype=np.int64),
        np.array([s for _, _, s in packets], dtype=np.int64),
    )


def _reshaped(path: Tuple[int, ...], release: int, rng: random.Random) -> Any:
    """``(path, release)`` re-emitted in a randomly drawn accepted shape."""
    container = rng.choice((tuple, list, _Items))
    body = rng.choice((tuple, list, _Items))(path)
    if rng.random() < 0.25:
        release = np.int64(release)  # schedules built with numpy carry these
    shape = rng.choice(("bare", "pair", "triple", "request"))
    if shape == "bare" and release == 1:
        return container(path)
    if shape == "triple":
        return container((body, release, rng.choice((1, 1, 2, 3))))
    if shape == "request":
        return SimRequest(
            rng.choice((tuple, list))(path), release, rng.choice((1, 1, 2))
        )
    return container((body, release))


def schedule_differential(subject: Any, rng: random.Random) -> List[InvariantCheck]:
    """Referee the columnar schedule normalizer against the per-item one.

    Draws up to 40 packets of the embedding's own paths
    (:func:`~repro.qa.schedules.embedding_schedule`) and re-emits each in a
    randomly drawn accepted shape: a bare path (release 1 only), a pair, a
    triple or an explicit :class:`SimRequest`, with a tuple, list or other
    ``Sequence`` for the item and for its path, and a plain or numpy
    release.  :func:`~repro.routing.api.normalize_schedule` must return
    what :func:`_normalize_reference` does, field by field: the paths, as
    tuples, and ``int64`` release and service columns; and so must it for
    the reference's packets given as
    :class:`~repro.routing.api.ScheduleColumns`.  Then each of
    ``_MALFORMED``, placed after a random prefix of that schedule and
    before a second bad item, must raise the reference's exception type
    and message, and so must those columns with one packet's path emptied,
    or its release or service zeroed, ahead of a second spoiled packet.
    """
    checks: List[InvariantCheck] = []
    schedule = [
        _reshaped(path, release, rng)
        for path, release in embedding_schedule(subject, rng, max_packets=40)
    ]
    want = _normalized(_normalize_reference, schedule)
    packets = [
        (tuple(r.path), int(r.release_step), int(r.service_time))
        for r in _normalize_reference(schedule)
    ]
    for label, given in (("", iter(schedule)), ("columns:", _as_columns(packets))):
        got = _normalized(normalize_schedule, given)
        for name in sorted(want.keys() | got.keys()):
            if got.get(name) != want.get(name):
                checks.append(
                    InvariantCheck(
                        f"diff:schedule:{label}{name}",
                        False,
                        f"normalize_schedule gives {got.get(name)!r} but "
                        f"the per-item reference gives {want.get(name)!r}",
                    )
                )
    for k, bad in enumerate(_MALFORMED):
        prefix = schedule[: rng.randint(0, len(schedule))]
        case = prefix + [bad, _MALFORMED[k - 1]]
        want = _normalized(_normalize_reference, case)
        got = _normalized(normalize_schedule, case)
        if got != want:
            checks.append(
                InvariantCheck(
                    f"diff:schedule:reject:{bad!r}",
                    False,
                    f"after {len(prefix)} good item(s), normalize_schedule "
                    f"gives {got.get('error', 'columns')!r} but the per-item "
                    f"reference gives {want.get('error', 'columns')!r}",
                )
            )
    for k, field in enumerate(("path", "release", "service") if packets else ()):
        bad = [list(packet) for packet in packets]
        first = rng.randrange(len(bad))
        for at, spoil in ((first, k), (rng.randrange(first, len(bad)), k - 1)):
            bad[at][spoil] = 0 if spoil else ()  # a zero step, or no path
        want = _normalized(_normalize_reference, bad)
        got = _normalized(normalize_schedule, _as_columns(bad))
        if got != want:
            checks.append(
                InvariantCheck(
                    f"diff:schedule:reject-columns:{field}",
                    False,
                    f"with packet {first}'s {field} spoiled, "
                    f"normalize_schedule gives {got.get('error', 'columns')!r}"
                    f" but the per-item reference gives "
                    f"{want.get('error', 'columns')!r}",
                )
            )
    checks.append(
        InvariantCheck(
            "diff:schedule",
            not checks,
            f"{len(checks)} schedule normalization check(s) failed"
            if checks
            else f"{len(schedule)} reshaped item(s), as items and as columns, "
            f"and {len(_MALFORMED)} malformed item(s) and spoiled columns "
            f"normalize as the per-item reference does",
        )
    )
    return checks


def _flow_value(graph, source: int, sink: int) -> int:
    import networkx as nx

    return int(nx.maximum_flow_value(graph, source, sink, capacity="capacity"))


def max_flow_width_check(
    emb: Any, rng: random.Random, samples: int = 2
) -> List[InvariantCheck]:
    """Cross-check ``samples`` random bundles of a multipath embedding.

    Silently returns no checks for non-multipath embeddings (nothing claims
    a width) and when networkx is unavailable (the check is a referee, not
    a dependency).
    """
    if not hasattr(emb, "width") or not getattr(emb, "edge_paths", None):
        return []
    try:
        import networkx as nx
    except ImportError:  # pragma: no cover - networkx is a test-env staple
        return []

    host_graph = nx.DiGraph()
    for u in range(emb.host.num_nodes):
        for d in range(emb.host.n):
            host_graph.add_edge(u, u ^ (1 << d), capacity=1)

    checks: List[InvariantCheck] = []
    edges = [e for e, ps in emb.edge_paths.items() if len(ps[0]) > 1]
    rng.shuffle(edges)
    for edge in edges[:samples]:
        paths = emb.edge_paths[edge]
        u, v = paths[0][0], paths[0][-1]
        w = len(paths)
        host_flow = _flow_value(host_graph, u, v)
        checks.append(
            InvariantCheck(
                f"flow:host:{edge}",
                host_flow >= w,
                f"host max-flow {host_flow} < claimed width {w}"
                if host_flow < w
                else f"host admits {host_flow} >= {w} disjoint paths",
            )
        )
        bundle = nx.DiGraph()
        for path in paths:
            for a, b in zip(path, path[1:]):
                bundle.add_edge(a, b, capacity=1)
        bundle_flow = _flow_value(bundle, u, v)
        checks.append(
            InvariantCheck(
                f"flow:bundle:{edge}",
                bundle_flow == w,
                f"bundle max-flow {bundle_flow} != path count {w} "
                f"(paths are not edge-disjoint)"
                if bundle_flow != w
                else f"bundle carries exactly {w} disjoint paths",
            )
        )
    return checks

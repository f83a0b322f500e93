"""Batched tensor simulation: B independent runs advance in one kernel.

These are the fast engines of the repo, one per semantics, each refereed
by a reference engine (:class:`~repro.routing.simulator.StoreForwardSimulator`
with the ``"priority"`` tie-break, and
:class:`~repro.routing.wormhole.WormholeSimulator`).  A single schedule is
a batch of one (``run``, the scalar ``Simulator`` protocol); fleet
experiments (scenario campaigns, saturation sweeps, nightly QA fuzz) stack
B runs — *lanes* — into flat tensors with ``run_many`` and arbitrate +
advance every lane per tick in a few numpy ops, so the Python overhead of
a step is amortized over the whole fleet.

The trick is a **lane offset**: packet/worm rows carry a lane id, and every
requested link id is shifted by ``lane * num_links`` before arbitration.
Lanes can never collide on a shifted link, so one winner kernel (an
``np.minimum.at`` scatter of dense arbitration ranks for packets, an
``np.unique`` lowest-ident pick for worm heads) arbitrates all lanes at
once and per-lane semantics are untouched.  Global injection order is
lane-major, so a global priority array preserves each lane's local
injection order; the global idle-jump only fires when *no* lane has a
ready packet, and an idle step is a per-lane no-op, so every lane sees
exactly the step numbers the reference engine would have simulated.

Per-lane semantics are bit-identical to the reference engines:

* store-and-forward: priority tie-break, fail-stop ``FaultModel`` drops
  (``done_steps`` of ``-1``) including ``active_from`` mid-run activation,
  with an independent fault model per lane;
* wormhole: two-phase head-acquisition/flit-advance steps, per-lane
  deadlock detection — a deadlocked lane freezes with the reference
  engine's message while the other lanes keep running.

Both engines compact: once fewer than half the working rows are live, the
per-row arrays shrink to the live rows (above a floor of
``_COMPACT_FLOOR`` rows), so late ticks of a run whose packets or worms
mostly arrived stop paying for the finished ones and a tick costs
O(live rows).

``repro.qa`` referees the identity on fuzzed batches
(:func:`repro.qa.differential.batched_differential_check`) with shrinking
to a minimal failing batch; ``repro bench`` gates the speedups over the
reference engines (``storeforward:*``, ``wormhole:*`` and
``batched:q12:wormhole-x100`` in ``BENCH_perf.json``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.hypercube.graph import Hypercube
from repro.hypercube.pathcode import path_edge_matrix
from repro.obs.profile import profile_span
from repro.routing.api import (
    ScheduleColumns,
    ScheduleItem,
    SimResult,
    normalize_schedule,
)
from repro.routing.wormhole import Worm, WormholeDeadlock

__all__ = ["BatchedStoreForward", "BatchedWormhole", "WormLaneOutcome"]

_NEVER = np.iinfo(np.int64).max

# both engines compact their working rows to the live ones once fewer than
# half are live, but never below this many rows: under it a compaction costs
# more than the whole-array passes it would save
_COMPACT_FLOOR = 256


def _per_lane_faults(faults: Any, lanes: int) -> List[Any]:
    """Normalize ``faults`` to one entry per lane.

    Accepts ``None`` (no faults anywhere), a single ``FaultModel``
    (broadcast to every lane), or a sequence of per-lane
    ``Optional[FaultModel]``.
    """
    if faults is None:
        return [None] * lanes
    if hasattr(faults, "dead_link_mask"):
        return [faults] * lanes
    per_lane = list(faults)
    if len(per_lane) != lanes:
        raise ValueError(
            f"need one fault model per lane: got {len(per_lane)} for "
            f"{lanes} lane(s)"
        )
    return per_lane


def _per_lane_recorders(recorders: Any, lanes: int) -> List[Any]:
    """Normalize ``recorders`` to one (possibly None) sink per lane.

    A single recorder is *not* broadcast — merging every lane's counts
    into one sink silently corrupts per-run congestion profiles, so a
    shared sink must be passed explicitly per lane.
    """
    if recorders is None:
        return [None] * lanes
    if not isinstance(recorders, (list, tuple)):
        raise ValueError(
            "recorders must be a per-lane sequence (one recorder or None "
            "per lane); a single recorder is not broadcast because merging "
            "lanes corrupts per-run congestion profiles"
        )
    per_lane = list(recorders)
    if len(per_lane) != lanes:
        raise ValueError(
            f"need one recorder (or None) per lane: got {len(per_lane)} "
            f"for {lanes} lane(s)"
        )
    return per_lane


class BatchedStoreForward:
    """Store-and-forward simulation of B independent schedules at once."""

    engine = "batched-store-forward"

    def __init__(self, host: Hypercube):
        self.host = host

    def run(
        self,
        schedule: Iterable[ScheduleItem],
        *,
        max_steps: int = 10_000_000,
        recorder: Optional[Any] = None,
        faults: Optional[Any] = None,
    ) -> SimResult:
        """Run one schedule (a batch of one lane) — the Simulator protocol."""
        return self.run_many(
            [schedule], max_steps=max_steps, recorders=[recorder],
            faults=[faults],
        )[0]

    def run_many(
        self,
        schedules: Sequence[Iterable[ScheduleItem]],
        *,
        max_steps: int = 10_000_000,
        recorders: Optional[Sequence[Optional[Any]]] = None,
        faults: Optional[Any] = None,
    ) -> List[SimResult]:
        """Run every schedule to completion; one :class:`SimResult` per lane.

        Each lane is an independent simulation: its own packets, its own
        optional ``recorder`` sink, its own optional ``FaultModel`` (pass a
        single model to apply the same faults to every lane, or a per-lane
        sequence).  Results are field-identical to running each lane through
        the reference :class:`~repro.routing.simulator.StoreForwardSimulator`
        with ``tie_break="priority"`` — ``measured()`` equality is asserted
        by the QA batched differential.
        """
        lanes = [normalize_schedule(s) for s in schedules]
        for cols in lanes:
            if (cols.service != 1).any():
                raise ValueError(
                    "BatchedStoreForward supports unit service time only; "
                    "use StoreForwardSimulator for atomic multi-packet "
                    "messages"
                )
        recs = _per_lane_recorders(recorders, len(lanes))
        fault_models = _per_lane_faults(faults, len(lanes))
        with profile_span(
            "sim.batched_store_forward",
            lanes=len(lanes),
            packets=sum(len(cols) for cols in lanes),
        ):
            return self._run_lanes(lanes, max_steps, recs, fault_models)

    def _priorities(self, total: int) -> np.ndarray:
        """Packet arbitration priorities: lower wins its link.

        Global injection order — lane-major, so within a lane it is exactly
        the reference engine's injection-order priority.  Taken once per
        run and turned into dense ranks by a stable sort, so equal
        priorities resolve by injection order.  This is the
        arbitration-policy seam the QA mutation tests sabotage.
        """
        return np.arange(total, dtype=np.int64)

    def _run_lanes(
        self,
        lanes: List[ScheduleColumns],
        max_steps: int,
        recorders: List[Any],
        fault_models: List[Any],
    ) -> List[SimResult]:
        num_lanes = len(lanes)
        counts = np.array([len(cols) for cols in lanes], dtype=np.int64)
        offsets = np.concatenate(
            [np.zeros(1, dtype=np.int64), np.cumsum(counts)]
        )
        total = int(offsets[-1])
        n = self.host.n
        links = self.host.num_edges  # directed links per lane

        lane = np.repeat(np.arange(num_lanes, dtype=np.int64), counts)

        lane_steps = np.zeros(num_lanes, dtype=np.int64)
        link_counts = None
        if total == 0:
            done_step = np.zeros(0, dtype=np.int64)
        else:
            done_step = np.zeros(total, dtype=np.int64)
            paths: List[Tuple[int, ...]] = []
            for cols in lanes:
                paths += cols.paths
            release = np.concatenate([cols.release for cols in lanes])
            edges, lengths = path_edge_matrix(n, paths)
            # lane-shifted link ids, in place: lanes never collide, so one
            # arbitration pass serves the whole fleet
            edges += (lane * links)[:, None]
            # each row's next lane-shifted link; only winners change it, so
            # the tick loop never gathers from the 2-D matrix for losers
            # (an all-zero-hop batch has no columns and no live rows)
            link = (
                edges[:, 0].copy()
                if edges.shape[1]
                else np.zeros(total, dtype=np.int64)
            )
            active = lengths > 0
            hop = np.zeros(total, dtype=np.int64)
            # dense arbitration ranks, taken once: a stable sort keeps equal
            # priorities in injection order, so each rank is unique
            rank = np.empty(total, dtype=np.int64)
            rank[np.argsort(self._priorities(total), kind="stable")] = (
                np.arange(total, dtype=np.int64)
            )
            # per-link lowest contending rank, reset after every tick
            best = np.full(num_lanes * links, _NEVER, dtype=np.int64)
            lane_remaining = np.bincount(lane[active], minlength=num_lanes)

            # per-lane fail-stop faults: one flat (lanes * links) dead mask
            # plus a per-lane activation step, so a single comparison arms
            # each lane independently mid-run
            dead_flat = None
            fault_from = None
            if any(
                f is not None and (f.failed or f.failed_nodes)
                for f in fault_models
            ):
                dead_flat = np.zeros(num_lanes * links, dtype=bool)
                fault_from = np.full(num_lanes, _NEVER, dtype=np.int64)
                for b, f in enumerate(fault_models):
                    if f is not None and (f.failed or f.failed_nodes):
                        dead_flat[b * links:(b + 1) * links] = (
                            f.dead_link_mask()
                        )
                        fault_from[b] = f.active_from

            record_any = any(bool(r) for r in recorders)
            link_counts = (
                np.zeros(num_lanes * links, dtype=np.int64)
                if record_any
                else None
            )

            # the tick loop works on a compacted set of rows: ``rows`` holds
            # their global ids, every other per-row array is indexed by
            # working row, and ``done_step`` stays global
            rows = np.arange(total, dtype=np.int64)
            step = 0
            remaining = int(active.sum())
            while remaining > 0:
                if (
                    active.size > _COMPACT_FLOOR
                    and 2 * remaining < active.size
                ):
                    # most rows are delivered or dropped: shrink every
                    # working array to the live rows, so a tick costs
                    # O(live rows) however large the batch started
                    with profile_span(
                        "sim.batched_store_forward.compact",
                        step=step, rows=active.size, kept=remaining,
                    ):
                        rows, lane = rows[active], lane[active]
                        release, lengths = release[active], lengths[active]
                        edges, hop = edges[active], hop[active]
                        rank, link = rank[active], link[active]
                        active = np.ones(remaining, dtype=bool)
                step += 1
                if step > max_steps:
                    raise RuntimeError(
                        f"simulation exceeded {max_steps} steps"
                    )
                ready = active & (release <= step)
                idx = ready.nonzero()[0]
                if idx.size == 0:
                    # no lane has a ready packet: jump to the next release
                    # (idle steps are per-lane no-ops, so lane-local step
                    # numbers stay identical to the reference engine)
                    step = int(release[active].min()) - 1
                    continue
                want = link[idx]
                if dead_flat is not None:
                    armed = step >= fault_from[lane[idx]]
                    doomed = armed & dead_flat[want]
                    if doomed.any():
                        kill = idx[doomed]
                        active[kill] = False
                        done_step[rows[kill]] = -1
                        remaining -= int(kill.size)
                        dec = np.bincount(lane[kill], minlength=num_lanes)
                        lane_remaining -= dec
                        lane_steps[(dec > 0) & (lane_remaining == 0)] = step
                        idx = idx[~doomed]
                        want = want[~doomed]
                        if idx.size == 0:
                            continue
                # one winner per (lane, link): the lowest rank contending
                # for it — the reference winner rule per lane
                ranks = rank[idx]
                np.minimum.at(best, want, ranks)
                won = best[want] == ranks
                best[want] = _NEVER
                winners = idx[won]
                if link_counts is not None:
                    link_counts[want[won]] += 1
                hops = hop[winners] + 1
                hop[winners] = hops
                left = hops < lengths[winners]
                moving = winners[left]
                link[moving] = edges[moving, hops[left]]
                finished = winners[~left]
                if finished.size:
                    active[finished] = False
                    done_step[rows[finished]] = step
                    remaining -= int(finished.size)
                    dec = np.bincount(lane[finished], minlength=num_lanes)
                    lane_remaining -= dec
                    lane_steps[(dec > 0) & (lane_remaining == 0)] = step

        results: List[SimResult] = []
        for b in range(num_lanes):
            lo, hi = int(offsets[b]), int(offsets[b + 1])
            lane_done = done_step[lo:hi]
            rec = recorders[b]
            if rec:
                if link_counts is not None:
                    row = link_counts[b * links:(b + 1) * links]
                    used = np.nonzero(row)[0]
                    rec.add_link_counts(used, row[used])
                rec.add_deliveries(lane_done[lane_done >= 0])
            results.append(
                SimResult(
                    makespan=(
                        max(0, int(lane_done.max())) if lane_done.size else 0
                    ),
                    delivered=int((lane_done >= 0).sum()),
                    injected=hi - lo,
                    steps=int(lane_steps[b]),
                    done_steps=tuple(lane_done.tolist()),
                    engine=self.engine,
                    recorder=rec,
                )
            )
        return results


# one worm: (path, num_flits, release_step)
WormItem = Tuple[Sequence[int], int, int]


@dataclass
class WormLaneOutcome:
    """One lane's complete wormhole outcome.

    ``makespan`` is the lane's last arrival step, or ``None`` when the lane
    deadlocked (``deadlock`` then carries the reference engine's message,
    ``"<k> worms deadlocked at step <s>"``).  ``worms`` holds the final
    per-worm state exactly as the reference engine would leave it — including
    the partial ``flits_crossed``/``head_link`` of a stuck worm — and
    ``owner`` maps still-held link ids to lane-local worm idents.
    """

    makespan: Optional[int]
    deadlock: Optional[str]
    worms: List[Worm] = field(default_factory=list)
    owner: Dict[int, int] = field(default_factory=dict)

    @property
    def deadlocked(self) -> bool:
        return self.deadlock is not None


class BatchedWormhole:
    """Flit-level wormhole simulation of B independent schedules at once."""

    engine = "batched-wormhole"

    def __init__(self, host: Hypercube, buffer_capacity: int = 1):
        if buffer_capacity < 1:
            raise ValueError("buffer capacity must be >= 1")
        self.host = host
        self.buffer_capacity = buffer_capacity

    def run(
        self,
        schedule: Iterable[WormItem],
        *,
        max_steps: int = 10_000_000,
        recorder: Optional[Any] = None,
    ) -> SimResult:
        """Run one worm schedule (a batch of one lane).

        Unlike the packet engines, schedule items are
        ``(path, num_flits, release_step)`` worm triples.  Raises
        :class:`~repro.routing.wormhole.WormholeDeadlock` exactly when the
        reference wormhole engine would; otherwise returns a
        :class:`~repro.routing.api.SimResult` with one delivery per worm.
        """
        [outcome] = self.run_many(
            [schedule], max_steps=max_steps, recorders=[recorder]
        )
        if outcome.deadlock is not None:
            raise WormholeDeadlock(outcome.deadlock)
        done = [
            -1 if w.done_step is None else int(w.done_step)
            for w in outcome.worms
        ]
        makespan = int(outcome.makespan or 0)
        return SimResult(
            makespan=makespan,
            delivered=sum(1 for d in done if d >= 0),
            injected=len(done),
            steps=makespan,
            done_steps=tuple(done),
            engine=self.engine,
            recorder=recorder,
        )

    def run_many(
        self,
        schedules: Sequence[Iterable[WormItem]],
        *,
        max_steps: int = 10_000_000,
        recorders: Optional[Sequence[Optional[Any]]] = None,
    ) -> List[WormLaneOutcome]:
        """Run every worm schedule; one :class:`WormLaneOutcome` per lane.

        A lane that deadlocks freezes at its deadlock step — its outcome
        records the reference engine's deadlock message and partial state —
        while every other lane keeps running to completion.
        """
        lanes: List[List[Worm]] = []
        for sched in schedules:
            lanes.append(
                [
                    Worm(tuple(path), int(flits), int(release), ident=i)
                    for i, (path, flits, release) in enumerate(sched)
                ]
            )
        recs = _per_lane_recorders(recorders, len(lanes))
        with profile_span(
            "sim.batched_wormhole",
            lanes=len(lanes),
            worms=sum(len(w) for w in lanes),
        ):
            return self._run_lanes(lanes, max_steps, recs)

    def _run_lanes(
        self,
        lanes: List[List[Worm]],
        max_steps: int,
        recorders: List[Any],
    ) -> List[WormLaneOutcome]:
        num_lanes = len(lanes)
        counts = np.array([len(w) for w in lanes], dtype=np.int64)
        offsets = np.concatenate(
            [np.zeros(1, dtype=np.int64), np.cumsum(counts)]
        )
        total = int(offsets[-1])
        if total == 0:
            return [
                WormLaneOutcome(makespan=0, deadlock=None) for _ in lanes
            ]

        worms = [w for lane_worms in lanes for w in lane_worms]
        lane = np.repeat(np.arange(num_lanes, dtype=np.int64), counts)
        eids, lengths = path_edge_matrix(
            self.host.n, [w.path for w in worms]
        )
        max_links = eids.shape[1]
        num = total
        # int32 everywhere the arrays are wide: the step loop is a fixed
        # sequence of whole-array passes, so halving element width halves
        # memory traffic (flit counts and link columns fit easily)
        flits_all = np.zeros((num, max_links), dtype=np.int32)
        head_all = np.full(num, -1, dtype=np.int64)
        done_all = np.full(num, -1, dtype=np.int64)
        num_flits = np.fromiter(
            (w.num_flits for w in worms), dtype=np.int32, count=num
        )
        release = np.fromiter(
            (w.release_step for w in worms), dtype=np.int64, count=num
        )
        links = self.host.num_edges
        # owner holds *global* row ids, so it survives row compaction
        owner = np.full(num_lanes * links, -1, dtype=np.int32)
        # lane-shifted link ids, gathered instead of recomputed per step
        eids_all = lane[:, None] * links + eids

        cap = self.buffer_capacity
        cols = np.arange(max_links, dtype=np.int32)[None, :]
        valid = cols < lengths[:, None]
        is_last = cols == (lengths - 1)[:, None]
        last_col = lengths - 1

        # scratch buffers, allocated once: the step loop below runs a fixed
        # sequence of whole-array passes into these, so steady-state steps
        # do no allocation at all
        shape = (num, max_links)
        gaps = np.zeros(shape, dtype=np.int32)
        base = np.empty(shape, dtype=bool)
        free = np.empty(shape, dtype=bool)
        seed = np.empty(shape, dtype=np.int32)
        block = np.empty(shape, dtype=np.int32)
        moved_rev = np.empty(shape, dtype=bool)
        tails = np.empty(shape, dtype=bool)
        # cols <= head[:, None], maintained incrementally as heads advance;
        # rows are cleared when their worm arrives or its lane deadlocks,
        # which lets phase 2 skip separate active/valid masking passes
        head_mask = np.zeros(shape, dtype=bool)
        row_ids = np.arange(num, dtype=np.int64)

        # per-lane bookkeeping: a lane deadlocks on its own (no progress
        # once everything it will ever release is out), and freezes there
        lane_remaining = counts.copy()
        lane_dead = np.zeros(num_lanes, dtype=bool)
        lane_message: List[Optional[str]] = [None] * num_lanes
        lane_last_done = np.zeros(num_lanes, dtype=np.int64)
        lane_max_release = np.zeros(num_lanes, dtype=np.int64)
        for b in range(num_lanes):
            lo, hi = int(offsets[b]), int(offsets[b + 1])
            if hi > lo:
                lane_max_release[b] = int(release[lo:hi].max())

        # the step loop works on a compacted set of rows: ``rows`` holds
        # their global ids, and every per-row array below is indexed by
        # working row; the full-size ``*_all`` arrays keep final states
        rows = np.arange(num, dtype=np.int32)
        flits, head, done, eids_flat = flits_all, head_all, done_all, eids_all

        step = 0
        while ((lane_remaining > 0) & ~lane_dead).any():
            live = ~lane_dead[lane]
            undone = (done < 0) & live
            kept = rows.size
            if rows.size > _COMPACT_FLOOR:
                kept = int(np.count_nonzero(undone))
            if 2 * kept < rows.size:
                # most rows are delivered or frozen in a deadlocked lane:
                # write their final state back, then shrink every working
                # array to the live rows so the passes below skip them
                with profile_span(
                    "sim.batched_wormhole.compact",
                    step=step, rows=rows.size, kept=kept,
                ):
                    gone = ~undone
                    flits_all[rows[gone]] = flits[gone]
                    head_all[rows[gone]] = head[gone]
                    done_all[rows[gone]] = done[gone]
                    rows = rows[undone]
                    flits, head, done = flits[undone], head[undone], done[undone]
                    head_mask = head_mask[undone]
                    eids_flat = eids_flat[undone]
                    last_col, is_last = last_col[undone], is_last[undone]
                    release, num_flits = release[undone], num_flits[undone]
                    lane = lane[undone]
                    gaps, base, free = gaps[:kept], base[:kept], free[:kept]
                    seed, block = seed[:kept], block[:kept]
                    moved_rev, tails = moved_rev[:kept], tails[:kept]
                    row_ids = row_ids[:kept]
                    undone = np.ones(kept, dtype=bool)
            if not (undone & (release <= step + 1)).any():
                # every live lane is between releases: jump ahead (a lane
                # with released undone worms blocks this jump, so per-lane
                # step numbers — including deadlock steps — are exact)
                step = int(release[undone].min()) - 1
            step += 1
            if step > max_steps:
                raise RuntimeError(
                    f"wormhole simulation exceeded {max_steps} steps"
                )
            lane_prog = np.zeros(num_lanes, dtype=bool)
            act = undone & (release <= step)

            # Phase 1: head acquisitions — lowest lane-local ident wins
            # each free link (global order is lane-major, so the global
            # lowest index per shifted link is the lane's lowest ident).
            # A head flit crosses its link in the step the head acquires
            # it (phase 2 below), so the reference's wait for the head
            # flit never holds a worm back here.
            cand = (act & (head < last_col)).nonzero()[0]
            if cand.size:
                want = eids_flat[cand, head[cand] + 1]
                free_link = owner[want] < 0
                cand, want = cand[free_link], want[free_link]
                if cand.size:
                    won_links, first = np.unique(want, return_index=True)
                    winners = cand[first]
                    owner[won_links] = rows[winners]
                    head[winners] += 1
                    head_mask[winners, head[winners]] = True
                    lane_prog[lane[winners]] = True

            # Phase 2: flit movement.  The reference walks each worm's links
            # head-to-tail so a flit cannot cascade across two links in one
            # step: link i moves iff a flit waits upstream and the
            # downstream node has slack *after* link i+1's same-step move.
            # Slack never exceeds the buffer capacity, so a downstream move
            # always frees exactly enough — the linear recurrence
            # moved[i] = base[i] & (free[i] | moved[i+1]), solved by running
            # maxima over the reversed link axis.  It runs over the flit
            # *gap* array g[i] = flits[i-1] - flits[i] (g[0] counts against
            # the source's M flits): a link can move iff a flit waits
            # upstream (g[i] >= 1, which also implies the tail is not past),
            # and is free iff it is the worm's last link or the downstream
            # node has buffer slack (g[i+1] < cap).  Everything runs as
            # full-array passes into the preallocated scratch.
            if (act & (head >= 0)).any():
                np.subtract(flits[:, :-1], flits[:, 1:], out=gaps[:, 1:])
                np.subtract(num_flits, flits[:, 0], out=gaps[:, 0])
                np.greater_equal(gaps, 1, out=base)
                base &= head_mask
                np.less(gaps[:, 1:], cap, out=free[:, :-1])
                free[:, -1] = False
                free |= is_last
                rbase = base[:, ::-1]
                np.logical_and(rbase, free[:, ::-1], out=moved_rev)
                np.copyto(seed, -1)
                np.copyto(seed, cols, where=moved_rev)
                np.maximum.accumulate(seed, axis=1, out=seed)
                np.copyto(block, cols)
                np.copyto(block, -1, where=rbase)
                np.maximum.accumulate(block, axis=1, out=block)
                np.greater(seed, block, out=moved_rev)
                moved_rev &= rbase
                moved = moved_rev[:, ::-1]
                rows_moved = moved.any(axis=1)
                if rows_moved.any():
                    np.add(flits, moved, out=flits, casting="unsafe")
                    lane_prog[lane[rows_moved]] = True
                    # a link frees the step its owner's tail crosses it
                    np.equal(flits, num_flits[:, None], out=tails)
                    tails &= moved
                    trow, tcol = tails.nonzero()
                    if trow.size:
                        owner[eids_flat[trow, tcol]] = -1
                    arrived_mask = act & (
                        flits[row_ids, last_col] == num_flits
                    )
                    arrived = arrived_mask.nonzero()[0]
                    if arrived.size:
                        done[arrived] = step
                        head_mask[arrived] = False
                        lane_last_done[lane[arrived]] = step
                        lane_remaining -= np.bincount(
                            lane[arrived], minlength=num_lanes
                        )

            # per-lane deadlock: a live lane with worms left, everything it
            # will ever release already out, and no progress this step is
            # permanently stuck (releases only add contention; a stalled
            # configuration is a fixed point) — same condition, same step,
            # same message as the reference engine
            stuck = (
                ~lane_prog
                & ~lane_dead
                & (lane_remaining > 0)
                & (lane_max_release <= step)
            )
            if stuck.any():
                for b in stuck.nonzero()[0]:
                    lane_dead[b] = True
                    lane_message[b] = (
                        f"{int(lane_remaining[b])} worms deadlocked "
                        f"at step {step}"
                    )
                head_mask[stuck[lane]] = False

        flits_all[rows] = flits
        head_all[rows] = head
        done_all[rows] = done

        link_counts = None
        if any(bool(r) for r in recorders):
            # per-link crossing totals, recovered from the final flit
            # profile in one pass: flits[i, j] counts every crossing of
            # link j by worm i (partial rows of deadlocked lanes included)
            link_counts = np.zeros(num_lanes * links, dtype=np.int64)
            np.add.at(link_counts, eids_all[valid], flits_all[valid])

        # final per-worm state as plain Python ints, converted in bulk
        flit_rows, hops = flits_all.tolist(), lengths.tolist()
        heads, dones = head_all.tolist(), done_all.tolist()
        outcomes: List[WormLaneOutcome] = []
        for b in range(num_lanes):
            lo, hi = int(offsets[b]), int(offsets[b + 1])
            for i in range(lo, hi):
                worm = worms[i]
                worm.flits_crossed = flit_rows[i][: hops[i]]
                worm.head_link = heads[i]
                worm.done_step = None if dones[i] < 0 else dones[i]
            row = owner[b * links:(b + 1) * links]
            held = np.nonzero(row >= 0)[0]
            lane_owner = {int(lid): int(row[lid] - lo) for lid in held}
            rec = recorders[b]
            if rec:
                cnt = link_counts[b * links:(b + 1) * links]
                used = np.nonzero(cnt)[0]
                rec.add_link_counts(used, cnt[used])
                lane_done = done_all[lo:hi]
                rec.add_deliveries(lane_done[lane_done >= 0])
            outcomes.append(
                WormLaneOutcome(
                    makespan=(
                        None
                        if lane_message[b] is not None
                        else int(lane_last_done[b])
                    ),
                    deadlock=lane_message[b],
                    worms=lanes[b],
                    owner=lane_owner,
                )
            )
        return outcomes

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
requested link id is shifted by ``lane * num_links``.  Lanes can never
collide on a shifted link, so one arbitration serves all lanes at once and
per-lane semantics are untouched.  Global injection order is lane-major,
so a global priority array preserves each lane's local injection order;
the global idle-jump only fires when *no* lane has a waiting packet, and
an idle step is a per-lane no-op, so every lane sees exactly the step
numbers the reference engine would have simulated.

Per-lane semantics are bit-identical to the reference engines:

* store-and-forward: priority tie-break, fail-stop ``FaultModel`` drops
  (``done_steps`` of ``-1``) including ``active_from`` mid-run activation,
  with an independent fault model per lane.  The waiting packets are one
  sorted array of ``lane_shifted_link << b | rank`` keys, so each link's
  winner is its group's first key and a tick costs O(waiting packets);
* wormhole: event-driven — only head acquisitions are simulated, one
  visited step per acquisition step, over the waiting heads alone; every
  flit crossing, link release and arrival follows in closed form from the
  steps each head acquired its links, and so does a deadlocked lane's
  stop, with the reference engine's message and partial state, while the
  other lanes run on.

``repro.qa`` referees the identity on fuzzed batches
(:func:`repro.qa.differential.batched_differential_check`) with shrinking
to a minimal failing batch; ``repro bench`` gates the speedups over the
reference engines (``storeforward:*``, ``wormhole:*`` and
``batched:q12:wormhole-x100`` in ``BENCH_perf.json``).
"""

from __future__ import annotations

from typing import Any, Iterable, List, Optional, Sequence, Union

import numpy as np

from repro.hypercube.graph import Hypercube
from repro.hypercube.pathcode import flatten_paths, hop_edge_ids, path_edge_matrix
from repro.obs.profile import profile_span
from repro.routing.api import (
    ScheduleColumns,
    ScheduleItem,
    SimResult,
    _per_lane_recorders,
    normalize_schedule,
)
from repro.routing.wormhole import Worm, WormItem, WormLaneOutcome, make_worms

__all__ = ["BatchedStoreForward", "BatchedWormhole"]

_NEVER = np.iinfo(np.int64).max
# a wormhole link whose holder's release step is not fixed yet: far above
# any step, with headroom for the ``free_at + 1`` the event loop computes
_HELD = 1 << 62


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


class BatchedStoreForward:
    """Store-and-forward simulation of B independent schedules at once."""

    engine = "batched-store-forward"

    def __init__(self, host: Hypercube):
        self.host = host

    def run(
        self,
        schedule: Union[Iterable[ScheduleItem], ScheduleColumns],
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
        schedules: Sequence[Union[Iterable[ScheduleItem], ScheduleColumns]],
        *,
        max_steps: int = 10_000_000,
        recorders: Optional[Sequence[Optional[Any]]] = None,
        faults: Optional[Any] = None,
    ) -> List[SimResult]:
        """Run every schedule to completion; one :class:`SimResult` per lane.

        A schedule is any shape :func:`~repro.routing.api.normalize_schedule`
        accepts; columns pass through it without becoming path tuples.
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
        run, and a stable sort of it puts the rows in rank order, so equal
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
        links = self.host.num_edges  # directed links per lane

        # per packet, in injection order: its done step (-1 when dropped)
        # and the step it was delivered or dropped, which gives ``steps``
        done = np.zeros(total, dtype=np.int64)
        last = np.zeros(total, dtype=np.int64)
        link_counts = None
        if total:
            # the lanes' CSR paths as one batch: each lane's offsets shift
            # by the nodes of the lanes before it
            shifts = np.cumsum([0] + [cols.nodes.size for cols in lanes])
            path_offsets = np.concatenate(
                [np.zeros(1, dtype=np.int64)]
                + [c.offsets[1:] + k for c, k in zip(lanes, shifts.tolist())]
            )
            nodes = np.concatenate([cols.nodes for cols in lanes])
            hops = np.diff(path_offsets) - 1
            # every hop's lane-shifted link id, path after path: lanes never
            # collide, so one queue serves the whole fleet
            eids, _, _ = hop_edge_ids(self.host.n, nodes, path_offsets)
            eids += np.repeat(
                np.arange(num_lanes, dtype=np.int64) * links,
                [cols.nodes.size - len(cols) for cols in lanes],
            )

            # rows in rank order, taken once: a stable sort keeps equal
            # priorities in injection order, and row ``r`` is packet
            # ``order[r]``; ``at[r]`` indexes ``eids`` at the row's link
            order = np.argsort(self._priorities(total), kind="stable")
            at = (path_offsets[:-1] - np.arange(total, dtype=np.int64))[order]
            stop = at + hops[order]
            release = np.concatenate([cols.release for cols in lanes])[order]

            # a waiting packet is the key ``link << shift | row``: sorted
            # keys group each link's waiting packets in rank order, so the
            # first key of a group is that link's winner this tick
            shift = (total - 1).bit_length()
            if (num_lanes * links - 1).bit_length() + shift > 62:
                raise ValueError(
                    f"queue keys for {num_lanes} lane(s) of {total} packets exceed 62 bits"
                )
            low = (1 << shift) - 1
            eids <<= shift  # each hop's key, less its row
            # the keys of the packets that move at all, grouped by release
            # step; a group joins the queue at its step
            moving = np.flatnonzero(stop > at)
            moving = moving[np.argsort(release[moving], kind="stable")]
            pending = eids[at[moving]] | moving
            # releases are >= 1, so the first of them starts a group too
            starts = np.flatnonzero(np.diff(release[moving], prepend=0))
            joins = release[moving[starts]].tolist()
            bounds = starts.tolist() + [moving.size]

            # per-lane fail-stop faults: the step from which each
            # lane-shifted link is dead; a packet waiting on one is dropped
            faulty = [
                (b, f) for b, f in enumerate(fault_models)
                if f is not None and (f.failed or f.failed_nodes)
            ]
            die_at = np.full(num_lanes * links, _NEVER) if faulty else None
            for b, f in faulty:
                lane_links = die_at[b * links:(b + 1) * links]
                lane_links[f.dead_link_mask()] = f.active_from
            arming = {f.active_from for _, f in faulty}
            dropped = np.zeros(total, dtype=bool)
            end = np.zeros(total, dtype=np.int64)  # by row

            def drop(keys: np.ndarray, step: int) -> np.ndarray:
                doomed = die_at[keys >> shift] <= step
                rows = keys[doomed] & low
                end[rows] = step
                dropped[rows] = True
                return keys[~doomed]

            rest = movers = np.zeros(0, dtype=np.int64)
            group, step = 0, 0
            while rest.size or movers.size or group < len(joins):
                if not (rest.size or movers.size):
                    # no lane has a waiting packet: jump to the next release
                    # (idle steps are per-lane no-ops, so lane-local step
                    # numbers stay identical to the reference engine)
                    step = joins[group] - 1
                step += 1
                if step > max_steps:
                    raise RuntimeError(
                        f"simulation exceeded {max_steps} steps"
                    )
                # last tick's movers and this step's releases join the queue
                arrivals = [movers]
                if group < len(joins) and joins[group] == step:
                    lo, hi = bounds[group], bounds[group + 1]
                    arrivals.append(np.sort(pending[lo:hi]))
                    group += 1
                if die_at is not None:
                    if step in arming:
                        # a lane arms: drop what already waits on its
                        # dead links, not only what joins now
                        rest = drop(rest, step)
                    arrivals = [drop(keys, step) for keys in arrivals]
                # sorted runs: timsort merges them in linear time
                queue = np.concatenate([rest] + arrivals)
                queue.sort(kind="stable")
                if not queue.size:
                    rest = movers = queue
                    continue
                link = queue >> shift
                head = np.empty(queue.size, dtype=bool)
                head[0] = True
                np.not_equal(link[1:], link[:-1], out=head[1:])
                rest = queue[~head]
                # each link's head crosses it: a delivery, or a move on
                rows = queue[head] & low
                end[rows] = step
                hop = at[rows] + 1
                at[rows] = hop
                on = hop < stop[rows]
                movers = eids[hop[on]] | rows[on]
                movers.sort()

            done[order] = np.where(dropped, -1, end)
            last[order] = end
            if any(bool(r) for r in recorders):
                # each packet crossed every hop before the one it stopped at
                reached = np.empty(total, dtype=np.int64)
                reached[order] = at
                crossed = np.arange(eids.size) < np.repeat(reached, hops)
                link_counts = np.bincount(
                    eids[crossed] >> shift, minlength=num_lanes * links
                )

        results: List[SimResult] = []
        for b in range(num_lanes):
            lo, hi = int(offsets[b]), int(offsets[b + 1])
            lane_done = done[lo:hi]
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
                    steps=int(last[lo:hi].max()) if hi > lo else 0,
                    done_steps=tuple(lane_done.tolist()),
                    engine=self.engine,
                    recorder=rec,
                )
            )
        return results


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
        """Run one worm schedule (a batch of one lane); raises
        :class:`~repro.routing.wormhole.WormholeDeadlock` as the reference
        engine does."""
        [outcome] = self.run_many(
            [schedule], max_steps=max_steps, recorders=[recorder]
        )
        return outcome.result(self.engine, recorder)

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
        lanes = [make_worms(sched) for sched in schedules]
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
            self.host.n, *flatten_paths([w.path for w in worms])
        )
        num_flits = np.fromiter(
            (w.num_flits for w in worms), dtype=np.int64, count=total
        )
        release = np.fromiter(
            (w.release_step for w in worms), dtype=np.int64, count=total
        )
        cap = self.buffer_capacity
        links = self.host.num_edges
        cols = np.arange(eids.shape[1], dtype=np.int64)
        valid = cols < lengths[:, None]
        last = lengths - 1
        # the link tables cover only the lane-shifted links the batch uses;
        # ``slot`` maps every hop to its table entry (lanes never collide)
        used, inverse = np.unique(
            (eids + (lane * links)[:, None])[valid], return_inverse=True
        )
        slot = np.zeros_like(eids)
        slot[valid] = inverse
        # free_at: -1 never held, _HELD held with its release not yet fixed,
        # else the step the holder's tail crossed it; free at s iff < s
        free_at = np.full(used.size, -1, dtype=np.int64)
        owner = np.full(used.size, -1, dtype=np.int64)  # global row ids

        # Only head acquisitions are simulated.  With a_j the step a worm's
        # head acquired link j and c the buffer capacity, flit k crosses
        # link i at k + max over i <= j <= min(L - 1, i + k // c) of
        # a_j - (j - i) * c (the head flit crosses each link in the step
        # it is acquired), so the tail leaves link i as soon as the head
        # holds link min(L - 1, i + (M - 1) // c), and every other
        # observable follows at the end.  acq holds a_j, far below any
        # step where the head has not acquired link j yet.
        acq = np.full(eids.shape, -_HELD, dtype=np.int64)
        head = np.full(total, -1, dtype=np.int64)
        reach = (num_flits - 1) // cap

        # the waiting heads, in ascending global row order: their row, the
        # table entry of their next link and the first step they may take it
        # (never before step 1, the reference engine's first)
        wait = np.arange(total, dtype=np.int64)
        nxt = slot[:, 0].copy()
        ready = np.maximum(release, 1)
        while wait.size:
            cand = np.maximum(ready, free_at[nxt] + 1)
            step = int(cand.min())
            if step >= _HELD:
                # every waiting head wants a link whose release is unfixed,
                # and only waiting heads could fix one: each of their lanes
                # is deadlocked (a lane never waits on another)
                break
            if step > max_steps:
                raise RuntimeError(
                    f"wormhole simulation exceeded {max_steps} steps"
                )
            # one winner per link: the lowest global row, which is the
            # lane's lowest ident since global order is lane-major
            hit = (cand == step).nonzero()[0]
            won_links, first = np.unique(nxt[hit], return_index=True)
            win = hit[first]
            rows = wait[win]
            owner[won_links] = rows
            free_at[won_links] = _HELD
            h = head[rows] + 1
            head[rows] = h
            acq[rows, h] = step
            arrived = h == last[rows]

            # releases this acquisition fixes: link h - reach, and every link
            # after it once the head holds the last one
            fix_from = h - reach[rows]
            fix_to = np.where(arrived, h, fix_from)
            fixing = fix_to >= 0
            if fixing.any():
                fr = rows[fixing]
                fix = (cols >= fix_from[fixing, None]) & (cols <= fix_to[fixing, None])
                tail = (num_flits[fr] - 1)[:, None] + cols * cap + _suffix_max(
                    acq[fr] - cols * cap
                )
                free_at[slot[fr][fix]] = tail[fix]

            ready[win] = step + 1
            moving_on = ~arrived
            nxt[win[moving_on]] = slot[rows[moving_on], h[moving_on] + 1]
            if arrived.any():
                keep = np.ones(wait.size, dtype=bool)
                keep[win[arrived]] = False
                wait, nxt, ready = wait[keep], nxt[keep], ready[keep]

        # final state from the acquisition steps: a worm whose head holds
        # its last link is delivered M - 1 steps later with M flits on every
        # link; a stuck worm with its head at h fills (h - i + 1) * c
        # buffers behind link i, capped at M
        lane_dead = np.zeros(num_lanes, dtype=bool)
        lane_dead[lane[wait]] = True
        delivered = head == last
        done_step = np.where(
            delivered, acq[np.arange(total), last] + num_flits - 1, -1
        )
        crossed = np.where(
            cols <= head[:, None],
            np.where(
                delivered[:, None],
                num_flits[:, None],
                np.minimum(num_flits[:, None], (head[:, None] - cols + 1) * cap),
            ),
            0,
        )

        # a lane ends at its last arrival or, deadlocked, at the later of
        # its last release and the step after its last flit crossing (the
        # suffix max can overshoot a link's window, but only to below a
        # later link's head crossing, so each row's maximum is exact)
        row_end = done_step.copy()
        dead_rows = lane_dead[lane].nonzero()[0]
        if dead_rows.size:
            flits = crossed[dead_rows]
            last_cross = np.where(
                flits > 0,
                flits - 1 + cols * cap + _suffix_max(acq[dead_rows] - cols * cap),
                0,
            ).max(axis=1)
            row_end[dead_rows] = np.maximum(last_cross + 1, release[dead_rows])
        lane_end = np.zeros(num_lanes, dtype=np.int64)
        np.maximum.at(lane_end, lane, row_end)
        if int(lane_end.max()) > max_steps:
            raise RuntimeError(
                f"wormhole simulation exceeded {max_steps} steps"
            )

        link_counts = None
        if any(bool(r) for r in recorders):
            link_counts = np.zeros(used.size, dtype=np.int64)
            np.add.at(link_counts, slot[valid], crossed[valid])
        bounds = np.searchsorted(
            used, np.arange(num_lanes + 1, dtype=np.int64) * links
        ).tolist()

        # final per-worm state as plain Python ints, converted in bulk
        for worm, flits, hops, h, done in zip(
            worms, crossed.tolist(), lengths.tolist(), head.tolist(),
            done_step.tolist(),
        ):
            worm.flits_crossed = flits[:hops]
            worm.head_link = h
            worm.done_step = None if done < 0 else done
        outcomes: List[WormLaneOutcome] = []
        for b in range(num_lanes):
            lo, hi = int(offsets[b]), int(offsets[b + 1])
            first_slot, end_slot = bounds[b], bounds[b + 1]
            lane_links = used[first_slot:end_slot] - b * links
            held = free_at[first_slot:end_slot] >= _HELD
            lane_owner = dict(
                zip(
                    lane_links[held].tolist(),
                    (owner[first_slot:end_slot][held] - lo).tolist(),
                )
            )
            rec = recorders[b]
            if rec:
                cnt = link_counts[first_slot:end_slot]
                nonzero = cnt > 0
                rec.add_link_counts(lane_links[nonzero], cnt[nonzero])
                lane_done = done_step[lo:hi]
                rec.add_deliveries(lane_done[lane_done >= 0])
            message = None
            if lane_dead[b]:
                stuck_worms = int(np.count_nonzero(~delivered[lo:hi]))
                message = (
                    f"{stuck_worms} worms deadlocked at step {int(lane_end[b])}"
                )
            outcomes.append(
                WormLaneOutcome(
                    makespan=None if message else int(lane_end[b]),
                    deadlock=message,
                    worms=lanes[b],
                    owner=lane_owner,
                )
            )
        return outcomes


def _suffix_max(values: np.ndarray) -> np.ndarray:
    """Per row, the maximum of ``values`` from each column to the last."""
    return np.maximum.accumulate(values[:, ::-1], axis=1)[:, ::-1]

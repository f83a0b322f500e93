"""Tests for the batched tensor engines and their differential harness.

Three layers:

* engine semantics — protocol conformance, empty/degenerate lanes,
  per-lane fault drops, wormhole deadlock freezing, runs that end on a
  boundary the engines compare against, large store-and-forward and
  wormhole batches whose lanes end at different times, and the
  fault-arming lane, whose queue is dropped when its link dies;
* metamorphic properties — permuting a batch permutes results, a batch
  of one equals the reference engine, splitting a batch and concatenating
  the results is the identity, and removing a lane's lowest-priority
  packet changes no other packet's done step;
* the QA harness — seeded ``batched_differential`` fuzz smoke, the
  fault-activation edge matrix across the reference engine and both
  batched entry points (``run`` and ``run_many``), and a mutation test
  proving an injected arbitration bug is caught and shrunk to a minimal
  batch, by the lane check and by the fuzzer's ``differential`` stage.
"""

from pathlib import Path

import numpy as np
import pytest

import repro.routing.batched as batched_module
from repro._compat import resolve_rng
from repro.fault.faults import FaultModel
from repro.hypercube.graph import Hypercube
from repro.obs.recorder import LinkRecorder
from repro.qa.differential import (
    _worm_outcomes,
    batched_differential_check,
    batched_wormhole_differential_check,
)
from repro.qa.corpus import CorpusEntry
from repro.qa.fuzzer import STAGES, Fuzzer
from repro.qa.schedules import (
    ARMING_QUEUE,
    DEADLOCK_CYCLE,
    arming_faults,
    random_schedule_batch,
    random_worm_schedule_batch,
)
from repro.routing import (
    BatchedStoreForward,
    BatchedWormhole,
    Simulator,
    StoreForwardSimulator,
    WormholeDeadlock,
    WormholeSimulator,
)


def _measured(results):
    return [r.measured() for r in results]


def _scalar(host, schedule, faults=None):
    rec = LinkRecorder(host=host)
    res = StoreForwardSimulator(host, tie_break="priority").run(
        schedule, recorder=rec, faults=faults
    )
    # queue peaks are a reference-only sample with no batched counterpart
    rec.queue_peak.clear()
    return res.measured(), rec.snapshot()


class TestProtocol:
    def test_both_engines_satisfy_simulator_protocol(self):
        host = Hypercube(3)
        assert isinstance(BatchedStoreForward(host), Simulator)
        assert isinstance(BatchedWormhole(host), Simulator)

    def test_run_is_run_many_of_one(self):
        host = Hypercube(3)
        schedule = [((0, 1, 3), 1), ((5, 1, 3), 1)]
        single = BatchedStoreForward(host).run(schedule)
        [batched] = BatchedStoreForward(host).run_many([schedule])
        assert single.measured() == batched.measured()

    def test_empty_batch_and_empty_lane(self):
        host = Hypercube(3)
        assert BatchedStoreForward(host).run_many([]) == []
        [res] = BatchedStoreForward(host).run_many([[]])
        assert res.makespan == 0 and res.delivered == 0
        [out] = BatchedWormhole(host).run_many([[]])
        assert out.makespan == 0 and out.deadlock is None

    def test_zero_hop_lane_delivers_at_step_zero(self):
        host = Hypercube(3)
        [res] = BatchedStoreForward(host).run_many([[(3,)]])
        assert res.delivered == 1
        assert res.done_steps == (0,)
        # an all-zero-hop batch: its edge matrix has no columns at all
        [res] = BatchedStoreForward(host).run_many([[((0,), 1), ((5,), 2)]])
        assert res.done_steps == (0, 0) and res.makespan == 0

    def test_multi_packet_service_time_rejected(self):
        from repro.routing.api import SimRequest

        host = Hypercube(3)
        req = SimRequest(path=(0, 1), release_step=1, service_time=2)
        with pytest.raises(ValueError, match="unit service time"):
            BatchedStoreForward(host).run_many([[req]])

    def test_single_recorder_is_not_broadcast(self):
        host = Hypercube(3)
        rec = LinkRecorder(host=host)
        with pytest.raises(ValueError, match="per-lane"):
            BatchedStoreForward(host).run_many(
                [[((0, 1), 1)], [((2, 3), 1)]], recorders=rec
            )

    def test_fault_sequence_length_must_match(self):
        host = Hypercube(3)
        fm = FaultModel.random_links(host, k=1, seed=1)
        with pytest.raises(ValueError):
            BatchedStoreForward(host).run_many(
                [[((0, 1), 1)], [((2, 3), 1)]], faults=[fm]
            )

    def test_wormhole_run_raises_on_deadlock(self):
        host = Hypercube(2)
        # 4-cycle of 2-link worms: each holds its first link and waits
        # forever for the next one, held by the next worm
        cycle = [(0, 1, 3), (1, 3, 2), (3, 2, 0), (2, 0, 1)]
        schedule = [(path, 4, 1) for path in cycle]
        with pytest.raises(WormholeDeadlock) as scalar_err:
            WormholeSimulator(host).run(schedule)
        with pytest.raises(WormholeDeadlock) as batched_err:
            BatchedWormhole(host).run(schedule)
        assert str(batched_err.value) == str(scalar_err.value)

    def test_deadlocked_lane_freezes_while_others_finish(self):
        host = Hypercube(2)
        cycle = [(0, 1, 3), (1, 3, 2), (3, 2, 0), (2, 0, 1)]
        dead_lane = [(path, 4, 1) for path in cycle]
        live_lane = [((0, 1, 3), 6, 1)]
        dead, live = BatchedWormhole(host).run_many([dead_lane, live_lane])
        assert dead.deadlocked and "deadlocked" in dead.deadlock
        assert live.deadlock is None
        assert live.worms[0].done_step == 2 + 6 - 1


def _rotated_route(n, u, v, rot):
    """Dimension-order route from u to v starting at dimension ``rot``."""
    path, cur = [u], u
    for k in range(n):
        d = (k + rot) % n
        if (cur ^ v) >> d & 1:
            cur ^= 1 << d
            path.append(cur)
    return tuple(path)


class TestCompaction:
    """A wormhole batch of over 256 worms, with a deadlocked lane beside
    lanes whose late releases keep the run going: every lane matches the
    reference engine and a batch of one field-for-field."""

    N = 5
    CAP = 2

    def _batch(self):
        rng = resolve_rng("compaction")
        size = 1 << self.N

        def worms(count, last_release, rotate):
            out = []
            for _ in range(count):
                u, v = rng.sample(range(size), 2)
                rot = rng.randrange(self.N) if rotate else 0
                out.append(
                    (
                        _rotated_route(self.N, u, v, rot),
                        rng.randint(1, 6),
                        rng.randint(1, last_release),
                    )
                )
            return out

        # an early lane, the deadlocking lane (its four-worm cycle is
        # longer than the node buffers), and two lanes whose late releases
        # keep the run going long after the deadlock
        return [
            worms(150, 3, rotate=False),
            DEADLOCK_CYCLE + worms(150, 3, rotate=True),
            worms(250, 70, rotate=False),
            worms(250, 120, rotate=False),
        ]

    def test_compacted_lanes_match_reference(self):
        host = Hypercube(self.N)
        batch = self._batch()
        fast = BatchedWormhole(host, buffer_capacity=self.CAP)
        outs = _worm_outcomes(fast, batch)
        assert sum(len(lane) for lane in batch) > 256
        assert [o["deadlock"] is not None for o in outs] == [
            False, True, False, False,
        ]
        reference = _worm_outcomes(
            WormholeSimulator(host, buffer_capacity=self.CAP), batch
        )
        for lane, out, ref in zip(batch, outs, reference):
            [single] = _worm_outcomes(fast, [lane])
            assert out == ref == single


class TestStoreForwardLargeBatch:
    """A packet batch of over 256 rows whose lanes end at different times,
    two of them with faults that arm mid-run: every lane matches the
    reference engine and a batch of one field-for-field, recorder
    snapshot included."""

    N = 5

    def _batch(self):
        rng = resolve_rng("sf-compaction")
        size = 1 << self.N

        def packets(count, last_release, zero_hop=0):
            out = []
            for _ in range(count):
                u, v = rng.sample(range(size), 2)
                path = _rotated_route(self.N, u, v, rng.randrange(self.N))
                out.append((path, rng.randint(1, last_release)))
            for _ in range(zero_hop):
                out.append(((rng.randrange(size),), rng.randint(1, 5)))
            rng.shuffle(out)
            return out

        # an early lane, and lanes whose late releases keep the run going
        # long after it
        return [
            packets(200, 3, zero_hop=6),
            packets(180, 40, zero_hop=4),
            packets(200, 100),
            packets(180, 160),
        ]

    def _faults(self, host):
        rng = resolve_rng("sf-compaction-faults")
        return [
            FaultModel.random_links(host, k=3, rng=rng),
            # armed mid-run, after the early lane's packets have arrived
            FaultModel.random_links(host, k=4, rng=rng, active_from=25),
            None,
            FaultModel.random_links(host, k=2, rng=rng, active_from=60),
        ]

    def _observable(self, result, recorder):
        return result.measured(), recorder.snapshot()

    def test_lanes_match_reference_and_batch_of_one(self):
        host = Hypercube(self.N)
        batch, faults = self._batch(), self._faults(host)
        recs = [LinkRecorder(host=host) for _ in batch]
        results = BatchedStoreForward(host).run_many(
            batch, recorders=recs, faults=faults
        )
        assert sum(len(lane) for lane in batch) > 256
        assert any(-1 in r.done_steps for r in results[:2])
        for lane, fault, res, rec in zip(batch, faults, results, recs):
            # the reference and a batch of one (each lane alone is small)
            # must both match the lane of the large batch
            assert len(lane) <= 256
            single_rec = LinkRecorder(host=host)
            [single] = BatchedStoreForward(host).run_many(
                [lane], recorders=[single_rec], faults=[fault]
            )
            got = self._observable(res, rec)
            assert got == _scalar(host, lane, faults=fault)
            assert got == self._observable(single, single_rec)


class TestBatchingNeverChangesALane:
    """Running a lane inside a batch is pure bookkeeping: on random
    batches, half their lanes with faults, every store-and-forward lane
    gives the same measured fields and recorder snapshot as the same lane
    run alone, a batch of one.  The wormhole batches, every other one
    with a deadlocked lane, are checked lane for lane against the
    reference."""

    SEEDS = 120

    def _batch(self, seed):
        rng = resolve_rng(f"compaction-floor:{seed}")
        host = Hypercube(3 + seed % 3)
        batch = random_schedule_batch(host, rng, max_packets=20)
        faults = [
            FaultModel.random_links(
                host, k=rng.randint(1, 3), rng=rng,
                active_from=rng.choice([0, 2, 5]),
            )
            if rng.random() < 0.5
            else None
            for _ in batch
        ]
        worm_batch = random_worm_schedule_batch(host, rng)
        if seed % 2:
            # random lanes seldom deadlock: every other batch carries one
            worm_batch.append(DEADLOCK_CYCLE + worm_batch.pop())
        return host, batch, faults, worm_batch

    @staticmethod
    def _observed(host, batch, faults):
        recs = [LinkRecorder(host=host) for _ in batch]
        got = BatchedStoreForward(host).run_many(
            batch, recorders=recs, faults=faults
        )
        return [(r.measured(), rec.snapshot()) for r, rec in zip(got, recs)]

    def test_lanes_match_batches_of_one(self):
        for seed in range(self.SEEDS):
            host, batch, faults, _ = self._batch(seed)
            alone = [
                self._observed(host, [lane], [fault])[0]
                for lane, fault in zip(batch, faults)
            ]
            assert self._observed(host, batch, faults) == alone
        deadlocked = 0
        for seed in range(self.SEEDS):
            host, _, _, worm_batch = self._batch(seed)
            outcomes = _worm_outcomes(BatchedWormhole(host), worm_batch)
            reference = _worm_outcomes(WormholeSimulator(host), worm_batch)
            assert outcomes == reference
            deadlocked += sum(o["deadlock"] is not None for o in outcomes)
        assert deadlocked


class TestBoundaries:
    """Runs that end exactly where a comparison in the batched engines
    decides: the last step the budget allows, a deadlock in a lane's last
    release step, an empty lane beside a busy one.  Flipping any of those
    comparisons (``>`` to ``>=``, ``<=`` to ``<``) passes the random lane
    differentials, so each case is pinned here against the reference."""

    PACKETS = [((0, 1, 3), 1), ((0, 1, 3), 1), ((0, 1), 3)]  # done at step 3
    WORMS = [((0, 1, 3), 3, 1), ((0, 1), 2, 1)]  # done at step 5

    @staticmethod
    def _reference_worms(host, schedule, max_steps=10_000_000):
        return WormholeSimulator(host).run(schedule, max_steps=max_steps).makespan

    def test_max_steps_admits_the_last_step(self):
        host = Hypercube(2)
        reference = StoreForwardSimulator(host, tie_break="priority")
        runs = [
            (3, lambda m: reference.run(self.PACKETS, max_steps=m).makespan),
            (3, lambda m: BatchedStoreForward(host).run(
                self.PACKETS, max_steps=m).makespan),
            (5, lambda m: self._reference_worms(host, self.WORMS, m)),
            (5, lambda m: BatchedWormhole(host).run(
                self.WORMS, max_steps=m).makespan),
        ]
        for last, run in runs:
            assert run(last) == last
            with pytest.raises(RuntimeError, match="exceeded"):
                run(last - 1)

    def test_deadlock_in_the_last_release_step(self):
        host = Hypercube(2)
        # the four-worm cycle deadlocks early, but the lane is only stuck
        # once its last worm, released at step 20 into a held link, is out
        lane = DEADLOCK_CYCLE + [((0, 1), 2, 20)]
        message = "5 worms deadlocked at step 20"
        with pytest.raises(WormholeDeadlock, match=message):
            self._reference_worms(host, lane)
        [out] = BatchedWormhole(host).run_many([lane])
        assert out.deadlock == message
        assert batched_wormhole_differential_check(host, [lane]) is None

    def test_empty_worm_lane_beside_a_busy_one(self):
        host = Hypercube(2)
        batch = [[], [((0, 1), 2, 1)]]
        for lanes in (batch, batch[::-1]):
            assert batched_wormhole_differential_check(host, lanes) is None


class TestMetamorphic:
    def _batch(self, host, seed, lanes=5):
        rng = resolve_rng(f"meta:{seed}")
        batch = random_schedule_batch(host, rng, max_lanes=1)
        while len(batch) < lanes:
            batch += random_schedule_batch(host, rng, max_lanes=1)
        return batch[:lanes]

    @pytest.mark.parametrize("seed", range(3))
    def test_batch_permutation_permutes_results(self, seed):
        host = Hypercube(3)
        batch = self._batch(host, seed)
        rng = resolve_rng(f"perm:{seed}")
        order = list(range(len(batch)))
        rng.shuffle(order)
        base = _measured(BatchedStoreForward(host).run_many(batch))
        shuffled = _measured(
            BatchedStoreForward(host).run_many([batch[i] for i in order])
        )
        assert shuffled == [base[i] for i in order]

    @pytest.mark.parametrize("seed", range(3))
    def test_batch_of_one_equals_scalar_engine(self, seed):
        host = Hypercube(3)
        for lane in self._batch(host, seed, lanes=3):
            rec = LinkRecorder(host=host)
            [res] = BatchedStoreForward(host).run_many(
                [lane], recorders=[rec]
            )
            scalar, scalar_snap = _scalar(host, lane)
            assert res.measured() == scalar
            assert rec.snapshot() == scalar_snap

    @pytest.mark.parametrize("seed", range(3))
    def test_split_batch_and_concat_is_identity(self, seed):
        host = Hypercube(3)
        batch = self._batch(host, seed)
        whole = _measured(BatchedStoreForward(host).run_many(batch))
        half = len(batch) // 2
        left = _measured(BatchedStoreForward(host).run_many(batch[:half]))
        right = _measured(BatchedStoreForward(host).run_many(batch[half:]))
        assert left + right == whole

    @pytest.mark.parametrize("seed", range(3))
    def test_wormhole_batch_metamorphics(self, seed):
        host = Hypercube(3)
        rng = resolve_rng(f"worm-meta:{seed}")
        batch = random_worm_schedule_batch(host, rng, max_lanes=3)
        engine = BatchedWormhole(host)
        whole = _worm_outcomes(engine, batch)
        # a batch of one equals the same lane inside the batch
        for lane, expect in zip(batch, whole):
            assert _worm_outcomes(engine, [lane]) == [expect]
        # reversing the batch reverses the outcomes
        assert _worm_outcomes(engine, batch[::-1]) == whole[::-1]


class TestLowestPriorityPacket:
    """The premise of the store-and-forward queue: priorities are fixed for
    a run, so a packet only ever waits behind higher-priority ones, and a
    lane's lowest-priority packet (its last) delays no other.  Removing it
    leaves every other packet's done step unchanged, with and without
    faults, in the reference engine and in the batched one."""

    SEEDS = 60

    @pytest.mark.parametrize("faulty", [False, True])
    def test_removing_it_changes_no_other_done_step(self, faulty):
        waits = {"reference": 0, "batched": 0}
        for seed in range(self.SEEDS):
            rng = resolve_rng(f"lowest-priority:{seed}")
            host = Hypercube(3 + seed % 2)
            batch = [
                lane
                for lane in random_schedule_batch(host, rng, max_packets=30)
                if lane
            ]
            faults = [
                FaultModel.random_links(
                    host, k=rng.randint(1, 3), rng=rng,
                    active_from=rng.choice([0, 2, 4]),
                )
                if faulty
                else None
                for _ in batch
            ]
            cut = [lane[:-1] for lane in batch]
            reference = StoreForwardSimulator(host, tie_break="priority")
            fast = BatchedStoreForward(host)
            runs = {
                "reference": [
                    (reference.run(lane, faults=f), reference.run(less, faults=f))
                    for lane, less, f in zip(batch, cut, faults)
                ],
                "batched": zip(
                    fast.run_many(batch, faults=faults),
                    fast.run_many(cut, faults=faults),
                ),
            }
            for engine, pairs in runs.items():
                for lane, (whole, less) in zip(batch, pairs):
                    assert whole.done_steps[:-1] == less.done_steps
                    # count removed packets that waited, so the property
                    # is not vacuous
                    path, release = lane[-1]
                    waits[engine] += whole.done_steps[-1] > release + len(path) - 2
        assert all(waits.values())


class TestFaultActivationEdges:
    """``active_from`` at step 0, the final step, and past ``max_steps``
    must drop the same packets in the reference engine and in both batched
    entry points: ``run`` (a per-lane fault list of one) and ``run_many``
    (one model broadcast to the lane)."""

    def _all_engines(self, host, schedule, faults):
        reference = StoreForwardSimulator(host, tie_break="priority").run(
            schedule, faults=faults
        )
        fast = BatchedStoreForward(host).run(schedule, faults=faults)
        [batched] = BatchedStoreForward(host).run_many(
            [schedule], faults=faults
        )
        return reference, fast, batched

    def _schedule_and_fault(self, seed):
        host = Hypercube(3)
        rng = resolve_rng(f"fault-edge:{seed}")
        [schedule] = random_schedule_batch(host, rng, max_lanes=1)
        fault = FaultModel.random_links(host, k=2, rng=rng)
        return host, schedule, fault

    @pytest.mark.parametrize("seed", range(4))
    def test_active_from_step_zero(self, seed):
        host, schedule, fault = self._schedule_and_fault(seed)
        models = FaultModel(
            host, fault.failed, fault.failed_nodes, active_from=0
        )
        ref, fast, batched = self._all_engines(host, schedule, models)
        assert ref.measured() == fast.measured() == batched.measured()

    @pytest.mark.parametrize("seed", range(4))
    def test_active_from_final_step(self, seed):
        host, schedule, fault = self._schedule_and_fault(seed)
        clean = StoreForwardSimulator(host, tie_break="priority").run(schedule)
        final = max(1, clean.makespan)
        models = FaultModel(
            host, fault.failed, fault.failed_nodes, active_from=final
        )
        ref, fast, batched = self._all_engines(host, schedule, models)
        assert ref.measured() == fast.measured() == batched.measured()

    @pytest.mark.parametrize("seed", range(4))
    def test_active_from_past_max_steps_is_a_clean_run(self, seed):
        host, schedule, fault = self._schedule_and_fault(seed)
        models = FaultModel(
            host, fault.failed, fault.failed_nodes, active_from=10**9
        )
        ref, fast, batched = self._all_engines(host, schedule, models)
        clean = StoreForwardSimulator(host, tie_break="priority").run(schedule)
        assert ref.measured() == fast.measured() == batched.measured()
        assert batched.measured() == clean.measured()
        assert -1 not in batched.done_steps


class TestArmingSweep:
    """The fault-arming lane (``ARMING_QUEUE``): four packets wait on a
    link when it dies, and the sweep of the queue at the lane's arming
    step must drop them, alone and in a batch whose other lanes arm at
    other steps.  A sweep a step late, or none, lets them cross."""

    def test_arming_lane_matches_reference(self):
        for n in (2, 4):
            host = Hypercube(n)
            fault = arming_faults(host)
            reference = _scalar(host, ARMING_QUEUE, faults=fault)
            assert reference[0]["done_steps"] == (2, 3) + (-1,) * 6
            assert reference[0]["steps"] == 5
            rec = LinkRecorder(host=host)
            [res] = BatchedStoreForward(host).run_many(
                [ARMING_QUEUE], recorders=[rec], faults=[fault]
            )
            assert (res.measured(), rec.snapshot()) == reference

    def test_arming_lane_in_a_batch(self):
        host = Hypercube(4)
        rng = resolve_rng("arming-batch")
        batch = random_schedule_batch(host, rng, max_lanes=4, max_packets=30)
        faults = [
            FaultModel.random_links(
                host, k=2, rng=rng, active_from=rng.choice([1, 2, 4, 6])
            )
            for _ in batch
        ]
        batch.append(ARMING_QUEUE)
        faults.append(arming_faults(host))
        assert batched_differential_check(host, batch, faults=faults) is None


class TestBatchedDifferential:
    def test_stage_is_registered(self):
        assert "batched_differential" in STAGES

    def test_hundred_seed_smoke(self):
        host = Hypercube(3)
        for i in range(100):
            rng = resolve_rng(f"batched-smoke:{i}")
            batch = random_schedule_batch(host, rng, max_lanes=3)
            faults = None
            if rng.random() < 0.4:
                faults = [
                    FaultModel.random_links(
                        host, k=1, rng=rng,
                        active_from=rng.choice([0, 1, 3]),
                    )
                    if rng.random() < 0.5
                    else None
                    for _ in batch
                ]
            assert (
                batched_differential_check(host, batch, faults=faults)
                is None
            )

    def test_wormhole_smoke(self):
        host = Hypercube(3)
        for i in range(40):
            rng = resolve_rng(f"batched-worm-smoke:{i}")
            batch = random_worm_schedule_batch(host, rng)
            assert batched_wormhole_differential_check(host, batch) is None

    def test_fuzzer_runs_the_stage(self):
        fuzzer = Fuzzer(checks=("build", "batched_differential"))
        report = fuzzer.run(seeds=5)
        assert report.points == 5
        assert not report.failures


class _ReversedArbitration(BatchedStoreForward):
    """Sabotage: highest injection index wins links instead of lowest."""

    def _priorities(self, total):
        return np.arange(total - 1, -1, -1, dtype=np.int64)


class _ExtraBufferSlot(BatchedWormhole):
    """Sabotaged: one more flit buffer slot than asked for."""

    def __init__(self, host, buffer_capacity=1):
        super().__init__(host, buffer_capacity=buffer_capacity + 1)


class _FaultBlind(BatchedStoreForward):
    """Sabotaged: runs every lane as if no link had failed."""

    def run_many(self, schedules, *, max_steps=10_000_000, recorders=None,
                 faults=None):
        return super().run_many(
            schedules, max_steps=max_steps, recorders=recorders
        )


class _FlatPriorities(BatchedStoreForward):
    """Every packet ties: arbitration must fall back to injection order."""

    def _priorities(self, total):
        return np.zeros(total, dtype=np.int64)


class TestMutation:
    def _colliding_batch(self):
        # lane 0: three packets contending for node 1's outgoing links;
        # lane 1: a decoy that never collides
        return [
            [((0, 1, 3), 1), ((2, 0, 1), 1), ((4, 0, 1, 5), 1)],
            [((6, 7), 1), ((5, 4), 2)],
        ]

    def test_injected_arbitration_bug_is_caught_and_shrunk(self):
        host = Hypercube(3)
        divergence = batched_differential_check(
            host, self._colliding_batch(), batched_cls=_ReversedArbitration
        )
        assert divergence is not None
        assert "done_steps" in divergence.fields or "makespan" in (
            divergence.fields
        )
        # shrunk to a minimal reproducer: one lane, at most two packets
        assert len(divergence.schedules) == 1
        assert len(divergence.schedules[divergence.lane]) <= 2

    def test_monkeypatched_engine_is_picked_up(self, monkeypatch):
        import repro.qa.differential as differential

        monkeypatch.setattr(
            differential, "BatchedStoreForward", _ReversedArbitration
        )
        divergence = differential.batched_differential_check(
            Hypercube(3), self._colliding_batch()
        )
        assert divergence is not None

    def test_differential_stage_saves_and_replays_the_shrunk_lane(
        self, monkeypatch
    ):
        import repro.qa.differential as differential

        monkeypatch.setattr(
            differential, "BatchedStoreForward", _ReversedArbitration
        )
        failure = Fuzzer(checks=("build", "differential")).check_point(
            "cycle", {"n": 4}, "0:point:0"
        )
        assert failure is not None and failure.stage == "differential"
        assert len(failure.schedule) == 2  # shrunk to one contending pair
        # with every stage off, replay still re-checks the saved schedule
        entry = failure.to_entry("0:point:0")
        replayed = Fuzzer(checks=("build",)).replay(entry)
        assert replayed is not None and replayed.stage == "differential"
        assert replayed.schedule == entry.schedule

    @pytest.mark.parametrize(
        "stage, point", [("differential", 1), ("batched_differential", 13)]
    )
    def test_worm_stages_save_and_replay_the_shrunk_lane(
        self, monkeypatch, stage, point
    ):
        import repro.qa.differential as differential

        seed = f"0:point:{point}"
        monkeypatch.setattr(differential, "BatchedWormhole", _ExtraBufferSlot)
        failure = Fuzzer(checks=("build", stage)).check_point(
            "cycle", {"n": 4}, seed
        )
        assert failure is not None and failure.stage == stage
        assert "wormhole" in failure.detail
        assert failure.schedule and all(len(item) == 3 for item in failure.schedule)
        # with every stage off, replay re-checks the saved worm lane
        entry = failure.to_entry(seed)
        replayed = Fuzzer(checks=("build",)).replay(entry)
        assert replayed is not None and replayed.stage == stage
        assert replayed.schedule == entry.schedule
        monkeypatch.setattr(differential, "BatchedWormhole", BatchedWormhole)
        assert Fuzzer(checks=("build",)).replay(entry) is None

    def test_fault_dependent_lane_replays_with_its_faults(self, monkeypatch):
        import repro.qa.differential as differential

        seed = "0:point:0"
        monkeypatch.setattr(differential, "BatchedStoreForward", _FaultBlind)
        failure = Fuzzer(checks=("build", "batched_differential")).check_point(
            "cycle", {"n": 4}, seed
        )
        assert failure is not None and failure.stage == "batched_differential"
        assert "faults=yes" in failure.detail
        # the saved lane diverges only under its faults: replay must rebuild
        # them, or it reports the bug fixed while the engine still has it
        entry = CorpusEntry.from_json(failure.to_entry(seed).to_json())
        replayed = Fuzzer(checks=("build",)).replay(entry)
        assert replayed is not None and replayed.stage == "batched_differential"
        assert entry.faults is not None and replayed.faults == entry.faults
        monkeypatch.setattr(
            differential, "BatchedStoreForward", BatchedStoreForward
        )
        assert Fuzzer(checks=("build",)).replay(entry) is None

    def test_clean_engine_passes_the_same_batch(self):
        host = Hypercube(3)
        assert (
            batched_differential_check(host, self._colliding_batch()) is None
        )

    def test_tied_priorities_resolve_by_injection_order(self):
        host = Hypercube(3)
        batches = [self._colliding_batch()]
        for i in range(20):
            rng = resolve_rng(f"flat-priorities:{i}")
            batches.append(random_schedule_batch(host, rng, max_lanes=3))
        for batch in batches:
            assert (
                batched_differential_check(
                    host, batch, batched_cls=_FlatPriorities
                )
                is None
            )

    def test_no_lexsort_arbitration(self):
        """Guards only against ``lexsort`` returning to the engine; the
        store-and-forward tick does sort (a stable merge of sorted runs)."""
        source = Path(batched_module.__file__).read_text()
        assert "lexsort" not in source

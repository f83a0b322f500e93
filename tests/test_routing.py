"""Tests for the routing substrate: schedules, store-and-forward, wormhole."""

import pytest

from repro.core.cycle_multicopy import graycode_cycle_embedding
from repro.hypercube.graph import Hypercube
from repro.qa.schedules import DEADLOCK_CYCLE
from repro.routing.schedule import (
    PacketSchedule,
    ScheduledPacket,
    p_packet_cost_singlepath,
    singlepath_cost_lower_bound,
)
from repro.routing.simulator import StoreForwardSimulator
from repro.routing.wormhole import WormholeSimulator


class TestScheduledPacket:
    def test_valid(self):
        ScheduledPacket((0, 1, 3), (1, 2))

    def test_step_count_mismatch(self):
        with pytest.raises(ValueError):
            ScheduledPacket((0, 1, 3), (1,))

    def test_non_increasing_steps(self):
        with pytest.raises(ValueError):
            ScheduledPacket((0, 1, 3), (2, 2))

    def test_steps_start_at_one(self):
        with pytest.raises(ValueError):
            ScheduledPacket((0, 1), (0,))


class TestPacketSchedule:
    def test_conflict_detection(self):
        host = Hypercube(3)
        sched = PacketSchedule(
            host,
            [ScheduledPacket((0, 1), (1,)), ScheduledPacket((0, 1), (1,))],
        )
        with pytest.raises(AssertionError):
            sched.verify()

    def test_same_link_different_steps_ok(self):
        host = Hypercube(3)
        sched = PacketSchedule(
            host,
            [ScheduledPacket((0, 1), (1,)), ScheduledPacket((0, 1), (2,))],
        )
        sched.verify()
        assert sched.makespan == 2

    def test_busy_fraction(self):
        host = Hypercube(2)  # 8 directed links
        sched = PacketSchedule(host, [ScheduledPacket((0, 1), (1,))])
        assert sched.busy_link_fraction() == 1 / 8


class TestStoreForward:
    def test_single_packet_takes_path_length(self):
        sim = StoreForwardSimulator(Hypercube(4))
        assert sim.run([[0, 1, 3, 7, 15]]).makespan == 4

    def test_fifo_contention_serializes(self):
        sim = StoreForwardSimulator(Hypercube(3))
        assert sim.run([[0, 1]] * 5).makespan == 5

    def test_pipelining(self):
        # packets released 1 apart down a 3-hop path finish 1 apart
        sim = StoreForwardSimulator(Hypercube(3))
        res = sim.run([([0, 1, 3, 7], 1), ([0, 1, 3, 7], 2)])
        assert res.makespan == 4
        assert res.done_steps == (3, 4)

    def test_zero_hop_packet(self):
        res = StoreForwardSimulator(Hypercube(3)).run([[5]])
        assert res.makespan == 0
        assert res.done_steps == (0,)

    def test_release_delays(self):
        sim = StoreForwardSimulator(Hypercube(3))
        assert sim.run([([0, 4], 10)]).makespan == 10

    def test_gray_baseline_cost_is_p(self):
        emb = graycode_cycle_embedding(5)
        for p in (1, 3, 9):
            assert p_packet_cost_singlepath(emb, p) == p
            assert singlepath_cost_lower_bound(emb, p) == p


class TestWormhole:
    def test_free_path_pipelines(self):
        sim = WormholeSimulator(Hypercube(4))
        # L + M - 1 steps
        assert sim.run([([0, 1, 3, 7, 15], 10, 1)]).makespan == 4 + 10 - 1

    def test_single_flit_is_store_and_forward(self):
        sim = WormholeSimulator(Hypercube(4))
        assert sim.run([([0, 1, 3, 7], 1, 1)]).makespan == 3

    def test_blocking_serializes_on_shared_link(self):
        host = Hypercube(3)
        sim = WormholeSimulator(host)
        # the second worm shares link 1->3
        w1, w2 = sim.run([([0, 1, 3], 8, 1), ([5, 1, 3], 8, 1)]).done_steps
        # second worm must wait for the first tail to release the link:
        # worm1 holds 1->3 during steps 2..9, worm2 crosses after
        assert w1 == 2 + 8 - 1
        assert w2 >= 8 + 8

    def test_larger_buffers_are_cut_through(self):
        # with huge buffers a blocked worm compresses into the node and the
        # link releases earlier
        host = Hypercube(3)
        schedule = [([0, 1, 3], 8, 1), ([5, 1, 3], 8, 1)]
        slow = WormholeSimulator(host, buffer_capacity=1).run(schedule)
        fast = WormholeSimulator(host, buffer_capacity=64).run(schedule)
        assert fast.makespan <= slow.makespan

    def test_invalid_args(self):
        sim = WormholeSimulator(Hypercube(3))
        with pytest.raises(ValueError):
            sim.run([([0], 2, 1)])
        with pytest.raises(ValueError):
            sim.run([([0, 1], 0, 1)])
        with pytest.raises(ValueError):
            WormholeSimulator(Hypercube(3), buffer_capacity=0)


class TestWormholeDeadlock:
    def test_cyclic_wait_detected(self):
        from repro.routing.wormhole import WormholeDeadlock, WormholeSimulator

        # four worms chasing each other around the 4-cycle 0-1-3-2-0:
        # each one's head needs the link its predecessor holds
        with pytest.raises(WormholeDeadlock):
            WormholeSimulator(Hypercube(2)).run(DEADLOCK_CYCLE)

    def test_cut_through_buffers_break_the_cycle(self):
        from repro.routing.wormhole import WormholeSimulator

        sim = WormholeSimulator(Hypercube(2), buffer_capacity=8)
        assert sim.run(DEADLOCK_CYCLE).makespan > 0  # completes

    def test_max_steps_guard(self):
        from repro.routing.simulator import StoreForwardSimulator

        sim = StoreForwardSimulator(Hypercube(3))
        with pytest.raises(RuntimeError):
            sim.run([[0, 1]], max_steps=0)


class TestRepeatRunRegressions:
    """Regression: a second run() on one instance must not hang or mix
    state — it equals a fresh instance's run."""

    def test_wormhole_double_run_returns_immediately(self):
        # the reference engine used to resume a finished run, and counting
        # already-delivered worms once spun it to max_steps
        sim = WormholeSimulator(Hypercube(3))
        schedule = [([0, 1, 3], 4, 1), ([5, 1, 3], 2, 2)]
        first = sim.run(schedule)
        fresh = WormholeSimulator(Hypercube(3)).run(schedule, max_steps=100)
        assert sim.run(schedule, max_steps=100) == first == fresh

    def test_fast_wormhole_double_run_returns_immediately(self):
        from repro.routing.batched import BatchedWormhole

        sim = BatchedWormhole(Hypercube(3))
        schedule = [([0, 1, 3], 4, 1)]
        first = sim.run(schedule).makespan
        assert sim.run(schedule, max_steps=100).makespan == first

    def test_store_forward_repeat_run_is_isolated(self):
        # per-run queues and deliveries used to live on the instance and
        # accumulate across runs, mixing packets from separate schedules
        sim = StoreForwardSimulator(Hypercube(3))
        r1 = sim.run([[0, 1], [2, 3]])
        assert r1.delivered == 2
        r2 = sim.run([[4, 5]])
        assert r2.delivered == 1
        assert r2 == StoreForwardSimulator(Hypercube(3)).run([[4, 5]])

    def test_delivered_counts_actual_arrivals(self):
        # SimResult.delivered was hardcoded to len(requests); it must be
        # derived from per-packet done_steps
        sim = StoreForwardSimulator(Hypercube(3))
        res = sim.run([[0, 1, 3], [5, 4]])
        assert res.delivered == sum(1 for d in res.done_steps if d >= 0) == 2


class TestSparseReleaseFastForward:
    """Regression: empty steps before far-future releases iterated one at a
    time; both engines now jump straight to the next release, without
    changing any makespan."""

    def test_store_forward_far_release_completes_fast(self):
        sim = StoreForwardSimulator(Hypercube(3))
        # would be ~half a million idle iterations without the jump
        assert sim.run([([0, 1, 3], 500_000)]).makespan == 500_001

    def test_store_forward_staggered_far_releases(self):
        sim = StoreForwardSimulator(Hypercube(3))
        res = sim.run([([0, 1], 100_000), ([2, 3], 300_000)])
        assert res.makespan == 300_000
        assert res.done_steps == (100_000, 300_000)

    def test_store_forward_makespan_identical_to_dense_shift(self):
        # fast-forward is behavior-preserving: shifting every release by a
        # constant shifts every arrival by exactly that constant
        sched = [([0, 1, 3], 1), ([5, 1, 3], 2), ([4, 5], 1)]
        dense = StoreForwardSimulator(Hypercube(3)).run(sched)
        shifted = StoreForwardSimulator(Hypercube(3)).run(
            [(p, r + 40_000) for p, r in sched]
        )
        assert [d + 40_000 for d in dense.done_steps] == list(shifted.done_steps)

    def test_wormhole_far_release_completes_fast(self):
        sim = WormholeSimulator(Hypercube(3))
        res = sim.run([([0, 1, 3], 4, 400_000)], max_steps=500_000)
        assert res.makespan == 400_000 + 2 + 4 - 2

    def test_wormhole_mixed_releases_unchanged(self):
        # a released worm in flight blocks the jump; makespans match the
        # no-jump semantics exactly
        sim = WormholeSimulator(Hypercube(3))
        w1, w2 = sim.run([([0, 1, 3], 6, 1), ([5, 1, 3], 2, 3)]).done_steps
        assert w1 == 7  # 2 + 6 - 1
        assert w2 > 7


class TestPPacketCostMultipath:
    def test_theorem1_rounds(self):
        from repro.core import embed_cycle_load1
        from repro.routing.schedule import p_packet_cost_multipath

        emb = embed_cycle_load1(8)  # width 5 paths + schedules
        assert p_packet_cost_multipath(emb, 5) == 3
        assert p_packet_cost_multipath(emb, 10) == 6
        assert p_packet_cost_multipath(emb, 11) == 9

    def test_without_schedule_falls_back(self):
        from repro.core.generic import shortest_path_embedding, widen_embedding
        from repro.networks.cycle import DirectedCycle
        from repro.routing.schedule import p_packet_cost_multipath

        base = shortest_path_embedding(Hypercube(5), DirectedCycle(32))
        wide = widen_embedding(base, 3)
        assert p_packet_cost_multipath(wide, 6) >= 1

    def test_invalid_p(self):
        from repro.core import embed_cycle_load1
        from repro.routing.schedule import p_packet_cost_multipath

        with pytest.raises(ValueError):
            p_packet_cost_multipath(embed_cycle_load1(4), 0)


class TestPortLimit:
    def test_single_port_serializes_node_sends(self):
        # node 0 sends over 3 distinct dims: single-port takes 3 steps
        sim = StoreForwardSimulator(Hypercube(3), port_limit=1)
        assert sim.run([[0, 1 << d] for d in range(3)]).makespan == 3

    def test_all_port_parallelizes(self):
        sim = StoreForwardSimulator(Hypercube(3))
        assert sim.run([[0, 1 << d] for d in range(3)]).makespan == 1

    def test_port_limit_two(self):
        sim = StoreForwardSimulator(Hypercube(3), port_limit=2)
        assert sim.run([[0, 1 << d] for d in range(3)]).makespan == 2

    def test_measured_matches_dimension_exchange_closed_form(self):
        from repro.apps.total_exchange import single_port_exchange_steps

        for n in (3, 4, 5):
            assert single_port_exchange_steps(n, measured=True) == n * 2 ** (
                n - 1
            )

    def test_invalid_limit(self):
        with pytest.raises(ValueError):
            StoreForwardSimulator(Hypercube(3), port_limit=0)

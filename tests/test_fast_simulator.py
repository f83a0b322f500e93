"""Tests for the fast store-and-forward engine, run as a batch of one.

:class:`~repro.routing.batched.BatchedStoreForward` is the one fast engine
behind the scalar ``Simulator`` protocol; ``run`` is ``run_many`` of one.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.hypercube.graph import Hypercube
from repro.routing.batched import BatchedStoreForward
from repro.routing.permutation import dimension_order_path
from repro.routing.simulator import StoreForwardSimulator


class TestBasics:
    def test_single_packet(self):
        sim = BatchedStoreForward(Hypercube(4))
        assert sim.run([[0, 1, 3, 7]]).makespan == 3

    def test_empty(self):
        assert BatchedStoreForward(Hypercube(3)).run([]).makespan == 0

    def test_zero_hop(self):
        res = BatchedStoreForward(Hypercube(3)).run([[5]])
        assert res.makespan == 0
        assert res.done_steps == (0,)

    def test_contention_serializes(self):
        sim = BatchedStoreForward(Hypercube(3))
        assert sim.run([[0, 1]] * 5).makespan == 5

    def test_release_steps(self):
        sim = BatchedStoreForward(Hypercube(3))
        assert sim.run([([0, 4], 10)]).makespan == 10

    def test_rejects_bad_path(self):
        sim = BatchedStoreForward(Hypercube(3))
        with pytest.raises(ValueError):
            sim.run([[0, 3]])  # two-bit jump

    def test_zero_move_hop_raises_cleanly(self):
        # regression: a stationary hop (u == u) used to hit np.log2(0) — a
        # divide-by-zero RuntimeWarning and an undefined float->int cast —
        # instead of the reference engine's ValueError
        import warnings

        sim = BatchedStoreForward(Hypercube(3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # any RuntimeWarning -> failure
            with pytest.raises(ValueError, match=r"\(2, 2\) is not a hypercube edge"):
                sim.run([[0, 2, 2]])

    def test_rejects_empty_path(self):
        with pytest.raises(ValueError):
            BatchedStoreForward(Hypercube(3)).run([[]])

    def test_rejects_service_time(self):
        sim = BatchedStoreForward(Hypercube(3))
        with pytest.raises(ValueError):
            sim.run([([0, 1], 1, 4)])  # atomic messages need the reference

    def test_priority_arbitration(self):
        # packet 0 wins the step-1 tie on link 0->1; packet 1 crosses at
        # step 2 while packet 0 takes its second hop: both finish at 2
        sim = BatchedStoreForward(Hypercube(3))
        assert sim.run([[0, 1, 3], [0, 1]]).makespan == 2

    def test_release_gap_skips_idle_steps(self):
        sim = BatchedStoreForward(Hypercube(3))
        res = sim.run([([0, 1], 1), ([2, 3], 1000)])
        assert res.makespan == 1000


class TestReleaseFastForward:
    """The idle-step fast-forward branch: no packet ready -> jump to the
    next release instead of stepping one tick at a time."""

    def test_all_packets_far_in_future(self):
        sim = BatchedStoreForward(Hypercube(4))
        sched = [([0, 1, 3], 100_000), ([4, 5, 7], 100_000)]
        # contention-free: both arrive two steps after the joint release
        assert sim.run(sched).makespan == 100_001

    def test_staggered_far_releases_jump_twice(self):
        sim = BatchedStoreForward(Hypercube(4))
        sched = [([0, 1], 10_000), ([2, 3], 20_000), ([4, 5], 30_000)]
        # three separate idle gaps, each fast-forwarded
        assert sim.run(sched).makespan == 30_000

    def test_fast_forward_lands_on_contention(self):
        # both packets want link 0->1 at the same far-future step: the
        # jump must not skip the arbitration
        sim = BatchedStoreForward(Hypercube(3))
        sched = [([0, 1], 5_000), ([0, 1, 3], 5_000)]
        assert sim.run(sched).makespan == 5_002  # loser hops again at 5002

    def test_active_packet_blocks_fast_forward(self):
        # a long path keeps the network busy across another packet's
        # pre-release window: no jump may occur while work remains
        sim = BatchedStoreForward(Hypercube(3))
        sched = [([0, 1, 3, 7, 6], 1), ([0, 1], 3)]
        assert sim.run(sched).makespan == 4

    def test_agreement_with_reference_far_future(self):
        host = Hypercube(4)
        sched = [
            ([0, 1, 3], 4_000),
            ([8, 9, 11], 4_000),
            ([4, 6], 4_500),
        ]
        # contention-free, so the two arbitration policies agree exactly
        a = StoreForwardSimulator(host).run(sched).makespan
        b = BatchedStoreForward(host).run(sched).makespan
        assert a == b == 4_500

    def test_agreement_with_reference_staggered(self):
        host = Hypercube(4)
        sched = [
            ([4 * i, 4 * i ^ 1, 4 * i ^ 3], rel)
            for i, rel in enumerate((1_000, 2_000, 3_000))
        ]
        a = StoreForwardSimulator(host).run(sched).makespan
        b = BatchedStoreForward(host).run(sched).makespan
        assert a == b == 3_001


class TestAgreement:
    @given(
        st.lists(
            st.tuples(st.integers(0, 31), st.integers(0, 31), st.integers(1, 4)),
            min_size=1,
            max_size=16,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_within_envelope_of_reference(self, spec):
        host = Hypercube(5)
        sched = [
            (dimension_order_path(5, u, v), rel)
            for u, v, rel in spec
            if u != v
        ]
        if not sched:
            return
        a = StoreForwardSimulator(host).run(sched).makespan
        b = BatchedStoreForward(host).run(sched).makespan
        # both are work-conserving link-bound schedules
        assert max(a, b) <= min(a, b) + len(sched)

    def test_contention_free_exact_match(self):
        host = Hypercube(6)
        sched = [[u, u ^ 1, u ^ 3, u ^ 7] for u in range(0, 64, 8)]
        a = StoreForwardSimulator(host).run(sched).makespan
        b = BatchedStoreForward(host).run(sched).makespan
        assert a == b == 3

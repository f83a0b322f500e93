"""Tests for the fast wormhole engine (mirrors TestWormhole semantics).

:class:`~repro.routing.batched.BatchedWormhole` is the one fast wormhole
engine: ``run`` is a batch of one returning a ``SimResult``, and
``run_many`` exposes the full per-worm state and link ownership.
"""

import pytest

from repro.hypercube.graph import Hypercube
from repro.obs.recorder import LinkRecorder
from repro.routing.batched import BatchedWormhole
from repro.routing.wormhole import WormholeDeadlock, WormholeSimulator


class TestSemantics:
    def test_free_path_pipelines(self):
        sim = BatchedWormhole(Hypercube(4))
        # L + M - 1 steps
        assert sim.run([([0, 1, 3, 7, 15], 10, 1)]).makespan == 4 + 10 - 1

    def test_single_flit_is_store_and_forward(self):
        sim = BatchedWormhole(Hypercube(4))
        assert sim.run([([0, 1, 3, 7], 1, 1)]).makespan == 3

    def test_blocking_serializes_on_shared_link(self):
        sim = BatchedWormhole(Hypercube(3))
        # the second worm shares link 1->3
        w1, w2 = sim.run([([0, 1, 3], 8, 1), ([5, 1, 3], 8, 1)]).done_steps
        assert w1 == 2 + 8 - 1
        assert w2 >= 8 + 8

    def test_larger_buffers_are_cut_through(self):
        host = Hypercube(3)
        schedule = [([0, 1, 3], 8, 1), ([5, 1, 3], 8, 1)]
        slow = BatchedWormhole(host, buffer_capacity=1).run(schedule)
        fast = BatchedWormhole(host, buffer_capacity=64).run(schedule)
        assert fast.makespan <= slow.makespan

    def test_invalid_args(self):
        sim = BatchedWormhole(Hypercube(3))
        with pytest.raises(ValueError):
            sim.run([([0], 2, 1)])
        with pytest.raises(ValueError):
            sim.run([([0, 1], 0, 1)])
        with pytest.raises(ValueError):
            BatchedWormhole(Hypercube(3), buffer_capacity=0)

    def test_empty_run(self):
        assert BatchedWormhole(Hypercube(3)).run([]).makespan == 0

    def test_release_fast_forward(self):
        sim = BatchedWormhole(Hypercube(3))
        # jumps over the idle window instead of spinning through it
        res = sim.run([([0, 1, 3], 4, 100_000)], max_steps=200_000)
        assert res.makespan == 100_000 + 2 + 4 - 1 - 1


class TestDeadlock:
    CYCLE = ([0, 1, 3], [1, 3, 2], [3, 2, 0], [2, 0, 1])

    def _schedule(self):
        return [(path, 8, 1) for path in self.CYCLE]

    def test_cyclic_wait_detected(self):
        with pytest.raises(WormholeDeadlock):
            BatchedWormhole(Hypercube(2)).run(self._schedule())

    def test_cut_through_buffers_break_the_cycle(self):
        sim = BatchedWormhole(Hypercube(2), buffer_capacity=8)
        assert sim.run(self._schedule()).makespan > 0

    def test_deadlocked_state_matches_reference(self):
        ref = WormholeSimulator(Hypercube(2))
        for path, flits, release in self._schedule():
            ref.inject(path, flits, release)
        with pytest.raises(WormholeDeadlock) as ref_err:
            ref.run()
        [out] = BatchedWormhole(Hypercube(2)).run_many([self._schedule()])
        assert out.deadlock == str(ref_err.value)
        # the stuck partial state is reported, link ownership included
        for a, b in zip(ref.worms, out.worms):
            assert (a.done_step, a.head_link, a.flits_crossed) == (
                b.done_step,
                b.head_link,
                b.flits_crossed,
            )
        assert ref._owner == out.owner


class TestReferenceParity:
    def test_worm_objects_match_reference(self):
        schedule = [
            ([0, 1, 3, 7], 5, 1),
            ([4, 5, 7, 6], 3, 2),
            ([5, 1, 3], 8, 1),
        ]
        ref = WormholeSimulator(Hypercube(3))
        for path, flits, release in schedule:
            ref.inject(path, flits, release)
        [out] = BatchedWormhole(Hypercube(3)).run_many([schedule])
        assert ref.run() == out.makespan
        for a, b in zip(ref.worms, out.worms):
            assert a.done_step == b.done_step
            assert a.head_link == b.head_link
            assert a.flits_crossed == b.flits_crossed

    def test_recorder_totals_match_reference(self):
        host = Hypercube(3)
        schedule = [([0, 1, 3], 6, 1), ([5, 1, 3], 6, 1), ([2, 3, 7], 2, 3)]
        ref, ref_rec = WormholeSimulator(host), LinkRecorder(host=host)
        fast_rec = LinkRecorder(host=host)
        for path, flits, release in schedule:
            ref.inject(path, flits, release)
        ref.run(recorder=ref_rec)
        BatchedWormhole(host).run(schedule, recorder=fast_rec)
        assert ref_rec.snapshot() == fast_rec.snapshot()

    def test_repeat_run_resumes_like_reference(self):
        # the reference resumes a finished run and returns the same
        # makespan immediately (regression: it used to hang here); the
        # batched engine holds no state, so a repeat run agrees with it
        ref = WormholeSimulator(Hypercube(3))
        fast = BatchedWormhole(Hypercube(3))
        schedule = [([0, 1, 3], 4, 1)]
        ref.inject(*schedule[0])
        assert ref.run() == fast.run(schedule).makespan
        assert ref.run(max_steps=100) == fast.run(
            schedule, max_steps=100
        ).makespan

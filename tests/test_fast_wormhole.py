"""Tests for the fast wormhole engine (mirrors TestWormhole semantics).

:class:`~repro.routing.batched.BatchedWormhole` is the one fast wormhole
engine: ``run`` is a batch of one returning a ``SimResult``, and
``run_many`` exposes the full per-worm state and link ownership.
"""

import pytest

from repro.hypercube.graph import Hypercube
from repro.obs.recorder import LinkRecorder
from repro.qa.differential import _worm_outcomes
from repro.qa.schedules import DEADLOCK_CYCLE
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
    def test_cyclic_wait_detected(self):
        with pytest.raises(WormholeDeadlock):
            BatchedWormhole(Hypercube(2)).run(DEADLOCK_CYCLE)

    def test_cut_through_buffers_break_the_cycle(self):
        sim = BatchedWormhole(Hypercube(2), buffer_capacity=8)
        assert sim.run(DEADLOCK_CYCLE).makespan > 0

    def test_deadlocked_state_matches_reference(self):
        host = Hypercube(2)
        with pytest.raises(WormholeDeadlock) as ref_err:
            WormholeSimulator(host).run(DEADLOCK_CYCLE)
        [ref] = _worm_outcomes(WormholeSimulator(host), [DEADLOCK_CYCLE])
        [out] = _worm_outcomes(BatchedWormhole(host), [DEADLOCK_CYCLE])
        assert out["deadlock"] == ref["deadlock"] == str(ref_err.value)
        # the stuck partial state is reported, link ownership included
        assert ref["owner"] and out == ref


class TestReferenceParity:
    def test_worm_objects_match_reference(self):
        schedule = [
            ([0, 1, 3, 7], 5, 1),
            ([4, 5, 7, 6], 3, 2),
            ([5, 1, 3], 8, 1),
        ]
        [ref] = WormholeSimulator(Hypercube(3)).run_many([schedule])
        [out] = BatchedWormhole(Hypercube(3)).run_many([schedule])
        assert ref.makespan == out.makespan
        for a, b in zip(ref.worms, out.worms):
            assert a.done_step == b.done_step
            assert a.head_link == b.head_link
            assert a.flits_crossed == b.flits_crossed

    def test_recorder_totals_match_reference(self):
        host = Hypercube(3)
        schedule = [([0, 1, 3], 6, 1), ([5, 1, 3], 6, 1), ([2, 3, 7], 2, 3)]
        ref_rec, fast_rec = LinkRecorder(host=host), LinkRecorder(host=host)
        WormholeSimulator(host).run(schedule, recorder=ref_rec)
        BatchedWormhole(host).run(schedule, recorder=fast_rec)
        assert ref_rec.snapshot() == fast_rec.snapshot()

    def test_repeat_run_resumes_like_reference(self):
        # neither engine keeps state between runs: a second run on one
        # instance equals a fresh instance's run, and the engines agree
        # (regression: the reference used to resume a finished run)
        schedule = [([0, 1, 3], 4, 1), ([5, 1, 3], 3, 2)]
        runs = []
        for engine in (WormholeSimulator, BatchedWormhole):
            sim = engine(Hypercube(3))
            first = sim.run(schedule)
            again = sim.run(schedule, max_steps=100)
            assert first == again == engine(Hypercube(3)).run(schedule)
            runs.append(first.measured())
        assert runs[0] == runs[1]

"""Tests for the limited-buffer store-and-forward model."""

import pytest

from repro.hypercube.graph import Hypercube
from repro.routing.bounded_buffers import BoundedBufferSimulator, BufferDeadlock
from repro.routing.permutation import dimension_order_path, random_permutation
from repro.routing.simulator import StoreForwardSimulator


def _permutation_paths(n=6, reps=2, seed=2):
    perm = random_permutation(1 << n, seed=seed)
    return [
        dimension_order_path(n, u, v)
        for u, v in enumerate(perm)
        if u != v
        for _ in range(reps)
    ]


class TestBasics:
    def test_single_packet(self):
        sim = BoundedBufferSimulator(Hypercube(4), 4)
        assert sim.run([[0, 1, 3, 7]]).makespan == 3

    def test_zero_hop(self):
        sim = BoundedBufferSimulator(Hypercube(3), 1)
        res = sim.run([[5]])
        assert res.makespan == 0 and res.done_steps == (0,)

    def test_large_buffers_match_unbounded(self):
        ref = StoreForwardSimulator(Hypercube(6))
        bb = BoundedBufferSimulator(Hypercube(6), 64)
        paths = _permutation_paths()
        assert bb.run(paths).makespan == ref.run(paths).makespan

    def test_release_steps(self):
        sim = BoundedBufferSimulator(Hypercube(3), 2)
        assert sim.run([([0, 1], 7)]).makespan == 7

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            BoundedBufferSimulator(Hypercube(3), 0)
        with pytest.raises(ValueError):
            BoundedBufferSimulator(Hypercube(3), 2, injection_reserve=2)
        sim = BoundedBufferSimulator(Hypercube(3), 2)
        with pytest.raises(ValueError):
            sim.run([[]])
        # every packet takes one step per hop
        with pytest.raises(ValueError, match="unit service time"):
            sim.run([([0, 1], 1, 2)])


class TestBackpressure:
    def test_tiny_buffers_deadlock_without_reserve(self):
        sim = BoundedBufferSimulator(Hypercube(6), 2)
        with pytest.raises(BufferDeadlock):
            sim.run(_permutation_paths(reps=4))

    def test_injection_reserve_restores_progress(self):
        sim = BoundedBufferSimulator(Hypercube(6), 4, injection_reserve=2)
        assert sim.run(_permutation_paths(reps=4)).makespan > 0

    def test_constant_buffers_near_unbounded_speed(self):
        ref = StoreForwardSimulator(Hypercube(6))
        bb = BoundedBufferSimulator(Hypercube(6), 8, injection_reserve=4)
        paths = _permutation_paths(reps=4)
        assert bb.run(paths).makespan <= 2 * ref.run(paths).makespan

    def test_chain_advance_through_freed_slot(self):
        # two packets in a line: the downstream one frees its slot and the
        # upstream one takes it in the same step
        sim = BoundedBufferSimulator(Hypercube(3), 1)
        # [1, 3] departs immediately; [0, 1, 3] follows through node 1's
        # single slot
        assert sim.run([[1, 3], [0, 1, 3]]).makespan <= 3

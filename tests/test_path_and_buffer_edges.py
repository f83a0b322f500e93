"""Edge cases for the path utilities and the bounded-buffer simulator."""

import pytest

from repro.hypercube.graph import Hypercube
from repro.routing.bounded_buffers import BoundedBufferSimulator, BufferDeadlock
from repro.routing.pathutils import edge_disjoint_paths, erase_loops


class TestEraseLoops:
    def test_empty_walk(self):
        assert erase_loops([]) == ()

    def test_single_vertex(self):
        assert erase_loops([5]) == (5,)

    def test_simple_path_unchanged(self):
        assert erase_loops([0, 1, 3, 7]) == (0, 1, 3, 7)

    def test_immediate_backtrack(self):
        assert erase_loops([0, 1, 0, 2]) == (0, 2)

    def test_nested_loops(self):
        # the inner loop 3-7-3 vanishes first, then the outer 1-3-1
        assert erase_loops([0, 1, 3, 7, 3, 1, 5]) == (0, 1, 5)

    def test_walk_ending_at_start(self):
        assert erase_loops([0, 1, 3, 2, 0]) == (0,)

    def test_endpoints_preserved(self):
        walk = [4, 5, 7, 5, 4, 6, 2]
        out = erase_loops(walk)
        assert out[0] == walk[0] and out[-1] == walk[-1]
        assert len(set(out)) == len(out)


class TestEdgeDisjointPaths:
    def test_equal_endpoints_rejected(self):
        with pytest.raises(ValueError):
            edge_disjoint_paths(4, 3, 3, 2)

    def test_count_above_n_rejected(self):
        with pytest.raises(ValueError):
            edge_disjoint_paths(3, 0, 7, 4)

    def test_count_below_one_rejected(self):
        with pytest.raises(ValueError):
            edge_disjoint_paths(3, 0, 7, 0)

    def test_full_width_paths_are_edge_disjoint(self):
        n, u, v = 4, 0b0000, 0b0110
        paths = edge_disjoint_paths(n, u, v, n)
        assert len(paths) == n
        host = Hypercube(n)
        seen = set()
        for path in paths:
            assert path[0] == u and path[-1] == v
            for a, b in zip(path, path[1:]):
                key = frozenset((a, b))
                assert host.is_edge(a, b)
                assert key not in seen
                seen.add(key)

    def test_antipodal_single_path(self):
        (path,) = edge_disjoint_paths(3, 0, 7, 1)
        assert path[0] == 0 and path[-1] == 7 and len(path) == 4


class TestBoundedBufferEdges:
    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            BoundedBufferSimulator(Hypercube(3), 0)

    # four packets around the Q_2 cycle 0-1-3-2-0, each next hop into the
    # node the following packet starts from
    RING = [[0, 1, 3], [1, 3, 2], [3, 2, 0], [2, 0, 1]]

    def test_empty_path_rejected(self):
        sim = BoundedBufferSimulator(Hypercube(3), 2)
        with pytest.raises(ValueError):
            sim.run([[]])

    def test_single_vertex_path_completes_at_step_zero(self):
        sim = BoundedBufferSimulator(Hypercube(3), 1)
        assert sim.run([[6]]).makespan == 0

    def test_non_adjacent_hop_rejected(self):
        # 0 -> 3 flips two bits at once: not a hypercube edge, surfaced
        # when the packet first tries to claim a link
        sim = BoundedBufferSimulator(Hypercube(2), 2)
        with pytest.raises(ValueError):
            sim.run([[0, 3]])

    def test_ring_of_full_buffers_deadlocks(self):
        # four capacity-1 nodes around the Q_2 cycle 0-1-3-2-0, each
        # holding a packet whose next hop is its full neighbor: the
        # classic circular buffer wait
        sim = BoundedBufferSimulator(Hypercube(2), 1)
        with pytest.raises(BufferDeadlock):
            sim.run(self.RING)

    def test_same_ring_drains_with_capacity_two(self):
        sim = BoundedBufferSimulator(Hypercube(2), 2)
        assert sim.run(self.RING).makespan >= 2

"""Tests for the guest graph substrates."""

import math

import networkx as nx
import pytest
from hypothesis import given, strategies as st

from repro.networks import (
    Butterfly,
    CompleteBinaryTree,
    CubeConnectedCycles,
    DirectedCycle,
    DirectedPath,
    DirectedTorus,
    FFTGraph,
    Grid,
    Torus,
    random_binary_tree,
    square_grid_map,
)
from repro.networks.butterfly import butterfly_to_ccc_embedding


class TestCycleAndPath:
    def test_cycle_counts(self):
        c = DirectedCycle(8)
        c.validate()
        assert c.num_vertices == 8
        assert c.num_edges == 8
        assert c.max_out_degree == 1

    def test_cycle_wraps(self):
        assert (7, 0) in set(DirectedCycle(8).edges())

    def test_path(self):
        p = DirectedPath(5)
        p.validate()
        assert p.num_edges == 4
        assert (4, 0) not in set(p.edges())

    def test_invalid(self):
        with pytest.raises(ValueError):
            DirectedCycle(1)
        with pytest.raises(ValueError):
            DirectedPath(0)


class TestGrid:
    def test_counts(self):
        g = Grid((3, 4))
        g.validate()
        assert g.num_vertices == 12
        # internal links: 2*(2*4 + 3*3) directed
        assert g.num_edges == 2 * (2 * 4 + 3 * 3)

    def test_torus_wraps(self):
        t = Torus((3, 3))
        t.validate()
        assert ((0, 0), (2, 0)) in set(t.edges())
        assert ((0, 0), (0, 2)) in set(t.edges())

    def test_degenerate_axis(self):
        g = Grid((1, 5))
        g.validate()
        assert g.num_edges == 2 * 4

    def test_torus_size2_axis_not_doubled(self):
        # wrap on a length-2 axis gives a single undirected link (two directed)
        t = Torus((2, 2))
        t.validate()
        assert t.num_edges == 8

    def test_axis_edges(self):
        g = Grid((2, 3))
        axis0 = list(g.axis_edges(0))
        assert all(u[1] == v[1] for u, v in axis0)
        assert len(axis0) == 2 * 3  # 1 link per column * 3 cols * 2 dirs

    def test_matches_networkx(self):
        g = Grid((4, 5)).to_networkx().to_undirected()
        ref = nx.grid_graph(dim=[5, 4])  # networkx reverses dims
        assert nx.is_isomorphic(g, ref)


def _packed_from_generator(graph):
    from repro.core.fast_verify import _pack_edges

    return _pack_edges(list(graph.edges()))


_SIDES = (1, 2, 3, 5, 8, 16)
_GRID_DIMS = (
    [(d,) for d in _SIDES]
    + [(d, e) for d in _SIDES for e in _SIDES]
    + [(d, d, d) for d in _SIDES]
    + [(1, 5, 16), (16, 3, 2), (8, 1, 5), (2, 16, 8)]
)


class TestPackedEdges:
    """``packed_edges()`` is ``edges()`` packed, in the generator's order."""

    @staticmethod
    def _assert_same(graph):
        got, want = graph.packed_edges(), _packed_from_generator(graph)
        assert got.radix == want.radix
        assert got.uv.dtype == want.uv.dtype
        assert got.uv.tolist() == want.uv.tolist()
        assert list(got) == list(graph.edges())

    @pytest.mark.parametrize("dims", _GRID_DIMS)
    @pytest.mark.parametrize("cls", [Grid, Torus, DirectedTorus])
    def test_grids(self, cls, dims):
        self._assert_same(cls(dims))

    @pytest.mark.parametrize(
        "dims", [(4,), (8,), (10,), (66,), (4, 4), (8, 8), (10, 10), (66, 3), (2, 66)]
    )
    def test_tori_with_colliding_wrap_ends(self, dims):
        # sides = 2 (mod 8) put both wrap-end neighbours in one hash slot:
        # {1, 65} iterates 65 first at x = 0 of a 66-side, {1, 9} 1 first
        self._assert_same(Torus(dims))

    def test_slot_order_example(self):
        # x = 7 on a 16-wide axis yields 8 before 6
        edges = list(Grid((16,)).packed_edges())
        assert edges[13:15] == [((7,), (8,)), ((7,), (6,))]

    @pytest.mark.parametrize("length", [2, 3, 8, 100])
    def test_cycles(self, length):
        self._assert_same(DirectedCycle(length))


class TestSquareGridMap:
    def test_already_square(self):
        mapping, dims, load = square_grid_map((4, 4))
        assert dims == (4, 4)
        assert load == 1
        assert all(mapping[v] == v for v in mapping)

    def test_rectangle(self):
        mapping, dims, load = square_grid_map((2, 8))
        assert dims == (4, 4)
        assert load == 2
        assert len(mapping) == 16

    def test_dilation_one(self):
        mapping, dims, load = square_grid_map((3, 27))
        for (u, mu) in mapping.items():
            for v, mv in mapping.items():
                if sum(abs(a - b) for a, b in zip(u, v)) == 1:
                    assert sum(abs(a - b) for a, b in zip(mu, mv)) <= 1

    @given(
        st.lists(st.integers(min_value=1, max_value=12), min_size=1, max_size=3)
    )
    def test_load_bound(self, dims):
        mapping, sq_dims, load = square_grid_map(dims)
        side = sq_dims[0]
        expected = math.prod(math.ceil(d / side) for d in dims)
        assert load <= expected
        assert len(mapping) == math.prod(dims)


class TestCCC:
    def test_counts(self):
        ccc = CubeConnectedCycles(3)
        ccc.validate()
        assert ccc.num_vertices == 3 * 8
        assert ccc.num_edges == 2 * 3 * 8  # out-degree 2
        assert ccc.max_out_degree == 2

    def test_undirected_adds_reverse_straight(self):
        ccc = CubeConnectedCycles(3, undirected=True)
        ccc.validate()
        assert ccc.num_edges == 3 * 3 * 8

    def test_columns_are_cycles(self):
        ccc = CubeConnectedCycles(4)
        straight = set(ccc.straight_edges())
        for c in range(16):
            for level in range(4):
                assert ((level, c), ((level + 1) % 4, c)) in straight

    def test_cross_edges_paired(self):
        ccc = CubeConnectedCycles(3)
        cross = set(ccc.cross_edges())
        for u, v in cross:
            assert (v, u) in cross

    def test_edge_level(self):
        ccc = CubeConnectedCycles(4)
        assert ccc.edge_level((1, 0), (2, 0)) == 1
        assert ccc.edge_level((3, 0), (0, 0)) == 3
        assert ccc.edge_level((2, 0), (2, 4)) == 2
        with pytest.raises(ValueError):
            ccc.edge_level((0, 0), (2, 0))


class TestButterflyAndFFT:
    def test_butterfly_counts(self):
        bf = Butterfly(3)
        bf.validate()
        assert bf.num_vertices == 3 * 8
        assert bf.num_edges == 2 * 3 * 8

    def test_fft_counts(self):
        fft = FFTGraph(3)
        fft.validate()
        assert fft.num_vertices == 4 * 8
        assert fft.num_edges == 2 * 3 * 8

    def test_fft_is_layered(self):
        fft = FFTGraph(2)
        for (lu, _), (lv, _) in fft.edges():
            assert lv == lu + 1

    def test_butterfly_to_ccc(self):
        n = 3
        vmap, paths = butterfly_to_ccc_embedding(n)
        bf = Butterfly(n)
        # dilation 2
        assert max(len(p) - 1 for p in paths.values()) == 2
        # congestion <= 2 on CCC edges
        cong = {}
        for p in paths.values():
            for e in zip(p, p[1:]):
                cong[e] = cong.get(e, 0) + 1
        assert max(cong.values()) <= 2
        assert set(paths) == set(bf.edges())


class TestTrees:
    def test_cbt_counts(self):
        t = CompleteBinaryTree(4)
        t.validate()
        assert t.num_vertices == 15
        assert t.num_edges == 28
        assert t.max_out_degree == 3

    def test_cbt_levels(self):
        t = CompleteBinaryTree(4)
        assert t.level_of(1) == 0
        assert t.level_of(2) == 1
        assert t.level_of(15) == 3
        assert list(t.leaves()) == list(range(8, 16))

    def test_random_tree_bounded_degree(self):
        t = random_binary_tree(100, seed=3)
        t.validate()
        assert t.num_vertices == 100
        assert t.max_degree <= 3

    def test_random_tree_deterministic(self):
        t1 = random_binary_tree(50, seed=7)
        t2 = random_binary_tree(50, seed=7)
        assert t1.parent == t2.parent

    def test_random_tree_connected(self):
        t = random_binary_tree(64, seed=1)
        g = t.to_networkx().to_undirected()
        assert nx.is_connected(g)

"""Tests for Theorem 5 and Section 6.2 (tree embeddings)."""

from collections import Counter

import pytest

from repro.core.butterfly_multicopy import butterfly_multicopy_embedding
from repro.core.cross_product import (
    CrossProductBundles,
    induced_cross_product_embedding,
)
from repro.core.tree_multipath import (
    arbitrary_tree_embedding,
    cbt_to_butterfly_map,
    theorem5_embedding,
    tree_to_cbt_map,
)
from repro.networks.tree import random_binary_tree


class TestButterflyMulticopy:
    @pytest.mark.parametrize("m", [2, 4])
    def test_directed(self, m):
        mc = butterfly_multicopy_embedding(m)
        mc.verify()
        assert mc.k == m
        assert mc.dilation == 2
        assert mc.edge_congestion <= 4  # CCC congestion 2 x route sharing 2

    @pytest.mark.parametrize("m", [2, 4])
    def test_undirected(self, m):
        mc = butterfly_multicopy_embedding(m, undirected=True)
        mc.verify()
        assert mc.edge_congestion <= 8  # Section 5.4: at most doubled


class TestCBTToButterfly:
    @pytest.mark.parametrize("m", [2, 4])
    def test_shape(self, m):
        vmap, routes = cbt_to_butterfly_map(m)
        n = m + (m.bit_length() - 1)
        assert len(vmap) == 2**n - 1

    @pytest.mark.parametrize("m", [2, 4])
    def test_leaf_injectivity(self, m):
        # Theorem 5 needs each X column to receive at most one row-tree leaf
        vmap, _ = cbt_to_butterfly_map(m)
        n = m + (m.bit_length() - 1)
        leaves = [vmap[v] for v in range(1 << (n - 1), 1 << n)]
        assert len(set(leaves)) == len(leaves)

    @pytest.mark.parametrize("m", [2, 4])
    def test_load_is_constant(self, m):
        vmap, _ = cbt_to_butterfly_map(m)
        assert max(Counter(vmap.values()).values()) <= 3

    @pytest.mark.parametrize("m", [2, 4])
    def test_subtree_edges_have_dilation_one(self, m):
        vmap, routes = cbt_to_butterfly_map(m)
        for (parent, child), route in routes.items():
            if parent >= m:
                assert len(route) == 2

    def test_routes_are_butterfly_walks(self):
        from repro.networks.butterfly import Butterfly

        m = 4
        _, routes = cbt_to_butterfly_map(m)
        bf = Butterfly(m, undirected=True)
        edges = set(bf.edges())
        for route in routes.values():
            for a, b in zip(route, route[1:]):
                assert (a, b) in edges

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError):
            cbt_to_butterfly_map(3)


class TestTheorem5:
    @pytest.mark.parametrize("m", [2, 4])
    def test_valid_and_width(self, m):
        emb = theorem5_embedding(m)
        emb.verify()
        n = m + (m.bit_length() - 1)
        assert emb.host.n == 2 * n
        assert emb.guest.num_vertices == 2 ** (2 * n) - 1
        # every edge with movement carries the full width n
        widths = [
            len(ps) for ps in emb.edge_paths.values() if len(ps[0]) > 1
        ]
        assert min(widths) == n

    @pytest.mark.parametrize("m", [2, 4])
    def test_load_constant(self, m):
        emb = theorem5_embedding(m)
        assert emb.info["load"] <= 4

    def test_bidirectional_edges_present(self):
        emb = theorem5_embedding(2)
        tree = emb.guest
        for (u, v) in tree.edges():
            assert (u, v) in emb.edge_paths
            assert (v, u) in emb.edge_paths


class TestTreeToCBT:
    @pytest.mark.parametrize("size,levels", [(7, 3), (50, 6), (500, 9)])
    def test_mapping_complete(self, size, levels):
        tree = random_binary_tree(size, seed=1)
        mapping = tree_to_cbt_map(tree, levels)
        assert set(mapping) == set(tree.vertices())
        assert all(1 <= h < (1 << levels) for h in mapping.values())

    def test_load_small(self):
        tree = random_binary_tree(500, seed=3)
        mapping = tree_to_cbt_map(tree, 9)
        assert max(Counter(mapping.values()).values()) <= 8

    def test_too_large_rejected(self):
        with pytest.raises(ValueError):
            tree_to_cbt_map(random_binary_tree(20, seed=0), 4)


class TestArbitraryTrees:
    def test_small(self):
        emb = arbitrary_tree_embedding(random_binary_tree(50, seed=2), 2)
        emb.verify()
        assert emb.load <= 6

    def test_larger(self):
        emb = arbitrary_tree_embedding(random_binary_tree(1000, seed=2), 4)
        emb.verify()
        # width O(n) with a few paths lost to greedy conflicts
        n = emb.info["n"]
        widths = [len(ps) for ps in emb.edge_paths.values() if len(ps[0]) > 1]
        assert min(widths) >= n // 2


# payload_digest(embedding_csr(theorem5_embedding(m))) when the tree was
# composed over the eagerly built cross product
TREE_DIGESTS = {
    2: "91c6c0442f067fe22466b4a5973ba2151cecf213886b64fa8fd6629482c3138a",
    4: "d384876c931513795f0a35e5d26219db5005c467f0c1e755551477f0726029a7",
}


class TestTheorem5OnDemand:
    """Theorem 5 computes only the X(G) bundles its tree rides, each
    exactly as the eager cross product stores it."""

    @pytest.mark.parametrize("m,count", [(2, 512), (4, 32768)])
    def test_lookup_matches_eager_cross_product(self, m, count):
        mc = butterfly_multicopy_embedding(m, undirected=True)
        x = induced_cross_product_embedding(mc)
        bundles = CrossProductBundles(mc)
        edges = list(x.guest.edges())
        assert len(edges) == count
        for edge in edges:
            assert bundles[edge] == x.edge_paths[edge], edge

    def test_lookup_rejects_pairs_that_are_no_x_edge(self):
        mc = butterfly_multicopy_embedding(2, undirected=True)
        x = induced_cross_product_embedding(mc)
        bundles = CrossProductBundles(mc)
        n = x.info["n"]
        for row in (True, False):
            a, b = next(
                (a, b) for a, b in x.edge_paths if (a >> n == b >> n) == row
            )
            # off X: a row pair leaves its row; a column pair keeps its
            # column's guest edge, whose X edge is (a, b)
            wrong = (a, b ^ (1 << n)) if row else (a, b ^ 1)
            assert wrong not in x.edge_paths
            with pytest.raises(KeyError):
                bundles[wrong]

    def test_builds_without_the_eager_cross_product(self, monkeypatch):
        import repro.core as core
        import repro.core.cross_product as cross_product

        def eager(multicopy):
            raise AssertionError("built every X(G) bundle")

        monkeypatch.setattr(cross_product, "induced_cross_product_embedding", eager)
        monkeypatch.setattr(core, "induced_cross_product_embedding", eager)
        emb = theorem5_embedding(2)
        assert emb.verify(strict=False).ok

    @pytest.mark.parametrize("m", sorted(TREE_DIGESTS))
    def test_stored_payload_is_pinned(self, m):
        from repro.core.fast_verify import embedding_csr
        from repro.service.store import payload_digest

        emb = theorem5_embedding(m)
        assert payload_digest(embedding_csr(emb)) == TREE_DIGESTS[m]
        assert emb.info["n"] == m + m.bit_length() - 1

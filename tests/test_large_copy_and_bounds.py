"""Tests for Corollary 3, Lemma 9 (large copies) and Lemma 3 (bounds)."""

from collections import Counter

import pytest
from hypothesis import given, strategies as st

from repro.core.bounds import (
    count_short_paths,
    max_width_for_cost3,
    min_dilation_for_width,
    verify_no_two_hop_paths,
)
from repro.core.large_copy import (
    large_butterfly_embedding,
    large_ccc_embedding,
    large_cycle_embedding,
    large_fft_embedding,
    reference_large_cycle_embedding,
)

# payload_digest(embedding_csr(large_cycle_embedding(n))): the stored
# payload of the dict builder the array builder replaced
LARGE_CYCLE_DIGESTS = {
    2: "54d45bb8e28ffe5aca8035b3aa9a50ba53196aa40d2324820f85397b830f1f28",
    4: "603a026f16b733b6dbd66912927bb1ac73bab3435e900fd8af56edf720a1c662",
    6: "3588b38d9d4785d7079cfee8f4c11e48a7ec80f199a5c88e40914a674fd210f2",
    8: "ffddc7051af0da3a9395c921775cabfe1fd5e9db8bd3075e1a4b4b5540239900",
    10: "fe01a036c4b63ff23fe804435829b434511a936d3d913466c17788a00e9c3131",
    12: "56f463ce0c0308a2e98181a994351860e817cf05d3ea3f06d6d77e980617dad0",
}


class TestLargeCycle:
    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_corollary3(self, n):
        emb = large_cycle_embedding(n)
        emb.verify()
        assert emb.guest.num_vertices == n * 2**n
        assert emb.load == n
        assert emb.dilation == 1
        assert emb.congestion == 1

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_saturates_every_directed_link(self, n):
        emb = large_cycle_embedding(n)
        counts = emb.edge_congestion_counts()
        assert len(counts) == emb.host.num_edges
        assert set(counts.values()) == {1}

    def test_odd_n_rejected(self):
        with pytest.raises(ValueError):
            large_cycle_embedding(5)

    @pytest.mark.parametrize("n", [2, 4])
    def test_load_perfectly_balanced(self, n):
        emb = large_cycle_embedding(n)
        counts = Counter(emb.vertex_map.values())
        assert set(counts.values()) == {n}

    @pytest.mark.parametrize("n", sorted(LARGE_CYCLE_DIGESTS))
    def test_stored_payload_is_pinned(self, n):
        from repro.core.fast_verify import embedding_csr
        from repro.service.store import payload_digest

        emb = large_cycle_embedding(n)
        assert payload_digest(embedding_csr(emb)) == LARGE_CYCLE_DIGESTS[n]
        assert emb.carried is not None

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_array_build_matches_dict_build(self, n):
        emb, reference = large_cycle_embedding(n), reference_large_cycle_embedding(n)
        assert emb.name == reference.name
        assert list(emb.vertex_map.items()) == list(reference.vertex_map.items())
        assert list(emb.edge_paths.items()) == list(reference.edge_paths.items())

    def test_reference_builder_is_not_exported(self):
        import repro.core

        assert "reference_large_cycle_embedding" not in repro.core.__all__
        with pytest.raises(ValueError):
            reference_large_cycle_embedding(3)


class TestLemma9:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_ccc(self, n):
        emb = large_ccc_embedding(n)
        emb.verify()
        assert emb.load == n
        assert emb.dilation == 1
        assert emb.congestion == 1

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_butterfly(self, n):
        emb = large_butterfly_embedding(n)
        emb.verify()
        assert emb.load == n
        assert emb.congestion <= 2

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_fft(self, n):
        emb = large_fft_embedding(n)
        emb.verify()
        assert emb.load == n + 1
        assert emb.congestion <= 2

    def test_ccc_saturates_links(self):
        emb = large_ccc_embedding(4)
        counts = emb.edge_congestion_counts()
        assert len(counts) == emb.host.num_edges


class TestLemma3:
    def test_min_dilation(self):
        assert min_dilation_for_width(1) == 1
        assert min_dilation_for_width(2) == 2
        for w in (3, 4, 10):
            assert min_dilation_for_width(w) == 3
        with pytest.raises(ValueError):
            min_dilation_for_width(0)

    def test_max_width(self):
        assert max_width_for_cost3(4) == 2
        assert max_width_for_cost3(8) == 4
        assert max_width_for_cost3(9) == 4

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_no_two_hop_paths(self, n):
        assert verify_no_two_hop_paths(n)

    def test_adjacent_path_census(self):
        # between adjacent nodes of Q_n: 1 direct path, 0 of length 2,
        # n-1 of length 3 (one per detour dimension)
        for n in (3, 4, 5):
            counts = count_short_paths(n, 0, 1, 3)
            assert counts == {1: 1, 3: n - 1}

    @given(st.integers(min_value=4, max_value=64))
    def test_theorem2_width_meets_lemma3_bound(self, n):
        # Theorem 2's achieved widths never exceed the Lemma 3 cap (cost 3)
        from repro.core.cycle_multipath import theorem2_claim

        claim = theorem2_claim(n)
        if claim["cost"] == 3:
            assert claim["width"] <= max_width_for_cost3(n)


class TestUndirectedLargeCycle:
    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_corollary3_undirected(self, n):
        from repro.core.large_copy import large_cycle_embedding_undirected

        emb = large_cycle_embedding_undirected(n)
        emb.verify()
        assert emb.guest.num_vertices == n * 2 ** (n - 1)
        assert emb.dilation == 1
        assert emb.congestion == 1
        # both orientations of every link carry exactly one guest edge
        counts = emb.edge_congestion_counts()
        assert len(counts) == emb.host.num_edges
        assert set(counts.values()) == {1}

    def test_load_is_half_n(self):
        from collections import Counter

        from repro.core.large_copy import large_cycle_embedding_undirected

        emb = large_cycle_embedding_undirected(6)
        counts = Counter(emb.vertex_map.values())
        assert set(counts.values()) == {3}  # n/2 visits per node

    def test_odd_rejected(self):
        from repro.core.large_copy import large_cycle_embedding_undirected

        with pytest.raises(ValueError):
            large_cycle_embedding_undirected(5)

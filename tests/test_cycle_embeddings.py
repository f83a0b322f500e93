"""Tests for the gray-code baseline, Lemma 1 copies, and Theorems 1 & 2."""

import pytest

from repro.core.cycle_multicopy import (
    cycle_multicopy_embedding,
    graycode_cycle_embedding,
)
from repro.core.cycle_multipath import (
    embed_cycle_load1,
    embed_cycle_load2,
    theorem1_claim,
    theorem2_claim,
)
from repro.routing.schedule import multipath_packet_schedule


class TestGraycodeBaseline:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_valid_dilation1_congestion1(self, n):
        emb = graycode_cycle_embedding(n)
        emb.verify(max_load=1)
        assert emb.load == 1
        assert emb.dilation == 1
        assert emb.congestion == 1

    def test_uses_single_outgoing_link_per_node(self):
        emb = graycode_cycle_embedding(5)
        # exactly 2^n of the n*2^n directed links are used
        assert len(emb.edge_congestion_counts()) == 2**5


class TestLemma1Copies:
    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_even_n_copies(self, n):
        mc = cycle_multicopy_embedding(n)
        mc.verify()
        assert mc.k == n
        assert mc.dilation == 1
        assert mc.edge_congestion == 1

    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_odd_gives_n_minus_1(self, n):
        mc = cycle_multicopy_embedding(n)
        mc.verify()
        assert mc.k == n - 1
        assert mc.edge_congestion == 1

    def test_even_n_saturates_every_link(self):
        # n copies x 2^n edges = n*2^n = all directed links, congestion 1
        mc = cycle_multicopy_embedding(4)
        counts = {}
        for c in mc.copies:
            for eid, v in c.edge_congestion_counts().items():
                counts[eid] = counts.get(eid, 0) + v
        assert len(counts) == mc.host.num_edges
        assert set(counts.values()) == {1}


class TestTheorem1:
    @pytest.mark.parametrize("n", range(4, 12))
    def test_structure(self, n):
        emb = embed_cycle_load1(n)
        emb.verify()  # one-to-one, paths valid, per-edge edge-disjoint
        assert emb.load == 1
        assert emb.dilation == 3
        info = emb.info
        # width claim holds exactly when 2k is a power of two
        two_k = 2 * info["k"]
        if two_k & (two_k - 1) == 0:
            assert emb.width >= theorem1_claim(n)["width"]
        else:
            assert emb.width == info["a"] + 1

    @pytest.mark.parametrize("n", range(4, 12))
    def test_cost3_schedule_is_conflict_free(self, n):
        emb = embed_cycle_load1(n)
        sched = multipath_packet_schedule(emb, extra_direct_at=3)
        sched.verify()
        assert sched.makespan == 3

    def test_packets_per_edge(self):
        # (a + 2)-packet cost 3: a detour packets + 2 on the direct edge
        emb = embed_cycle_load1(8)
        sched = multipath_packet_schedule(emb, extra_direct_at=3)
        assert len(sched.packets) == emb.guest.num_edges * emb.info["packets_per_edge"]

    def test_visits_every_node_once(self):
        emb = embed_cycle_load1(6)
        assert sorted(emb.vertex_map.values()) == list(range(64))

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            embed_cycle_load1(3)


class TestTheorem2:
    @pytest.mark.parametrize("n", range(4, 11))
    def test_structure_cost3_variant(self, n):
        emb = embed_cycle_load2(n)
        emb.verify()
        assert emb.load == 2
        assert emb.guest.num_vertices == 2 ** (n + 1)
        claim = theorem2_claim(n)
        assert emb.width == claim["width"]
        assert emb.info["cost"] == claim["cost"]

    @pytest.mark.parametrize("n", [6, 7, 10, 11])
    def test_prefer_width_variant(self, n):
        emb = embed_cycle_load2(n, prefer_width=True)
        emb.verify()
        claim = theorem2_claim(n, prefer_width=True)
        assert emb.width == claim["width"]
        assert emb.info["cost"] == claim["cost"]
        assert emb.info["middle_congestion"] == 2

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8, 9])
    def test_schedule_conflict_free(self, n):
        emb = embed_cycle_load2(n)
        sched = multipath_packet_schedule(emb)
        sched.verify()
        assert sched.makespan == emb.info["cost"]

    def test_full_link_utilization_when_n_mod4_is_0(self):
        # paper: "When n = 0 (mod 4) all the hypercube edges are in use
        # during each of the 3 steps."
        emb = embed_cycle_load2(8)
        sched = multipath_packet_schedule(emb)
        sched.verify()
        assert sched.busy_link_fraction() == 1.0

    def test_every_node_hosts_exactly_two(self):
        from collections import Counter

        emb = embed_cycle_load2(5)
        counts = Counter(emb.vertex_map.values())
        assert set(counts.values()) == {2}
        assert len(counts) == 2**5

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            embed_cycle_load2(3)


class TestMultiPathVerifier:
    """The vectorized verifier rejects each class of invalid input."""

    def _valid(self):
        from repro.core import embed_cycle_load1

        return embed_cycle_load1(4)

    def test_rejects_shared_edge_across_paths(self):
        emb = self._valid()
        edge = (0, 1)
        paths = list(emb.edge_paths[edge])
        paths.append(paths[0])  # duplicate an entire path
        emb.edge_paths[edge] = tuple(paths)
        with pytest.raises(AssertionError):
            emb.verify()

    def test_rejects_non_hypercube_hop(self):
        emb = self._valid()
        edge = (0, 1)
        p = list(emb.edge_paths[edge][0])
        p[1] = p[0] ^ 0b11  # two-bit jump
        emb.edge_paths[edge] = (tuple(p),) + emb.edge_paths[edge][1:]
        with pytest.raises(AssertionError):
            emb.verify()

    def test_rejects_wrong_endpoints(self):
        emb = self._valid()
        edge = (0, 1)
        p = emb.edge_paths[edge][0]
        emb.edge_paths[edge] = ((p[0], p[0] ^ 1),) + emb.edge_paths[edge][1:]
        with pytest.raises(AssertionError):
            emb.verify()

    def test_rejects_missing_edge(self):
        emb = self._valid()
        del emb.edge_paths[(0, 1)]
        with pytest.raises(AssertionError):
            emb.verify()

    def test_rejects_overload(self):
        emb = self._valid()
        emb.vertex_map[0] = emb.vertex_map[1]
        with pytest.raises(AssertionError):
            emb.verify()

    def test_rejects_out_of_range_node(self):
        emb = self._valid()
        edge = (0, 1)
        p = list(emb.edge_paths[edge][0])
        hv = p[-1]
        emb.edge_paths[edge] = ((p[0], 1 << 10, hv),) + emb.edge_paths[edge][1:]
        with pytest.raises(AssertionError):
            emb.verify()


def _assert_same_embedding(fast, reference):
    """Array-built ``fast`` exports, verifies and reads as ``reference``."""
    from repro.core.fast_verify import embedding_csr
    from repro.service.store import payload_digest

    assert fast.carried is not None
    assert payload_digest(embedding_csr(fast)) == payload_digest(embedding_csr(reference))
    got, want = fast.verify(strict=False), reference.verify(strict=False)
    assert (got.checks, got.metrics) == (want.checks, want.metrics)
    assert fast.carried is not None  # export and verify built no dicts
    for field in ("vertex_map", "edge_paths", "step_of"):
        assert list(getattr(fast, field).items()) == list(getattr(reference, field).items())
    assert fast.carried is None
    assert (fast.info, fast.name, fast.load_allowed) == (
        reference.info, reference.name, reference.load_allowed)


class TestArrayBuilders:
    """The array builders build exactly what the dict builders build."""

    @pytest.mark.parametrize("labeling", ["moment", "constant"])
    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8, 9])
    def test_theorem1_matches_reference(self, n, labeling):
        from repro.core.cycle_multipath import reference_embed_cycle_load1

        _assert_same_embedding(
            embed_cycle_load1(n, labeling), reference_embed_cycle_load1(n, labeling)
        )

    @pytest.mark.parametrize("shift", [0, 1, 2])
    @pytest.mark.parametrize("prefer_width", [False, True])
    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8, 9])
    def test_theorem2_matches_reference(self, n, prefer_width, shift):
        from repro.core.cycle_multipath import reference_embed_cycle_load2

        _assert_same_embedding(
            embed_cycle_load2(n, prefer_width, shift),
            reference_embed_cycle_load2(n, prefer_width, shift),
        )

    def test_errors_match_reference(self):
        with pytest.raises(ValueError, match="unknown labeling"):
            embed_cycle_load1(6, labeling="bogus")
        with pytest.raises(ValueError, match="needs n >= 4"):
            embed_cycle_load2(3)

    def test_flatten_returns_the_carried_layout(self):
        from repro.core.fast_verify import _pack_edges, embedding_csr, flatten_embedding

        emb = embed_cycle_load1(6)
        layout = flatten_embedding(emb)
        assert layout is emb.carried.layout
        assert _pack_edges(layout.edges) is layout.edges
        assert embedding_csr(emb).edges is layout.edges
        assert emb.carried is not None

    def test_pickle_round_trip_unread_and_read(self):
        import pickle

        from repro.core.cycle_multipath import reference_embed_cycle_load2

        reference = reference_embed_cycle_load2(6)
        emb = embed_cycle_load2(6)
        unread = pickle.loads(pickle.dumps(emb))
        assert unread.carried is not None
        assert unread.verify(strict=False).ok
        assert unread.edge_paths == reference.edge_paths
        assert unread.step_of == reference.step_of
        emb.vertex_map[0] = emb.vertex_map[0]  # read: the dicts are built
        read = pickle.loads(pickle.dumps(emb))
        assert read.carried is None
        assert read.vertex_map == reference.vertex_map
        assert list(read.edge_paths) == list(reference.edge_paths)
        assert read.verify(strict=False).ok

    def test_concurrent_first_read_builds_one_dict(self):
        import sys
        import threading

        emb = embed_cycle_load1(8)
        results = [None] * 8
        gate = threading.Barrier(len(results))

        def read(i):
            gate.wait(timeout=30)
            results[i] = emb.edge_paths

        threads = [threading.Thread(target=read, args=(i,)) for i in range(len(results))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert all(r is results[0] for r in results)
        assert results[0] is emb.edge_paths
        assert emb.carried is None


class TestCarriedLargeCycle:
    """Corollary 3's large cycle is an :class:`Embedding` carrying arrays."""

    def test_pickle_round_trip_unread_and_read(self):
        import pickle

        from repro.core.large_copy import (
            large_cycle_embedding,
            reference_large_cycle_embedding,
        )

        reference = reference_large_cycle_embedding(6)
        emb = large_cycle_embedding(6)
        unread = pickle.loads(pickle.dumps(emb))
        assert unread.carried is not None
        assert unread.verify(strict=False).ok
        assert list(unread.edge_paths.items()) == list(reference.edge_paths.items())
        emb.vertex_map[0] = emb.vertex_map[0]  # read: the dicts are built
        read = pickle.loads(pickle.dumps(emb))
        assert read.carried is None
        assert read.vertex_map == reference.vertex_map
        assert list(read.edge_paths) == list(reference.edge_paths)
        assert read.verify(strict=False).ok

    def test_concurrent_first_read_builds_one_dict(self):
        import sys
        import threading

        from repro.core.large_copy import large_cycle_embedding

        emb = large_cycle_embedding(8)
        results = [None] * 8
        gate = threading.Barrier(len(results))

        def read(i):
            gate.wait(timeout=30)
            results[i] = emb.edge_paths

        threads = [threading.Thread(target=read, args=(i,)) for i in range(len(results))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert all(r is results[0] for r in results)
        assert results[0] is emb.edge_paths
        assert emb.carried is None

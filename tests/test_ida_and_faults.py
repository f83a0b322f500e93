"""Tests for Rabin's IDA and the link-fault experiments."""

import itertools
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import embed_cycle_load1, graycode_cycle_embedding
from repro.fault import FaultModel, multipath_delivery_experiment
from repro.fault.ida import cauchy_matrix, disperse, reconstruct
from repro.hypercube.graph import Hypercube


class TestCauchy:
    def test_every_square_submatrix_invertible(self):
        import numpy as np

        from repro.fault.gf256 import GF256

        w, m = 6, 3
        a = cauchy_matrix(w, m)
        for rows in itertools.combinations(range(w), m):
            GF256.solve(a[list(rows), :], np.zeros(m, dtype=np.uint8))

    def test_bounds(self):
        with pytest.raises(ValueError):
            cauchy_matrix(200, 100)
        with pytest.raises(ValueError):
            cauchy_matrix(0, 1)

    def test_cached_matrix_is_read_only(self):
        # one cached array serves every caller, so none may write into it
        a = cauchy_matrix(5, 3)
        with pytest.raises(ValueError):
            a[0, 0] = 0
        assert cauchy_matrix(5, 3) is a


class TestIDA:
    @given(
        st.binary(min_size=0, max_size=200),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=4),
    )
    @settings(max_examples=40)
    def test_roundtrip_any_m_pieces(self, message, m, extra):
        w = m + extra
        pieces = disperse(message, w, m)
        assert len(pieces) == w
        assert reconstruct(pieces[-m:], w, m) == message

    def test_every_m_subset_reconstructs(self):
        msg = b"hypercube"
        w, m = 5, 3
        pieces = disperse(msg, w, m)
        for subset in itertools.combinations(pieces, m):
            assert reconstruct(list(subset), w, m) == msg

    def test_piece_size_overhead(self):
        msg = b"z" * 300
        pieces = disperse(msg, 6, 3)
        # each piece ~ len/m plus the 4-byte length frame
        assert len(pieces[0][1]) == -(-304 // 3)

    def test_too_few_pieces(self):
        pieces = disperse(b"abc", 4, 2)
        with pytest.raises(ValueError):
            reconstruct(pieces[:1], 4, 2)

    def test_duplicate_pieces_do_not_count(self):
        pieces = disperse(b"abc", 4, 2)
        with pytest.raises(ValueError):
            reconstruct([pieces[0], pieces[0]], 4, 2)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            disperse(b"x", 2, 3)  # w < m
        disperse(b"x", 3, 2)
        with pytest.raises(ValueError):
            reconstruct([(9, b"")], 3, 2)  # index out of range


class TestFaultModel:
    def test_no_faults(self):
        host = Hypercube(5)
        fm = FaultModel.random(host, 0.0, seed=1)
        assert not fm.failed
        assert fm.path_alive([0, 1, 3, 7])

    def test_all_faults(self):
        host = Hypercube(4)
        fm = FaultModel.random(host, 1.0, seed=1)
        assert len(fm.failed) == host.num_edges
        assert not fm.path_alive([0, 1])
        assert fm.path_alive([3])  # zero-hop path never fails

    def test_symmetric_failures(self):
        host = Hypercube(5)
        fm = FaultModel.random(host, 0.3, seed=2)
        for eid in fm.failed:
            u, v = host.edge_from_id(eid)
            assert host.edge_id(v, u) in fm.failed

    def test_deterministic_by_seed(self):
        host = Hypercube(5)
        a = FaultModel.random(host, 0.2, seed=9)
        b = FaultModel.random(host, 0.2, seed=9)
        assert a.failed == b.failed

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            FaultModel.random(Hypercube(3), 1.5)


class TestDeliveryExperiment:
    def test_no_faults_delivers_everything(self):
        emb = embed_cycle_load1(6)
        fm = FaultModel(emb.host, set())
        report = multipath_delivery_experiment(emb, fm)
        assert report.delivery_rate == 1.0

    def test_total_failure(self):
        emb = embed_cycle_load1(6)
        fm = FaultModel.random(emb.host, 1.0, seed=0)
        report = multipath_delivery_experiment(emb, fm)
        assert report.delivery_rate == 0.0

    def test_multipath_beats_single_at_moderate_faults(self):
        emb = embed_cycle_load1(8)
        gray = graycode_cycle_embedding(8)
        wins = 0
        for seed in range(3):
            fm = FaultModel.random(emb.host, 0.03, seed=seed)
            rep = multipath_delivery_experiment(emb, fm)
            single = sum(
                fm.path_alive(p) for p in gray.edge_paths.values()
            ) / gray.guest.num_edges
            wins += rep.delivery_rate >= single
        assert wins >= 2

    def test_pieces_needed_override(self):
        emb = embed_cycle_load1(6)
        fm = FaultModel(emb.host, set())
        report = multipath_delivery_experiment(emb, fm, pieces_needed=1)
        assert report.delivery_rate == 1.0

    def test_undeliverable_edges_are_never_dispersed(self, monkeypatch):
        import repro.fault.faults as faults_module

        calls = []

        def counting(message, w, m):
            calls.append(w)
            return disperse(message, w, m)

        monkeypatch.setattr(faults_module, "disperse", counting)
        emb = embed_cycle_load1(6)
        edge, paths = next(iter(emb.edge_paths.items()))
        # every link of one guest edge's paths fails: that edge is all-dead
        dead = {
            emb.host.edge_id(a, b) for p in paths for a, b in zip(p, p[1:])
        }
        report = multipath_delivery_experiment(emb, FaultModel(emb.host, dead))
        assert report.surviving_paths[edge] == 0
        assert 0 < len(calls) == report.delivered < report.total_edges
        calls.clear()
        everything = FaultModel.random(emb.host, 1.0, seed=0)
        assert multipath_delivery_experiment(emb, everything).delivered == 0
        assert calls == []

    @pytest.mark.parametrize(
        "pieces_needed, delivered", [(None, 20), (3, 4)]
    )
    def test_fixed_fault_set_report(self, pieces_needed, delivered):
        # pinned from the implementation that dispersed every edge's
        # message before counting its surviving paths
        emb = embed_cycle_load1(6)
        fm = FaultModel.random(emb.host, 0.3, seed=1)
        report = multipath_delivery_experiment(
            emb, fm, pieces_needed=pieces_needed
        )
        assert (report.total_edges, report.delivered) == (64, delivered)
        assert report.pieces_needed == (pieces_needed or 0)
        assert sorted(Counter(report.surviving_paths.values()).items()) == [
            (0, 11), (1, 33), (2, 16), (3, 4),
        ]
        assert report.surviving_paths == {
            e: sum(fm.path_alive(p) for p in paths)
            for e, paths in emb.edge_paths.items()
        }


class TestRedundancySweep:
    def test_monotone_and_bounded(self):
        from repro.fault import redundancy_tradeoff_sweep

        emb = embed_cycle_load1(6)
        rows = redundancy_tradeoff_sweep(emb, 0.08, trials=2)
        assert len(rows) == emb.width
        rates = [r["delivery_rate"] for r in rows]
        assert rates == sorted(rates, reverse=True)
        assert all(0.0 <= r <= 1.0 for r in rates)

    def test_zero_faults_always_delivers(self):
        from repro.fault import redundancy_tradeoff_sweep

        emb = embed_cycle_load1(6)
        rows = redundancy_tradeoff_sweep(emb, 0.0, trials=1)
        assert all(r["delivery_rate"] == 1.0 for r in rows)


class TestNodeAndExactFaults:
    """FaultModel extensions: node faults, exact-k kills, mid-run activation."""

    def test_random_links_exact_count_and_symmetric(self):
        host = Hypercube(5)
        fm = FaultModel.random_links(host, 7, seed=3)
        assert len(fm.failed) == 14  # 7 undirected links, both directions
        for eid in fm.failed:
            u, v = host.edge_from_id(eid)
            assert host.edge_id(v, u) in fm.failed

    def test_random_links_bounds(self):
        host = Hypercube(3)
        assert not FaultModel.random_links(host, 0, seed=1).failed
        full = FaultModel.random_links(host, host.num_edges // 2, seed=1)
        assert len(full.failed) == host.num_edges
        with pytest.raises(ValueError):
            FaultModel.random_links(host, host.num_edges // 2 + 1, seed=1)
        with pytest.raises(ValueError):
            FaultModel.random_links(host, -1, seed=1)

    def test_random_nodes(self):
        host = Hypercube(5)
        fm = FaultModel.random_nodes(host, 4, seed=8)
        assert len(fm.failed_nodes) == 4
        dead = next(iter(fm.failed_nodes))
        # every hop into or out of a dead node is dead
        for d in range(host.n):
            assert fm.hop_dead(host.edge_id(dead, dead ^ (1 << d)))
            assert fm.hop_dead(host.edge_id(dead ^ (1 << d), dead))

    def test_path_alive_node_aware(self):
        host = Hypercube(4)
        fm = FaultModel(host, failed_nodes={5})
        assert not fm.path_alive([1, 5, 7])   # transits the dead node
        assert not fm.path_alive([5])         # zero-hop on a dead node
        assert fm.path_alive([0, 1, 3])
        assert fm.path_alive([3])

    def test_merged_unions_and_takes_earliest_activation(self):
        host = Hypercube(4)
        a = FaultModel.random_links(host, 2, seed=1, active_from=5)
        b = FaultModel.random_nodes(host, 1, seed=2, active_from=3)
        m = a.merged(b)
        assert m.failed == a.failed
        assert m.failed_nodes == b.failed_nodes
        assert m.active_from == 3
        with pytest.raises(ValueError):
            a.merged(FaultModel.random_links(Hypercube(3), 1, seed=1))

    def test_dead_link_mask_matches_hop_dead(self):
        host = Hypercube(4)
        fm = FaultModel.random_links(host, 3, seed=4)
        fm = fm.merged(FaultModel.random_nodes(host, 2, seed=5))
        mask = fm.dead_link_mask()
        assert mask.shape == (host.num_nodes * host.n,)
        for eid in range(host.num_edges):
            assert bool(mask[eid]) == fm.hop_dead(eid)


class TestMidRunFaults:
    """Regression: a fault injected mid-run, on both engines, in agreement."""

    def _schedule(self, host):
        # long paths released over several steps so the kill lands mid-flight
        from repro.routing.permutation import dimension_order_path

        sched = []
        for src in range(host.num_nodes):
            dst = src ^ (host.num_nodes - 1)
            sched.append((tuple(dimension_order_path(host.n, src, dst)), 1))
            sched.append(
                (tuple(dimension_order_path(host.n, dst, src)), 3)
            )
        return sched

    @pytest.mark.parametrize("active_from", [0, 2, 4, 100])
    def test_engines_agree(self, active_from):
        from repro.routing.batched import BatchedStoreForward
        from repro.routing.simulator import StoreForwardSimulator

        host = Hypercube(5)
        sched = self._schedule(host)
        faults = FaultModel.random_links(
            host, 6, seed=11, active_from=active_from
        )
        ref = StoreForwardSimulator(host, tie_break="priority").run(
            sched, faults=faults
        )
        fast = BatchedStoreForward(host).run(sched, faults=faults)
        assert ref.measured() == fast.measured()
        assert ref.done_steps == fast.done_steps

    def test_mid_run_kill_spares_early_packets(self):
        from repro.routing.simulator import StoreForwardSimulator

        host = Hypercube(4)
        # packet 0 crosses link 0->1 at step 1; packet 1 crosses it at
        # release 5 after the same link dies at step 3
        sched = [((0, 1), 1), ((0, 1), 5)]
        faults = FaultModel(
            host,
            failed={host.edge_id(0, 1), host.edge_id(1, 0)},
            active_from=3,
        )
        res = StoreForwardSimulator(host).run(sched, faults=faults)
        assert res.done_steps == (1, -1)
        assert res.delivered == 1

    def test_late_activation_is_a_no_op(self):
        from repro.routing.batched import BatchedStoreForward

        host = Hypercube(4)
        sched = self._schedule(host)
        clean = BatchedStoreForward(host).run(sched)
        faults = FaultModel.random_links(
            host, 5, seed=2, active_from=clean.makespan + 1
        )
        faulty = BatchedStoreForward(host).run(sched, faults=faults)
        assert faulty.measured() == clean.measured()


class TestIDAThreshold:
    """Reconstruction at exactly n-k surviving shares, and one below."""

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
    def test_exact_threshold_reconstructs(self, n):
        message = bytes(range(64))
        m = -(-n // 2)  # the campaign default: ceil(n/2) of n pieces
        pieces = disperse(message, n, m)
        # exactly m survivors — every contiguous window of the pieces
        for start in range(n - m + 1):
            got = reconstruct(pieces[start : start + m], n, m)
            assert got == message

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
    def test_one_below_threshold_fails(self, n):
        message = b"threshold probe"
        m = -(-n // 2)
        pieces = disperse(message, n, m)
        if m == 1:
            pytest.skip("m=1 cannot go below threshold")
        with pytest.raises(ValueError):
            reconstruct(pieces[: m - 1], n, m)

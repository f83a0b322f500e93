"""Cross-cutting property-based tests (hypothesis).

These check invariants that hold across randomized instances rather than
hand-picked cases: embedding metric consistency, simulator bounds,
loop-erasure laws, and the structural facts the constructions rely on.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.core import embed_cycle_load1, embed_cycle_load2
from repro.core.cycle_multicopy import graycode_cycle_embedding
from repro.hypercube.graph import Hypercube
from repro.hypercube.graycode import gray, gray_node_sequence
from repro.hypercube.hamiltonian import hamiltonian_decomposition
from repro.hypercube.moments import moment
from repro.routing.pathutils import erase_loops
from repro.routing.simulator import StoreForwardSimulator
from repro.routing.wormhole import WormholeSimulator

small_n = st.integers(min_value=2, max_value=8)


class TestStructuralInvariants:
    @given(small_n, st.integers(min_value=0, max_value=255))
    def test_gray_neighbors_in_hypercube(self, n, i):
        size = 1 << n
        q = Hypercube(n)
        assert q.is_edge(gray(i % size), gray((i + 1) % size))

    @given(st.integers(min_value=2, max_value=10))
    def test_decomposition_cycles_alternate_parity(self, n):
        # every Hamiltonian cycle alternates between even and odd weight
        dec = hamiltonian_decomposition(n)
        for cyc in dec.cycles:
            parities = [v.bit_count() % 2 for v in cyc[:16]]
            assert all(a != b for a, b in zip(parities, parities[1:]))

    @given(st.integers(min_value=1, max_value=2**20 - 1))
    def test_moment_invariant_under_bit_pairing(self, v):
        # xor-ing in two equal-b bits cancels: M(v ^ 2^i ^ 2^i) = M(v)
        i = v.bit_length() % 20
        assert moment(v ^ (1 << i) ^ (1 << i)) == moment(v)

    @given(small_n)
    def test_theorem1_paths_partition_step_classes(self, n):
        if n < 4:
            return
        emb = embed_cycle_load1(n)
        # every non-direct path has length exactly 3 and its middle edge
        # lies in the same dimension as the guest edge's direct image
        for (u, v), paths in list(emb.edge_paths.items())[:32]:
            hu, hv = emb.vertex_map[u], emb.vertex_map[v]
            d = emb.host.dimension_of(hu, hv)
            for p in paths[:-1]:
                assert len(p) == 4
                assert emb.host.dimension_of(p[1], p[2]) == d


class TestSimulatorBounds:
    @given(
        st.lists(
            st.tuples(st.integers(0, 63), st.integers(0, 63)),
            min_size=1,
            max_size=24,
        )
    )
    @settings(max_examples=30)
    def test_makespan_at_least_longest_path(self, pairs):
        host = Hypercube(6)
        sched = []
        longest = 0
        for u, v in pairs:
            path = [u]
            cur = u
            for d in range(6):
                if (cur ^ v) >> d & 1:
                    cur ^= 1 << d
                    path.append(cur)
            if len(path) > 1:
                sched.append(path)
                longest = max(longest, len(path) - 1)
        if sched:
            t = StoreForwardSimulator(host).run(sched).makespan
            assert longest <= t <= longest + len(sched)  # FIFO can only delay

    @given(st.integers(1, 12), st.integers(1, 20))
    def test_wormhole_single_worm_exact(self, hops, flits):
        host = Hypercube(4)
        # a self-avoiding gray path of `hops` hops
        path = gray_node_sequence(4)[: hops + 1]
        sim = WormholeSimulator(host)
        assert sim.run([(path, flits, 1)]).makespan == hops + flits - 1

    @given(st.integers(1, 10))
    def test_service_time_scales_message_sf(self, service):
        host = Hypercube(4)
        sim = StoreForwardSimulator(host)
        assert sim.run([([0, 1, 3, 7], 1, service)]).makespan == 3 * service


class TestLoopErasure:
    @given(st.lists(st.integers(0, 15), min_size=1, max_size=40))
    def test_erasure_properties(self, walk):
        out = erase_loops(walk)
        assert out[0] == walk[0]
        assert out[-1] == walk[-1]
        assert len(set(out)) == len(out)  # simple
        assert set(out) <= set(walk)

    @given(st.integers(2, 6), st.integers(0, 100))
    def test_erasure_of_hypercube_walk_is_path(self, n, seed):
        rng = random.Random(seed)
        host = Hypercube(n)
        walk = [rng.randrange(host.num_nodes)]
        for _ in range(30):
            walk.append(walk[-1] ^ (1 << rng.randrange(n)))
        path = erase_loops(walk)
        assert host.is_path(path)


class TestEmbeddingMetricConsistency:
    @given(st.integers(4, 9))
    @settings(max_examples=6, deadline=None)
    def test_theorem1_metrics(self, n):
        emb = embed_cycle_load1(n)
        # congestion counts each guest edge once per host edge
        counts = emb.edge_congestion_counts()
        assert max(counts.values()) == emb.congestion
        assert emb.width == min(len(ps) for ps in emb.edge_paths.values())
        assert emb.expansion == 1.0

    @given(st.integers(4, 8))
    @settings(max_examples=5, deadline=None)
    def test_theorem2_uses_more_links_than_theorem1(self, n):
        # load 2 exists to raise utilization (Section 4.3's motivation)
        t1 = embed_cycle_load1(n)
        t2 = embed_cycle_load2(n)
        assert len(t2.edge_congestion_counts()) >= len(t1.edge_congestion_counts())

    @given(st.integers(2, 9))
    @settings(max_examples=8)
    def test_gray_embedding_congestion_profile(self, n):
        emb = graycode_cycle_embedding(n)
        counts = emb.edge_congestion_counts()
        assert set(counts.values()) == {1}
        assert len(counts) == 2**n

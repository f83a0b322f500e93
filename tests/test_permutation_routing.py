"""Tests for Section 7 permutation routing."""

import random

import numpy as np
import pytest

from repro.core.ccc_multicopy import ccc_multicopy_embedding
from repro.hypercube.pathcode import ecube_paths
from repro.networks.ccc import CubeConnectedCycles
from repro.routing.permutation import (
    bit_reversal_permutation,
    ccc_copy_host_path,
    ccc_route,
    dimension_order_path,
    permutation_baseline_time,
    permutation_multicopy_time,
    random_permutation,
)


class TestPaths:
    def test_dimension_order(self):
        assert dimension_order_path(4, 0b0000, 0b1010) == [0b0000, 0b0010, 0b1010]
        assert dimension_order_path(4, 5, 5) == [5]

    @staticmethod
    def _ecube_tuples(n, src, dst):
        nodes, offsets = ecube_paths(n, np.array(src), np.array(dst))
        assert nodes.dtype == offsets.dtype == np.int64
        flat, bounds = nodes.tolist(), offsets.tolist()
        return [tuple(flat[a:b]) for a, b in zip(bounds, bounds[1:])]

    @pytest.mark.parametrize("n", range(1, 7))
    def test_ecube_kernel_every_pair(self, n):
        # the CSR kernel against the scalar walk, src == dst included
        size = 1 << n
        src = [s for s in range(size) for _ in range(size)]
        dst = list(range(size)) * size
        want = [tuple(dimension_order_path(n, s, d)) for s, d in zip(src, dst)]
        assert self._ecube_tuples(n, src, dst) == want

    def test_ecube_kernel_q20(self):
        rng = random.Random(20)
        src = [rng.randrange(1 << 20) for _ in range(10_000)]
        dst = [rng.randrange(1 << 20) for _ in range(10_000)]
        want = [tuple(dimension_order_path(20, s, d)) for s, d in zip(src, dst)]
        assert self._ecube_tuples(20, src, dst) == want
        assert self._ecube_tuples(20, [], []) == []

    def test_ccc_route_valid(self):
        n = 4
        ccc = CubeConnectedCycles(n)
        for src, dst in [((0, 0), (3, 15)), ((2, 7), (2, 8)), ((1, 3), (1, 3))]:
            route = ccc_route(n, src, dst)
            assert route[0] == src and route[-1] == dst
            for a, b in zip(route, route[1:]):
                ccc.edge_level(a, b)  # raises if not a CCC edge

    def test_ccc_route_length_bound(self):
        n = 8
        rng = random.Random(0)
        for _ in range(50):
            src = (rng.randrange(n), rng.randrange(1 << n))
            dst = (rng.randrange(n), rng.randrange(1 << n))
            assert len(ccc_route(n, src, dst)) - 1 <= 3 * n

    def test_copy_host_path_is_hypercube_walk(self):
        mc = ccc_multicopy_embedding(4)
        host = mc.host
        rng = random.Random(1)
        for copy in mc.copies[:2]:
            for _ in range(10):
                u, v = rng.randrange(host.num_nodes), rng.randrange(host.num_nodes)
                path = ccc_copy_host_path(copy, 4, u, v)
                assert path[0] == u and path[-1] == v
                for a, b in zip(path, path[1:]):
                    assert host.is_edge(a, b)

    def test_randomized_path_valid(self):
        mc = ccc_multicopy_embedding(4)
        host = mc.host
        rng = random.Random(5)
        path = ccc_copy_host_path(mc.copies[0], 4, 0, 37, rng)
        assert path[0] == 0 and path[-1] == 37
        assert len(set(path)) == len(path)  # loop-erased
        for a, b in zip(path, path[1:]):
            assert host.is_edge(a, b)


class TestPermutations:
    def test_bit_reversal(self):
        perm = bit_reversal_permutation(4)
        assert perm[0b0001] == 0b1000
        assert perm[0b1100] == 0b0011
        assert sorted(perm) == list(range(16))

    def test_random_permutation_deterministic(self):
        assert random_permutation(32, seed=4) == random_permutation(32, seed=4)


class TestExperiment:
    def test_baseline_scales_linearly_in_m(self):
        perm = random_permutation(64, seed=2)
        t32 = permutation_baseline_time(6, perm, 32)
        t64 = permutation_baseline_time(6, perm, 64)
        assert abs(t64 / t32 - 2) < 0.2

    def test_multicopy_beats_baseline(self):
        perm = random_permutation(64, seed=2)
        base = permutation_baseline_time(6, perm, 64)
        multi = permutation_multicopy_time(4, perm, 64)
        assert multi < base

    def test_packet_mode_beats_message_mode(self):
        perm = random_permutation(64, seed=2)
        msg = permutation_baseline_time(6, perm, 32, mode="message")
        pkt = permutation_baseline_time(6, perm, 32, mode="packet")
        assert pkt <= msg

    def test_wrong_permutation_size(self):
        with pytest.raises(ValueError):
            permutation_multicopy_time(4, list(range(10)), 8)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            permutation_baseline_time(4, list(range(16)), 4, mode="bogus")
        with pytest.raises(ValueError):
            permutation_multicopy_time(
                4, list(range(64)), 4, mode="bogus"
            )

    def test_identity_permutation_is_free(self):
        assert permutation_baseline_time(4, list(range(16)), 8) == 0

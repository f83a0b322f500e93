"""Tests for Corollaries 1 and 2 (grid multiple-path embeddings)."""

import pytest

from repro.core.grid_multipath import corollary1_claim, embed_grid_multipath
from repro.routing.schedule import multipath_packet_schedule


class TestEqualPowerOfTwoSides:
    @pytest.mark.parametrize("dims,torus", [
        ((16, 16), True), ((16, 16), False), ((16, 16, 16), True), ((32, 32), True),
    ])
    def test_valid_and_width(self, dims, torus):
        emb = embed_grid_multipath(dims, torus=torus)
        emb.verify()
        claim = corollary1_claim(len(dims), dims[0])
        assert emb.info["width"] >= claim["width"]
        assert emb.load == 1

    @pytest.mark.parametrize("dims,torus", [((16, 16), True), ((16, 16, 16), True)])
    def test_schedule_six_steps_bidirectional(self, dims, torus):
        emb = embed_grid_multipath(dims, torus=torus)
        sched = multipath_packet_schedule(emb)
        sched.verify()
        # cost 3 per direction, both directions phased: makespan 6
        assert sched.makespan == 6

    def test_expansion_one_for_power_of_two_torus(self):
        emb = embed_grid_multipath((16, 16), torus=True)
        assert emb.info["expansion"] == 1.0

    def test_axes_use_disjoint_dimension_fields(self):
        emb = embed_grid_multipath((16, 16), torus=True)
        a = emb.info["axis_bits"]
        for (u, v), paths in emb.edge_paths.items():
            axis = 0 if u[0] != v[0] else 1
            for p in paths:
                for x, y in zip(p, p[1:]):
                    assert emb.host.dimension_of(x, y) // a == axis


class TestCorollary2Unequal:
    @pytest.mark.parametrize("dims", [(5, 9), (3, 20), (7, 3, 5)])
    def test_valid(self, dims):
        emb = embed_grid_multipath(dims)
        emb.verify()
        sched = multipath_packet_schedule(emb)
        sched.verify()

    def test_load_matches_contraction(self):
        emb = embed_grid_multipath((5, 9))
        assert emb.info["load"] == 2  # ceil(5/7)*ceil(9/7) = 2

    def test_small_axis_fallback(self):
        # sides of 4 need only a=2 bits; falls back to width-1 gray embedding
        emb = embed_grid_multipath((4, 4), torus=True)
        emb.verify()
        assert emb.info["width"] == 1


class TestErrors:
    def test_torus_needs_power_of_two(self):
        with pytest.raises(ValueError):
            embed_grid_multipath((5, 5), torus=True)

    def test_empty_dims(self):
        with pytest.raises(ValueError):
            embed_grid_multipath(())


class TestArrayBuilder:
    """The array builder builds exactly what the dict builder builds."""

    @pytest.mark.parametrize("dims,torus", [
        ((16, 16), True), ((16, 16), False), ((4, 4, 4), True), ((32,), True),
        ((5, 9), False), ((3, 20), False), ((7, 3, 5), False), ((10, 40), False),
        ((2, 8), False), ((4, 4), True), ((8, 8), False), ((1,), False),
        ((1, 1), False), ((2,), False), ((1, 16), False), ((100, 3), False),
    ])
    def test_matches_reference(self, dims, torus):
        # export, report (dicts unbuilt), then dicts, info, name and load
        from repro.qa.differential import builder_differential

        checks = builder_differential("grid", {"dims": list(dims), "torus": torus})
        assert len(checks) == 7
        assert all(c.passed for c in checks), [c.detail for c in checks if not c.passed]

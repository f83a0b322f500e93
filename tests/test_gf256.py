"""Tests for GF(2^8) arithmetic."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.fault.gf256 import GF256

byte = st.integers(min_value=0, max_value=255)
nonzero = st.integers(min_value=1, max_value=255)


class TestFieldAxioms:
    @given(byte, byte)
    def test_add_is_xor_and_self_inverse(self, a, b):
        s = GF256.add(a, b)
        assert GF256.add(s, b) == a

    @given(byte, byte, byte)
    def test_mul_associative(self, a, b, c):
        assert GF256.mul(GF256.mul(a, b), c) == GF256.mul(a, GF256.mul(b, c))

    @given(byte, byte)
    def test_mul_commutative(self, a, b):
        assert GF256.mul(a, b) == GF256.mul(b, a)

    @given(byte, byte, byte)
    def test_distributive(self, a, b, c):
        left = GF256.mul(a, GF256.add(b, c))
        right = GF256.add(GF256.mul(a, b), GF256.mul(a, c))
        assert left == right

    @given(nonzero)
    def test_inverse(self, a):
        assert GF256.mul(a, GF256.inv(a)) == 1

    @given(byte)
    def test_identity(self, a):
        assert GF256.mul(a, 1) == a
        assert GF256.mul(a, 0) == 0

    def test_zero_has_no_inverse(self):
        with pytest.raises(ZeroDivisionError):
            GF256.inv(0)

    @given(nonzero, nonzero)
    def test_division(self, a, b):
        assert GF256.mul(GF256.div(a, b), b) == a

    @given(nonzero, st.integers(min_value=0, max_value=300))
    def test_pow_matches_repeated_mul(self, a, k):
        expected = 1
        for _ in range(k):
            expected = GF256.mul(expected, a)
        assert GF256.pow(a, k) == expected


class TestVectorized:
    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=1, max_value=6),
        st.data(),
    )
    def test_matmul_matches_scalar(self, rows, inner, cols, data):
        a = np.array(
            data.draw(st.lists(byte, min_size=rows * inner, max_size=rows * inner)),
            dtype=np.uint8,
        ).reshape(rows, inner)
        b = np.array(
            data.draw(st.lists(byte, min_size=inner * cols, max_size=inner * cols)),
            dtype=np.uint8,
        ).reshape(inner, cols)
        out = GF256.matmul(a, b)
        assert out.shape == (rows, cols) and out.dtype == np.uint8
        for i in range(rows):
            for j in range(cols):
                acc = 0
                for k in range(inner):
                    acc ^= GF256.mul(int(a[i, k]), int(b[k, j]))
                assert out[i, j] == acc

    def test_matmul_column_vector(self):
        m = np.array([[1, 2], [3, 4]], dtype=np.uint8)
        v = np.array([[5], [6]], dtype=np.uint8)
        out = GF256.matmul(m, v)
        assert out.shape == (2, 1)
        assert out[0, 0] == GF256.mul(1, 5) ^ GF256.mul(2, 6)
        assert out[1, 0] == GF256.mul(3, 5) ^ GF256.mul(4, 6)

    def test_matmul_is_every_product_exhaustively(self):
        # the product table against both the log tables and the
        # table-free shift-and-xor multiply, all 65,536 pairs
        from repro.qa.differential import gf256_mul_reference

        values = np.arange(256, dtype=np.uint8)
        table = GF256.matmul(values[:, None], values[None, :])
        for a in range(256):
            row = table[a].tolist()
            assert row == [GF256.mul(a, b) for b in range(256)], a
            assert row == [gf256_mul_reference(a, b) for b in range(256)], a

    def test_solve_roundtrip(self):
        rng = np.random.default_rng(0)
        solved_any = False
        for _ in range(10):
            m = rng.integers(0, 256, size=(4, 4)).astype(np.uint8)
            rhs = rng.integers(0, 256, size=(4, 3)).astype(np.uint8)
            try:
                solved = GF256.solve(m, rhs)
                column = GF256.solve(m, rhs[:, 0])
            except np.linalg.LinAlgError:
                continue  # singular draw
            solved_any = True
            assert np.array_equal(GF256.matmul(m, solved), rhs)
            assert np.array_equal(column, solved[:, 0])
        assert solved_any

    def test_solve_singular_raises(self):
        m = np.zeros((2, 2), dtype=np.uint8)
        with pytest.raises(np.linalg.LinAlgError):
            GF256.solve(m, np.array([1, 2], dtype=np.uint8))

    def test_solve_rejects_non_square(self):
        with pytest.raises(ValueError):
            GF256.solve(np.ones((2, 3), dtype=np.uint8), np.ones(2, dtype=np.uint8))

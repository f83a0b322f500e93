"""GF(2^8) arithmetic built from scratch (substrate for Rabin's IDA).

The field is F_2[x] / (x^8 + x^4 + x^3 + x + 1) (the AES polynomial).  Log
and antilog tables over the generator 3 make the scalar operations O(1)
lookups; they are the referee for the matrix kernels.

The matrix kernels in :mod:`repro.fault.ida` read one read-only 256 x 256
``uint8`` product table built at import (64 KiB), ``_MUL[a, b] = a * b``.
A matrix product is one broadcast gather of every term
``a[i, k] * b[k, j]`` followed by an XOR reduction over ``k`` (addition in
characteristic 2), and Gauss-Jordan elimination clears a whole pivot
column with one such gather.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

__all__ = ["GF256"]

_POLY = 0x11B  # x^8 + x^4 + x^3 + x + 1


def _log_tables() -> Tuple[List[int], List[int]]:
    exp = [0] * 512
    log = [0] * 256
    x = 1
    for i in range(255):
        exp[i] = x
        log[x] = i
        # multiply x by the generator 3 = x + 1: x*3 = (x << 1) ^ x
        hi = x << 1
        if hi & 0x100:
            hi ^= _POLY
        x = hi ^ x
    for i in range(255, 512):
        exp[i] = exp[i - 255]
    return exp, log


_EXP, _LOG = _log_tables()
# log[0] is a placeholder, so the zero row and column are set explicitly
_MUL = np.asarray(_EXP, dtype=np.uint8)[np.add.outer(_LOG, _LOG)]
_MUL[0, :] = 0
_MUL[:, 0] = 0
_MUL.setflags(write=False)


class GF256:
    """The Galois field GF(2^8) with table-based arithmetic."""

    # -- scalar ops ----------------------------------------------------------

    @classmethod
    def add(cls, a: int, b: int) -> int:
        """Addition = XOR (characteristic 2); also subtraction."""
        return (a ^ b) & 0xFF

    @classmethod
    def mul(cls, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return _EXP[_LOG[a] + _LOG[b]]

    @classmethod
    def inv(cls, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no inverse in GF(256)")
        return _EXP[255 - _LOG[a]]

    @classmethod
    def div(cls, a: int, b: int) -> int:
        return cls.mul(a, cls.inv(b))

    @classmethod
    def pow(cls, a: int, k: int) -> int:
        if a == 0:
            return 0 if k else 1
        return _EXP[(_LOG[a] * k) % 255]

    # -- matrix ops ----------------------------------------------------------

    @classmethod
    def matmul(cls, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """GF(256) matrix product of integer arrays with entries in [0, 256)."""
        out: np.ndarray = np.bitwise_xor.reduce(_MUL[a[:, :, None], b[None, :, :]], axis=1)
        return out

    @classmethod
    def solve(cls, matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """Solve ``matrix @ x = rhs`` by Gaussian elimination over GF(256).

        ``rhs`` may be a matrix (multiple right-hand sides).  Raises
        ``ValueError`` when ``matrix`` is not square and
        ``numpy.linalg.LinAlgError`` when it is singular.
        """
        m = matrix.astype(np.uint8)
        r = rhs.astype(np.uint8)
        if r.ndim == 1:
            r = r[:, None]
        size = m.shape[0]
        if m.shape[1] != size:
            raise ValueError("matrix must be square")
        for col in range(size):
            nonzero = np.flatnonzero(m[col:, col])
            if not nonzero.size:
                raise np.linalg.LinAlgError("matrix is singular over GF(256)")
            pivot = col + int(nonzero[0])
            if pivot != col:
                m[[col, pivot]] = m[[pivot, col]]
                r[[col, pivot]] = r[[pivot, col]]
            inv = cls.inv(int(m[col, col]))
            m[col] = _MUL[inv, m[col]]
            r[col] = _MUL[inv, r[col]]
            # clear the column in every other row: row ^= factor * pivot row
            f = m[:, col].copy()
            f[col] = 0
            m ^= _MUL[f[:, None], m[col][None, :]]
            r ^= _MUL[f[:, None], r[col][None, :]]
        return r if rhs.ndim > 1 else r.ravel()

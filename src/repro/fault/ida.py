"""Rabin's Information Dispersal Algorithm over GF(256) (paper Section 1).

A message of bytes is split into ``w`` *pieces*, each of size
``ceil(len/m)``, such that **any** ``m`` of the ``w`` pieces reconstruct the
message exactly.  Sent down the ``w`` edge-disjoint paths of a
multiple-path embedding, delivery survives up to ``w - m`` path failures
with a bandwidth overhead of only ``w/m`` — the fault-tolerance application
the paper highlights for its embeddings.

Encoding: pad the message to ``m * L`` bytes, view it as an ``m x L``
matrix ``B``, and send piece ``i = row i of A @ B`` where ``A`` is a
``w x m`` Cauchy matrix (every ``m x m`` submatrix invertible).  Decoding
multiplies the ``m`` chosen pieces by the inverse of their rows of ``A``.
Both matrices depend only on ``(w, m)`` and the chosen piece indices, and
a sender at a fixed tolerance level sees few survivor sets (at most
C(w, m)), so both are cached read-only.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Sequence, Tuple

import numpy as np

from repro.fault.gf256 import GF256

__all__ = ["disperse", "reconstruct", "cauchy_matrix"]

_CACHED_MATRICES = 256  # per cache: (w, m) shapes, or (w, m, rows) decoders


@lru_cache(maxsize=_CACHED_MATRICES)
def cauchy_matrix(w: int, m: int) -> np.ndarray:
    """A ``w x m`` Cauchy matrix over GF(256): ``A[i, j] = 1/(x_i + y_j)``.

    With distinct ``x_i`` and ``y_j`` (and no ``x_i = y_j``), every square
    submatrix of a Cauchy matrix is nonsingular — exactly the property IDA
    needs.  Requires ``w + m <= 256``.  The array is cached and read-only.
    """
    if w < 1 or m < 1 or w + m > 256:
        raise ValueError(f"need 1 <= m, w with w + m <= 256, got w={w} m={m}")
    xs = list(range(m, m + w))
    ys = list(range(m))
    a = np.zeros((w, m), dtype=np.uint8)
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            a[i, j] = GF256.inv(x ^ y)
    a.setflags(write=False)
    return a


@lru_cache(maxsize=_CACHED_MATRICES)
def _decoder(w: int, m: int, rows: Tuple[int, ...]) -> np.ndarray:
    """Inverse of the Cauchy rows ``rows``: maps those pieces to the message."""
    inverse = GF256.solve(cauchy_matrix(w, m)[list(rows)], np.eye(m, dtype=np.uint8))
    inverse.setflags(write=False)
    return inverse


def disperse(message: bytes, w: int, m: int) -> List[Tuple[int, bytes]]:
    """Split ``message`` into ``w`` pieces, any ``m`` of which reconstruct it.

    Returns ``(piece_index, piece_bytes)`` pairs.  Piece length is
    ``ceil((len(message) + 4) / m)`` — four bytes of length header make the
    original length recoverable after padding.
    """
    if m < 1 or w < m:
        raise ValueError(f"need 1 <= m <= w, got m={m} w={w}")
    framed = len(message).to_bytes(4, "big") + message
    cols = -(-len(framed) // m)
    padded = framed + b"\0" * (m * cols - len(framed))
    b = np.frombuffer(padded, dtype=np.uint8).reshape(m, cols)
    pieces = GF256.matmul(cauchy_matrix(w, m), b)
    return [(i, pieces[i].tobytes()) for i in range(w)]


def reconstruct(pieces: Sequence[Tuple[int, bytes]], w: int, m: int) -> bytes:
    """Rebuild the message from any ``m`` of the ``w`` pieces.

    Raises ``ValueError`` when fewer than ``m`` distinct pieces are given.
    The ``m`` lowest-index distinct pieces are the ones decoded.
    """
    distinct = {}
    for idx, data in pieces:
        if not 0 <= idx < w:
            raise ValueError(f"piece index {idx} out of range")
        distinct[idx] = data
    if len(distinct) < m:
        raise ValueError(f"need at least {m} pieces, got {len(distinct)}")
    chosen = sorted(distinct.items())[:m]
    decoder = _decoder(w, m, tuple(idx for idx, _ in chosen))
    stacked = np.stack(
        [np.frombuffer(data, dtype=np.uint8) for _, data in chosen]
    )
    # rows of the product are the original matrix rows; flatten row-major
    framed = GF256.matmul(decoder, stacked).tobytes()
    length = int.from_bytes(framed[:4], "big")
    if length > len(framed) - 4:
        raise ValueError("corrupt pieces: length header out of range")
    return framed[4 : 4 + length]

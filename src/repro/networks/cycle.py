"""Directed cycles and paths — the simplest guest graphs (paper Sections 2, 4)."""

from __future__ import annotations

from typing import Iterable, Iterator, Tuple

import numpy as np

from repro.networks.base import GuestGraph, PackedEdges

__all__ = ["DirectedCycle", "DirectedPath"]


class DirectedCycle(GuestGraph):
    """The directed cycle on ``length`` vertices ``0 -> 1 -> ... -> 0``."""

    def __init__(self, length: int):
        if length < 2:
            raise ValueError(f"cycle length must be >= 2, got {length}")
        self.length = length

    def vertices(self) -> Iterable[int]:
        return range(self.length)

    def edges(self) -> Iterator[Tuple[int, int]]:
        for i in range(self.length):
            yield i, (i + 1) % self.length

    def packed_edges(self) -> PackedEdges:
        """:meth:`edges`, in the same order, as one integer array."""
        ids = np.arange(self.length, dtype=np.int64)
        return PackedEdges(np.stack([ids, np.roll(ids, -1)], axis=1))

    @property
    def num_vertices(self) -> int:
        return self.length

    @property
    def num_edges(self) -> int:
        return self.length

    def __repr__(self) -> str:
        return f"DirectedCycle({self.length})"


class DirectedPath(GuestGraph):
    """The directed path on ``length`` vertices ``0 -> 1 -> ... -> length-1``."""

    def __init__(self, length: int):
        if length < 1:
            raise ValueError(f"path length must be >= 1, got {length}")
        self.length = length

    def vertices(self) -> Iterable[int]:
        return range(self.length)

    def edges(self) -> Iterator[Tuple[int, int]]:
        for i in range(self.length - 1):
            yield i, i + 1

    @property
    def num_vertices(self) -> int:
        return self.length

    @property
    def num_edges(self) -> int:
        return self.length - 1

    def __repr__(self) -> str:
        return f"DirectedPath({self.length})"

"""k-axis grids and tori (paper Sections 2, 4.5) and grid squaring.

Grids/tori are cross products of paths/cycles.  Vertices are coordinate
tuples; every undirected link is modeled as two directed edges (matching the
directed-hypercube host model).

``square_grid_map`` implements the squaring step of Corollary 2.  The paper
cites Aleliunas–Rosenberg / Kosaraju–Atallah for load-1, O(1)-dilation
squaring; we substitute *contraction squaring* — each axis is contracted by
an integer factor, giving dilation 1 and load ``prod(ceil(L_i / side))``,
which is O(1) for fixed k.  Corollary 2 only needs O(1) load, dilation and
cost, so the substitution preserves the claim being reproduced (recorded in
DESIGN.md).
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

import numpy as np

from repro.networks.base import GuestGraph, PackedEdges

__all__ = [
    "Grid",
    "Torus",
    "DirectedTorus",
    "square_grid_factors",
    "square_grid_map",
]

Coord = Tuple[int, ...]


class Grid(GuestGraph):
    """The ``L_1 x ... x L_k`` grid; links along each axis, no wraparound."""

    wrap = False

    def __init__(self, dims: Sequence[int]):
        dims = tuple(int(d) for d in dims)
        if not dims or any(d < 1 for d in dims):
            raise ValueError(f"grid dims must be positive, got {dims}")
        self.dims = dims
        self.k = len(dims)

    def vertices(self) -> Iterable[Coord]:
        return itertools.product(*(range(d) for d in self.dims))

    def _axis_neighbors(self, v: Coord, axis: int) -> Iterator[Coord]:
        d = self.dims[axis]
        if d == 1:
            return
        x = v[axis]
        if self.wrap:
            steps = {(x + 1) % d, (x - 1) % d}
        else:
            steps = {x + dx for dx in (-1, 1) if 0 <= x + dx < d}
        for nx in steps:
            if nx != x:
                yield v[:axis] + (nx,) + v[axis + 1 :]

    def edges(self) -> Iterator[Tuple[Coord, Coord]]:
        for v in self.vertices():
            for axis in range(self.k):
                for w in self._axis_neighbors(v, axis):
                    yield v, w

    def _neighbor_table(self, d: int) -> np.ndarray:
        """``(d, 2)``: the neighbours ``_axis_neighbors`` yields for each
        coordinate of a side-``d`` axis, in its order, ``-1`` where none.

        The neighbours come out of a two-int set, which iterates by hash
        slot: ascending ``value & 7`` unless both share a slot.  Only a
        wrap end can collide (d = 2 mod 8), so those two rows take their
        order from the very set the generator builds.
        """
        x = np.arange(d, dtype=np.int64)
        if d == 1:
            return np.full((1, 2), -1, dtype=np.int64)
        if self.wrap:
            up, down = (x + 1) % d, (x - 1) % d
            down = np.where(down == up, -1, down)  # d = 2: one neighbour
        else:
            up = np.where(x + 1 < d, x + 1, -1)
            down = np.where(x >= 1, x - 1, -1)
        swap = (up >= 0) & (down >= 0) & ((down & 7) < (up & 7))
        table = np.stack([np.where(swap, down, up), np.where(swap, up, down)], axis=1)
        if self.wrap and d > 2:
            for end in (0, d - 1):
                table[end] = list({(end + 1) % d, (end - 1) % d})
        return table

    def packed_edges(self) -> PackedEdges:
        """:meth:`edges`, in the same order, as one packed id array.

        Vertex ids are row-major (a vertex's index in :meth:`vertices`),
        with ``radix = dims``; a grid without edges has an empty radix,
        as packing an empty edge list gives.
        """
        count = math.prod(self.dims)
        ids = np.arange(count, dtype=np.int64)
        columns: List[np.ndarray] = []
        stride = count
        for d in self.dims:
            stride //= d
            x = (ids // stride) % d
            nbr = self._neighbor_table(d)[x]
            columns.append(np.where(nbr >= 0, ids[:, None] + (nbr - x[:, None]) * stride, -1))
        # vertex by vertex, axis by axis, neighbours in generator order
        cand = np.concatenate(columns, axis=1)
        keep = cand >= 0
        uv = np.stack([np.broadcast_to(ids[:, None], cand.shape)[keep], cand[keep]], axis=1)
        return PackedEdges(uv, self.dims if uv.size else ())

    def axis_edges(self, axis: int) -> Iterator[Tuple[Coord, Coord]]:
        """Directed edges along one axis only (used for per-axis phases)."""
        for v in self.vertices():
            for w in self._axis_neighbors(v, axis):
                yield v, w

    @property
    def num_vertices(self) -> int:
        return math.prod(self.dims)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({'x'.join(map(str, self.dims))})"


class Torus(Grid):
    """The ``L_1 x ... x L_k`` torus: a grid with wraparound links."""

    wrap = True


class DirectedTorus(Grid):
    """The torus with one orientation per link: ``+1`` along every axis.

    The cross product of directed cycles — the guest for the Section 8.1
    multiple-copy grid embeddings (the directed analog of Lemma 1's cycles).
    """

    wrap = True

    def _axis_neighbors(self, v: Coord, axis: int):
        d = self.dims[axis]
        if d == 1:
            return
        nx = (v[axis] + 1) % d
        yield v[:axis] + (nx,) + v[axis + 1 :]

    def _neighbor_table(self, d: int) -> np.ndarray:
        x = np.arange(d, dtype=np.int64)
        up = (x + 1) % d if d > 1 else np.full(1, -1, dtype=np.int64)
        return np.stack([up, np.full(d, -1, dtype=np.int64)], axis=1)


def square_grid_factors(
    dims: Sequence[int], side: int | None = None
) -> Tuple[int, List[int]]:
    """``(side, factors)`` of :func:`square_grid_map`: the squared side and
    each axis's contraction factor ``ceil(L_i / side)``."""
    dims = tuple(int(d) for d in dims)
    if side is None:
        side = math.ceil(math.prod(dims) ** (1.0 / len(dims)))
    if side < 1:
        raise ValueError(f"side must be positive, got {side}")
    return side, [math.ceil(d / side) for d in dims]


def square_grid_map(
    dims: Sequence[int], side: int | None = None
) -> Tuple[Dict[Coord, Coord], Tuple[int, ...], int]:
    """Map a k-axis grid with unequal sides onto a grid with equal sides.

    Returns ``(mapping, squared_dims, load)`` where ``mapping`` sends each
    original coordinate to a coordinate of the ``side^k`` grid,
    ``squared_dims = (side,) * k``, and ``load`` is the maximum number of
    original vertices per squared cell.

    Each axis ``i`` is contracted by ``f_i = ceil(L_i / side)``; neighbors
    land in the same or adjacent cells, so the map has dilation 1; the load
    is ``prod(f_i)``.  The default ``side`` is the ceiling of the geometric
    mean of the side lengths (the paper's ``L``), so the load is bounded by
    ``2^k`` plus rounding.
    """
    dims = tuple(int(d) for d in dims)
    k = len(dims)
    side, factors = square_grid_factors(dims, side)
    mapping: Dict[Coord, Coord] = {}
    counts: Dict[Coord, int] = {}
    for v in itertools.product(*(range(d) for d in dims)):
        cell = tuple(x // f for x, f in zip(v, factors))
        mapping[v] = cell
        counts[cell] = counts.get(cell, 0) + 1
    load = max(counts.values()) if counts else 0
    return mapping, (side,) * k, load

"""Common protocol for guest graphs.

A guest graph models a parallel computation: vertices are processes, directed
edges are communications (paper Section 3).  The embedding machinery in
:mod:`repro.core.embedding` consumes this protocol only — any directed graph
with hashable vertex ids can be embedded.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Dict, Hashable, Iterable, Iterator, List, Tuple, Union

import numpy as np

__all__ = ["GuestGraph", "ExplicitGraph", "PackedEdges"]

Vertex = Hashable
Edge = Tuple[Vertex, Vertex]


class PackedEdges:
    """Guest edges as packed vertex ids: a path CSR's canonical edges.

    ``uv[g]`` holds edge ``g``'s two endpoints.  ``radix`` is empty when
    vertices are integers, which are their own ids; tuple vertices number
    by mixed radix, row-major, so a vertex's id is its index in
    ``itertools.product`` order.  Indexing and iteration unpack
    rows back to the guest's own edges, building tuples only for the rows
    touched: ``((u, v), ...)`` for 2^20 bundles would cost ~0.5s of pure
    Python.
    """

    __slots__ = ("uv", "radix")

    def __init__(self, uv: np.ndarray, radix: Tuple[int, ...] = ()) -> None:
        self.uv = uv
        self.radix = radix

    def _unpack(self, uv: np.ndarray) -> List[Tuple[Any, Any]]:
        if not self.radix:
            return [(u, v) for u, v in uv.tolist()]
        coords = np.stack(np.unravel_index(uv, self.radix), axis=-1).tolist()
        return [(tuple(u), tuple(v)) for u, v in coords]

    def __len__(self) -> int:
        return int(self.uv.shape[0])

    def __getitem__(
        self, i: Union[int, slice]
    ) -> Union[Tuple[Any, Any], List[Tuple[Any, Any]]]:
        if isinstance(i, slice):
            return self._unpack(self.uv[i])
        return self._unpack(self.uv[[i]])[0]

    def __iter__(self) -> Iterator[Tuple[Any, Any]]:
        for lo in range(0, len(self), 4096):
            yield from self._unpack(self.uv[lo : lo + 4096])


class GuestGraph(ABC):
    """A directed guest graph with hashable vertex ids."""

    @abstractmethod
    def vertices(self) -> Iterable[Vertex]:
        """Iterate over all vertices."""

    @abstractmethod
    def edges(self) -> Iterable[Edge]:
        """Iterate over all directed edges ``(u, v)``."""

    @property
    @abstractmethod
    def num_vertices(self) -> int:
        """Number of vertices."""

    @property
    def num_edges(self) -> int:
        """Number of directed edges (default: counts :meth:`edges`)."""
        return sum(1 for _ in self.edges())

    def out_degrees(self) -> Dict[Vertex, int]:
        """Out-degree of every vertex."""
        deg: Dict[Vertex, int] = {v: 0 for v in self.vertices()}
        for u, _ in self.edges():
            deg[u] += 1
        return deg

    @property
    def max_out_degree(self) -> int:
        """Maximum out-degree (the paper's ``delta`` in Theorem 4)."""
        degs = self.out_degrees()
        return max(degs.values()) if degs else 0

    def adjacency(self) -> Dict[Vertex, List[Vertex]]:
        """Successor lists."""
        adj: Dict[Vertex, List[Vertex]] = {v: [] for v in self.vertices()}
        for u, v in self.edges():
            adj[u].append(v)
        return adj

    def to_networkx(self):
        """Export as a ``networkx.DiGraph``."""
        import networkx as nx

        g = nx.DiGraph()
        g.add_nodes_from(self.vertices())
        g.add_edges_from(self.edges())
        return g

    def validate(self) -> None:
        """Raise if edges reference unknown vertices or repeat."""
        verts = set(self.vertices())
        if len(verts) != self.num_vertices:
            raise AssertionError("num_vertices disagrees with vertices()")
        seen = set()
        for u, v in self.edges():
            if u not in verts or v not in verts:
                raise AssertionError(f"edge ({u}, {v}) references unknown vertex")
            if (u, v) in seen:
                raise AssertionError(f"duplicate edge ({u}, {v})")
            seen.add((u, v))


class ExplicitGraph(GuestGraph):
    """A guest graph given by explicit vertex and edge lists.

    Used for derived structures (e.g. the induced cross products of
    Section 6) that have no closed-form generator.
    """

    def __init__(self, vertices, edges, name: str = ""):
        self._vertices = list(vertices)
        self._edges = list(edges)
        self.name = name

    def vertices(self):
        return iter(self._vertices)

    def edges(self):
        return iter(self._edges)

    @property
    def num_vertices(self) -> int:
        return len(self._vertices)

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    def __repr__(self) -> str:
        tag = f" {self.name!r}" if self.name else ""
        return f"<ExplicitGraph{tag} |V|={self.num_vertices} |E|={self.num_edges}>"

"""Large-copy embeddings (Section 8.1: Corollary 3 and Lemma 9).

A *large-copy* embedding places a single ``n * 2**n``-node guest in ``Q_n``
with the load balanced (``n`` guest vertices per host node) and the guest
edges spread so evenly that dilation and congestion are 1 (2 for FFTs).

* **Corollary 3** — the ``n * 2**n``-node directed cycle: an Eulerian
  circuit of Lemma 1's ``n`` edge-disjoint directed Hamiltonian cycles uses
  every directed hypercube edge exactly once; the undirected variant strings
  the ``n/2`` undirected cycles into one ``n * 2**{n-1}``-node cycle.
  The directed builder walks the circuit over an integer successor table
  and returns an :class:`Embedding` that carries the circuit as its vertex
  images and each cycle edge's one hop as its path layout
  (:meth:`Embedding.from_arrays`), so exporting and verifying build no
  path tuples; ``reference_large_cycle_embedding`` builds the same
  embedding as dicts, and the QA builder differential referees the two.
* **Lemma 9** — CCC/FFT/butterfly: reverse the standard node-expansion that
  builds these graphs from the hypercube: the cycle/path that replaced
  hypercube node ``c`` maps back onto ``c``; straight edges become local
  (zero-length paths), cross edges ride the hypercube edge they came from.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.core.cycle_multipath import _uniform_layout
from repro.core.embedding import Embedding, PathArrays
from repro.hypercube.graph import Hypercube
from repro.hypercube.hamiltonian import directed_hamiltonian_decomposition
from repro.networks.butterfly import Butterfly, FFTGraph
from repro.networks.ccc import CubeConnectedCycles
from repro.networks.cycle import DirectedCycle

__all__ = [
    "large_cycle_embedding",
    "large_cycle_embedding_undirected",
    "large_ccc_embedding",
    "large_butterfly_embedding",
    "large_fft_embedding",
]


def large_cycle_embedding(n: int) -> Embedding:
    """Corollary 3: the ``n * 2**n``-node directed cycle in ``Q_n``.

    Load ``n``, dilation 1, congestion 1 — every directed hypercube link
    carries exactly one cycle edge (an Eulerian circuit of the Lemma 1
    cycles).  Requires even ``n`` (Lemma 1's directed form).  The
    embedding carries its arrays: guest vertex ``i`` sits on the circuit's
    ``i``-th node, and cycle edge ``i`` rides the hop from it to the next.
    """
    if n < 2 or n % 2:
        raise ValueError(f"need even n >= 2, got {n}")
    host = Hypercube(n)
    cycles = np.asarray(directed_hamiltonian_decomposition(n), dtype=np.int64)
    # row v: v's successor in each Lemma 1 cycle, in cycle order
    successors = np.empty((host.num_nodes, len(cycles)), dtype=np.int64)
    successors[cycles, np.arange(len(cycles))[:, None]] = np.roll(cycles, -1, axis=1)
    remaining = successors.tolist()
    # Hierholzer over the union, each row popped from its end
    stack, circuit = [0], []
    while stack:
        row = remaining[stack[-1]]
        if row:
            stack.append(row.pop())
        else:
            circuit.append(stack.pop())
    circuit.reverse()
    total = n * host.num_nodes
    if len(circuit) - 1 != total:
        raise AssertionError("Eulerian circuit did not cover all edges")
    images = np.asarray(circuit[:-1], dtype=np.int64)
    guest = DirectedCycle(total)
    hops = np.stack([images, np.roll(images, -1)], axis=1)
    arrays = PathArrays(images, _uniform_layout(guest.packed_edges(), hops, (2,)))
    return Embedding.from_arrays(host, guest, arrays, name=f"large-cycle-Q{n}")


def reference_large_cycle_embedding(n: int) -> Embedding:
    """:func:`large_cycle_embedding` built as dicts, one edge at a time.

    The QA builder differential's referee for the array builder.
    """
    if n < 2 or n % 2:
        raise ValueError(f"need even n >= 2, got {n}")
    host = Hypercube(n)
    cycles = directed_hamiltonian_decomposition(n)
    succs: List[Dict[int, int]] = [
        {c[i]: c[(i + 1) % len(c)] for i in range(len(c))} for c in cycles
    ]
    # Hierholzer over the union (out-degree n at every node)
    remaining = {v: [s[v] for s in succs] for v in range(host.num_nodes)}
    stack, circuit = [0], []
    while stack:
        v = stack[-1]
        if remaining[v]:
            stack.append(remaining[v].pop())
        else:
            circuit.append(stack.pop())
    circuit.reverse()
    nodes = circuit[:-1]
    total = n * host.num_nodes
    if len(nodes) != total:
        raise AssertionError("Eulerian circuit did not cover all edges")
    guest = DirectedCycle(total)
    vertex_map = {i: nodes[i] for i in range(total)}
    edge_paths = {
        (i, (i + 1) % total): (nodes[i], nodes[(i + 1) % total])
        for i in range(total)
    }
    return Embedding(host, guest, vertex_map, edge_paths, name=f"large-cycle-Q{n}")


def large_ccc_embedding(n: int) -> Embedding:
    """Lemma 9: the ``n * 2**n``-node CCC in ``Q_n``, dilation 1, congestion 1.

    CCC vertex ``(level, column)`` maps to hypercube node ``column``;
    straight edges are node-local (zero-length paths), cross edges at level
    ``l`` ride the dimension-``l`` hypercube edge — each directed edge
    exactly once.
    """
    host = Hypercube(n)
    ccc = CubeConnectedCycles(n)
    vertex_map = {(lev, c): c for lev in range(n) for c in range(host.num_nodes)}
    edge_paths: Dict[Tuple, Tuple[int, ...]] = {}
    for (u, v) in ccc.straight_edges():
        edge_paths[(u, v)] = (vertex_map[u],)  # co-located
    for (u, v) in ccc.cross_edges():
        edge_paths[(u, v)] = (vertex_map[u], vertex_map[v])
    return Embedding(host, ccc, vertex_map, edge_paths, name=f"large-ccc-Q{n}")


def large_butterfly_embedding(n: int) -> Embedding:
    """Lemma 9: the ``n * 2**n``-node butterfly in ``Q_n`` (congestion <= 2)."""
    host = Hypercube(n)
    bf = Butterfly(n)
    vertex_map = {(lev, c): c for lev in range(n) for c in range(host.num_nodes)}
    edge_paths: Dict[Tuple, Tuple[int, ...]] = {}
    for (u, v) in bf.straight_edges():
        edge_paths[(u, v)] = (vertex_map[u],)
    for (u, v) in bf.cross_edges():
        edge_paths[(u, v)] = (vertex_map[u], vertex_map[v])
    return Embedding(host, bf, vertex_map, edge_paths, name=f"large-butterfly-Q{n}")


def large_fft_embedding(n: int) -> Embedding:
    """Lemma 9: the ``(n+1) * 2**n``-node FFT graph in ``Q_n`` (congestion 2).

    Ranks collapse onto the column node; the two rank-``l`` out-edges of a
    column are one local edge and one dimension-``l`` hypercube edge.
    """
    host = Hypercube(n)
    fft = FFTGraph(n)
    vertex_map = {(rank, c): c for rank in range(n + 1) for c in range(host.num_nodes)}
    edge_paths: Dict[Tuple, Tuple[int, ...]] = {}
    for (u, v) in fft.edges():
        hu, hv = vertex_map[u], vertex_map[v]
        edge_paths[(u, v)] = (hu,) if hu == hv else (hu, hv)
    return Embedding(host, fft, vertex_map, edge_paths, name=f"large-fft-Q{n}")


def large_cycle_embedding_undirected(n: int) -> Embedding:
    """Corollary 3's other half: the ``n * 2**(n-1)``-node *undirected* cycle.

    An Eulerian circuit of the ``n/2`` undirected Hamiltonian cycles of
    Lemma 1 visits every undirected link exactly once; the guest cycle's two
    edge orientations ride the link's two directed edges, so the directed
    congestion is 1 in both directions.  Requires even ``n >= 2``.
    """
    if n < 2 or n % 2:
        raise ValueError(f"need even n >= 2, got {n}")
    from repro.hypercube.hamiltonian import hamiltonian_decomposition
    from repro.networks.base import ExplicitGraph

    host = Hypercube(n)
    dec = hamiltonian_decomposition(n)
    # undirected adjacency with multiplicity (each vertex has degree n)
    adj: Dict[int, List[int]] = {v: [] for v in range(host.num_nodes)}
    for cyc in dec.cycles:
        for u, v in zip(cyc, list(cyc[1:]) + [cyc[0]]):
            adj[u].append(v)
            adj[v].append(u)
    # Hierholzer on the undirected union
    stack, circuit = [0], []
    while stack:
        v = stack[-1]
        if adj[v]:
            w = adj[v].pop()
            adj[w].remove(v)
            stack.append(w)
        else:
            circuit.append(stack.pop())
    circuit.reverse()
    nodes = circuit[:-1]
    total = n * host.num_nodes // 2
    if len(nodes) != total:
        raise AssertionError("Eulerian circuit did not cover all links")
    vertices = list(range(total))
    edges = []
    edge_paths: Dict[Tuple, Tuple[int, ...]] = {}
    for i in range(total):
        j = (i + 1) % total
        hu, hv = nodes[i], nodes[j]
        edges.append((i, j))
        edges.append((j, i))
        edge_paths[(i, j)] = (hu, hv)
        edge_paths[(j, i)] = (hv, hu)
    guest = ExplicitGraph(vertices, edges, name=f"undirected-cycle-{total}")
    vertex_map = {i: nodes[i] for i in vertices}
    return Embedding(
        host, guest, vertex_map, edge_paths, name=f"large-ucycle-Q{n}"
    )

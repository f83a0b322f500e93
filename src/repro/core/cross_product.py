"""Theorem 4: the general multiple-copy -> multiple-path transform (Section 6).

Given an ``n``-copy embedding of a graph ``G`` (with ``2**n`` vertices) in
``Q_n``, the *induced cross product* ``X(G)`` places the automorph
``G_{phi_{M(i)}}`` on row ``i`` and ``G_{phi_{M(j)}}`` on column ``j`` of the
``2**n x 2**n`` grid view of ``Q_{2n}`` (``M`` is the moment function).  Each
edge of ``X(G)`` is widened to ``n`` paths that cross into a neighboring
row/column, follow the projected image there, and cross back.

Because the ``n`` neighbors of a row have distinct moments (Lemma 2), the
projections landing in any one row together form exactly the original n-copy
embedding — so the middle hops cost ``c`` (the multicopy's one-packet cost)
and the first/last hops cost ``delta`` (max out-degree) each, giving
n-packet cost ``c + 2 * delta``.

When ``n`` is a power of two the moment labels hit the ``n`` copies exactly
and the middle congestion equals the multicopy congestion.  For other ``n``
(e.g. Theorem 5's ``n = m + log m``) the labels are folded onto the copy
list modulo its length; distinct labels may then share a copy, which at most
doubles the middle congestion — still O(1), which is all Theorems 4/5 need.
The achieved numbers are measured and recorded in ``info``.

:class:`CrossProductBundles` holds that rule, written once: it computes an
X edge's bundle on first request, so a caller that rides a few X edges
(Theorem 5's tree) never builds the rest, and
:func:`induced_cross_product_embedding` asks it for every edge.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Tuple

from repro.core.embedding import MultiCopyEmbedding, MultiPathEmbedding
from repro.hypercube.graph import Hypercube
from repro.hypercube.moments import moment
from repro.networks.base import ExplicitGraph

__all__ = [
    "CrossProductBundles",
    "induced_cross_product_embedding",
    "theorem4_claim",
    "automorph_graph",
    "generalized_cross_product",
]


def theorem4_claim(multicopy: MultiCopyEmbedding) -> Dict[str, int]:
    """Paper claim: width n, n-packet cost c + 2*delta."""
    n = multicopy.host.n
    delta = multicopy.guest.max_out_degree
    # one-packet cost of the multicopy embedding: between max(dil, cong) and
    # dil * cong; we use the simple upper bound the paper's examples use
    c = multicopy.dilation * multicopy.edge_congestion
    return {"width": n, "cost_upper": c + 2 * delta, "delta": delta, "c": c}


XEdge = Tuple[int, int]
Bundle = Tuple[Tuple[int, ...], ...]


class CrossProductBundles:
    """The width-n bundles of ``X(G)``'s edges, each computed on first request.

    ``bundles[(a, b)]`` is exactly the bundle
    :func:`induced_cross_product_embedding` stores for X edge ``(a, b)``
    of ``Q_{2n}``, and raises ``KeyError`` for a pair that is no X edge.
    An edge with ``a >> n == b >> n`` is a row edge of row ``a >> n``, any
    other a column edge of column ``a & (2**n - 1)``.  Its guest edge is
    the inverse images, under that line's copy, of the row (or column)
    halves of ``a`` and ``b``; :meth:`line_bundle` widens that guest
    edge's image path.  Requires what the eager transform requires.
    """

    def __init__(self, multicopy: MultiCopyEmbedding) -> None:
        n = multicopy.host.n
        size = 1 << n
        if multicopy.k < 1:
            raise ValueError("multicopy embedding has no copies")
        if multicopy.guest.num_vertices != size:
            raise ValueError("each copy must be a bijection onto Q_n's nodes")
        self.n = n
        self.copies = multicopy.copies
        self._inverse = [{h: v for v, h in c.vertex_map.items()} for c in self.copies]
        if any(len(inverse) != size for inverse in self._inverse):
            raise ValueError("copy vertex map is not a bijection")
        # row and column i both carry the automorph of copy M(i) mod k
        self._line_copy = [moment(i) % len(self.copies) for i in range(size)]
        self._bundles: Dict[XEdge, Bundle] = {}

    def phi(self, line: int) -> Dict[Hashable, int]:
        """The vertex map of row (and column) ``line``'s copy."""
        return self.copies[self._line_copy[line]].vertex_map

    def phi_inv(self, line: int) -> Dict[int, Hashable]:
        """The inverse of :meth:`phi`, built once per copy."""
        return self._inverse[self._line_copy[line]]

    def line_bundle(
        self, line: int, row: bool, edge: Tuple[Hashable, Hashable]
    ) -> Tuple[XEdge, Bundle]:
        """The X edge guest edge ``edge`` induces on row (or column)
        ``line``, with its ``n`` paths.

        The line's copy routes ``edge`` along an image path of ``Q_n``,
        which lives in the low bits on a row and in the high bits on a
        column.  Path ``k`` crosses dimension ``k`` of the other half,
        follows the projection of the whole image path, and crosses back.
        """
        n = self.n
        base = self.copies[self._line_copy[line]].edge_paths[edge]
        if row:
            path = [(line << n) | x for x in base]
            bits = [1 << (n + k) for k in range(n)]
        else:
            path = [(x << n) | line for x in base]
            bits = [1 << k for k in range(n)]
        hu, hv = path[0], path[-1]
        return (hu, hv), tuple((hu, *[x ^ bit for x in path], hv) for bit in bits)

    def __getitem__(self, edge: XEdge) -> Bundle:
        bundle = self._bundles.get(edge)
        if bundle is None:
            a, b = edge
            n, mask = self.n, (1 << self.n) - 1
            row = a >> n == b >> n
            line = a >> n if row else a & mask
            inverse = self.phi_inv(line)
            if row:
                guest_edge = (inverse[a & mask], inverse[b & mask])
            else:
                guest_edge = (inverse[a >> n], inverse[b >> n])
            x_edge, bundle = self.line_bundle(line, row, guest_edge)
            if x_edge != edge:
                raise KeyError(edge)
            self._bundles[edge] = bundle
        return bundle


def induced_cross_product_embedding(
    multicopy: MultiCopyEmbedding,
) -> MultiPathEmbedding:
    """Build the width-n embedding of ``X(G)`` in ``Q_{2n}`` (Theorem 4).

    Requires every copy of the multicopy embedding to map ``G`` bijectively
    onto the nodes of ``Q_n``, exactly ``n`` copies (repeat copies to pad if
    needed, as Theorem 5 does), and ``n`` a power of two.
    """
    bundles = CrossProductBundles(multicopy)
    n = bundles.n
    guest_g = multicopy.guest
    g_edges = list(guest_g.edges())

    # X(G) vertices are host nodes (i << n) | j directly.
    vertices = range(1 << (2 * n))
    edges: List[XEdge] = []
    edge_paths: Dict[XEdge, Bundle] = {}
    for i in range(1 << n):  # rows and columns share the index range
        for g_edge in g_edges:
            for row in (True, False):
                x_edge, bundle = bundles.line_bundle(i, row, g_edge)
                edges.append(x_edge)
                edge_paths[x_edge] = bundle

    guest = ExplicitGraph(vertices, edges, name=f"X({guest_g!r})")
    vertex_map = {v: v for v in vertices}
    emb = MultiPathEmbedding(
        Hypercube(2 * n),
        guest,
        vertex_map,
        edge_paths,
        name=f"theorem4-X-Q{2 * n}",
        load_allowed=1,
    )
    emb.info = {
        "n": n,
        "claim": theorem4_claim(multicopy),
        "copy_dilation": multicopy.dilation,
        "copy_congestion": multicopy.edge_congestion,
    }
    return emb


def automorph_graph(guest, phi) -> "ExplicitGraph":
    """The graph ``G_phi``: relabel every edge by the automorphism ``phi``.

    Section 6: "the graph G_phi is defined as the graph with vertex set Z_N
    and edge set {(phi(u), phi(v)) | (u, v) in E}".
    """
    vertices = sorted(phi(v) for v in guest.vertices())
    edges = [(phi(u), phi(v)) for (u, v) in guest.edges()]
    return ExplicitGraph(vertices, edges, name="automorph")


def generalized_cross_product(rows, cols) -> "ExplicitGraph":
    """Section 6's generalized cross product of two graph families.

    ``rows[i]`` induces the subgraph on row ``i`` and ``cols[j]`` on column
    ``j``; vertices are pairs ``(i, j)`` over ``Z_N x Z_N``.  When every
    ``rows[i]`` equals G and every ``cols[j]`` equals H this is the ordinary
    cross product ``G x H`` (asserted in the tests).
    """
    rows, cols = list(rows), list(cols)
    if len(rows) != len(cols):
        raise ValueError("need equally many row and column graphs")
    vertex_sets = [tuple(sorted(g.vertices())) for g in rows + cols]
    base = vertex_sets[0]
    if any(vs != base for vs in vertex_sets):
        raise ValueError("all factors must share one vertex set")
    if len(rows) != len(base):
        raise ValueError("need one row and one column graph per vertex value")
    index = {v: pos for pos, v in enumerate(base)}
    vertices = [(i, j) for i in base for j in base]
    edges = []
    for i in base:
        for (j1, j2) in rows[index[i]].edges():
            edges.append(((i, j1), (i, j2)))
    for j in base:
        for (i1, i2) in cols[index[j]].edges():
            edges.append(((i1, j), (i2, j)))
    return ExplicitGraph(vertices, edges, name="generalized-cross-product")

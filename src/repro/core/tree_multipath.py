"""Theorem 5 and Section 6.2: multiple-path embeddings of trees.

**Theorem 5**: the ``(2**{2n} - 1)``-vertex complete binary tree embeds in
``Q_{2n}`` (``n = m + log m``) with width ``n`` and O(1) n-packet cost and
load.  The pipeline, following the paper:

1. ``m`` copies of the (undirected) m-level butterfly in ``Q_n``
   (Theorem 3 + the butterfly-on-CCC composition);
2. the induced cross product ``X(butterfly)`` in ``Q_{2n}`` with width ``n``
   (Theorem 4);
3. the 2n-level CBT into ``X``: the top ``n`` levels into the row-0
   butterfly; each level-(n-1) leaf roots an n-level subtree in its own
   column's butterfly; each column-tree leaf takes its two children from its
   row butterfly's out-neighbors;
4. every CBT edge inherits the width-n host paths of the X edges it rides
   (concatenating the k-th path of each X edge keeps the n composites
   edge-disjoint).  Only those X edges' bundles are computed
   (:class:`~repro.core.cross_product.CrossProductBundles`), about a
   quarter of X's at ``m = 4``.

**Substitution note** (see DESIGN.md): the paper invokes BCHLR'88 [4] for a
load/congestion/dilation-O(1) CBT-to-butterfly embedding.  We use our own
constructive embedding: the CBT's ``m`` depth-m subtrees ride the
butterfly's natural fan-out trees rooted at ``m`` distinct levels (columns
chosen greedily to minimize overlap), and the ``m - 1`` top nodes co-locate
with their leftmost subtree root.  All constants are measured and recorded;
subtree edges have dilation 1, top edges dilation up to O(m) (the same
"confined high-dilation" concession the paper itself makes for butterflies
in Section 8.1).

**Section 6.2**: arbitrary bounded-degree trees ride a centroid-split
tree-to-CBT map (substituting for [6]) composed with Theorem 5, for width n
and measured O(log)-factor cost.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.butterfly_multicopy import butterfly_multicopy_embedding
from repro.core.cross_product import CrossProductBundles
from repro.core.embedding import MultiPathEmbedding
from repro.hypercube.graph import Hypercube
from repro.networks.butterfly import Butterfly
from repro.networks.tree import ArbitraryTree, CompleteBinaryTree

__all__ = [
    "cbt_to_butterfly_map",
    "theorem5_embedding",
    "tree_to_cbt_map",
    "arbitrary_tree_embedding",
]

BFVertex = Tuple[int, int]


# ---------------------------------------------------------------------------
# CBT -> butterfly (substitute for BCHLR'88 [4])
# ---------------------------------------------------------------------------


def cbt_to_butterfly_map(
    m: int,
) -> Tuple[Dict[int, BFVertex], Dict[Tuple[int, int], List[BFVertex]]]:
    """Map the ``(m + log m)``-level CBT onto the m-level butterfly.

    Returns ``(vertex_map, edge_routes)`` where ``edge_routes`` maps each
    *downward* tree edge ``(parent, child)`` to a butterfly vertex route
    (length 0 when parent and child co-locate).  Guarantees:

    * subtree edges are single butterfly edges (dilation 1);
    * the ``2**{n-1}`` tree leaves land on distinct butterfly vertices
      (required by Theorem 5's column assignment);
    * measured load is small (subtree overlaps are minimized greedily).
    """
    if m < 2 or m & (m - 1):
        raise ValueError(f"need m a power of two, got {m}")
    log_m = m.bit_length() - 1
    n = m + log_m
    bf = Butterfly(m, undirected=True)

    load: Dict[BFVertex, int] = {}
    vertex_map: Dict[int, BFVertex] = {}

    def subtree_position(i: int, c_i: int, depth: int, s: int) -> BFVertex:
        """Position of the depth-``depth`` node with branch bits ``s`` of the
        fan-out tree rooted at level ``i``, base column ``c_i``."""
        col = c_i
        for t in range(depth):
            bit = 1 << ((i + t) % m)
            # heap ids append the newest branch as the lowest bit, so the
            # depth-t decision (t = 0 taken first) is bit (depth - 1 - t)
            if (s >> (depth - 1 - t)) & 1:
                col |= bit
            else:
                col &= ~bit
        return ((i + depth) % m, col)

    # choose each subtree's base column greedily to minimize max load
    bases: List[int] = []
    for i in range(m):
        best_col, best_key = 0, None
        for cand in range(bf.num_columns):
            worst = 0
            total = 0
            for depth in range(m):
                for s in range(1 << depth):
                    pos = subtree_position(i, cand, depth, s)
                    here = load.get(pos, 0) + 1
                    worst = max(worst, here)
                    total += here
            key = (worst, total, cand)
            if best_key is None or key < best_key:
                best_key, best_col = key, cand
        bases.append(best_col)
        for depth in range(m):
            for s in range(1 << depth):
                pos = subtree_position(i, best_col, depth, s)
                load[pos] = load.get(pos, 0) + 1

    # subtree i of the CBT: root heap id m + i; node at depth d has heap id
    # (m + i) * 2^d + s
    for i in range(m):
        for depth in range(m):
            for s in range(1 << depth):
                heap_id = ((m + i) << depth) | s
                vertex_map[heap_id] = subtree_position(i, bases[i], depth, s)

    # top nodes co-locate with their leftmost descendant subtree root
    for v in range(m - 1, 0, -1):
        left = 2 * v
        vertex_map[v] = vertex_map[left]

    # edge routes
    adjacency = _butterfly_undirected_adjacency(bf)
    edge_routes: Dict[Tuple[int, int], List[BFVertex]] = {}
    for parent in range(1, 1 << (n - 1)):
        for child in (2 * parent, 2 * parent + 1):
            pu, pv = vertex_map[parent], vertex_map[child]
            if parent >= m:  # subtree edge: single butterfly edge
                edge_routes[(parent, child)] = [pu, pv]
            elif pu == pv:  # leftmost top edge: co-located
                edge_routes[(parent, child)] = [pu]
            else:
                edge_routes[(parent, child)] = _bfs_route(adjacency, pu, pv)
    return vertex_map, edge_routes


def _butterfly_undirected_adjacency(bf: Butterfly) -> Dict[BFVertex, List[BFVertex]]:
    adj: Dict[BFVertex, List[BFVertex]] = {v: [] for v in bf.vertices()}
    for u, v in bf.edges():
        adj[u].append(v)
    return adj


def _bfs_route(
    adj: Dict[BFVertex, List[BFVertex]], src: BFVertex, dst: BFVertex
) -> List[BFVertex]:
    from collections import deque

    prev: Dict[BFVertex, BFVertex] = {src: src}
    queue = deque([src])
    while queue:
        x = queue.popleft()
        if x == dst:
            break
        for y in adj[x]:
            if y not in prev:
                prev[y] = x
                queue.append(y)
    route = [dst]
    while route[-1] != src:
        route.append(prev[route[-1]])
    route.reverse()
    return route


# ---------------------------------------------------------------------------
# Theorem 5
# ---------------------------------------------------------------------------


def theorem5_embedding(m: int) -> MultiPathEmbedding:
    """Theorem 5: the ``(2**{2n}-1)``-node CBT in ``Q_{2n}``, width ``n``.

    ``m`` must be a power of two; ``n = m + log m``.  Practical sizes:
    ``m = 2`` (CBT with 63 nodes in Q_6) and ``m = 4`` (4095 nodes in Q_12).
    """
    x = CrossProductBundles(butterfly_multicopy_embedding(m, undirected=True))
    n = m + (m.bit_length() - 1)  # the butterfly copies live in Q_n
    host = Hypercube(2 * n)
    phi, phi_inv = x.phi, x.phi_inv

    bf_vmap, bf_routes = cbt_to_butterfly_map(m)
    big = CompleteBinaryTree(2 * n)
    vertex_map: Dict[int, int] = {}
    # edge -> route as list of X vertices (host node ids)
    routes: Dict[Tuple[int, int], List[int]] = {}

    # 1. top n levels into row 0
    phi0 = phi(0)
    for v in range(1, 1 << n):
        vertex_map[v] = (0 << n) | phi0[bf_vmap[v]]
    for (parent, child), route in bf_routes.items():
        routes[(parent, child)] = [(0 << n) | phi0[b] for b in route]

    # 2. column subtrees rooted at the row-tree leaves
    leaf_start = 1 << (n - 1)
    for u in range(leaf_start, 1 << n):
        j = vertex_map[u] & ((1 << n) - 1)  # u's column
        phij = phi(j)
        phij_inv = phi_inv(j)
        # X vertex (i, j) hosts column-butterfly vertex phi_j^{-1}(i); u sits
        # at row i_u (always 0, since the whole row tree lives in row 0)
        i_u = vertex_map[u] >> n
        root_bf = phij_inv[i_u]
        auto = _butterfly_automorphism(m, bf_vmap[1], root_bf)
        for depth in range(1, n):
            for s in range(1 << depth):
                big_id = (u << depth) | s
                if big_id >= 1 << (2 * n):
                    continue
                bf_pos = auto(bf_vmap[(1 << depth) | s])
                vertex_map[big_id] = (phij[bf_pos] << n) | j
        for (parent, child), route in bf_routes.items():
            # reuse the CBT_n routes inside this column via the automorphism
            big_parent = _relocate_id(u, parent, n)
            big_child = _relocate_id(u, child, n)
            routes[(big_parent, big_child)] = [
                (phij[auto(b)] << n) | j for b in route
            ]

    # 3. last level: children from the row butterflies
    last = Butterfly(m)
    for w in range(1 << (2 * n - 2), 1 << (2 * n - 1)):
        hw = vertex_map[w]
        i_w, j_w = hw >> n, hw & ((1 << n) - 1)
        phir = phi(i_w)
        phir_inv = phi_inv(i_w)
        bw = phir_inv[j_w]
        straight, cross = last.out_neighbors(bw)
        for child, nb in ((2 * w, straight), (2 * w + 1, cross)):
            vertex_map[child] = (i_w << n) | phir[nb]
            routes[(w, child)] = [hw, vertex_map[child]]

    # 4. compose every (bidirectional) CBT edge through the X paths
    edge_paths: Dict[Tuple[int, int], Tuple[Tuple[int, ...], ...]] = {}
    for (parent, child), route in routes.items():
        edge_paths[(parent, child)] = _compose_x_paths(x, route, n)
        edge_paths[(child, parent)] = _compose_x_paths(x, route[::-1], n)

    from collections import Counter

    load = max(Counter(vertex_map.values()).values())
    emb = MultiPathEmbedding(
        host,
        big,
        vertex_map,
        edge_paths,
        name=f"theorem5-cbt-Q{2 * n}",
        load_allowed=load,
    )
    emb.info = {
        "m": m,
        "n": n,
        "width": n,
        "load": load,
        "claim": {"width": n, "load": "O(1)", "cost": "O(1)"},
    }
    return emb


def _relocate_id(new_root: int, rel_id: int, n: int) -> int:
    """Heap id of the node at relative position ``rel_id`` under ``new_root``."""
    depth = rel_id.bit_length() - 1
    offset = rel_id - (1 << depth)
    return (new_root << depth) | offset


def _butterfly_automorphism(m: int, src: BFVertex, dst: BFVertex):
    """A butterfly automorphism (level rotation + column XOR) with
    ``auto(src) == dst``."""
    t = (dst[0] - src[0]) % m
    mask = (1 << m) - 1

    def rot(c: int) -> int:
        return ((c << t) | (c >> (m - t))) & mask if t else c

    d = dst[1] ^ rot(src[1])

    def auto(v: BFVertex) -> BFVertex:
        return ((v[0] + t) % m, rot(v[1]) ^ d)

    return auto


from repro.routing.pathutils import erase_loops as _erase_loops


def _compose_x_paths(
    x: CrossProductBundles, route: Sequence[int], n: int
) -> Tuple[Tuple[int, ...], ...]:
    """Concatenate the k-th host paths of each X edge along ``route``.

    The k-th composites are pairwise edge-disjoint (each X edge's path sets
    are); loop-erasure then shortens each walk into a simple path without
    breaking that disjointness.  A length-0 route (co-located endpoints)
    yields a single trivial path.  A one-edge route yields that X edge's
    bundle as it is: a detour of a simple image path is simple, so
    loop-erasure would not change it.
    """
    if len(route) == 1:
        return ((route[0],),)
    if len(route) == 2:
        return x[(route[0], route[1])]
    composites: List[List[int]] = [[route[0]] for _ in range(n)]
    for a, b in zip(route, route[1:]):
        paths = x[(a, b)]
        for k in range(n):
            composites[k].extend(paths[k][1:])
    return tuple(_erase_loops(p) for p in composites)


# ---------------------------------------------------------------------------
# Section 6.2: arbitrary trees
# ---------------------------------------------------------------------------


def tree_to_cbt_map(tree: ArbitraryTree, levels: int) -> Dict[int, int]:
    """Map an arbitrary tree into the ``levels``-level CBT (heap ids).

    Centroid splitting (substitute for [6]): the centroid goes to the CBT
    subtree root and the remaining components are packed into the two child
    subtrees.  Dilation and load are O(log) in the worst case — measured by
    the caller and recorded in EXPERIMENTS.md.
    """
    if tree.num_vertices > (1 << levels) - 1:
        raise ValueError("tree too large for the target CBT")
    adj: Dict[int, List[int]] = {v: [] for v in tree.vertices()}
    for child, par in tree.parent.items():
        adj[par].append(child)
        adj[child].append(par)
    mapping: Dict[int, int] = {}

    def subtree_nodes(root: int, banned: set, universe: set) -> List[int]:
        out, stack = [], [root]
        seen = set(banned)
        seen.add(root)
        while stack:
            v = stack.pop()
            out.append(v)
            for w in adj[v]:
                if w in universe and w not in seen:
                    seen.add(w)
                    stack.append(w)
        return out

    def centroid(nodes: List[int]) -> int:
        node_set = set(nodes)
        sizes: Dict[int, int] = {}
        order: List[int] = []
        seen = {nodes[0]}
        stack = [nodes[0]]
        parent: Dict[int, Optional[int]] = {nodes[0]: None}
        while stack:
            v = stack.pop()
            order.append(v)
            for w in adj[v]:
                if w in node_set and w not in seen:
                    seen.add(w)
                    parent[w] = v
                    stack.append(w)
        for v in reversed(order):
            sizes[v] = 1 + sum(
                sizes[w] for w in adj[v] if parent.get(w) == v and w in sizes
            )
        total = len(nodes)
        best, best_worst = nodes[0], total
        for v in order:
            worst = total - sizes[v]
            for w in adj[v]:
                if w in node_set and parent.get(w) == v:
                    worst = max(worst, sizes[w])
            if worst < best_worst:
                best, best_worst = v, worst
        return best

    def place(forests: List[List[int]], cbt_node: int, lvl: int) -> None:
        total = sum(len(f) for f in forests)
        if total == 0:
            return
        if lvl == 1:
            for f in forests:
                for v in f:
                    mapping[v] = cbt_node  # load accumulates at the frontier
            return
        # consume this CBT node with the centroid of the largest component,
        # then split everything left between the two child subtrees
        forests = sorted(forests, key=len, reverse=True)
        nodes = forests[0]
        c = centroid(nodes)
        mapping[c] = cbt_node
        node_set = set(nodes)
        comps = [subtree_nodes(w, {c}, node_set) for w in adj[c] if w in node_set]
        comps.extend(forests[1:])
        bins: List[List[List[int]]] = [[], []]
        sizes = [0, 0]
        for comp in sorted(comps, key=len, reverse=True):
            idx = 0 if sizes[0] <= sizes[1] else 1
            bins[idx].append(comp)
            sizes[idx] += len(comp)
        place(bins[0], 2 * cbt_node, lvl - 1)
        place(bins[1], 2 * cbt_node + 1, lvl - 1)

    place([list(tree.vertices())], 1, levels)
    return mapping


def arbitrary_tree_embedding(tree: ArbitraryTree, m: int) -> MultiPathEmbedding:
    """Section 6.2: width-n embedding of an arbitrary bounded-degree tree.

    Composes :func:`tree_to_cbt_map` with :func:`theorem5_embedding`.
    Tree edges ride the CBT path between their images, inheriting the
    width-n host paths of every CBT edge on the way.
    """
    cbt_emb = theorem5_embedding(m)
    n = cbt_emb.info["n"]
    levels = 2 * n
    mapping = tree_to_cbt_map(tree, levels)

    def cbt_path(a: int, b: int) -> List[int]:
        # walk both heap ids up to their lowest common ancestor
        pa, pb = [a], [b]
        x, y = a, b
        while x != y:
            if x > y:
                x >>= 1
                pa.append(x)
            else:
                y >>= 1
                pb.append(y)
        return pa + pb[::-1][1:]

    vertex_map = {v: cbt_emb.vertex_map[mapping[v]] for v in tree.vertices()}
    edge_paths: Dict[Tuple[int, int], Tuple[Tuple[int, ...], ...]] = {}
    dilation_cbt = 0
    for (u, v) in tree.edges():
        hops = cbt_path(mapping[u], mapping[v])
        dilation_cbt = max(dilation_cbt, len(hops) - 1)
        if len(hops) == 1:
            edge_paths[(u, v)] = ((vertex_map[u],),)
            continue
        # Build the composites one at a time.  Aligning path index k across
        # all CBT edges is not enough here: the k1-th path of one CBT edge
        # can overlap the k2-th path of another, so each composite greedily
        # picks, per CBT edge, an unused path avoiding every host edge
        # claimed by the previously built composites.
        segments = [
            cbt_emb.edge_paths[(a, b)]
            for a, b in zip(hops, hops[1:])
            if len(cbt_emb.edge_paths[(a, b)]) > 1  # skip co-located hops
        ]
        host = cbt_emb.host
        claimed: set = set()
        used: List[set] = [set() for _ in segments]
        survivors: List[Tuple[int, ...]] = []
        for _ in range(n):
            walk: List[int] = [vertex_map[u]]
            choice: List[int] = []
            ok = True
            for si, seg in enumerate(segments):
                picked = None
                for pi, p in enumerate(seg):
                    if pi in used[si]:
                        continue
                    ids = {
                        host.edge_id(a, b) for a, b in zip(p, p[1:])
                    }
                    if ids & claimed:
                        continue
                    picked = pi
                    break
                if picked is None:
                    ok = False
                    break
                choice.append(picked)
                walk.extend(seg[picked][1:])
            if not ok:
                continue
            path = _erase_loops(walk)
            ids = {host.edge_id(a, b) for a, b in zip(path, path[1:])}
            claimed |= ids
            for si, pi in zip(range(len(segments)), choice):
                used[si].add(pi)
            if len(path) > 1:
                survivors.append(path)
        edge_paths[(u, v)] = tuple(survivors) or ((vertex_map[u],),)

    from collections import Counter

    load = max(Counter(vertex_map.values()).values())
    emb = MultiPathEmbedding(
        cbt_emb.host,
        tree,
        vertex_map,
        edge_paths,
        name=f"sec6.2-tree-Q{2 * n}",
        load_allowed=load,
    )
    emb.info = {
        "m": m,
        "n": n,
        "cbt_dilation": dilation_cbt,
        "claim": {"width": n, "cost": "O(log n)"},
    }
    return emb

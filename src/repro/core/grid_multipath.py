"""Corollaries 1 and 2: multiple-path embeddings of grids (Section 4.5).

Grids and tori are cross products of paths and cycles, and hypercubes are
cross products of hypercubes — so each grid axis is embedded by Theorem 1
into its own factor subcube, and the cross product inherits the per-axis
width-``floor(a/2)`` cost-3 paths.  Axis ``i`` occupies host dimensions
``[i*a, (i+1)*a)``; since every path of an axis-``i`` edge stays inside
axis ``i``'s dimensions, *all* axes can exchange packets simultaneously in
the same 3 steps.

Grid edges are bidirectional; the reverse of a Theorem 1 path set uses the
reversed directed links, which are disjoint resources from the forward ones,
so both directions also run concurrently.

Unequal side lengths (Corollary 2) are first *squared* by
:func:`repro.networks.grid.square_grid_map` (contraction: dilation 1, load
``prod(ceil(L_i / L))``; see the substitution note there), then embedded as
an equal-sided grid.

:func:`embed_grid_multipath` computes the embedding as arrays and returns
a :class:`MultiPathEmbedding` carrying them, whose dicts are built on
first read; ``reference_embed_grid_multipath`` builds the same embedding
as dicts of tuples, edge by edge, and referees it in QA.
"""

from __future__ import annotations

import math
from typing import Dict, Sequence, Tuple

import numpy as np

from repro.core.cycle_multipath import (
    _bundle_layout,
    _theorem1_arrays,
    _use_ranks,
    reference_embed_cycle_load1,
)
from repro.core.embedding import MultiPathEmbedding, PathArrays
from repro.hypercube.graph import Hypercube
from repro.hypercube.graycode import gray_node_sequence
from repro.networks.grid import Grid, Torus, square_grid_factors, square_grid_map

__all__ = ["embed_grid_multipath", "corollary1_claim"]


def corollary1_claim(k: int, side: int) -> Dict[str, object]:
    """Paper claim for Corollary 1: width ``floor(ceil(log L)/2)``, cost 3."""
    a = max(1, math.ceil(math.log2(side)))
    return {
        "width": a // 2,
        "cost": 3,
        "expansion_upper": k + 1,
    }


def _axis_bundles(
    a: int,
) -> Tuple[np.ndarray, np.ndarray, Tuple[int, ...], Tuple[Tuple[int, ...], ...]]:
    """One axis's cycle on ``2**a`` nodes: ``(images, rows, lengths, steps)``.

    ``rows[i]`` holds axis edge ``i``'s paths back to back, path ``j``
    with ``lengths[j]`` nodes run at ``steps[j]``: Theorem 1's bundles,
    or for axes too small for it (a < 4) gray order with the direct edge
    only (width 1), keeping the API total.
    """
    if a >= 4:
        images, rows, params = _theorem1_arrays(a, "moment")
        width = params["a"]
        return images, rows, (4,) * width + (2,), ((1, 2, 3),) * width + ((1,),)
    seq = np.asarray(gray_node_sequence(a), dtype=np.int64)
    return seq, np.stack([seq, np.roll(seq, -1)], axis=1), (2,), ((1,),)


def _reversal(lengths: Sequence[int]) -> np.ndarray:
    """Column order that reverses each back-to-back path of a bundle row."""
    ends = np.cumsum(lengths)
    return np.concatenate(
        [np.arange(end - 1, end - 1 - size, -1) for size, end in zip(lengths, ends)]
    )


def embed_grid_multipath(dims, torus: bool = False) -> MultiPathEmbedding:
    """Embed a k-axis grid (or torus) with multiple paths per edge.

    Equal power-of-two sides reproduce Corollary 1 exactly; unequal sides go
    through the Corollary 2 squaring step first (the returned embedding then
    has the squaring load).  Tori require power-of-two sides (the wrap edge
    must be a guest cycle edge).  The embedding carries its arrays; its
    dicts are built on first read.
    """
    dims = tuple(int(d) for d in dims)
    k = len(dims)
    if k < 1:
        raise ValueError("need at least one axis")
    guest = (Torus if torus else Grid)(dims)

    logs = {max(2, math.ceil(math.log2(max(2, d)))) for d in dims}
    factors = None
    if len(logs) == 1:
        a = logs.pop()
    else:
        # Corollary 2: square first (square_grid_map's cells), then embed
        # the equal-sided grid
        side, factors = square_grid_factors(dims)
        a = max(2, math.ceil(math.log2(max(2, side))))
    if torus and any(d != (1 << a) for d in dims):
        raise ValueError("tori need power-of-two sides (wrap must be a cycle edge)")
    axis_images, axis_rows, lengths, axis_steps = _axis_bundles(a)
    width = len(lengths)
    host = Hypercube(a * k)

    # guest vertex g (row-major) sits in cell ``cells[g]``; axis i of a
    # cell lands in host bits [i*a, (i+1)*a)
    cells = np.stack(np.unravel_index(np.arange(guest.num_vertices), dims), axis=1)
    if factors is not None:
        cells //= np.asarray(factors)
    images = np.bitwise_or.reduce(
        axis_images[cells] << (np.arange(k, dtype=np.int64) * a), axis=1
    )

    packed = guest.packed_edges()
    u, v = packed.uv[:, 0], packed.uv[:, 1]
    moved = cells[u] != cells[v]
    apart = np.flatnonzero(moved.any(axis=1))  # the rest are co-located
    axis = np.argmax(moved[apart], axis=1)
    lo, hi = cells[u[apart], axis], cells[v[apart], axis]
    forward = (hi - lo) % (1 << a) == 1
    shift = axis * a
    rest = images[u[apart]] & ~(((1 << a) - 1) << shift)
    body = rest[:, None] | (axis_rows[np.where(forward, lo, hi)] << shift[:, None])
    # Reverse traffic mirrors the forward schedule into steps 4..6: hop j
    # of the reversed path is the reversal of forward hop (len - j), so
    # step 7 - s keeps the mirror conflict-free.  (The directions cannot
    # share steps: both would claim the same detour links at step 1.)
    body[~forward] = body[~forward][:, _reversal(lengths)]
    patterns = axis_steps + tuple(tuple(7 - s for s in reversed(st)) for st in axis_steps)

    # a co-located edge gets the one-node path (vertex_map[u],), no steps
    sizes = np.ones(u.size, dtype=np.int64)
    sizes[apart] = width
    slots = (np.cumsum(sizes) - sizes)[apart, None] + np.arange(width)
    path_lengths = np.ones(int(sizes.sum()), dtype=np.int64)
    path_lengths[slots] = lengths
    counts = np.ones(u.size, dtype=np.int64)
    counts[apart] = body.shape[1]
    nodes = np.repeat(images[u], counts)
    nodes[(np.cumsum(counts) - counts)[apart, None] + np.arange(body.shape[1])] = body
    path_pattern = np.full(path_lengths.size, 2 * width, dtype=np.int8)
    path_pattern[slots] = np.where(forward[:, None], 0, width) + np.arange(width)

    step_base = None
    load = 1
    if factors is not None:
        # several guest edges ride one squared edge; they serialize in
        # 6-step phases, in guest edge order
        cell_ids = np.ravel_multi_index(tuple(cells.T), (side,) * k)
        phase = _use_ranks(cell_ids[u[apart]] * np.int64(side**k) + cell_ids[v[apart]])
        step_base = np.zeros(path_lengths.size, dtype=np.int64)
        step_base[slots] = 6 * phase[:, None]
        load = int(np.unique(images, return_counts=True)[1].max())
    arrays = PathArrays(
        images,
        _bundle_layout(packed, sizes, path_lengths, nodes),
        patterns + ((),),
        path_pattern,
        step_base,
    )
    emb = MultiPathEmbedding.from_arrays(
        host,
        guest,
        arrays,
        name=f"grid-multipath-{'x'.join(map(str, dims))}",
        load_allowed=load,
    )
    emb.info = {
        "k": k,
        "axis_bits": a,
        "width": width,
        "cost": 3,
        "load": load,
        "claim": corollary1_claim(k, max(dims)),
        "expansion": host.num_nodes
        / (1 << max(0, math.ceil(math.log2(max(1, guest.num_vertices))))),
    }
    return emb


def reference_embed_grid_multipath(dims, torus: bool = False) -> MultiPathEmbedding:
    """Dict-of-tuples Corollaries 1-2 (the QA referee of
    :func:`embed_grid_multipath`), edge by edge, on Theorem 1 referee axes.
    """
    dims = tuple(int(d) for d in dims)
    k = len(dims)
    if k < 1:
        raise ValueError("need at least one axis")
    guest = (Torus if torus else Grid)(dims)

    logs = {max(2, math.ceil(math.log2(max(2, d)))) for d in dims}
    if len(logs) == 1:
        a = logs.pop()
        squared_map = None
    else:
        # Corollary 2: square first, then embed the equal-sided grid
        mapping, sq_dims, load = square_grid_map(dims)
        side_raw = sq_dims[0]
        a = max(2, math.ceil(math.log2(max(2, side_raw))))
        squared_map = mapping
    if torus and any(d != (1 << a) for d in dims):
        raise ValueError("tori need power-of-two sides (wrap must be a cycle edge)")

    axis_emb = reference_embed_cycle_load1(a) if a >= 4 else None
    if axis_emb is None:
        # axes too small for Theorem 1 (a < 4): fall back to gray order with
        # the direct edge only (width 1), keeping the API total
        seq = gray_node_sequence(a)
        axis_vmap = {i: seq[i] for i in range(1 << a)}
        axis_paths = {
            (i, (i + 1) % (1 << a)): (
                (seq[i], seq[(i + 1) % (1 << a)]),
            )
            for i in range(1 << a)
        }
        axis_steps = {e: ((1,),) for e in axis_paths}
        width = 1
    else:
        axis_vmap = axis_emb.vertex_map
        axis_paths = axis_emb.edge_paths
        axis_steps = axis_emb.step_of
        width = axis_emb.width

    host = Hypercube(a * k)

    def host_node(coord: Tuple[int, ...]) -> int:
        v = 0
        for i, x in enumerate(coord):
            v |= axis_vmap[x] << (i * a)
        return v

    vertex_map = {}
    for v in guest.vertices():
        coord = squared_map[v] if squared_map is not None else v
        vertex_map[v] = host_node(coord)

    edge_paths: Dict[Tuple, Tuple[Tuple[int, ...], ...]] = {}
    step_of: Dict[Tuple, Tuple[Tuple[int, ...], ...]] = {}
    # with contraction squaring, several guest edges ride the same squared
    # edge; they serialize in 6-step phases
    phase_count: Dict[Tuple, int] = {}
    for (u, v) in guest.edges():
        cu = squared_map[u] if squared_map is not None else u
        cv = squared_map[v] if squared_map is not None else v
        if cu == cv:  # contracted into the same cell: co-located
            edge_paths[(u, v)] = ((vertex_map[u],),)
            step_of[(u, v)] = ((),)
            continue
        axis = next(i for i in range(k) if cu[i] != cv[i])
        lo, hi = cu[axis], cv[axis]
        if (hi - lo) % (1 << a) == 1:
            key, reverse = (lo, (lo + 1) % (1 << a)), False
        else:
            key, reverse = (hi, (hi + 1) % (1 << a)), True
        base_paths = axis_paths[key]
        base_steps = axis_steps[key]
        rest = vertex_map[u] & ~(((1 << a) - 1) << (axis * a))
        phase_key = (cu, cv)
        phase = phase_count.get(phase_key, 0)
        phase_count[phase_key] = phase + 1
        paths = []
        steps = []
        for p, st in zip(base_paths, base_steps):
            nodes = [rest | (x << (axis * a)) for x in p]
            if reverse:
                # Reverse traffic mirrors the forward schedule into steps
                # 4..6: hop j of the reversed path is the reversal of forward
                # hop (len - j), so step 7 - s keeps the mirror conflict-free.
                # (The directions cannot share steps: both would claim the
                # same detour links at step 1.)
                nodes = nodes[::-1]
                st = tuple(7 - s for s in reversed(st))
            paths.append(tuple(nodes))
            steps.append(tuple(s + 6 * phase for s in st))
        edge_paths[(u, v)] = tuple(paths)
        step_of[(u, v)] = tuple(steps)

    load = 1
    if squared_map is not None:
        from collections import Counter

        load = max(Counter(vertex_map.values()).values())
    emb = MultiPathEmbedding(
        host,
        guest,
        vertex_map,
        edge_paths,
        name=f"grid-multipath-{'x'.join(map(str, dims))}",
        load_allowed=load,
        step_of=step_of,
    )
    emb.info = {
        "k": k,
        "axis_bits": a,
        "width": width,
        "cost": 3,
        "load": load,
        "claim": corollary1_claim(k, max(dims)),
        "expansion": host.num_nodes
        / (1 << max(0, math.ceil(math.log2(max(1, guest.num_vertices))))),
    }
    return emb

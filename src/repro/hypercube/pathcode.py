"""Vectorized host-path encoding kernels shared by the hot-path engines.

Every numpy engine in the package — the batched store-and-forward and
wormhole engines and the vectorized verification kernels — needs the same
first move: turn a batch of host paths (tuples of
node ids) into dense integer arrays keyed by the packed directed-edge id
``u * n + dimension`` (see :class:`repro.hypercube.graph.Hypercube`).  This
module is that shared encoding, kept at the bottom of the dependency graph
so both ``repro.core`` and ``repro.routing`` can import it.

Two layouts are provided:

* :func:`flatten_paths` + :func:`hop_edge_ids` — the flat CSR-style layout
  (one concatenated node vector plus path offsets) the verification kernels,
  the packet schedules and the batched store-and-forward engine use, where
  per-path quantities come from offset arithmetic instead of Python loops;
  :func:`ecube_paths` builds dimension-order paths in it straight from
  their endpoints;
* :func:`path_edge_matrix` — that layout as the padded
  ``(num_paths, max_hops)`` edge-id matrix with ``-1`` fill the batched
  wormhole engine runs on (one row per worm, one column per hop).

All hop validation happens here, *before* any ``log2``: a zero-move hop
(``u == u``) or a multi-bit move is rejected with the same
``ValueError("(u, v) is not a hypercube edge")`` the scalar
:meth:`Hypercube.dimension_of` raises — never a ``divide by zero``
RuntimeWarning followed by an undefined float cast.
"""

from __future__ import annotations

from itertools import chain
from typing import Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "CSR_ALIGN",
    "CSR_ARRAYS",
    "CSR_FLAG_DTYPE",
    "CSR_NODE_DTYPE",
    "CSR_OFFSET_DTYPE",
    "csr_aligned",
    "ecube_paths",
    "gather_paths",
    "hop_dimensions",
    "hop_endpoints",
    "hop_edge_ids",
    "flatten_paths",
    "path_edge_matrix",
]

# The dtype contract of every flat CSR path batch in the package.  The
# on-disk artifact store, which every serving shard maps, serializes these
# names into its headers and refuses to map bytes whose arrays disagree —
# keeping one producer (this module) and many consumers (verification
# kernels, batch routing, worker processes, memmapped artifacts)
# byte-compatible.
CSR_NODE_DTYPE = np.dtype(np.int64)  #: concatenated path nodes
CSR_OFFSET_DTYPE = np.dtype(np.int64)  #: path / bundle offset vectors
CSR_FLAG_DTYPE = np.dtype(np.uint8)  #: per-path orientation flags

# (field name, contract dtype) in on-bytes order — the serialized form of
# the contract in the artifact store.
CSR_ARRAYS: Tuple[Tuple[str, np.dtype], ...] = (
    ("nodes", CSR_NODE_DTYPE),
    ("path_offsets", CSR_OFFSET_DTYPE),
    ("bundle_offsets", CSR_OFFSET_DTYPE),
    ("path_reversed", CSR_FLAG_DTYPE),
)

# Every serialized CSR array starts on an 8-byte boundary so int64 views
# map from a store file without copies or misalignment.
CSR_ALIGN = 8


def csr_aligned(n: int) -> int:
    """``n`` rounded up to the serialized-CSR alignment boundary."""
    return (n + CSR_ALIGN - 1) // CSR_ALIGN * CSR_ALIGN


def _first_bad_hop(us: np.ndarray, vs: np.ndarray, bad: np.ndarray) -> Tuple[int, int]:
    """The (u, v) of the first invalid hop, for the error message."""
    i = int(np.argmax(bad))
    return int(us[i]), int(vs[i])


def hop_dimensions(
    us: np.ndarray, vs: np.ndarray, n: Optional[int] = None
) -> np.ndarray:
    """Dimension crossed by each hop ``us[i] -> vs[i]``, validated.

    Raises ``ValueError`` (matching :meth:`Hypercube.dimension_of`'s
    messages and check order) when any XOR is zero or not a power of two —
    the popcount check runs on the integers directly, so a zero-move hop
    never reaches ``log2`` — and, when ``n`` is given, when any endpoint
    is outside ``Q_n``.
    """
    x = us ^ vs
    bad = (x <= 0) | ((x & (x - 1)) != 0)
    if np.any(bad):
        u, v = _first_bad_hop(us, vs, bad)
        raise ValueError(f"({u}, {v}) is not a hypercube edge")
    if n is not None:
        num_nodes = 1 << n
        for arr in (us, vs):
            oob = (arr < 0) | (arr >= num_nodes)
            if np.any(oob):
                node = int(arr[np.argmax(oob)])
                raise ValueError(f"node {node} out of range for Q_{n}")
    # x is a positive power of two here, so log2 is exact and warning-free
    return np.log2(x.astype(np.float64)).astype(np.int64)


def flatten_paths(
    paths: Sequence[Sequence[int]],
) -> Tuple[np.ndarray, np.ndarray]:
    """Concatenate ``paths`` into one node vector plus path offsets.

    Returns ``(nodes, offsets)`` with ``offsets`` of length
    ``len(paths) + 1``; path ``i`` occupies ``nodes[offsets[i]:offsets[i+1]]``.
    ``np.fromiter`` over ``map(len, ...)`` and a chained iterator keeps
    the whole pass at C speed, with no Python frame per path or node.
    """
    lengths = np.fromiter(map(len, paths), dtype=np.int64, count=len(paths))
    offsets = np.zeros(len(paths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    nodes = np.fromiter(
        chain.from_iterable(paths), dtype=np.int64, count=int(offsets[-1])
    )
    return nodes, offsets


def gather_paths(
    nodes: np.ndarray,
    offsets: np.ndarray,
    path_ids: np.ndarray,
    reverse: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Gather selected paths of a flattened batch into a new CSR batch.

    ``path_ids`` selects rows of the ``(nodes, offsets)`` layout (repeats
    allowed); ``reverse``, when given, is a boolean vector aligned with
    ``path_ids`` and flips the node order of the selected path — the
    whole gather, including reversal, is offset arithmetic plus one fancy
    index, with no per-path Python work.  Returns ``(out_nodes,
    out_offsets)`` in the :func:`flatten_paths` layout.
    """
    path_ids = np.asarray(path_ids, dtype=CSR_OFFSET_DTYPE)
    if path_ids.size and (
        int(path_ids.min()) < 0 or int(path_ids.max()) >= offsets.size - 1
    ):
        raise IndexError("path id out of range for this batch")
    starts = offsets[path_ids]
    stops = offsets[path_ids + 1]
    lengths = stops - starts
    out_offsets = np.zeros(path_ids.size + 1, dtype=CSR_OFFSET_DTYPE)
    np.cumsum(lengths, out=out_offsets[1:])
    total = int(out_offsets[-1])
    if total == 0:
        return np.zeros(0, dtype=CSR_NODE_DTYPE), out_offsets
    # position of each output node within its own path
    within = np.arange(total, dtype=np.int64) - np.repeat(out_offsets[:-1], lengths)
    if reverse is None:
        idx = np.repeat(starts, lengths) + within
    else:
        rev = np.asarray(reverse, dtype=bool)
        base = np.where(rev, stops - 1, starts)
        sign = np.where(rev, np.int64(-1), np.int64(1))
        idx = np.repeat(base, lengths) + np.repeat(sign, lengths) * within
    return np.ascontiguousarray(nodes[idx], dtype=CSR_NODE_DTYPE), out_offsets


def hop_endpoints(
    nodes: np.ndarray, offsets: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Hop (head, tail) node arrays of a flattened path batch, unvalidated.

    Takes the ``(nodes, offsets)`` layout of :func:`flatten_paths`; hop ``j``
    of path ``i`` runs ``heads[k] -> tails[k]`` with consecutive hops of one
    path contiguous.  Paths contribute ``len(path) - 1`` hops each (zero-hop
    paths contribute none).  No edge validation — the verification kernels
    need the raw endpoints to report *which* hop is broken.
    """
    total = int(nodes.size)
    if total == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty.copy()
    # drop each path's last node to get hop heads, first node to get tails
    head_mask = np.ones(total, dtype=bool)
    head_mask[offsets[1:] - 1] = False
    tail_mask = np.ones(total, dtype=bool)
    tail_mask[offsets[:-1]] = False
    return nodes[head_mask], nodes[tail_mask]


def hop_edge_ids(
    n: int, nodes: np.ndarray, offsets: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Directed edge ids of every hop of a flattened path batch.

    Layout as in :func:`hop_endpoints`; returns ``(eids, heads, tails)``.
    Validation as in :func:`hop_dimensions`.
    """
    heads, tails = hop_endpoints(nodes, offsets)
    if heads.size == 0:
        return heads.copy(), heads, tails
    dims = hop_dimensions(heads, tails, n)
    return heads * np.int64(n) + dims, heads, tails


def ecube_paths(
    n: int, src: np.ndarray, dst: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Dimension-order (e-cube) paths ``src[i] -> dst[i]``, in CSR layout.

    As :func:`repro.routing.permutation.dimension_order_path`, lowest
    dimension first: with ``diff = src ^ dst``, the hop through dimension
    ``d`` enters ``src ^ (diff & ((2 << d) - 1))`` at path position
    ``popcount(diff & ((1 << d) - 1)) + 1``, so one pass per dimension
    places its hops.  ``src == dst`` gives a one-node path.
    """
    src = np.asarray(src, dtype=CSR_NODE_DTYPE)
    diff = src ^ np.asarray(dst, dtype=CSR_NODE_DTYPE)
    length = np.ones(src.size, dtype=CSR_OFFSET_DTYPE)
    for d in range(n):
        length += (diff >> d) & 1
    offsets = np.zeros(src.size + 1, dtype=CSR_OFFSET_DTYPE)
    np.cumsum(length, out=offsets[1:])
    nodes = np.empty(int(offsets[-1]), dtype=CSR_NODE_DTYPE)
    at = offsets[:-1].copy()  # where each path's last placed node sits
    nodes[at] = src
    for d in range(n):
        hit = np.flatnonzero(diff & (1 << d))
        pos = at[hit] + 1
        at[hit] = pos
        nodes[pos] = src[hit] ^ (diff[hit] & ((2 << d) - 1))
    return nodes, offsets


def path_edge_matrix(
    n: int, nodes: np.ndarray, offsets: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """The padded per-path edge-id matrix of the batched wormhole engine.

    Takes a path batch in the :func:`flatten_paths` layout (every path at
    least one node long) and returns ``(edges, lengths)``: ``edges`` is
    ``(num_paths, max_hops)`` int64 with row ``i`` holding the directed
    edge ids of path ``i``'s hops and ``-1`` padding; ``lengths[i]`` is
    path ``i``'s hop count.  ``BatchedWormhole`` runs on this encoding
    (its store-and-forward sibling reads :func:`hop_edge_ids` directly),
    and every hop is validated by :func:`hop_edge_ids` on the way.
    """
    lengths = np.diff(offsets) - 1
    num = lengths.size
    max_len = int(lengths.max()) if num else 0
    edges = np.full((num, max_len), -1, dtype=np.int64)
    if max_len == 0:
        return edges, lengths
    eids, _, _ = hop_edge_ids(n, nodes, offsets)
    rows = np.repeat(np.arange(num, dtype=np.int64), lengths)
    hop_starts = np.cumsum(lengths) - lengths  # first hop index of each path
    cols = np.arange(eids.size, dtype=np.int64) - np.repeat(hop_starts, lengths)
    edges[rows, cols] = eids
    return edges, lengths

"""Vectorized embedding verification kernels + the dict-based referee.

The hot path of ``verify()`` at scale is hop validation and congestion
counting over every host path an embedding carries — millions of hops for
``Q_18``/``Q_20`` constructions.  The kernels here run that path as numpy
array programs over the shared :mod:`repro.hypercube.pathcode` encoding:
hop legality is an XOR-popcount test, congestion is one ``bincount``,
edge-disjointness is sorted-duplicate detection, and dilation/load are
array reductions.  The arrays are the embedding's one flatten,
:func:`flatten_embedding`, which the serving export :func:`embedding_csr`
packs too: an admit exports first and verifies the export's arrays.

The scalar dict-based implementations are *kept* as ``reference_verify_*``
— they share no arrays with the kernels, which makes them the referee of
the QA differential stage: every fuzzed embedding's vectorized report must
agree check-for-check and metric-for-metric with the referee's (see
:func:`repro.qa.differential.verification_differential`).

Both implementations produce the same
:class:`~repro.core.verification.VerificationReport` shape: the same check
names in the same order, stopping at the first failure, and the same
``metrics`` (Python scalars) for a passing report.  Failure *details* can
differ only when several invariants are broken at once — the vectorized
kernels test a whole batch per invariant while the referee walks hop by
hop, so they may name different offenders; the failing check's name and
the report's verdict always match.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, islice
from typing import Any, Dict, List, NoReturn, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.core.embedding import (
    Embedding,
    MultiCopyEmbedding,
    MultiPathEmbedding,
    PathArrays,
    _path_edge_ids,
)
from repro.core.verification import InvariantCheck, VerificationReport
from repro.hypercube.pathcode import (
    CSR_FLAG_DTYPE,
    CSR_NODE_DTYPE,
    CSR_OFFSET_DTYPE,
    flatten_paths,
    gather_paths,
    hop_endpoints,
)
from repro.networks.base import PackedEdges
from repro.obs.profile import profile_span

__all__ = [
    "EdgeLookup",
    "PackedEdges",
    "PathCSR",
    "PathLayout",
    "build_edge_lookup",
    "embedding_csr",
    "flatten_embedding",
    "layout_congestion",
    "verify_embedding",
    "verify_multipath",
    "reference_verify_embedding",
    "reference_verify_multipath",
]


# -- vectorized kernels -------------------------------------------------------


def _first_invalid_hop(
    host: Any, heads: np.ndarray, tails: np.ndarray
) -> Optional[Tuple[int, str]]:
    """First hop that is not a directed host edge, with its error message.

    Mirrors :meth:`Hypercube.dimension_of`'s per-hop order exactly:
    power-of-two XOR first, then head range, then tail range — so the
    message matches what the scalar referee raises for the same hop.
    """
    if heads.size == 0:
        return None
    x = heads ^ tails
    bad_pow = (x == 0) | ((x & (x - 1)) != 0)
    oob_head = (heads < 0) | (heads >= host.num_nodes)
    oob_tail = (tails < 0) | (tails >= host.num_nodes)
    bad = bad_pow | oob_head | oob_tail
    if not np.any(bad):
        return None
    i = int(np.argmax(bad))
    u, v = int(heads[i]), int(tails[i])
    if bad_pow[i]:
        return i, f"({u}, {v}) is not a hypercube edge"
    if oob_head[i]:
        return i, f"node {u} out of range for Q_{host.n}"
    return i, f"node {v} out of range for Q_{host.n}"


def _edge_ids(host: Any, heads: np.ndarray, tails: np.ndarray) -> np.ndarray:
    """Packed edge ids of pre-validated hops (log2 is exact and warning-free)."""
    x = (heads ^ tails).astype(np.float64)
    return heads * np.int64(host.n) + np.log2(x).astype(np.int64)


def layout_congestion(host: Any, layout: Union[PathLayout, PathCSR], per_bundle: bool) -> int:
    """The congestion property of the paths ``layout`` holds.

    Counts the paths through each directed host edge, or with
    ``per_bundle`` the bundles (a bundle whose paths share an edge counts
    once there).  A hop that is no host edge raises the ``ValueError``
    :meth:`Hypercube.edge_id` raises for the first one.
    """
    heads, tails = hop_endpoints(layout.nodes, layout.path_offsets)
    invalid = _first_invalid_hop(host, heads, tails)
    if invalid is not None:
        raise ValueError(invalid[1])
    eids = _edge_ids(host, heads, tails)
    if per_bundle:
        sizes = np.diff(layout.bundle_offsets)
        hops = np.maximum(np.diff(layout.path_offsets) - 1, 0)
        bundle = np.repeat(np.arange(sizes.size, dtype=np.int64), sizes)
        keys = np.sort(np.repeat(bundle, hops) * np.int64(host.num_edges) + eids)
        first = np.ones(keys.size, dtype=bool)
        first[1:] = keys[1:] != keys[:-1]
        eids = keys[first] % host.num_edges
    return int(np.bincount(eids).max()) if eids.size else 0


def _guest_layout(
    emb: Any, csr: Optional[PathCSR]
) -> Tuple[List[Any], np.ndarray, np.ndarray, np.ndarray]:
    """The stored paths of ``emb``'s guest edges, in ``guest.edges()`` order.

    Returns ``(edges, widths, nodes, offsets)``: ``widths[i]`` counts the
    paths stored forward for guest edge ``i`` (``-1`` when none is), and
    ``(nodes, offsets)`` holds those paths in the :func:`flatten_paths`
    layout, guest edge by guest edge.  The paths come from ``csr`` (the
    embedding's own export, whose bundles follow ``edge_paths``) or from
    :func:`flatten_embedding`; keys that are not guest edges stay out.
    When ``edge_paths`` holds exactly the guest edges in guest order, as
    every builder's does, the layout's arrays are used as they are.
    """
    keys = list(emb.edge_paths)
    layout: Union[PathLayout, PathCSR] = flatten_embedding(emb) if csr is None else csr
    if len(layout.bundle_offsets) != len(keys) + 1:
        raise ValueError(
            f"csr has {len(layout.bundle_offsets) - 1} bundles for "
            f"{len(keys)} stored edges: pass the embedding's own export"
        )
    nodes, path_offsets = layout.nodes, layout.path_offsets
    sizes = np.diff(layout.bundle_offsets)
    edges = list(emb.guest.edges())
    if edges == keys:
        return edges, sizes, nodes, path_offsets
    bundle_of = dict(zip(keys, range(len(keys))))
    gids = np.fromiter(
        (bundle_of.get(edge, -1) for edge in edges), dtype=np.int64, count=len(edges)
    )
    widths = np.append(sizes, -1)[gids]
    picked = gids[gids >= 0]
    lo, w = layout.bundle_offsets[picked], sizes[picked]
    path_ids = np.repeat(lo - (np.cumsum(w) - w), w) + np.arange(
        int(w.sum()), dtype=np.int64
    )
    return (edges, widths) + gather_paths(nodes, path_offsets, path_ids)


def _endpoint_images(
    emb: Any, edges: List[Any]
) -> Tuple[np.ndarray, np.ndarray]:
    """Host images of each guest edge's tail and head."""
    vm = emb.vertex_map
    count = len(edges)
    return (
        np.fromiter((vm[u] for u, _ in edges), dtype=np.int64, count=count),
        np.fromiter((vm[v] for _, v in edges), dtype=np.int64, count=count),
    )


def _carried_layout(
    emb: Any, csr: Optional[PathCSR]
) -> Optional[Tuple[PathArrays, Union[PathLayout, PathCSR]]]:
    """``(arrays, layout)`` when ``emb`` verifies from its carried arrays.

    That needs an unread array-built embedding with one image per guest
    vertex, and a layout (``csr``, else the carried one) whose edges are
    exactly the guest's packed edges; None sends verification to the
    dicts.
    """
    arrays = emb.carried if isinstance(emb, (Embedding, MultiPathEmbedding)) else None
    packed = getattr(emb.guest, "packed_edges", None)
    if arrays is None or packed is None or arrays.images.size != emb.guest.num_vertices:
        return None
    layout = arrays.layout if csr is None else csr
    expected = packed()
    edges = layout.edges
    if not isinstance(edges, PackedEdges) or edges.radix != expected.radix:
        return None
    if not np.array_equal(edges.uv, expected.uv):
        return None
    return arrays, layout


def _checked_layout(
    emb: Any,
    csr: Optional[PathCSR],
    carried: Optional[Tuple[PathArrays, Union[PathLayout, PathCSR]]],
) -> Tuple[Sequence[Any], np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The paths verification checks: ``(edges, widths, nodes, offsets,
    src, dst)``, guest edge by guest edge as :func:`_guest_layout` lays
    them out, with each edge's tail and head images.  A carried layout's
    bundles are the guest's packed edges already."""
    if carried is None:
        edges, widths, nodes, offsets = _guest_layout(emb, csr)
        return (edges, widths, nodes, offsets) + _endpoint_images(emb, edges)
    arrays, layout = carried
    uv = layout.edges.uv
    return (
        layout.edges,
        np.diff(layout.bundle_offsets),
        layout.nodes,
        layout.path_offsets,
        arrays.images[uv[:, 0]],
        arrays.images[uv[:, 1]],
    )


def verify_embedding(
    emb: Any,
    max_load: Optional[int] = None,
    strict: bool = True,
    csr: Optional[PathCSR] = None,
) -> VerificationReport:
    """Vectorized verification of a classical :class:`~repro.core.embedding.Embedding`.

    Same invariants, order, and report shape as
    :func:`reference_verify_embedding`: vertex-map, load, edge-paths,
    hops-are-edges, stopping at the first failure; a passing report carries
    load/dilation/congestion/expansion.  The paths are read from ``csr``
    when given (the embedding's own :func:`embedding_csr`), else from one
    :func:`flatten_embedding`.  An unread array-built embedding is checked
    on its carried arrays without building its dicts; the report is the
    one its dicts would give.
    """
    return _verify_embedding(emb, max_load, strict, csr)[0]


def _verify_embedding(
    emb: Any,
    max_load: Optional[int],
    strict: bool,
    csr: Optional[PathCSR],
) -> Tuple[VerificationReport, Optional[np.ndarray]]:
    """:func:`verify_embedding`, plus the edge id of every stored hop.

    The edge ids (``None`` when the report failed) come from the verified
    arrays, or from the congestion property when ``edge_paths`` holds
    more than the guest edges.
    """
    name = emb.name or "embedding"
    if max_load is None:
        max_load = math.ceil(emb.guest.num_vertices / emb.host.num_nodes)
    checks: List[InvariantCheck] = []

    def fail(check: str, detail: str) -> Tuple[VerificationReport, None]:
        checks.append(InvariantCheck(check, False, detail))
        report = VerificationReport(name, tuple(checks))
        return (report.raise_if_failed() if strict else report), None

    with profile_span("verify.embedding", subject=name):
        carried = _carried_layout(emb, csr)
        if carried is None:
            images: Counter = Counter()
            for v in emb.guest.vertices():
                if v not in emb.vertex_map:
                    return fail("vertex-map", f"guest vertex {v} is unmapped")
                node = emb.vertex_map[v]
                if not 0 <= node < emb.host.num_nodes:
                    return fail("vertex-map", f"image {node} of {v} out of host range")
                images[node] += 1
            measured_load = max(images.values()) if images else 0
        else:
            vertex_images = carried[0].images
            outside = (vertex_images < 0) | (vertex_images >= emb.host.num_nodes)
            if np.any(outside):
                g = int(np.argmax(outside))
                v = next(islice(emb.guest.vertices(), g, None))
                node = int(vertex_images[g])
                return fail("vertex-map", f"image {node} of {v} out of host range")
            measured_load = carried[0].load()
        checks.append(InvariantCheck("vertex-map", True))
        if measured_load > max_load:
            return fail("load", f"load {measured_load} exceeds allowed {max_load}")
        checks.append(
            InvariantCheck("load", True, f"load {measured_load} <= {max_load}")
        )

        edges, widths, nodes, offsets, src, dst = _checked_layout(emb, csr, carried)
        # first failing guest edge in guest order: 1 no path, 2 an empty
        # path (the scalar referee's path[0] raises), 3 wrong endpoints
        stored = np.flatnonzero(widths > 0)
        lengths = np.diff(offsets)
        padded = np.append(nodes, -1)
        verdict = np.ones(len(edges), dtype=np.int8)
        verdict[stored] = np.where(
            lengths == 0,
            2,
            np.where(
                (padded[offsets[:-1]] != src[stored])
                | (padded[offsets[1:] - 1] != dst[stored]),
                3,
                0,
            ),
        )
        if np.any(verdict):
            i = int(np.argmax(verdict != 0))
            u, v = edges[i]
            if verdict[i] == 2:
                raise IndexError("tuple index out of range")
            if verdict[i] == 1:
                return fail("edge-paths", f"guest edge ({u}, {v}) has no path")
            return fail("edge-paths", f"path for ({u}, {v}) has wrong endpoints")
        checks.append(InvariantCheck("edge-paths", True))

        heads, tails = hop_endpoints(nodes, offsets)
        invalid = _first_invalid_hop(emb.host, heads, tails)
        if invalid is not None:
            hop_idx, msg = invalid
            hops = lengths - 1
            hop_starts = np.cumsum(hops) - hops
            which = int(np.searchsorted(hop_starts, hop_idx, side="right") - 1)
            u, v = edges[which]
            return fail("hops-are-edges", f"path for ({u}, {v}): {msg}")
        checks.append(InvariantCheck("hops-are-edges", True))

        # The metric contract follows the dilation/congestion properties:
        # they measure every path in ``edge_paths``, which can be a superset
        # of the guest edges just verified.  Reuse the verified batch when
        # the dict holds exactly the guest edges (the invariable case for
        # the package's builders, and always for carried arrays); otherwise
        # fall back to the properties.
        if carried is not None or len(emb.edge_paths) == len(edges):
            eids = _edge_ids(emb.host, heads, tails)
            dilation = int(lengths.max()) - 1 if lengths.size else 0
        else:
            counts = emb.edge_congestion_counts()
            eids = np.fromiter(counts.elements(), dtype=np.int64)
            dilation = emb.dilation
        congestion = int(np.bincount(eids).max()) if eids.size else 0
        report = VerificationReport(
            name,
            tuple(checks),
            metrics={
                "load": measured_load,
                "max_load_allowed": max_load,
                "dilation": dilation,
                "congestion": congestion,
                "expansion": emb.expansion,
            },
        )
        return report, eids


def verify_multipath(
    emb: Any, strict: bool = True, csr: Optional[PathCSR] = None
) -> VerificationReport:
    """Vectorized verification of a width-w :class:`MultiPathEmbedding`.

    Same invariants, order, and report shape as
    :func:`reference_verify_multipath`: vertex-map, load, edge-paths,
    hops-are-edges, edge-disjoint.  The paths are read from ``csr`` when
    given (the embedding's own :func:`embedding_csr`), else from one
    :func:`flatten_embedding`; endpoints come from offset gathers, hop
    legality from one XOR-popcount pass, edge-disjointness from
    sorted-duplicate detection on ``guest_edge * num_edges + edge_id``
    keys, and congestion from one ``bincount`` of the same edge-id vector.

    An unread array-built embedding is checked on its carried arrays
    without building its dicts: the load is a counted ``np.unique`` of
    the vertex images, and the guest edges are the guest's packed ones.
    The report is the one its dicts would give.
    """
    name = emb.name or "multipath-embedding"
    checks: List[InvariantCheck] = []

    def fail(check: str, detail: str) -> VerificationReport:
        checks.append(InvariantCheck(check, False, detail))
        report = VerificationReport(name, tuple(checks))
        return report.raise_if_failed() if strict else report

    def done(metrics: Dict[str, Any]) -> VerificationReport:
        return VerificationReport(name, tuple(checks), metrics)

    with profile_span("verify.multipath", subject=name):
        carried = _carried_layout(emb, csr)
        if carried is None:
            images = Counter(emb.vertex_map.values())
            for v in emb.guest.vertices():
                if v not in emb.vertex_map:
                    return fail("vertex-map", f"guest vertex {v} is unmapped")
            measured_load = max(images.values()) if images else 0
        else:
            measured_load = carried[0].load()
        checks.append(InvariantCheck("vertex-map", True))
        if measured_load > emb.load_allowed:
            return fail(
                "load", f"load {measured_load} exceeds allowed {emb.load_allowed}"
            )
        checks.append(
            InvariantCheck(
                "load", True, f"load {measured_load} <= {emb.load_allowed}"
            )
        )

        edges, widths, nodes, offsets, src, dst = _checked_layout(emb, csr, carried)
        if np.any(widths <= 0):
            u, v = edges[int(np.argmax(widths <= 0))]
            return fail("edge-paths", f"guest edge ({u}, {v}) has no paths")
        node_counts = np.diff(offsets)
        if np.any(node_counts == 0):
            # an empty path tuple: the scalar referee's p[0] raises this
            raise IndexError("tuple index out of range")
        path_group = np.repeat(np.arange(len(edges), dtype=np.int64), widths)
        bad_end = (nodes[offsets[:-1]] != src[path_group]) | (
            nodes[offsets[1:] - 1] != dst[path_group]
        )
        if np.any(bad_end):
            j = int(np.argmax(bad_end))
            i = int(path_group[j])
            u, v = edges[i]
            if carried is None:
                path = emb.edge_paths[(u, v)][j - int(widths[:i].sum())]
            else:
                path = tuple(nodes[offsets[j] : offsets[j + 1]].tolist())
            return fail(
                "edge-paths", f"path for ({u}, {v}) has wrong endpoints: {path}"
            )
        checks.append(InvariantCheck("edge-paths", True))

        base_metrics: Dict[str, Any] = {
            "width": int(widths.min()) if widths.size else 0,
            "load": measured_load,
            "max_load_allowed": emb.load_allowed,
            "expansion": emb.expansion,
        }
        heads, tails = hop_endpoints(nodes, offsets)
        if heads.size == 0:
            checks.append(InvariantCheck("hops-are-edges", True))
            checks.append(InvariantCheck("edge-disjoint", True))
            return done({**base_metrics, "dilation": 0, "congestion": 0})
        if (
            min(int(heads.min()), int(tails.min())) < 0
            or max(int(heads.max()), int(tails.max())) >= emb.host.num_nodes
        ):
            return fail("hops-are-edges", "path node out of host range")
        x = heads ^ tails
        bad_hop = (x == 0) | ((x & (x - 1)) != 0)
        if np.any(bad_hop):
            b = int(np.argmax(bad_hop))
            return fail(
                "hops-are-edges",
                f"({int(heads[b])}, {int(tails[b])}) is not a hypercube edge",
            )
        checks.append(InvariantCheck("hops-are-edges", True))

        eids = heads * np.int64(emb.host.n) + np.log2(
            x.astype(np.float64)
        ).astype(np.int64)
        hops_per_path = node_counts - 1
        hop_group = np.repeat(path_group, hops_per_path)
        keys = hop_group * np.int64(emb.host.num_edges) + eids
        keys.sort()
        repeated = keys[1:] == keys[:-1]
        if np.any(repeated):
            key = int(keys[1:][np.argmax(repeated)])  # the smallest repeated key
            return fail(
                "edge-disjoint",
                f"guest edge #{key // emb.host.num_edges} reuses directed "
                f"host edge {key % emb.host.num_edges} across its paths",
            )
        checks.append(InvariantCheck("edge-disjoint", True))
        # every (guest edge, host edge) pair is unique past this point, so a
        # bincount of the edge-id vector IS the per-host-edge congestion
        return done(
            {
                **base_metrics,
                "dilation": int(hops_per_path.max()),
                "congestion": int(np.bincount(eids).max()),
            }
        )


# -- scalar dict-based referee ------------------------------------------------


def reference_verify_embedding(
    emb: Any, max_load: Optional[int] = None, strict: bool = True
) -> VerificationReport:
    """The scalar dict-walking verifier for :class:`Embedding` (QA referee)."""
    if max_load is None:
        max_load = math.ceil(emb.guest.num_vertices / emb.host.num_nodes)
    checks: List[InvariantCheck] = []

    def fail(check: str, detail: str) -> VerificationReport:
        checks.append(InvariantCheck(check, False, detail))
        report = VerificationReport(emb.name or "embedding", tuple(checks))
        return report.raise_if_failed() if strict else report

    images: Counter = Counter()
    for v in emb.guest.vertices():
        if v not in emb.vertex_map:
            return fail("vertex-map", f"guest vertex {v} is unmapped")
        node = emb.vertex_map[v]
        if not 0 <= node < emb.host.num_nodes:
            return fail("vertex-map", f"image {node} of {v} out of host range")
        images[node] += 1
    checks.append(InvariantCheck("vertex-map", True))
    measured_load = max(images.values()) if images else 0
    if measured_load > max_load:
        return fail("load", f"load {measured_load} exceeds allowed {max_load}")
    checks.append(
        InvariantCheck("load", True, f"load {measured_load} <= {max_load}")
    )
    for (u, v) in emb.guest.edges():
        path = emb.edge_paths.get((u, v))
        if path is None:
            return fail("edge-paths", f"guest edge ({u}, {v}) has no path")
        if path[0] != emb.vertex_map[u] or path[-1] != emb.vertex_map[v]:
            return fail("edge-paths", f"path for ({u}, {v}) has wrong endpoints")
    checks.append(InvariantCheck("edge-paths", True))
    for (u, v) in emb.guest.edges():
        try:
            _path_edge_ids(emb.host, emb.edge_paths[(u, v)])
        except ValueError as err:
            return fail("hops-are-edges", f"path for ({u}, {v}): {err}")
    checks.append(InvariantCheck("hops-are-edges", True))
    return VerificationReport(
        emb.name or "embedding",
        tuple(checks),
        metrics={
            "load": measured_load,
            "max_load_allowed": max_load,
            "dilation": emb.dilation,
            "congestion": emb.congestion,
            "expansion": emb.expansion,
        },
    )


def reference_verify_multipath(emb: Any, strict: bool = True) -> VerificationReport:
    """The scalar dict/set-based verifier for :class:`MultiPathEmbedding`.

    Kept deliberately free of numpy: edge ids come from
    :meth:`Hypercube.edge_id` one hop at a time, disjointness from per-bundle
    ``Counter`` duplicates, congestion from a global ``Counter`` over each
    bundle's used-edge set.  Report-shape-identical to
    :func:`verify_multipath` — this is what the QA differential referees
    the vectorized kernel against.
    """
    name = emb.name or "multipath-embedding"
    checks: List[InvariantCheck] = []

    def fail(check: str, detail: str) -> VerificationReport:
        checks.append(InvariantCheck(check, False, detail))
        report = VerificationReport(name, tuple(checks))
        return report.raise_if_failed() if strict else report

    images = Counter(emb.vertex_map.values())
    for v in emb.guest.vertices():
        if v not in emb.vertex_map:
            return fail("vertex-map", f"guest vertex {v} is unmapped")
    checks.append(InvariantCheck("vertex-map", True))
    measured_load = max(images.values()) if images else 0
    if measured_load > emb.load_allowed:
        return fail(
            "load", f"load {measured_load} exceeds allowed {emb.load_allowed}"
        )
    checks.append(
        InvariantCheck("load", True, f"load {measured_load} <= {emb.load_allowed}")
    )

    bundles: List[Tuple[Tuple[Any, Any], Tuple[Tuple[int, ...], ...]]] = []
    min_width = None
    for (u, v) in emb.guest.edges():
        bundle = emb.edge_paths.get((u, v))
        if not bundle:
            return fail("edge-paths", f"guest edge ({u}, {v}) has no paths")
        if min_width is None or len(bundle) < min_width:
            min_width = len(bundle)
        hu, hv = emb.vertex_map[u], emb.vertex_map[v]
        for p in bundle:
            if p[0] != hu or p[-1] != hv:
                return fail(
                    "edge-paths", f"path for ({u}, {v}) has wrong endpoints: {p}"
                )
        bundles.append(((u, v), bundle))
    checks.append(InvariantCheck("edge-paths", True))

    base_metrics: Dict[str, Any] = {
        "width": min_width or 0,
        "load": measured_load,
        "max_load_allowed": emb.load_allowed,
        "expansion": emb.expansion,
    }
    total_hops = 0
    for _, bundle in bundles:
        for p in bundle:
            total_hops += len(p) - 1
            for a, b in zip(p, p[1:]):
                if not (
                    0 <= a < emb.host.num_nodes and 0 <= b < emb.host.num_nodes
                ):
                    return fail("hops-are-edges", "path node out of host range")
                x = a ^ b
                if x == 0 or (x & (x - 1)) != 0:
                    return fail(
                        "hops-are-edges", f"({a}, {b}) is not a hypercube edge"
                    )
    if total_hops == 0:
        checks.append(InvariantCheck("hops-are-edges", True))
        checks.append(InvariantCheck("edge-disjoint", True))
        return VerificationReport(
            name,
            tuple(checks),
            {**base_metrics, "dilation": 0, "congestion": 0},
        )
    checks.append(InvariantCheck("hops-are-edges", True))

    duplicate_keys: List[int] = []
    per_host_edge: Counter = Counter()
    dilation = 0
    for idx, (_, bundle) in enumerate(bundles):
        seen: Counter = Counter()
        for p in bundle:
            dilation = max(dilation, len(p) - 1)
            for eid in _path_edge_ids(emb.host, p):
                seen[eid] += 1
        duplicate_keys.extend(
            idx * emb.host.num_edges + eid
            for eid, count in seen.items()
            if count > 1
        )
        per_host_edge.update(seen.keys())
    if duplicate_keys:
        key = min(duplicate_keys)
        return fail(
            "edge-disjoint",
            f"guest edge #{key // emb.host.num_edges} reuses directed "
            f"host edge {key % emb.host.num_edges} across its paths",
        )
    checks.append(InvariantCheck("edge-disjoint", True))
    return VerificationReport(
        name,
        tuple(checks),
        {
            **base_metrics,
            "dilation": dilation,
            "congestion": max(per_host_edge.values()) if per_host_edge else 0,
        },
    )


# -- CSR export for the serving layer -----------------------------------------


def _rev(edge: Any) -> Any:
    u, v = edge
    return (v, u)


def _pack_vertices(coords: np.ndarray, radix: Tuple[int, ...]) -> np.ndarray:
    """Mixed-radix ids of the tuple vertices ``coords[..., k]``.

    Coordinate ``j`` counts in base ``radix[j]``.  An endpoint with a
    coordinate outside ``[0, radix[j])`` is no vertex of the guest, so it
    packs to ``-1``, an id no edge uses.
    """
    inside = ((coords >= 0) & (coords < np.asarray(radix))).all(axis=-1)
    ids = np.ravel_multi_index(
        tuple(np.moveaxis(coords, -1, 0)), radix, mode="clip"
    )
    return np.where(inside, ids, -1)


def _pack_edges(edges: Sequence[Any]) -> PackedEdges:
    """Guest edges as a :class:`PackedEdges` table.

    A :class:`PackedEdges` passes through unchanged.  An integer vertex
    is its own id.  Tuples of one arity with non-negative integer
    coordinates number by mixed radix, ``max + 1`` per coordinate.  Any
    other vertex raises ``ValueError``.
    """
    if isinstance(edges, PackedEdges):
        return edges
    if not len(edges):
        return PackedEdges(np.zeros((0, 2), dtype=CSR_NODE_DTYPE))
    try:
        coords = np.asarray(edges)
    except (TypeError, ValueError, OverflowError):
        coords = np.asarray(())  # ragged: rejected below
    packable = (
        coords.dtype.kind in "iu"
        and coords.ndim in (2, 3)
        and coords.shape[1] == 2
        and 0 not in coords.shape
    )
    if packable:
        coords = coords.astype(CSR_NODE_DTYPE, copy=False)
        packable = int(coords.min()) >= 0
    if not packable:
        raise ValueError(
            "guest vertices must be non-negative ints or equal-length "
            f"tuples of them (edges look like {edges[0]!r})"
        )
    if coords.ndim == 2:
        return PackedEdges(coords)
    radix = tuple(int(r) + 1 for r in coords.max(axis=(0, 1)))
    return PackedEdges(_pack_vertices(coords, radix), radix)


@dataclass(frozen=True)
class EdgeLookup:
    """Vectorized guest-edge resolver over packed vertex ids.

    Packs each orientation of every bundle's canonical edge into one
    ``u * base + v`` key and answers a whole request batch with a single
    ``searchsorted`` — no per-request dict lookups and, crucially, no
    upfront Python loop over a million edges.  The three arrays are plain
    contract-dtype vectors, so the artifact store serializes them next to
    the CSR payload and a memmapped embedding resolves requests O(ms)
    after open.  Stored orientations always win over reverse fallbacks,
    mirroring :func:`repro.service.api.disjoint_paths`'s forward-then-
    reverse lookup order.
    """

    base: int  # vertex ids live in [0, base)
    keys: np.ndarray  # sorted packed keys, CSR_NODE_DTYPE
    gids: np.ndarray  # bundle id per key, CSR_OFFSET_DTYPE
    flips: np.ndarray  # reverse-orientation flag per key, CSR_FLAG_DTYPE

    def resolve_packed(
        self, us: np.ndarray, vs: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(gids, flips, known)`` for endpoint arrays ``us -> vs``."""
        known = (us >= 0) & (us < self.base) & (vs >= 0) & (vs < self.base)
        # out-of-range endpoints can alias another edge's key, so mask
        # them to a key no edge packs to before the binary search
        k = np.where(known, us * np.int64(self.base) + vs, np.int64(-1))
        if self.keys.size == 0:
            return (
                np.zeros(us.size, dtype=CSR_OFFSET_DTYPE),
                np.zeros(us.size, dtype=CSR_FLAG_DTYPE),
                np.zeros(us.size, dtype=bool),
            )
        idx = np.minimum(
            np.searchsorted(self.keys, k), self.keys.size - 1
        )
        known &= self.keys[idx] == k
        return self.gids[idx], self.flips[idx], known


def build_edge_lookup(edge_uv: np.ndarray) -> EdgeLookup:
    """The :class:`EdgeLookup` of a ``(num_bundles, 2)`` endpoint array.

    Forward orientations win ties against reverse fallbacks (the stable
    sort keeps the forward block first), and among several reverse
    claims on one key the lowest bundle id wins, so answers match
    :func:`repro.service.api.disjoint_paths`.
    """
    edge_uv = np.ascontiguousarray(edge_uv, dtype=np.int64)
    count = edge_uv.shape[0]
    if count == 0:
        return EdgeLookup(
            base=1,
            keys=np.zeros(0, dtype=CSR_NODE_DTYPE),
            gids=np.zeros(0, dtype=CSR_OFFSET_DTYPE),
            flips=np.zeros(0, dtype=CSR_FLAG_DTYPE),
        )
    us, vs = edge_uv[:, 0], edge_uv[:, 1]
    if int(min(us.min(), vs.min())) < 0:
        raise ValueError("edge lookup requires non-negative vertex ids")
    base = int(max(us.max(), vs.max())) + 1
    if base > 1 << 31:  # u * base + v must stay inside int64
        raise ValueError(f"vertex id {base - 1} is too large to pack edge keys")
    ids = np.arange(count, dtype=CSR_OFFSET_DTYPE)
    keys = np.concatenate([us * base + vs, vs * base + us])
    gids = np.concatenate([ids, ids])
    flips = np.concatenate(
        [
            np.zeros(count, dtype=CSR_FLAG_DTYPE),
            np.ones(count, dtype=CSR_FLAG_DTYPE),
        ]
    )
    order = np.argsort(keys, kind="stable")
    keys, gids, flips = keys[order], gids[order], flips[order]
    keep = np.ones(keys.size, dtype=bool)
    keep[1:] = keys[1:] != keys[:-1]
    return EdgeLookup(
        base=base,
        keys=np.ascontiguousarray(keys[keep], dtype=CSR_NODE_DTYPE),
        gids=np.ascontiguousarray(gids[keep], dtype=CSR_OFFSET_DTYPE),
        flips=np.ascontiguousarray(flips[keep], dtype=CSR_FLAG_DTYPE),
    )


@dataclass(frozen=True)
class PathCSR:
    """The flat, shareable form of an embedding's routing answer.

    All the host paths an embedding carries, concatenated into the
    :func:`~repro.hypercube.pathcode.flatten_paths` layout and grouped into
    per-guest-edge *bundles* so a routing request is two offset lookups plus
    one gather — no dict-of-tuples walking, no per-path Python.  The arrays
    obey the pathcode dtype contract (``CSR_NODE_DTYPE`` /
    ``CSR_OFFSET_DTYPE`` / ``CSR_FLAG_DTYPE``), which is what the artifact
    store checks before mapping a file zero-copy.

    ``edges`` and ``lookup`` map between guest edges and bundles both
    ways: ``edges[g]`` is bundle ``g``'s canonical guest edge, and
    ``lookup`` resolves packed request endpoints to bundle ids.

    ``path_reversed[p]`` says path ``p`` is stored against its bundle's
    canonical orientation (it came from a :class:`MultiCopyEmbedding` copy
    that holds only the reverse edge); serving the reversed guest edge
    XORs one more flip on top, so both orientations resolve from the same
    stored bytes.
    """

    host_n: int
    edges: PackedEdges  # canonical guest edge of each bundle
    nodes: np.ndarray  # CSR_NODE_DTYPE, concatenated path nodes
    path_offsets: np.ndarray  # CSR_OFFSET_DTYPE, num_paths + 1
    bundle_offsets: np.ndarray  # CSR_OFFSET_DTYPE, num_bundles + 1
    path_reversed: np.ndarray = field(repr=False)  # CSR_FLAG_DTYPE
    lookup: EdgeLookup = field(repr=False)

    @property
    def num_paths(self) -> int:
        return int(self.path_offsets.size - 1)

    @property
    def num_bundles(self) -> int:
        return int(self.bundle_offsets.size - 1)

    def resolve(
        self, guest_edges: Sequence[Any]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Selected ``(path_ids, flips, request_offsets)`` for a request batch.

        Request endpoints pack the way the export packed the guest's
        vertices, and one ``searchsorted`` resolves the whole batch;
        everything after is offset arithmetic.  Raises ``KeyError`` with
        the same shape of message as per-call routing, naming the first
        request that is unknown in *both* orientations.
        """
        count = len(guest_edges)
        gids, flips = self._bundle_ids(guest_edges)
        starts = self.bundle_offsets[gids]
        widths = self.bundle_offsets[gids + 1] - starts
        request_offsets = np.zeros(count + 1, dtype=CSR_OFFSET_DTYPE)
        np.cumsum(widths, out=request_offsets[1:])
        total = int(request_offsets[-1])
        within = np.arange(total, dtype=np.int64) - np.repeat(
            request_offsets[:-1], widths
        )
        path_ids = np.repeat(starts, widths) + within
        flip = self.path_reversed[path_ids].astype(bool) ^ np.repeat(
            flips, widths
        ).astype(bool)
        return path_ids, flip, request_offsets

    def _raise_unknown(self, edge: Any) -> NoReturn:
        sample = self.edges[0] if len(self.edges) else None
        raise KeyError(
            f"guest edge {edge!r} not in embedding "
            f"(edges look like {sample!r})"
        )

    def _bundle_ids(
        self, guest_edges: Sequence[Any]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(gids, flips)`` of a request batch via the packed lookup."""
        ids = self._packed_endpoints(guest_edges)
        if ids is None:
            if len(guest_edges) == 1:
                self._raise_unknown(guest_edges[0])
            # not one numeric array: resolve request by request, so the
            # error names the first request that fails
            parts = [self._bundle_ids([edge]) for edge in guest_edges]
            return (
                np.concatenate([gids for gids, _ in parts]),
                np.concatenate([flips for _, flips in parts]),
            )
        gids, flips, known = self.lookup.resolve_packed(ids[:, 0], ids[:, 1])
        if not bool(known.all()):
            self._raise_unknown(guest_edges[int(np.argmin(known))])
        return gids, flips

    def _packed_endpoints(self, guest_edges: Sequence[Any]) -> Optional[np.ndarray]:
        """``(count, 2)`` packed endpoint ids; None unless one numeric batch.

        Endpoints match where the guest's own dict lookup would: ints,
        bools and integral floats.  A non-integral float packs to -1.
        """
        radix = self.edges.radix
        shape = (len(guest_edges), 2) + ((len(radix),) if radix else ())
        if not shape[0]:
            return np.zeros((0, 2), dtype=np.int64)
        try:
            batch = np.asarray(guest_edges)
        except (TypeError, ValueError, OverflowError):
            return None
        if batch.shape != shape or batch.dtype.kind not in "iubf":
            return None
        if batch.dtype.kind == "f":
            whole = (batch == np.trunc(batch)) & (np.abs(batch) < 2.0**62)
            batch = np.where(whole, batch, -1)
        ids = batch.astype(np.int64, copy=False)
        return _pack_vertices(ids, radix) if radix else ids

    def take(
        self, guest_edges: Sequence[Any]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Gathered ``(nodes, path_offsets, request_offsets)`` for a batch.

        Request ``i`` owns paths ``request_offsets[i]:request_offsets[i+1]``
        of the output layout, each already oriented source -> destination
        for the *requested* edge direction.
        """
        path_ids, flip, request_offsets = self.resolve(guest_edges)
        out_nodes, out_offsets = gather_paths(
            self.nodes, self.path_offsets, path_ids, reverse=flip
        )
        return out_nodes, out_offsets, request_offsets

    def nbytes(self) -> int:
        """Total payload bytes under the dtype contract (header excluded)."""
        return int(
            self.nodes.nbytes
            + self.path_offsets.nbytes
            + self.bundle_offsets.nbytes
            + self.path_reversed.nbytes
        )


@dataclass(frozen=True)
class PathLayout:
    """An embedding's paths flattened once, bundle by bundle.

    ``edges[g]`` is bundle ``g``'s guest edge as the embedding stores it,
    or, in an array builder's layout, the guest's :class:`PackedEdges`;
    the arrays are the :class:`PathCSR` fields of the same names.
    :func:`embedding_csr` packs ``edges`` and adds the lookup, and the
    verifiers read the arrays, so one flatten serves both.
    """

    edges: Union[List[Any], PackedEdges]
    nodes: np.ndarray  # CSR_NODE_DTYPE
    path_offsets: np.ndarray  # CSR_OFFSET_DTYPE, num_paths + 1
    bundle_offsets: np.ndarray  # CSR_OFFSET_DTYPE, num_bundles + 1
    path_reversed: np.ndarray  # CSR_FLAG_DTYPE


def _leaf_edge_paths(emb: Any, out: List[Dict[Any, Sequence[Sequence[int]]]]) -> None:
    """Flatten an embedding into per-copy ``{edge: (path, ...)}`` dicts.

    Multi-copy embeddings contribute one dict per (recursively flattened)
    copy, in copy order — the same order per-call routing walks them.
    """
    if isinstance(emb, MultiCopyEmbedding):
        for copy in emb.copies:
            _leaf_edge_paths(copy, out)
        return
    if isinstance(emb, MultiPathEmbedding):
        out.append(emb.edge_paths)
        return
    out.append({edge: (path,) for edge, path in emb.edge_paths.items()})


def _merged_bundles(
    emb: MultiCopyEmbedding,
) -> Tuple[List[Any], List[Sequence[int]], List[bool], np.ndarray]:
    """A multi-copy's bundles: ``(edges, paths, reversed flags, sizes)``.

    Orientations merge into one bundle (with per-path reverse flags)
    exactly when no single copy stores both directions as distinct guest
    edges; a copy that *does* store both keeps them as separate bundles,
    because flipping one cannot reproduce the other.
    """
    leaves: List[Dict[Any, Sequence[Sequence[int]]]] = []
    _leaf_edge_paths(emb, leaves)
    # edges whose pair appears in both orientations inside one leaf must
    # stay distinct bundles in both orientations
    split: Set[Any] = set()
    for leaf in leaves:
        for edge in leaf:
            if _rev(edge) in leaf and _rev(edge) != edge:
                split.add(edge)
    canonical: List[Any] = []
    seen: Set[Any] = set()
    for leaf in leaves:
        for edge in leaf:
            if edge in seen:
                continue
            if _rev(edge) in seen and edge not in split and _rev(edge) not in split:
                continue  # merged into the first-seen orientation
            seen.add(edge)
            canonical.append(edge)

    paths: List[Sequence[int]] = []
    flags: List[bool] = []
    bundle_sizes: List[int] = []
    for edge in canonical:
        reverse = _rev(edge)
        size = 0
        for leaf in leaves:
            bundle = leaf.get(edge)
            if bundle is not None:
                paths.extend(bundle)
                flags.extend(False for _ in bundle)
                size += len(bundle)
                continue
            bundle = leaf.get(reverse)
            if bundle is not None:
                paths.extend(bundle)
                flags.extend(True for _ in bundle)
                size += len(bundle)
        bundle_sizes.append(size)
    return canonical, paths, flags, np.asarray(bundle_sizes, dtype=np.int64)


def flatten_embedding(emb: Any) -> PathLayout:
    """Every path ``emb`` carries, flattened once into a :class:`PathLayout`.

    Bundle order and per-bundle path order match what
    :func:`repro.service.api.disjoint_paths` returns per call.  An
    embedding that is not a :class:`MultiCopyEmbedding` is a single leaf:
    its bundles are ``edge_paths`` in dict order, all stored forward, and
    its paths flatten straight from the dict with no per-path copy.  A
    multi-copy embedding merges its copies' orientations first
    (:func:`_merged_bundles`).  An unread array-built embedding returns
    the layout it carries.  Host nodes must be integers; guest vertices
    may be anything hashable.
    """
    arrays = emb.carried if isinstance(emb, (Embedding, MultiPathEmbedding)) else None
    if arrays is not None:
        return arrays.layout
    if isinstance(emb, MultiCopyEmbedding):
        edges, paths, flags, sizes = _merged_bundles(emb)
        path_reversed = np.asarray(flags, dtype=CSR_FLAG_DTYPE)
    else:
        edges = list(emb.edge_paths)
        if isinstance(emb, MultiPathEmbedding):
            bundles = emb.edge_paths.values()
            paths = list(chain.from_iterable(bundles))
            sizes = np.fromiter(map(len, bundles), dtype=np.int64, count=len(edges))
        else:
            paths = list(emb.edge_paths.values())
            sizes = np.ones(len(edges), dtype=np.int64)
        path_reversed = np.zeros(len(paths), dtype=CSR_FLAG_DTYPE)
    nodes, path_offsets = flatten_paths(paths)
    bundle_offsets = np.zeros(len(edges) + 1, dtype=CSR_OFFSET_DTYPE)
    np.cumsum(sizes, out=bundle_offsets[1:])
    return PathLayout(
        edges,
        nodes.astype(CSR_NODE_DTYPE, copy=False),
        path_offsets.astype(CSR_OFFSET_DTYPE, copy=False),
        bundle_offsets,
        path_reversed,
    )


def embedding_csr(emb: Any) -> PathCSR:
    """Export an embedding's full routing answer as a :class:`PathCSR`.

    The paths are one :func:`flatten_embedding`, so batch results are
    field-identical to per-call results.  Guest vertices pack to integer
    ids (:func:`_pack_edges`), which raises ``ValueError`` for a guest
    whose vertices do not.
    """
    layout = flatten_embedding(emb)
    edges = _pack_edges(layout.edges)
    return PathCSR(
        host_n=emb.host.n,
        edges=edges,
        nodes=layout.nodes,
        path_offsets=layout.path_offsets,
        bundle_offsets=layout.bundle_offsets,
        path_reversed=layout.path_reversed,
        lookup=build_edge_lookup(edges.uv),
    )

"""Embedding data model, metrics, and verification (paper Section 3).

Three embedding styles, matching the paper's definitions:

* :class:`Embedding` — a (possibly many-to-one) vertex map plus one host
  path per guest edge.  Metrics: load, dilation, congestion, expansion.
* :class:`MultiPathEmbedding` — a one-to-one vertex map plus ``w``
  *edge-disjoint* host paths per guest edge (a *width-w* embedding).  The
  congestion of a host edge counts the guest edges one of whose image paths
  uses it.
* :class:`MultiCopyEmbedding` — ``k`` independent one-to-one embeddings of
  the same guest.  The *edge-congestion* sums congestion over all copies.

All verification is against the *directed* hypercube host: a host path is a
sequence of directed host edges, and "edge-disjoint" means no two paths of
the same guest edge share a directed host edge.

A builder that computes its paths as arrays returns an :class:`Embedding`
or :class:`MultiPathEmbedding` carrying them (``from_arrays``): export,
verification, the metric properties and ``repr`` read the arrays, and the
dict fields (``vertex_map``, ``edge_paths`` and a multipath's ``step_of``)
are built from them on first read.
"""

from __future__ import annotations

import math
import threading
from collections import Counter
from dataclasses import MISSING, dataclass, field, fields
from typing import TYPE_CHECKING, Any, Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.verification import InvariantCheck, VerificationReport
from repro.hypercube.graph import Hypercube
from repro.networks.base import GuestGraph

if TYPE_CHECKING:
    from repro.core.fast_verify import PathCSR, PathLayout

__all__ = ["Embedding", "MultiPathEmbedding", "MultiCopyEmbedding", "PathArrays"]

Vertex = Hashable
Edge = Tuple[Vertex, Vertex]
HostPath = Tuple[int, ...]


def _path_edge_ids(host: Hypercube, path: Sequence[int]) -> List[int]:
    """Directed host edge ids along a path (raises on non-edges)."""
    return [host.edge_id(a, b) for a, b in zip(path, path[1:])]


class _ArrayBacked:
    """The array-built form :class:`Embedding` and
    :class:`MultiPathEmbedding` share.

    An embedding made by :meth:`from_arrays` carries a :class:`PathArrays`
    in place of its dict fields.  The first read of any dict field builds
    them all, once, under a per-object lock; from then on the embedding
    is dict-backed like any other.  Either form pickles.
    """

    _BUNDLED: bool  # whether edge_paths maps an edge to a bundle of paths

    @classmethod
    def from_arrays(
        cls, host: Hypercube, guest: GuestGraph, arrays: PathArrays, **attrs: Any
    ) -> Any:
        """An embedding of ``guest`` in ``host`` that carries ``arrays``.

        ``attrs`` sets the other fields (``name``, and a multipath
        embedding's ``load_allowed``), which otherwise take their
        defaults.  An :class:`Embedding` carries one path per guest edge.
        """
        values = {
            f.name: f.default
            for f in fields(cls)
            if f.default is not MISSING
            and not isinstance(getattr(cls, f.name), _BuiltOnRead)
        }
        unknown = set(attrs) - set(values)
        if unknown:
            raise TypeError(f"{cls.__name__} has no field(s) {sorted(unknown)}")
        if not cls._BUNDLED and not np.all(np.diff(arrays.layout.bundle_offsets) == 1):
            raise ValueError(f"{cls.__name__} carries one path per guest edge")
        values.update(attrs, host=host, guest=guest)
        emb = cls.__new__(cls)
        emb.__dict__.update(values, _carried=arrays, _lock=threading.Lock())
        return emb

    @property
    def carried(self) -> Optional[PathArrays]:
        """The arrays of an array-built embedding whose dicts are unread."""
        return self.__dict__.get("_carried")

    def _materialize(self) -> None:
        with self._lock:
            arrays = self.__dict__.get("_carried")
            if arrays is None:
                return
            self.__dict__.update(arrays.dicts(self.guest, bundled=self._BUNDLED))
            del self.__dict__["_carried"]

    def __getstate__(self) -> Dict[str, Any]:
        state = dict(self.__dict__)
        state.pop("_lock", None)
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        if "_carried" in state:
            self._lock = threading.Lock()


@dataclass
class Embedding(_ArrayBacked):
    """A classical embedding: vertex map + one host path per guest edge."""

    host: Hypercube
    guest: GuestGraph
    vertex_map: Dict[Vertex, int]
    edge_paths: Dict[Edge, HostPath]
    name: str = ""

    _BUNDLED = False

    # -- metrics (paper Section 3) ------------------------------------------

    @property
    def load(self) -> int:
        """Maximum number of guest vertices per host node."""
        arrays = self.carried
        if arrays is not None:
            return arrays.load()
        return max(Counter(self.vertex_map.values()).values())

    @property
    def dilation(self) -> int:
        """Maximum path length over all guest edges."""
        arrays = self.carried
        if arrays is not None:
            return arrays.dilation()
        return max((len(p) - 1 for p in self.edge_paths.values()), default=0)

    @property
    def congestion(self) -> int:
        """Maximum number of guest edges routed through one directed host edge."""
        arrays = self.carried
        if arrays is not None:
            return arrays.congestion(self.host, per_bundle=False)
        counts = self.edge_congestion_counts()
        return max(counts.values()) if counts else 0

    @property
    def expansion(self) -> float:
        """|host| / size of the smallest hypercube holding the guest."""
        min_dim = max(0, math.ceil(math.log2(max(1, self.guest.num_vertices))))
        return self.host.num_nodes / (1 << min_dim)

    def edge_congestion_counts(self) -> Counter:
        """Congestion of every used directed host edge, by edge id."""
        counts: Counter = Counter()
        for path in self.edge_paths.values():
            counts.update(_path_edge_ids(self.host, path))
        return counts

    # -- verification ----------------------------------------------------------

    def verify(
        self,
        max_load: Optional[int] = None,
        strict: bool = True,
        csr: Optional["PathCSR"] = None,
    ) -> VerificationReport:
        """Verify the embedding; returns a :class:`VerificationReport`.

        Invariants, in dependency order: every guest vertex is mapped into
        the host ("vertex-map"), no host node carries more than ``max_load``
        guest vertices ("load"), every guest edge has a path with the right
        endpoints ("edge-paths"), and every hop is a directed hypercube edge
        ("hops-are-edges").  Verification stops at the first failure.

        With ``strict=True`` (the default, the historical behavior) a failed
        report raises ``AssertionError`` with the failing invariant's
        detail; ``strict=False`` always returns the report.  A passing
        report carries the measured load/dilation/congestion/expansion under
        ``.metrics``.

        The hop checks and congestion counts run on the vectorized kernels
        of :mod:`repro.core.fast_verify`; :meth:`verify_reference` runs the
        scalar dict-walking implementation the QA differential referees the
        kernels against.  ``csr``, the embedding's own
        :func:`~repro.core.fast_verify.embedding_csr`, lends the kernels
        its arrays instead of a fresh flatten; the report is the same.
        """
        from repro.core.fast_verify import verify_embedding

        return verify_embedding(self, max_load=max_load, strict=strict, csr=csr)

    def verify_reference(
        self, max_load: Optional[int] = None, strict: bool = True
    ) -> VerificationReport:
        """Scalar reference verification (the QA differential referee)."""
        from repro.core.fast_verify import reference_verify_embedding

        return reference_verify_embedding(self, max_load=max_load, strict=strict)

    def __repr__(self) -> str:
        tag = f" {self.name!r}" if self.name else ""
        return (
            f"<Embedding{tag} {self.guest!r} -> Q_{self.host.n}: "
            f"load={self.load} dilation={self.dilation} congestion={self.congestion}>"
        )


@dataclass(frozen=True)
class PathArrays:
    """An embedding as flat arrays, in place of its dicts.

    Guest vertex ``g`` is the ``g``-th of ``guest.vertices()``, the id the
    guest's ``packed_edges()`` uses, and ``images[g]`` is its host node.
    ``layout`` holds the paths bundle by bundle in ``guest.edges()``
    order, its ``edges`` the guest's packed edges; an :class:`Embedding`'s
    bundles hold one path each.  A multipath embedding's path ``p`` runs
    at the steps ``step_patterns[path_pattern[p]]``, each plus
    ``step_base[p]`` when ``step_base`` is given; without
    ``step_patterns`` there is no step schedule.
    """

    images: np.ndarray
    layout: "PathLayout"
    step_patterns: Optional[Tuple[Tuple[int, ...], ...]] = None
    path_pattern: Optional[np.ndarray] = None
    step_base: Optional[np.ndarray] = None

    def dicts(self, guest: GuestGraph, bundled: bool = True) -> Dict[str, Any]:
        """The dict fields, in a dict builder's order.

        ``vertex_map`` and ``edge_paths``, which maps each guest edge to
        its bundle of paths, plus ``step_of`` (``None`` without steps).
        ``bundled=False`` gives an :class:`Embedding`'s two: each guest
        edge maps to its one path.
        """
        verts = list(guest.vertices())
        vertex_map = dict(zip(verts, self.images.tolist()))
        keys = [(verts[u], verts[v]) for u, v in self.layout.edges.uv.tolist()]
        flat = self.layout.nodes.tolist()
        offsets = self.layout.path_offsets.tolist()
        paths = [tuple(flat[lo:hi]) for lo, hi in zip(offsets, offsets[1:])]
        del flat
        if not bundled:
            return {"vertex_map": vertex_map, "edge_paths": dict(zip(keys, paths))}
        bounds = self.layout.bundle_offsets.tolist()
        spans = list(zip(bounds, bounds[1:]))
        edge_paths = dict(zip(keys, (tuple(paths[lo:hi]) for lo, hi in spans)))
        step_of = None
        if self.step_patterns is not None:
            patterns = self.step_patterns
            if self.step_base is None:
                steps = [patterns[i] for i in self.path_pattern.tolist()]
            else:
                steps = [
                    tuple(s + base for s in patterns[i]) if base else patterns[i]
                    for i, base in zip(self.path_pattern.tolist(), self.step_base.tolist())
                ]
            step_of = dict(zip(keys, (tuple(steps[lo:hi]) for lo, hi in spans)))
        return {"vertex_map": vertex_map, "edge_paths": edge_paths, "step_of": step_of}

    # -- the metric properties, read from the arrays ------------------------------

    def load(self) -> int:
        """Most guest vertices on one host node (0 without vertices)."""
        counts = np.unique(self.images, return_counts=True)[1]
        return int(counts.max()) if counts.size else 0

    def width(self) -> int:
        """Fewest paths in one bundle (0 without bundles)."""
        sizes = np.diff(self.layout.bundle_offsets)
        return int(sizes.min()) if sizes.size else 0

    def dilation(self) -> int:
        """Most hops on one path (0 without paths)."""
        lengths = np.diff(self.layout.path_offsets)
        return int(lengths.max()) - 1 if lengths.size else 0

    def congestion(self, host: Hypercube, per_bundle: bool) -> int:
        """Most paths (``per_bundle``: bundles) using one directed host edge."""
        from repro.core.fast_verify import layout_congestion

        return layout_congestion(host, self.layout, per_bundle)


_UNSET = object()


class _BuiltOnRead:
    """A dict field that an array-built embedding builds from its
    :class:`PathArrays` on first read."""

    def __init__(self, name: str) -> None:
        self.name = name

    def __get__(self, emb: Any, owner: Any = None) -> Any:
        if emb is None:
            return self
        value = emb.__dict__.get(self.name, _UNSET)
        if value is _UNSET:
            emb._materialize()
            value = emb.__dict__[self.name]
        return value

    def __set__(self, emb: Any, value: Any) -> None:
        if "_carried" in emb.__dict__:
            emb._materialize()
        emb.__dict__[self.name] = value


@dataclass
class MultiPathEmbedding(_ArrayBacked):
    """A width-w embedding: w edge-disjoint host paths per guest edge.

    ``step_of`` optionally assigns a *time step* to every hop: the schedule
    claims that hop ``j`` of the path for a guest edge is performed at step
    ``step_of[edge][path_index][j]``.  The paper's cost claims (e.g. cost 3
    in Theorem 1) are verified against this schedule by
    :func:`repro.routing.schedule.verify_step_schedule`.
    """

    host: Hypercube
    guest: GuestGraph
    vertex_map: Dict[Vertex, int]
    edge_paths: Dict[Edge, Tuple[HostPath, ...]]
    name: str = ""
    load_allowed: int = 1
    step_of: Optional[Dict[Edge, Tuple[Tuple[int, ...], ...]]] = field(
        default=None, repr=False
    )

    _BUNDLED = True

    # -- metrics ---------------------------------------------------------------

    @property
    def width(self) -> int:
        """Minimum number of edge-disjoint paths over all guest edges."""
        arrays = self.carried
        if arrays is not None:
            return arrays.width()
        return min((len(ps) for ps in self.edge_paths.values()), default=0)

    @property
    def load(self) -> int:
        arrays = self.carried
        if arrays is not None:
            return arrays.load()
        return max(Counter(self.vertex_map.values()).values())

    @property
    def dilation(self) -> int:
        arrays = self.carried
        if arrays is not None:
            return arrays.dilation()
        return max(
            (len(p) - 1 for ps in self.edge_paths.values() for p in ps), default=0
        )

    @property
    def congestion(self) -> int:
        """Max over host edges of the number of guest edges using it."""
        arrays = self.carried
        if arrays is not None:
            return arrays.congestion(self.host, per_bundle=True)
        counts = self.edge_congestion_counts()
        return max(counts.values()) if counts else 0

    @property
    def expansion(self) -> float:
        min_dim = max(0, math.ceil(math.log2(max(1, self.guest.num_vertices))))
        return self.host.num_nodes / (1 << min_dim)

    def edge_congestion_counts(self) -> Counter:
        """For each host edge id: number of *guest edges* whose image uses it."""
        counts: Counter = Counter()
        for paths in self.edge_paths.values():
            used = set()
            for p in paths:
                used.update(_path_edge_ids(self.host, p))
            counts.update(used)
        return counts

    # -- verification -------------------------------------------------------------

    def verify(
        self, strict: bool = True, csr: Optional["PathCSR"] = None
    ) -> VerificationReport:
        """Verify the width-w embedding; returns a :class:`VerificationReport`.

        The path-shaped work is fully vectorized (numpy) — profiling showed
        per-hop Python calls dominating large constructions; the batched
        kernels in :mod:`repro.core.fast_verify` check the same invariants
        the scalar code did: every guest vertex is mapped within the allowed
        load ("vertex-map", "load"), every guest edge has paths with the
        right endpoints ("edge-paths"), every hop is a hypercube edge
        ("hops-are-edges"), and no guest edge's path bundle reuses a
        directed host edge within or across its paths ("edge-disjoint").
        The passing report's ``.metrics`` (width, dilation, congestion, ...)
        reuse the verification arrays — the congestion count comes from the
        same edge-id vector the disjointness check sorted, not a second
        traversal.  :meth:`verify_reference` runs the scalar dict-based
        implementation the QA differential referees the kernels against.
        ``csr``, the embedding's own
        :func:`~repro.core.fast_verify.embedding_csr`, lends the kernels its
        arrays instead of a fresh flatten; the report is the same.

        ``strict=True`` (default) raises ``AssertionError`` at the first
        failed invariant, preserving the historical contract.
        """
        from repro.core.fast_verify import verify_multipath

        return verify_multipath(self, strict=strict, csr=csr)

    def verify_reference(self, strict: bool = True) -> VerificationReport:
        """Scalar reference verification (the QA differential referee)."""
        from repro.core.fast_verify import reference_verify_multipath

        return reference_verify_multipath(self, strict=strict)

    def __repr__(self) -> str:
        tag = f" {self.name!r}" if self.name else ""
        return (
            f"<MultiPathEmbedding{tag} {self.guest!r} -> Q_{self.host.n}: "
            f"width={self.width} load={self.load} dilation={self.dilation}>"
        )


for _cls, _names in (
    (Embedding, ("vertex_map", "edge_paths")),
    (MultiPathEmbedding, ("vertex_map", "edge_paths", "step_of")),
):
    for _name in _names:
        setattr(_cls, _name, _BuiltOnRead(_name))


@dataclass
class MultiCopyEmbedding:
    """k independent embeddings of the same guest graph.

    The paper's definition has one-to-one copies (``copy_load_allowed = 1``);
    derived constructions (e.g. Section 8.1's tree copies riding the
    CBT-to-butterfly substitute) may carry a small constant per-copy load.
    """

    host: Hypercube
    guest: GuestGraph
    copies: List[Embedding]
    name: str = ""
    copy_load_allowed: int = 1

    @property
    def k(self) -> int:
        return len(self.copies)

    @property
    def dilation(self) -> int:
        return max((c.dilation for c in self.copies), default=0)

    @property
    def edge_congestion(self) -> int:
        """Max over host edges of summed congestion across all copies."""
        counts: Counter = Counter()
        for copy in self.copies:
            counts.update(copy.edge_congestion_counts())
        return max(counts.values()) if counts else 0

    @property
    def node_load(self) -> int:
        """Max guest vertices (over all copies) mapped to one host node."""
        counts: Counter = Counter()
        for copy in self.copies:
            counts.update(copy.vertex_map.values())
        return max(counts.values()) if counts else 0

    def verify(
        self, strict: bool = True, csr: Optional["PathCSR"] = None
    ) -> VerificationReport:
        """Verify every copy; returns a :class:`VerificationReport`.

        Each copy must be a valid embedding within the per-copy load; its
        invariants appear in the report prefixed ``copy{i}:``.  Verification
        stops at the first failing copy.  ``strict=True`` (default) raises
        ``AssertionError`` with the historical ``copy {i}: ...`` message.
        A passing report's dilation and edge-congestion come from the hop
        arrays the copies' vectorized checks built.  ``csr`` is accepted
        for a uniform signature and ignored: the merged export can hold
        one copy's path twice, so each copy verifies its own paths.
        """
        return self._verify_copies(strict, reference=False)

    def verify_reference(self, strict: bool = True) -> VerificationReport:
        """Scalar reference verification of every copy (the QA referee)."""
        return self._verify_copies(strict, reference=True)

    def _verify_copies(self, strict: bool, reference: bool) -> VerificationReport:
        from repro.core.fast_verify import _verify_embedding

        checks: List[InvariantCheck] = []
        subs: List[VerificationReport] = []
        hop_ids: List[np.ndarray] = []
        for i, copy in enumerate(self.copies):
            if reference:
                sub = copy.verify_reference(max_load=self.copy_load_allowed, strict=False)
            else:
                sub, eids = _verify_embedding(copy, self.copy_load_allowed, False, None)
                if eids is not None:
                    hop_ids.append(eids)
            subs.append(sub)
            checks.extend(
                InvariantCheck(
                    f"copy{i}:{c.name}",
                    c.passed,
                    f"copy {i}: {c.detail}" if not c.passed else c.detail,
                )
                for c in sub.checks
            )
            if not sub.ok:
                report = VerificationReport(
                    self.name or "multicopy-embedding", tuple(checks)
                )
                return report.raise_if_failed() if strict else report
        if reference:
            dilation, edge_congestion = self.dilation, self.edge_congestion
        else:
            # a copy's congestion counts each of its hops once and the
            # edge-congestion sums the copies: one bincount over them all
            dilation = max((sub.metrics["dilation"] for sub in subs), default=0)
            eids = np.concatenate(hop_ids) if hop_ids else np.zeros(0, np.int64)
            edge_congestion = int(np.bincount(eids).max()) if eids.size else 0
        return VerificationReport(
            self.name or "multicopy-embedding",
            tuple(checks),
            metrics={
                "k": self.k,
                "dilation": dilation,
                "edge_congestion": edge_congestion,
                "node_load": self.node_load,
                "copy_load_allowed": self.copy_load_allowed,
            },
        )

    def __repr__(self) -> str:
        tag = f" {self.name!r}" if self.name else ""
        return (
            f"<MultiCopyEmbedding{tag} {self.k} x {self.guest!r} -> "
            f"Q_{self.host.n}: edge_congestion={self.edge_congestion}>"
        )

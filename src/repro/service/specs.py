"""Embedding request specifications — the service layer's vocabulary.

An :class:`EmbeddingSpec` names a paper construction plus its parameters
(`(guest kind, params)`); together with the construction version it yields
a deterministic, content-addressed cache key.  The spec is the unit every
service component speaks: the registry keys artifacts by it, the engine
fans batches of them out to worker processes, and the CLI parses its
arguments into one.

Keys are stable across processes and machines: they hash the canonical
JSON of ``(kind, sorted params, construction version)`` — nothing
time-, path- or interpreter-dependent.

Since the batch API redesign this module also carries the routing
vocabulary: :class:`RouteRequest` (one guest edge plus optional delivery
parameters), :class:`RouteResponse` (the resolved disjoint paths), and
:class:`BatchRouteResult` — the CSR-shaped answer of
:meth:`~repro.service.api.RoutingService.route_batch`, which stays in
flat arrays until a caller materializes individual responses.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "BatchRouteResult",
    "EmbeddingSpec",
    "RouteRequest",
    "RouteResponse",
    "build_spec",
    "CONSTRUCTION_VERSION",
    "KINDS",
]

# Bump when any construction changes its output for the same parameters;
# old cache entries then miss (different key) instead of serving stale
# geometry.
CONSTRUCTION_VERSION = 1

# Guest families the service can build, mirroring ``repro embed``.
KINDS = ("cycle", "cycle2", "grid", "ccc", "tree", "large-cycle")


def _canonical(value: Any) -> Any:
    """JSON-stable form: tuples become lists, dicts sort by key."""
    if isinstance(value, tuple):
        return [_canonical(v) for v in value]
    if isinstance(value, dict):
        return {k: _canonical(value[k]) for k in sorted(value)}
    return value


@dataclass(frozen=True)
class EmbeddingSpec:
    """An immutable, hashable request for one embedding.

    ``params`` is a sorted tuple of ``(name, value)`` pairs so specs are
    usable as dict keys and pickle cheaply to worker processes.
    """

    kind: str
    params: Tuple[Tuple[str, Any], ...] = field(default=())

    @classmethod
    def make(cls, kind: str, **params: Any) -> "EmbeddingSpec":
        if kind not in KINDS:
            raise ValueError(f"unknown guest kind {kind!r}; expected one of {KINDS}")
        return cls(kind, tuple(sorted(params.items())))

    def param_dict(self) -> Dict[str, Any]:
        return dict(self.params)

    def cache_key(self) -> str:
        """Deterministic content address of this request (memoized)."""
        return self._cache_key

    @cached_property  # per instance: params may be unhashable lists or dicts
    def _cache_key(self) -> str:
        doc = {
            "kind": self.kind,
            "params": _canonical(self.param_dict()),
            "construction_version": CONSTRUCTION_VERSION,
        }
        text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()

    def __getstate__(self) -> Dict[str, Any]:
        # the memo is derived state: pickle the fields only
        state = dict(self.__dict__)
        state.pop("_cache_key", None)
        return state

    def describe(self) -> str:
        args = ", ".join(f"{k}={v}" for k, v in self.params)
        return f"{self.kind}({args})"


def build_spec(spec: EmbeddingSpec):
    """Construct the embedding a spec names (unverified — callers verify).

    Dispatches to the paper constructions; raises ``ValueError`` on an
    unknown kind and propagates each construction's own parameter errors.
    None of these builders verifies its output.  The registry's admit
    exports the result's CSR (:func:`~repro.core.fast_verify.embedding_csr`)
    and then verifies the embedding against that CSR's arrays, so the
    paths are flattened once.
    """
    from repro.obs.profile import profile_span

    with profile_span(f"build.{spec.kind}"):
        return _build_spec(spec)


def _build_spec(spec: EmbeddingSpec):
    p = spec.param_dict()
    if spec.kind == "cycle":
        from repro.core import embed_cycle_load1

        return embed_cycle_load1(p["n"])
    if spec.kind == "cycle2":
        from repro.core import embed_cycle_load2

        return embed_cycle_load2(p["n"], prefer_width=p.get("wide", False))
    if spec.kind == "grid":
        from repro.core import embed_grid_multipath

        return embed_grid_multipath(tuple(p["dims"]), torus=p.get("torus", False))
    if spec.kind == "ccc":
        from repro.core import ccc_multicopy_embedding

        return ccc_multicopy_embedding(p["n"])
    if spec.kind == "tree":
        from repro.core import theorem5_embedding

        return theorem5_embedding(p["m"])
    if spec.kind == "large-cycle":
        from repro.core import large_cycle_embedding

        return large_cycle_embedding(p["n"])
    raise ValueError(f"unknown guest kind {spec.kind!r}")


# -- routing vocabulary -------------------------------------------------------


@dataclass
class RouteRequest:
    """One routing question: a guest edge plus optional delivery knobs.

    ``message``/``faults``/``pieces_needed`` only matter to
    :meth:`~repro.service.api.RoutingService.route_fault_tolerant`; plain
    routing ignores them.  ``faults`` is a
    :class:`repro.fault.faults.FaultModel` (kept untyped here so the spec
    vocabulary stays import-light for worker processes).
    """

    guest_edge: Tuple[Any, Any]
    message: Optional[bytes] = None
    faults: Optional[Any] = None
    pieces_needed: Optional[int] = None


@dataclass
class RouteResponse:
    """The answer for one request: its ``w`` edge-disjoint host paths."""

    guest_edge: Tuple[Any, Any]
    paths: Tuple[Tuple[int, ...], ...]

    @property
    def width(self) -> int:
        return len(self.paths)


class BatchRouteResult:
    """A resolved batch, kept in flat CSR arrays until materialized.

    ``route_batch`` answers thousands of requests as three arrays — the
    concatenated path nodes, per-path offsets, and per-request offsets —
    so the hot path never builds Python tuples.  Materialization is lazy:
    ``result[i]`` (or :meth:`paths`) converts one request's slice into the
    same ``tuple(tuple(int, ...), ...)`` shape per-call routing returns,
    field-identical by construction.
    """

    def __init__(
        self,
        requests: Sequence[RouteRequest],
        nodes: Any,
        path_offsets: Any,
        request_offsets: Any,
    ) -> None:
        self.requests = list(requests)
        self.nodes = nodes
        self.path_offsets = path_offsets
        self.request_offsets = request_offsets

    def __len__(self) -> int:
        return len(self.requests)

    @property
    def total_paths(self) -> int:
        return int(self.path_offsets.shape[0] - 1)

    def width(self, i: int) -> int:
        """Number of disjoint paths serving request ``i``."""
        return int(self.request_offsets[i + 1] - self.request_offsets[i])

    def paths(self, i: int) -> Tuple[Tuple[int, ...], ...]:
        """Request ``i``'s paths as plain tuples (the per-call shape)."""
        lo, hi = int(self.request_offsets[i]), int(self.request_offsets[i + 1])
        offsets = self.path_offsets
        nodes = self.nodes
        return tuple(
            tuple(nodes[int(offsets[j]) : int(offsets[j + 1])].tolist())
            for j in range(lo, hi)
        )

    def __getitem__(self, i: int) -> RouteResponse:
        if not -len(self.requests) <= i < len(self.requests):
            raise IndexError(f"request index {i} out of range")
        if i < 0:
            i += len(self.requests)
        return RouteResponse(self.requests[i].guest_edge, self.paths(i))

    def __iter__(self) -> Iterator[RouteResponse]:
        for i in range(len(self.requests)):
            yield self[i]

    def responses(self) -> List[RouteResponse]:
        """Materialize every response (the slow, convenient view)."""
        return list(self)

"""repro.service — cached embedding registry + batch routing engine.

The serving layer over :mod:`repro.core` / :mod:`repro.routing` /
:mod:`repro.fault`: constructions are deterministic and dominate runtime,
so the service memoizes them (memory LRU over a checksummed disk tier),
builds cache misses concurrently in worker processes, serves each
embedding's flat CSR path arrays from its memmapped store file (the
*shard*), and answers routing requests — batched, plain and
fault-tolerant — by numpy gathers against those shards.

Quickstart::

    from repro.service import EmbeddingSpec, RouteRequest, RoutingService

    svc = RoutingService()
    spec = EmbeddingSpec.make("cycle", n=8)
    emb = svc.get_embedding(spec)            # built once, cached forever
    batch = svc.route_batch(spec, [(0, 1), (2, 1)])   # vectorized resolve
    print(batch[0].paths)                    # w edge-disjoint host paths
    one = svc.route(spec, RouteRequest((0, 1)))       # single-item wrapper
    out = svc.route_fault_tolerant(spec, RouteRequest((0, 1), b"payload"))
    print(svc.stats())

Modules:

* :mod:`repro.service.specs`    — request/response vocabulary + cache keys;
* :mod:`repro.service.registry` — content-addressed embedding cache, the
  one way an artifact is admitted (``get_or_build``);
* :mod:`repro.service.store`    — binary memmapped artifact files and the
  :class:`StoreView` every shard is;
* :mod:`repro.service.engine`   — batch construction in worker processes
  that write their own store files;
* :mod:`repro.service.shards`   — the manager of published store views;
* :mod:`repro.service.frontend` — batching ``serve()`` loop + load harness;
* :mod:`repro.service.api`      — the :class:`RoutingService` facade.

Metrics live on the registry's :class:`repro.obs.MetricsRegistry`, which
the engine and the facade share.
"""

from repro.service.api import DeliveryOutcome, RoutingService, disjoint_paths
from repro.service.engine import BuildEngine
from repro.service.frontend import BatchingFrontend, LoadReport, open_loop_load, serve
from repro.service.registry import (
    EmbeddingRegistry,
    decode_embedding,
    default_cache_dir,
    encode_embedding,
)
from repro.service.shards import ShardManager
from repro.service.store import (
    StoreIntegrityError,
    StoreView,
    open_store,
    write_store,
)
from repro.service.specs import (
    CONSTRUCTION_VERSION,
    BatchRouteResult,
    EmbeddingSpec,
    RouteRequest,
    RouteResponse,
    build_spec,
)

__all__ = [
    "BatchRouteResult",
    "BatchingFrontend",
    "BuildEngine",
    "CONSTRUCTION_VERSION",
    "DeliveryOutcome",
    "EmbeddingRegistry",
    "EmbeddingSpec",
    "LoadReport",
    "RouteRequest",
    "RouteResponse",
    "RoutingService",
    "ShardManager",
    "StoreIntegrityError",
    "StoreView",
    "build_spec",
    "decode_embedding",
    "default_cache_dir",
    "disjoint_paths",
    "encode_embedding",
    "open_loop_load",
    "open_store",
    "serve",
    "write_store",
]


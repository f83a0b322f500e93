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
* :mod:`repro.service.registry` — content-addressed embedding cache;
* :mod:`repro.service.store`    — binary memmapped artifact files;
* :mod:`repro.service.engine`   — concurrent batch construction;
* :mod:`repro.service.shards`   — store-file CSR shards + manager;
* :mod:`repro.service.frontend` — batching ``serve()`` loop + load harness;
* :mod:`repro.service.api`      — the :class:`RoutingService` facade.

Metrics live on one :class:`repro.obs.MetricsRegistry`, which the whole
layer threads through registry, engine and facade.
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
from repro.service.shards import ShardManager, ShardView, attach_shard
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
    "ShardView",
    "StoreIntegrityError",
    "StoreView",
    "attach_shard",
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


"""repro.service — cached embedding registry + batch routing engine.

The serving layer over :mod:`repro.core` / :mod:`repro.routing` /
:mod:`repro.fault`: constructions are deterministic and dominate runtime,
so the service memoizes them (memory LRU over a checksummed disk tier
whose store files hold each embedding's flat CSR path arrays, and
nothing else of it), builds cache misses concurrently in worker
processes, serves each embedding's CSR from its memmapped store file
(the *shard*), and answers routing requests — batched, plain and
fault-tolerant — by numpy gathers against those shards.  An embedding
object is held in memory only; a process that needs one and finds just
the store rebuilds it from the spec and checks it against the store's
digest.

Quickstart::

    from repro.service import EmbeddingSpec, RouteRequest, RoutingService

    svc = RoutingService()
    spec = EmbeddingSpec.make("cycle", n=8)
    emb = svc.get_embedding(spec)            # built + verified + stored once
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
  that write their own store files, returned as mapped views;
* :mod:`repro.service.shards`   — the manager of published store views;
* :mod:`repro.service.frontend` — batching ``serve()`` loop + load harness;
* :mod:`repro.service.api`      — the :class:`RoutingService` facade.

Metrics live on the registry's :class:`repro.obs.MetricsRegistry`, which
the engine and the facade share.

Each module loads on first use of one of its names (PEP 562), so the CLI,
which reads :data:`repro.service.specs.KINDS`, loads no other one.
"""

from importlib import import_module
from typing import Any, Dict, List

# every public name, by the module that defines it
_EXPORTS: Dict[str, str] = {
    name: module
    for module, names in {
        "api": ("DeliveryOutcome", "RoutingService", "disjoint_paths"),
        "engine": ("BuildEngine",),
        "frontend": ("BatchingFrontend", "LoadReport", "open_loop_load", "serve"),
        "registry": ("EmbeddingRegistry", "default_cache_dir"),
        "shards": ("ShardManager",),
        "store": ("StoreIntegrityError", "StoreView", "open_store", "write_store"),
        "specs": (
            "CONSTRUCTION_VERSION", "BatchRouteResult", "EmbeddingSpec",
            "RouteRequest", "RouteResponse", "build_spec",
        ),
    }.items()
    for name in names
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> Any:
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> List[str]:
    return sorted(set(globals()) | set(__all__))

"""Concurrent batch construction of embeddings.

Independent constructions (a sweep of ``n``, or a mixed
cycle/grid/CCC/tree workload) are embarrassingly parallel, so the engine
fans cache misses out to a ``ProcessPoolExecutor``.  Each worker runs
:meth:`EmbeddingRegistry.get_or_build` against the shared cache
directory — build, **verify** (the same invariants the theorems certify)
and write the store file — so only verified artifacts land on disk.  The
parent maps the finished stores (:meth:`EmbeddingRegistry.get_store`)
and returns their :class:`~repro.service.store.StoreView`\\ s; it never
holds the embeddings.

Requests for the same cache key are deduplicated twice: within a batch
(one build per unique key) and across processes (the registry's lock
file makes a second process that builds a key wait for the first
admit).

Environments where process pools are unavailable (restricted sandboxes)
degrade gracefully to in-process serial builds — same results, no
parallelism.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Dict, Iterable, List, Optional

from repro.core.fast_verify import embedding_csr
from repro.service.registry import EmbeddingRegistry
from repro.service.specs import EmbeddingSpec
from repro.service.store import StoreView

__all__ = ["BuildEngine"]


def _build_into(cache_dir: Path, spec: EmbeddingSpec) -> int:
    """Worker entry point: admit ``spec`` into the store under ``cache_dir``.

    Module-level so it pickles to worker processes.  Returns how many
    builds the worker ran: 0 when another process admitted the key first.
    """
    registry = EmbeddingRegistry(cache_dir=cache_dir)
    registry.get_or_build(spec)
    return registry.metrics.count("builds")


class BuildEngine:
    """Fan out cache-missing constructions to worker processes."""

    def __init__(self, registry: EmbeddingRegistry, max_workers: Optional[int] = None):
        self.registry = registry
        self.max_workers = max_workers
        self.metrics = registry.metrics

    def build_batch(
        self, specs: Iterable[EmbeddingSpec], parallel: bool = True
    ) -> List[StoreView]:
        """Map every spec's store, building the misses; preserves order.

        Returns one :class:`StoreView` per spec, which the caller owns;
        duplicate specs in the batch resolve to one build and share one
        view.  Worker exceptions (bad parameters, failed verification)
        propagate to the caller after the rest of the batch settles.
        """
        specs = list(specs)
        unique: Dict[str, EmbeddingSpec] = {}
        for s in specs:
            key = s.cache_key()
            if key in unique:
                self.metrics.incr("batch_dedup")
            else:
                unique[key] = s

        resolved: Dict[str, StoreView] = {}
        to_build: Dict[str, EmbeddingSpec] = {}
        for key, s in unique.items():
            view = self.registry.get_store(s)
            if view is not None:
                resolved[key] = view
            else:
                to_build[key] = s

        if parallel and self.max_workers != 0 and len(to_build) > 1:
            self._build_parallel(list(to_build.values()))
        for key, s in to_build.items():  # maps what the workers wrote
            view = self.registry.get_store(s)
            resolved[key] = view if view is not None else self._build_here(s)
        return [resolved[s.cache_key()] for s in specs]

    # -- internals ---------------------------------------------------------------

    def _build_here(self, spec: EmbeddingSpec) -> StoreView:
        """Admit ``spec`` in this process (no pool, or a single miss)."""
        emb = self.registry.get_or_build(spec)
        view = self.registry.get_store(spec)
        if view is None:  # removed under us, or a transient open error
            view = StoreView.in_memory(
                embedding_csr(emb), spec_key=spec.cache_key(), kind=spec.kind
            )
        return view

    def _build_parallel(self, specs: List[EmbeddingSpec]) -> None:
        workers = self.max_workers or min(len(specs), os.cpu_count() or 2)
        try:
            executor = ProcessPoolExecutor(max_workers=workers)
        except Exception:
            self.metrics.incr("pool_unavailable")
            return
        error: Optional[BaseException] = None
        with executor, self.metrics.time("parallel_batch"):
            cache_dir = self.registry.cache_dir
            futures = [executor.submit(_build_into, cache_dir, s) for s in specs]
            for fut in futures:
                try:
                    self.metrics.incr("builds", fut.result())
                except BaseException as err:  # noqa: BLE001
                    self.metrics.incr("build_errors")
                    error = error or err
        if error is not None:
            raise error

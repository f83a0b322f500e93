"""CSR shards — the serving substrate of ``route_batch``.

One *shard* is one embedding's full routing answer — the
:class:`~repro.core.fast_verify.PathCSR` arrays — served as the
:class:`~repro.service.store.StoreView` of the embedding's ``.rpstore``
file (:mod:`repro.service.store`), mapped read-only with
``numpy.memmap``.  Other processes map the same file **zero-copy** with
:func:`~repro.service.store.open_store` on the shard's ``info.path``, so
every process serving one embedding shares the page-cache pages of one
file instead of holding a copy each.  The open runs the store's checks
(magic, schema, dtype contract, extents, payload digest) and refuses a
bad file with :class:`~repro.service.store.StoreIntegrityError`.

:class:`ShardManager` owns the shards one service process publishes:
publish/unlink are serialized under one lock (lint R6 covers this module).
Unlinking a shard drops its view and never deletes the store file, which
belongs to the registry; and because other processes only map a file, a
worker that dies — even by ``SIGKILL`` — takes nothing from its
publisher.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Optional

from repro.obs.metrics import MetricsRegistry
from repro.service.store import StoreInfo, StoreView

__all__ = ["ShardManager"]


class ShardManager:
    """Publishes and owns the CSR shards of one serving process.

    :meth:`publish_mapped` is the entry the service uses per spec; other
    processes :func:`~repro.service.store.open_store` the store path in
    :meth:`info`.  All map mutations happen under one lock.
    """

    def __init__(self, metrics: Optional[MetricsRegistry] = None) -> None:
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._lock = threading.Lock()
        self._shards: Dict[str, StoreView] = {}

    # -- publisher side ------------------------------------------------------

    def get(self, key: str) -> Optional[StoreView]:
        with self._lock:
            return self._shards.get(key)

    def publish_mapped(self, key: str, view: StoreView) -> StoreView:
        """Serve ``view`` (normally a memmapped store file) under ``key``.

        The arrays are served as they are, with no copy.  When two callers
        race on ``key``, the first view wins and both get it.
        """
        with self._lock:
            winner = self._shards.setdefault(key, view)
        if winner is view:
            self.metrics.incr("shards_published")
        self._refresh_gauges()
        return winner

    def unlink(self, key: str) -> bool:
        """Drop one shard's view; the store file stays where it is."""
        with self._lock:
            view = self._shards.pop(key, None)
        if view is None:
            return False
        view.close()
        self._refresh_gauges()
        return True

    def close(self) -> None:
        """Drop every shard; the manager stays usable afterwards."""
        with self._lock:
            views = list(self._shards.values())
            self._shards.clear()
        for view in views:
            view.close()
        self._refresh_gauges()

    # -- observability -------------------------------------------------------

    def info(self) -> Dict[str, StoreInfo]:
        with self._lock:
            return {key: view.info for key, view in self._shards.items()}

    def _refresh_gauges(self) -> None:
        with self._lock:
            active = len(self._shards)
            total = sum(view.info.nbytes for view in self._shards.values())
        self.metrics.gauge("shards_active").set(active)
        self.metrics.gauge("shard_bytes").set(total)

    def __enter__(self) -> "ShardManager":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

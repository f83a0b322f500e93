"""CSR shards — the serving substrate of ``route_batch``.

One *shard* is one embedding's full routing answer — the
:class:`~repro.core.fast_verify.PathCSR` arrays — served from the
embedding's ``.rpstore`` file (:mod:`repro.service.store`), mapped
read-only with ``numpy.memmap``.  Workers :func:`attach_shard` by store
path and map the same file **zero-copy**, so every process serving one
embedding shares the page-cache pages of one file instead of holding a
copy each.  Attach runs the store's checks (magic, schema, dtype
contract, extents, payload digest) and refuses a bad file with
:class:`~repro.service.store.StoreIntegrityError`.

:class:`ShardManager` owns the shards one service process publishes:
publish/unlink are serialized under one lock (lint R6 covers this module).
Unlinking a shard drops its view and never deletes the store file, which
belongs to the registry; and because attachers only map a file, a worker
that dies — even by ``SIGKILL`` — takes nothing from its publisher.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.core.fast_verify import PathCSR
from repro.obs.metrics import MetricsRegistry
from repro.service.store import open_store

__all__ = [
    "ShardInfo",
    "ShardView",
    "ShardManager",
    "attach_shard",
]


@dataclass(frozen=True)
class ShardInfo:
    """Metadata of one published shard."""

    name: str  # store path workers attach ("" for a process-local shard)
    spec_key: str  # cache key of the embedding this shard serves
    nbytes: int  # payload bytes (arrays only)
    sha256: str  # hex digest of the payload
    num_bundles: int
    num_paths: int


class ShardView:
    """A mapped shard: ``.csr`` resolves batches straight off the file.

    ``close()`` drops the array views; the mapping goes once no caller
    holds an array from it.
    """

    def __init__(self, csr: PathCSR, info: ShardInfo) -> None:
        self.csr = csr
        self.info = info

    def close(self) -> None:
        self.csr = None  # type: ignore[assignment]  # drop array views


def attach_shard(name: str) -> ShardView:
    """Map the shard stored at path ``name`` read-only (worker side)."""
    store = open_store(name)
    info = ShardInfo(
        name=name,
        spec_key=store.info.spec_key,
        nbytes=store.info.nbytes,
        sha256=store.info.sha256,
        num_bundles=store.info.num_bundles,
        num_paths=store.info.num_paths,
    )
    return ShardView(store.csr, info)


class ShardManager:
    """Publishes and owns the CSR shards of one serving process.

    :meth:`publish_mapped` is the entry the service uses per spec;
    workers use :func:`attach_shard` with the store path from
    :meth:`info`.  All map mutations happen under one lock.
    """

    def __init__(self, metrics: Optional[MetricsRegistry] = None) -> None:
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._lock = threading.Lock()
        self._shards: Dict[str, ShardView] = {}

    # -- publisher side ------------------------------------------------------

    def get(self, key: str) -> Optional[ShardView]:
        with self._lock:
            return self._shards.get(key)

    def publish_mapped(
        self,
        key: str,
        csr: PathCSR,
        *,
        name: str = "",
        nbytes: Optional[int] = None,
        sha256: str = "",
    ) -> ShardView:
        """Serve an already-mapped CSR (normally a memmapped store file).

        The arrays are served as they are, with no copy; ``name`` is the
        store path worker processes hand to :func:`attach_shard`, or ""
        for a process-local shard.  When two callers race on ``key``, the
        first mapping wins and both get it.
        """
        info = ShardInfo(
            name=name,
            spec_key=key,
            nbytes=csr.nbytes() if nbytes is None else nbytes,
            sha256=sha256,
            num_bundles=csr.num_bundles,
            num_paths=csr.num_paths,
        )
        view = ShardView(csr, info)
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

    def info(self) -> Dict[str, ShardInfo]:
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

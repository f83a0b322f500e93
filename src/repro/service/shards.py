"""Shared-memory CSR shards — the serving substrate of ``route_batch``.

One *shard* is one embedding's full routing answer — the
:class:`~repro.core.fast_verify.PathCSR` arrays — published into a single
``multiprocessing.shared_memory`` segment: a fixed magic + JSON header
(schema version, the pathcode dtype contract, array extents, guest-edge
table, SHA-256 of the payload) followed by the 8-byte-aligned array bytes.
Workers :func:`attach` by name and map the arrays **zero-copy** with
``np.frombuffer`` over the segment — a Q_12 multipath shard is a few MB
mapped once, not pickled per request.  Attach re-hashes the payload and
refuses a corrupted segment with :class:`ShardIntegrityError`.

:class:`ShardManager` owns the segments one service process publishes:
create/attach/detach/unlink are serialized under one lock (lint R6 covers
this module), every segment is unlinked when the manager closes (or is
garbage-collected, via ``weakref.finalize``), and a host without a usable
``/dev/shm`` degrades to process-local shards — same `.csr` view, no
cross-process mapping — counted in ``shard_fallbacks``.

Attaching processes never *own* a segment: attach unregisters the mapping
from ``resource_tracker`` so a worker crash (or plain exit) cannot tear
down a segment the publisher is still serving from — the lifecycle tests
kill a worker mid-flight and assert the shard survives.
"""

from __future__ import annotations

import hashlib
import json
import struct
import threading
import weakref
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

import numpy as np

from repro.core.fast_verify import PathCSR
from repro.hypercube.pathcode import CSR_ARRAYS, csr_aligned
from repro.obs.metrics import MetricsRegistry

__all__ = [
    "SHARD_SCHEMA",
    "ShardIntegrityError",
    "ShardInfo",
    "ShardView",
    "ShardManager",
    "publish_csr",
    "attach_shard",
]

SHARD_SCHEMA = 1
_MAGIC = b"RPSHARD1"
_PREFIX = struct.Struct("<8sQ")  # magic, header length

# The serialized array contract and alignment now live in
# :mod:`repro.hypercube.pathcode` (shared with the on-disk artifact store);
# these aliases keep the shard module's historical names alive.
_ARRAY_CONTRACT = CSR_ARRAYS
_ALIGN = 8  # == pathcode.CSR_ALIGN; kept for introspecting tests


class ShardIntegrityError(RuntimeError):
    """A segment failed validation on attach (checksum/schema/dtype)."""


@dataclass(frozen=True)
class ShardInfo:
    """Metadata of one published shard."""

    name: str  # shared-memory segment name ("" for local shards)
    spec_key: str  # cache key of the embedding this shard serves
    backend: str  # "shm" or "local"
    nbytes: int  # payload bytes (arrays only)
    sha256: str  # hex digest of the payload
    num_bundles: int
    num_paths: int


def _encode_edges(edges: Tuple[Any, ...]) -> Any:
    def enc(v: Any) -> Any:
        if isinstance(v, tuple):
            return [enc(x) for x in v]
        return v

    return [enc(e) for e in edges]


def _decode_edges(doc: Any) -> Tuple[Any, ...]:
    def dec(v: Any) -> Any:
        if isinstance(v, list):
            return tuple(dec(x) for x in v)
        return v

    return tuple(dec(e) for e in doc)


def _aligned(n: int) -> int:
    return csr_aligned(n)


def _csr_arrays(csr: PathCSR) -> Tuple[np.ndarray, ...]:
    arrays = (csr.nodes, csr.path_offsets, csr.bundle_offsets, csr.path_reversed)
    return tuple(
        np.ascontiguousarray(a, dtype=dt)
        for a, (_, dt) in zip(arrays, _ARRAY_CONTRACT)
    )


def _payload_digest(buf: memoryview, start: int, end: int) -> str:
    return hashlib.sha256(buf[start:end]).hexdigest()


def publish_csr(
    csr: PathCSR, *, spec_key: str = "", name: Optional[str] = None
):
    """Write ``csr`` into a new shared-memory segment.

    Returns ``(shm, info)`` — the caller owns the segment (close + unlink).
    Layout: magic, header length, JSON header, then each contract array at
    an 8-byte-aligned offset.  The header's ``sha256`` covers exactly the
    payload region, so any flipped byte is caught on attach.
    """
    from multiprocessing import shared_memory

    arrays = _csr_arrays(csr)
    specs = []
    offset = 0  # relative to payload start
    for (field_name, dt), arr in zip(_ARRAY_CONTRACT, arrays):
        offset = _aligned(offset)
        specs.append(
            {
                "name": field_name,
                "dtype": dt.str,
                "size": int(arr.size),
                "offset": offset,
            }
        )
        offset += arr.nbytes
    payload = offset
    header = {
        "schema": SHARD_SCHEMA,
        "host_n": csr.host_n,
        "spec_key": spec_key,
        "payload": payload,
        "arrays": specs,
        "edges": _encode_edges(csr.edges),
    }
    # the digest and payload offset go into the header, so serialize twice:
    # once to size the region (reserving room for both), once for real
    head_blob = json.dumps(header, separators=(",", ":")).encode()
    digest_pad = 128  # > len of ,"sha256":"<64 hex>","data_start":<int>
    data_start = _aligned(_PREFIX.size + len(head_blob) + digest_pad)
    shm = shared_memory.SharedMemory(create=True, size=data_start + payload, name=name)
    buf = shm.buf
    for spec, arr in zip(specs, arrays):
        lo = data_start + spec["offset"]
        buf[lo : lo + arr.nbytes] = arr.tobytes()
    header["sha256"] = _payload_digest(buf, data_start, data_start + payload)
    header["data_start"] = data_start
    head_blob = json.dumps(header, separators=(",", ":")).encode()
    if _PREFIX.size + len(head_blob) > data_start:  # pragma: no cover - sized above
        raise AssertionError("shard header overran its reserved region")
    buf[: _PREFIX.size] = _PREFIX.pack(_MAGIC, len(head_blob))
    buf[_PREFIX.size : _PREFIX.size + len(head_blob)] = head_blob
    info = ShardInfo(
        name=shm.name,
        spec_key=spec_key,
        backend="shm",
        nbytes=payload,
        sha256=header["sha256"],
        num_bundles=csr.num_bundles,
        num_paths=csr.num_paths,
    )
    return shm, info


def _map_segment(shm) -> Tuple[PathCSR, ShardInfo]:
    """Validate a segment and map its arrays zero-copy into a PathCSR."""
    buf = shm.buf
    if bytes(buf[:8]) != _MAGIC:
        raise ShardIntegrityError(f"segment {shm.name!r} is not a repro shard")
    _, head_len = _PREFIX.unpack(bytes(buf[: _PREFIX.size]))
    try:
        header = json.loads(bytes(buf[_PREFIX.size : _PREFIX.size + head_len]))
    except ValueError as err:
        raise ShardIntegrityError(f"segment {shm.name!r}: bad header ({err})") from err
    if header.get("schema") != SHARD_SCHEMA:
        raise ShardIntegrityError(
            f"segment {shm.name!r}: schema {header.get('schema')!r} != {SHARD_SCHEMA}"
        )
    data_start = header["data_start"]
    payload = header["payload"]
    digest = _payload_digest(buf, data_start, data_start + payload)
    if digest != header["sha256"]:
        raise ShardIntegrityError(
            f"segment {shm.name!r}: payload checksum mismatch "
            f"({digest[:12]} != {header['sha256'][:12]})"
        )
    views: Dict[str, np.ndarray] = {}
    by_name = {s["name"]: s for s in header["arrays"]}
    for field_name, dt in _ARRAY_CONTRACT:
        spec = by_name.get(field_name)
        if spec is None or spec["dtype"] != dt.str:
            raise ShardIntegrityError(
                f"segment {shm.name!r}: array {field_name!r} violates the "
                f"dtype contract ({spec and spec['dtype']} != {dt.str})"
            )
        lo = data_start + spec["offset"]
        arr = np.frombuffer(buf, dtype=dt, count=spec["size"], offset=lo)
        arr.setflags(write=False)
        views[field_name] = arr
    csr = PathCSR(
        host_n=header["host_n"],
        edges=_decode_edges(header["edges"]),
        nodes=views["nodes"],
        path_offsets=views["path_offsets"],
        bundle_offsets=views["bundle_offsets"],
        path_reversed=views["path_reversed"],
    )
    info = ShardInfo(
        name=shm.name,
        spec_key=header.get("spec_key", ""),
        backend="shm",
        nbytes=payload,
        sha256=header["sha256"],
        num_bundles=csr.num_bundles,
        num_paths=csr.num_paths,
    )
    return csr, info


class ShardView:
    """A mapped shard: ``.csr`` resolves batches straight off the segment.

    ``close()`` drops the array views and detaches the mapping; it never
    unlinks — only the owning :class:`ShardManager` does that.
    """

    def __init__(self, csr: PathCSR, info: ShardInfo, shm=None) -> None:
        self.csr = csr
        self.info = info
        self._shm = shm

    def close(self) -> None:
        self.csr = None  # type: ignore[assignment]  # drop buffer exports
        if self._shm is not None:
            self._shm.close()
            self._shm = None


def attach_shard(name: str) -> ShardView:
    """Map an existing shard read-only (worker side).

    ``name`` is either a shared-memory segment name or — when it points at
    a file (the ``backend="file"`` shards of the memmapped artifact store)
    — a store path, which maps through ``numpy.memmap`` so attachers share
    the publisher's page-cache pages instead of a second copy.

    Segments are validated (magic/schema/dtype contract, payload re-hash)
    before returning.  The attachment is unregistered from
    ``resource_tracker``: attachers are guests, and a guest process dying
    — even by ``SIGKILL`` — must not reap a segment its publisher still
    serves from.
    """
    import os

    if os.sep in name or os.path.isfile(name):
        # a store file, not a segment; import lazily to keep the shard
        # layer importable without the store (and vice versa)
        from repro.service.store import open_store

        store = open_store(name)
        info = ShardInfo(
            name=name,
            spec_key=store.info.spec_key,
            backend="file",
            nbytes=store.info.nbytes,
            sha256=store.info.sha256,
            num_bundles=store.info.num_bundles,
            num_paths=store.info.num_paths,
        )
        return ShardView(store.csr, info)

    from multiprocessing import resource_tracker, shared_memory

    shm = shared_memory.SharedMemory(name=name)
    try:  # Python < 3.13 has no track=False; undo the implicit claim
        resource_tracker.unregister(shm._name, "shared_memory")  # noqa: SLF001
    except Exception:  # pragma: no cover - tracker impl detail
        pass
    try:
        csr, info = _map_segment(shm)
    except Exception:
        shm.close()
        raise
    return ShardView(csr, info, shm=shm)


class _OwnedShard:
    """Publisher-side record: the segment plus its local zero-copy view."""

    def __init__(self, shm, view: ShardView) -> None:
        self.shm = shm
        self.view = view

    def unlink(self) -> None:
        self.view.close()
        shm, self.shm = self.shm, None
        if shm is None:
            return
        # unlink the name first: close() raises BufferError while a caller
        # still holds an array from view.csr, and that must neither leave
        # the segment behind in /dev/shm nor fail the teardown
        shm.unlink()
        try:
            shm.close()
        except BufferError:
            # the held arrays keep the mapping alive until they are
            # collected; drop only our handle to it, then close the fd
            shm._mmap = None  # noqa: SLF001
            shm.close()


def _unlink_all(lock: threading.Lock, shards: Dict[str, _OwnedShard]) -> None:
    with lock:
        owned = list(shards.values())
        shards.clear()
    for shard in owned:
        try:
            shard.unlink()
        except Exception:  # pragma: no cover - best-effort teardown
            pass


class ShardManager:
    """Publishes and owns the CSR shards of one serving process.

    ``get_or_publish(key, build)`` is the cache-aside entry the service
    uses per spec; workers use :meth:`attach` (a thin wrapper over
    :func:`attach_shard`) with the segment name from :meth:`info`.  All
    map mutations happen under one lock; the segment syscalls run outside
    it so a slow publish never blocks concurrent lookups.
    """

    def __init__(
        self,
        metrics: Optional[MetricsRegistry] = None,
        backend: str = "shm",
    ) -> None:
        if backend not in ("shm", "local"):
            raise ValueError(f"unknown shard backend {backend!r}")
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.backend = backend
        self._lock = threading.Lock()
        self._shards: Dict[str, _OwnedShard] = {}
        self._finalizer = weakref.finalize(
            self, _unlink_all, self._lock, self._shards
        )

    # -- publisher side ------------------------------------------------------

    def get(self, key: str) -> Optional[ShardView]:
        with self._lock:
            owned = self._shards.get(key)
        if owned is None:
            return None
        return owned.view

    def publish_mapped(
        self,
        key: str,
        csr: PathCSR,
        *,
        name: str = "",
        nbytes: Optional[int] = None,
        sha256: str = "",
    ) -> ShardView:
        """Serve an already-mapped CSR (e.g. a memmapped store file) as a shard.

        The instant-start path: the arrays are already zero-copy views over
        an artifact file, so copying them into a shared-memory segment
        would just duplicate hundreds of MB — the shard wraps the mapping
        as-is, with ``name`` carrying the file path worker processes hand
        to :meth:`attach`.
        """
        info = ShardInfo(
            name=name,
            spec_key=key,
            backend="file",
            nbytes=csr.nbytes() if nbytes is None else nbytes,
            sha256=sha256,
            num_bundles=csr.num_bundles,
            num_paths=csr.num_paths,
        )
        owned = _OwnedShard(None, ShardView(csr, info))
        with self._lock:
            winner = self._shards.setdefault(key, owned)
        if winner is not owned:  # lost a publish race; keep the first mapping
            owned.unlink()
        else:
            self.metrics.incr("shard_file_published")
        self._refresh_gauges()
        return winner.view

    def get_or_publish(self, key: str, build: Callable[[], PathCSR]) -> ShardView:
        """The mapped shard for ``key``, publishing it on first use."""
        with self._lock:
            owned = self._shards.get(key)
        if owned is not None:
            self.metrics.incr("shard_hits")
            return owned.view
        self.metrics.incr("shard_misses")
        csr = build()
        owned = self._publish(key, csr)
        with self._lock:
            winner = self._shards.setdefault(key, owned)
        if winner is not owned:  # lost a publish race; keep the first segment
            owned.unlink()
        self._refresh_gauges()
        return winner.view

    def _publish(self, key: str, csr: PathCSR) -> _OwnedShard:
        if self.backend == "shm":
            try:
                shm, _ = publish_csr(csr, spec_key=key)
            except OSError:
                self.metrics.incr("shard_fallbacks")
            else:
                mapped, info = _map_segment(shm)
                return _OwnedShard(shm, ShardView(mapped, info, shm=None))
        info = ShardInfo(
            name="",
            spec_key=key,
            backend="local",
            nbytes=csr.nbytes(),
            sha256="",
            num_bundles=csr.num_bundles,
            num_paths=csr.num_paths,
        )
        return _OwnedShard(None, ShardView(csr, info))

    def unlink(self, key: str) -> bool:
        """Tear down one shard (detach the local view, unlink the segment)."""
        with self._lock:
            owned = self._shards.pop(key, None)
        if owned is None:
            return False
        owned.unlink()
        self._refresh_gauges()
        return True

    def close(self) -> None:
        """Unlink every owned shard; the manager stays usable afterwards."""
        _unlink_all(self._lock, self._shards)
        self._refresh_gauges()

    # -- worker side ---------------------------------------------------------

    @staticmethod
    def attach(name: str) -> ShardView:
        return attach_shard(name)

    # -- observability -------------------------------------------------------

    def info(self) -> Dict[str, ShardInfo]:
        with self._lock:
            return {key: owned.view.info for key, owned in self._shards.items()}

    def _refresh_gauges(self) -> None:
        with self._lock:
            active = len(self._shards)
            total = sum(owned.view.info.nbytes for owned in self._shards.values())
        self.metrics.gauge("shards_active").set(active)
        self.metrics.gauge("shard_bytes").set(total)

    def __enter__(self) -> "ShardManager":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

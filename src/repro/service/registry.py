"""Content-addressed embedding registry: memory LRU over a memmapped disk tier.

Constructions dominate runtime (DESIGN.md profiling) and are fully
deterministic, so the service memoizes them.  An artifact is keyed by
:meth:`EmbeddingSpec.cache_key` — ``(guest kind, params, construction
version)`` hashed to a stable content address — and stored as one binary
*store file* (:mod:`repro.service.store`) under a per-kind shard directory:
``<cache_dir>/<kind>/<key>.rpstore``.  The store file carries the
embedding's flat CSR routing arrays 8-byte-aligned for ``numpy.memmap``,
which are the only on-disk copy of its paths, plus a short manifest
(:func:`make_artifact`) in its blob slot.  The serving fast path
(:meth:`get_store`) hydrates a routable shard in O(ms).  A caller that
needs the embedding *object* (:meth:`get`) and finds only the store gets
a rebuild: the spec is built again and verified, and the rebuild's CSR
must hash to the store's payload digest.  Builders are deterministic and
the key pins the construction version, so a mismatch means the store or
the builder changed; it counts as ``disk_corrupt`` and the verified
rebuild replaces the store.

An admit and a store-hit rebuild run the same pipeline, flattening the
paths once: :func:`build_spec` (unverified), :func:`embedding_csr`, then
``emb.verify(csr=csr)`` on that CSR's arrays, then :func:`write_store`
of the same CSR (an admit) or :func:`payload_digest` of it (a rebuild).

Safety model: an artifact is only written after the embedding verified at
build time, and the file carries a SHA-256 digest of the array payload,
computed from the exact bytes that were verified.  On load the registry
checks schema, spec key, package and artifact versions, the dtype
contract and array extents; small payloads re-hash eagerly and huge ones
defer the re-hash (see :data:`repro.service.store.EAGER_VERIFY_LIMIT` —
hashing a 378 MB Q_20 payload would cost the very O(s) this tier
deletes).  A *corrupt or stale* artifact (bad magic, checksum, version
or key; artifact-version-1 files, which carried a JSON copy of the
embedding, included) is treated as a cache miss — the bad file is
removed and the caller rebuilds + reverifies.  A *transient* read error
(``PermissionError``, I/O failure) is also a miss but the file is left
alone and counted under ``disk_transient`` — deleting a healthy
13-second artifact over a flaky read would be self-inflicted cache loss.

Per-tier hit rates are surfaced as ``cache_hit_rate{tier=memory|disk}``
gauges — the same observability feed the service dashboards read.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import OrderedDict
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.core.embedding import Embedding, MultiCopyEmbedding, MultiPathEmbedding
from repro.core.fast_verify import PathCSR, embedding_csr
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import profile_span
from repro.service.specs import EmbeddingSpec, build_spec
from repro.service.store import (
    STORE_SUFFIX,
    StoreIntegrityError,
    StoreView,
    open_store,
    payload_digest,
    read_store_header,
    write_store,
)

__all__ = [
    "EmbeddingRegistry",
    "default_cache_dir",
    "ARTIFACT_VERSION",
]

ARTIFACT_VERSION = 2

# how long get_or_build waits on another process's build of the same key
# before building itself
BUILD_LOCK_TIMEOUT_S = 600.0

AnyEmbedding = Union[Embedding, MultiPathEmbedding, MultiCopyEmbedding]


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` or ``~/.cache/repro/embeddings``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro" / "embeddings"


def _package_version() -> str:
    from repro import __version__

    return str(__version__)


def make_artifact(spec: EmbeddingSpec, emb: AnyEmbedding) -> str:
    """The manifest of a *verified* embedding: what was built, not its paths.

    ``emb`` is what :meth:`EmbeddingRegistry.put` admits; its paths live
    in the store's CSR arrays, and the spec rebuilds the object.
    """
    return json.dumps(
        {
            "artifact_version": ARTIFACT_VERSION,
            "key": spec.cache_key(),
            "spec": {"kind": spec.kind, "params": spec.param_dict()},
            "package_version": _package_version(),
            "construction": spec.describe(),
        }
    )


class EmbeddingRegistry:
    """Two-tier (memory LRU over ``.rpstore`` files) verified-embedding cache."""

    def __init__(
        self,
        cache_dir: Optional[Union[str, Path]] = None,
        memory_capacity: int = 32,
    ) -> None:
        if memory_capacity < 0:
            raise ValueError("memory_capacity must be >= 0")
        self.cache_dir = Path(cache_dir) if cache_dir else default_cache_dir()
        self.memory_capacity = memory_capacity
        self.metrics = MetricsRegistry()
        self._lock = threading.Lock()
        self._memory: "OrderedDict[str, AnyEmbedding]" = OrderedDict()
        self._tier_counts: Dict[str, List[int]] = {}  # tier -> [hits, lookups]
        self._build_locks: Dict[str, threading.Lock] = {}

    # -- paths ---------------------------------------------------------------

    def path_for(self, spec: EmbeddingSpec) -> Path:
        """The binary store artifact path (sharded by construction kind)."""
        return self.cache_dir / spec.kind / f"{spec.cache_key()}{STORE_SUFFIX}"

    def _lock_path_for(self, spec: EmbeddingSpec) -> Path:
        return self.cache_dir / spec.kind / f"{spec.cache_key()}.lock"

    # -- observability helpers -----------------------------------------------

    def _note_lookup(self, tier: str, hit: bool) -> None:
        """Track per-tier hit rate; surfaces as ``cache_hit_rate{tier=..}``."""
        with self._lock:
            counts = self._tier_counts.setdefault(tier, [0, 0])
            counts[0] += 1 if hit else 0
            counts[1] += 1
            rate = counts[0] / counts[1]
        self.metrics.gauge("cache_hit_rate", tier=tier).set(round(rate, 4))

    # -- memory tier -----------------------------------------------------------

    def _memory_get(self, key: str) -> Optional[AnyEmbedding]:
        with self._lock:
            emb = self._memory.get(key)
            if emb is not None:
                self._memory.move_to_end(key)
            return emb

    def _memory_put(self, key: str, emb: AnyEmbedding) -> None:
        if self.memory_capacity == 0:
            return
        with self._lock:
            self._memory[key] = emb
            self._memory.move_to_end(key)
            while len(self._memory) > self.memory_capacity:
                self._memory.popitem(last=False)
                self.metrics.incr("memory_evictions")

    # -- disk tier ---------------------------------------------------------------

    def _open_store(self, spec: EmbeddingSpec) -> Optional[StoreView]:
        """Map the binary artifact; None on miss, transient error, or corruption.

        Only decode/validation failures unlink the file; transient
        filesystem errors leave it in place for the next lookup.
        """
        path = self.path_for(spec)
        try:
            return open_store(
                path,
                expect_key=spec.cache_key(),
                expect_package_version=_package_version(),
                expect_artifact_version=ARTIFACT_VERSION,
            )
        except FileNotFoundError:
            return None
        except StoreIntegrityError:
            # damaged / stale / truncated: recover by rebuilding, not crashing
            self.metrics.incr("disk_corrupt")
            try:
                path.unlink()
            except OSError:
                pass
            return None
        except OSError:
            # the file may be perfectly healthy — do NOT delete it
            self.metrics.incr("disk_transient")
            return None

    def get_store(self, spec: EmbeddingSpec) -> Optional[StoreView]:
        """The memmapped CSR view for ``spec`` — the O(ms) serving fast path.

        A ``numpy.memmap`` open of the store file; each call returns a
        fresh view its caller owns.  Never builds and never materializes
        the embedding object.
        """
        with self.metrics.time("store_open"):
            view = self._open_store(spec)
        self._note_lookup("disk", view is not None)
        if view is None:
            self.metrics.incr("store_misses")
            return None
        self.metrics.incr("store_hits")
        return view

    # -- public API ------------------------------------------------------------

    def get(self, spec: EmbeddingSpec) -> Optional[AnyEmbedding]:
        """Cached embedding for ``spec``, or ``None`` on a full miss.

        A memory miss over a valid store rebuilds the embedding from its
        spec (build, CSR export, verify, as at admit) and checks the
        rebuild's CSR against the store's payload digest: ``disk_hits``
        and ``rebuilds`` count a match.  A mismatch counts
        ``disk_corrupt``, and the CSR just verified replaces the store.
        """
        key = spec.cache_key()
        emb = self._memory_get(key)
        self._note_lookup("memory", emb is not None)
        if emb is not None:
            self.metrics.incr("memory_hits")
            return emb
        self.metrics.incr("memory_misses")
        view = self._open_store(spec)
        if view is None:
            self.metrics.incr("disk_misses")
            return None
        stored = view.info.sha256
        view.close()
        emb, csr = self._build_verified(spec)
        if payload_digest(csr) != stored:
            self.metrics.incr("disk_corrupt")
            return self._write(spec, emb, csr)
        self.metrics.incr("disk_hits")
        self.metrics.incr("rebuilds")
        self._memory_put(key, emb)
        return emb

    def put(self, spec: EmbeddingSpec, emb: AnyEmbedding) -> AnyEmbedding:
        """Admit a *verified* embedding: write the store artifact atomically.

        The store file gets the CSR arrays for memmapped serving plus the
        artifact manifest as its blob; the write is tmp+fsync+rename so
        concurrent admits and crashes cannot tear it.
        """
        with self.metrics.time("csr_export"):
            csr = embedding_csr(emb)
        return self._write(spec, emb, csr)

    def _write(self, spec: EmbeddingSpec, emb: AnyEmbedding, csr: PathCSR) -> AnyEmbedding:
        """Store ``emb``'s exported ``csr`` and admit ``emb`` to memory."""
        artifact_text = make_artifact(spec, emb)
        with self.metrics.time("store_write"):
            write_store(
                self.path_for(spec),
                csr,
                artifact_text,
                spec_key=spec.cache_key(),
                kind=spec.kind,
                params=spec.param_dict(),
                package_version=_package_version(),
                construction=spec.describe(),
                artifact_version=ARTIFACT_VERSION,
            )
        self._memory_put(spec.cache_key(), emb)
        self.metrics.incr("artifacts_written")
        return emb

    # -- build single-flight -----------------------------------------------------

    def _key_lock(self, key: str) -> threading.Lock:
        with self._lock:
            lock = self._build_locks.get(key)
            if lock is None:
                lock = threading.Lock()
                self._build_locks[key] = lock
            return lock

    def _acquire_build_lock(self, spec: EmbeddingSpec) -> bool:
        """Try to claim the cross-process build lock for ``spec``."""
        path = self._lock_path_for(spec)
        path.parent.mkdir(parents=True, exist_ok=True)
        try:
            fd = os.open(str(path), os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return False
        except OSError:
            return True  # unlockable filesystem: just build
        try:
            os.write(fd, str(os.getpid()).encode())
        finally:
            os.close(fd)
        return True

    def _release_build_lock(self, spec: EmbeddingSpec) -> None:
        try:
            self._lock_path_for(spec).unlink()
        except OSError:
            pass

    def _lock_holder_alive(self, spec: EmbeddingSpec) -> bool:
        try:
            pid = int(self._lock_path_for(spec).read_text() or "0")
        except (OSError, ValueError):
            return False
        if pid <= 0:
            return False
        try:
            os.kill(pid, 0)
        except OSError:
            return False
        return True

    def _await_other_build(self, spec: EmbeddingSpec) -> Optional[AnyEmbedding]:
        """Poll while another process builds this key; None on stale/timeout."""
        deadline = time.monotonic() + BUILD_LOCK_TIMEOUT_S
        path = self._lock_path_for(spec)
        while time.monotonic() < deadline:
            if not path.exists():
                return self.get(spec)
            if not self._lock_holder_alive(spec):
                try:  # steal the dead process's lock
                    path.unlink()
                except OSError:
                    pass
                return self.get(spec)
            time.sleep(0.05)
        self.metrics.incr("build_lock_timeouts")
        return None

    def get_or_build(self, spec: EmbeddingSpec) -> AnyEmbedding:
        """Serve from cache, else build, export, verify and store — exactly once.

        An admit flattens the paths once: the built embedding's CSR is
        exported first, the embedding verifies against that CSR's arrays,
        and the same CSR is written to the store.

        Concurrent callers of the same key are single-flighted twice: an
        in-process keyed lock serializes threads, and an on-disk pid lock
        file makes a second *process* wait for the first admit instead of
        writing a duplicate store (``builds`` counts admits only, so two
        racing processes observe one build total).  The waiter still
        needs the embedding object, and the store holds only its CSR, so
        it rebuilds from the spec and digest-checks the rebuild
        (:meth:`get`; counted under ``rebuilds``).  A crashed builder's
        lock is detected dead and stolen; an unresponsive one is
        abandoned after ``BUILD_LOCK_TIMEOUT_S``.  Callers that only
        route need no object: :meth:`get_store` maps the file.

        Verification goes through the structured report: a failed invariant
        counts under ``verify_failures`` before raising, and a passing
        report's measured quantities land in per-kind gauges
        (``embedding_width{kind=...}`` etc.) so ``stats()`` shows what the
        cache actually holds.
        """
        emb = self.get(spec)
        if emb is not None:
            return emb
        with self._key_lock(spec.cache_key()):
            emb = self.get(spec)  # a sibling thread may have just admitted
            if emb is not None:
                return emb
            while not self._acquire_build_lock(spec):
                emb = self._await_other_build(spec)
                if emb is not None:
                    return emb
                if self._acquire_build_lock(spec):
                    break  # stale lock stolen (or builder vanished): build here
            try:
                emb, csr = self._build_verified(spec)
                self.metrics.incr("builds")
                return self._write(spec, emb, csr)
            finally:
                self._release_build_lock(spec)

    def _build_verified(self, spec: EmbeddingSpec) -> Tuple[AnyEmbedding, PathCSR]:
        """Build ``spec``, export its CSR once and verify that CSR's arrays.

        What admits and store hits share: the one flatten feeds both the
        verification and the store write (or the digest check).
        """
        with profile_span("registry.build", kind=spec.kind):
            with self.metrics.time("build"):
                emb = build_spec(spec)
        with self.metrics.time("csr_export"):
            csr = embedding_csr(emb)
        with self.metrics.time("verify"):
            report = emb.verify(strict=False, csr=csr)
        if not report.ok:
            self.metrics.incr("verify_failures")
            report.raise_if_failed()
        for quantity in ("width", "load", "dilation", "congestion"):
            if quantity in report.metrics:
                self.metrics.gauge(
                    f"embedding_{quantity}", kind=spec.kind
                ).set(report.metrics[quantity])
        return emb, csr

    def __contains__(self, spec: EmbeddingSpec) -> bool:
        key = spec.cache_key()
        with self._lock:
            if key in self._memory:
                return True
        return self.path_for(spec).exists()

    # -- maintenance -------------------------------------------------------------

    def _store_paths(self) -> List[Path]:
        if not self.cache_dir.exists():
            return []
        return sorted(self.cache_dir.glob(f"*/*{STORE_SUFFIX}"))

    def ls(self) -> List[Dict[str, Any]]:
        """Metadata of every on-disk artifact (unreadable ones marked so)."""
        rows = []
        for path in self._store_paths():
            try:
                header = read_store_header(path)
            except Exception:
                header = {"construction": "<unreadable>"}
            rows.append(
                {
                    "key": header.get("spec_key", path.stem)[:12],
                    "construction": header.get("construction", "?"),
                    "package_version": header.get("package_version", "?"),
                    "bytes": path.stat().st_size,
                    "file": f"{path.parent.name}/{path.name}",
                }
            )
        return rows

    def clear(self) -> int:
        """Drop every tier; returns the number of disk artifacts removed.

        Also sweeps the orphans no artifact listing ever showed: ``.tmp``
        files from writers that crashed between write and rename, and
        ``.lock`` files from builders that died mid-build.
        """
        with self._lock:
            self._memory.clear()
        removed = 0
        for path in self._store_paths():
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        if self.cache_dir.exists():
            for pattern in ("*.tmp", "*/*.tmp", "*.lock", "*/*.lock"):
                for orphan in self.cache_dir.glob(pattern):
                    try:
                        orphan.unlink()
                        self.metrics.incr("orphans_swept")
                    except OSError:
                        pass
        return removed

    def stats(self) -> dict:
        """Metrics snapshot plus tier occupancy."""
        snap = self.metrics.snapshot()
        with self._lock:
            snap["memory_entries"] = len(self._memory)
        snap["disk_entries"] = len(self._store_paths())
        snap["cache_dir"] = str(self.cache_dir)
        return snap

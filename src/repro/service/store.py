"""Binary memmapped artifact store — the one container of a served CSR.

One *store file* is one verified embedding's full routing answer:
``[magic][header length][JSON header]`` followed by the 8-byte-aligned
arrays, so :func:`open_store` hydrates a
:class:`~repro.core.fast_verify.PathCSR` via ``numpy.memmap``
**zero-copy**: no rebuild, no JSON decode of a million paths, no Python
dicts.  A Q_20 artifact (hundreds of MB) opens in milliseconds; the ~13s
build+verify is paid exactly once, at admit.  Every serving shard is a
store file mapped this way, and other processes map a shard by handing
its ``info.path`` to :func:`open_store` (:mod:`repro.service.shards`).

Next to the :data:`~repro.hypercube.pathcode.CSR_ARRAYS` a store file
carries:

* **The packed edge table and its lookup.**  Guest vertices are numbered
  as integers at export: an integer vertex is its own id, and tuple
  vertices (the grids, CCC and butterflies) number by mixed radix, which
  the header records as ``vertex_radix``.  The canonical-edge endpoints
  (``edge_uv``) and the sorted :class:`~repro.core.fast_verify.EdgeLookup`
  arrays are stored as ids, so request resolution after open is one
  ``searchsorted`` over memmapped keys for every guest — building a dict
  over 2^20 edges would alone blow the cold-start budget.
* **A blob.**  A short text rides behind the arrays; the registry puts
  its artifact manifest there (spec, versions, construction).  The CSR
  is the only copy of the paths: the registry rebuilds an embedding
  object from its spec and checks it against :func:`payload_digest`.

Integrity model: the header carries SHA-256 digests of the array payload
(the export of an embedding that passed ``verify()``) and of the blob,
both computed at write time from the bytes written.  :func:`open_store`
always validates magic, schema, spec key, package version, the dtype
contract and every array's extent; the payload digest is re-hashed on
open when the payload is at most ``EAGER_VERIFY_LIMIT`` bytes — hashing
hundreds of MB would turn O(ms) opens back into O(s), so huge artifacts
defer the re-hash to :meth:`StoreView.verify_payload` (run by the QA
``cold_start_differential`` stage).  The blob digest is always checked
when the blob is read.

Writes are crash-safe: a per-process unique ``.tmp`` sibling is written,
fsynced, then atomically renamed over the destination.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.core.fast_verify import EdgeLookup, PackedEdges, PathCSR
from repro.hypercube.pathcode import (
    CSR_ARRAYS,
    CSR_FLAG_DTYPE,
    CSR_NODE_DTYPE,
    CSR_OFFSET_DTYPE,
    csr_aligned,
)

__all__ = [
    "EAGER_VERIFY_LIMIT",
    "STORE_SCHEMA",
    "STORE_SUFFIX",
    "PackedEdges",
    "StoreIntegrityError",
    "StoreInfo",
    "StoreView",
    "open_store",
    "payload_digest",
    "read_store_header",
    "write_store",
]

STORE_SCHEMA = 2
STORE_SUFFIX = ".rpstore"
_MAGIC = b"RPSTORE1"
_PREFIX = struct.Struct("<8sQ")  # magic, header length

# open_store re-hashes the array payload only up to this size: a few-MB
# Q_12 artifact costs microseconds to check, a 378 MB Q_20 payload would
# cost ~0.5s — the exact cold-start cost this tier exists to delete.
# Above the limit the payload digest is still stored and still checked,
# just on demand (QA, tests).
EAGER_VERIFY_LIMIT = 32 * 1024 * 1024

# the packed edge table and its lookup ride behind the contract arrays
_STORE_ARRAYS: Tuple[Tuple[str, np.dtype], ...] = CSR_ARRAYS + (
    ("edge_uv", CSR_NODE_DTYPE),
    ("lookup_keys", CSR_NODE_DTYPE),
    ("lookup_gids", CSR_OFFSET_DTYPE),
    ("lookup_flips", CSR_FLAG_DTYPE),
)


class StoreIntegrityError(RuntimeError):
    """A store file failed validation (schema/key/version/checksum/dtype)."""


@dataclass(frozen=True)
class StoreInfo:
    """Metadata of one store artifact."""

    path: str
    spec_key: str
    kind: str
    nbytes: int  # array payload bytes (header and blob excluded)
    sha256: str  # hex digest of the array payload
    blob_bytes: int
    num_bundles: int
    num_paths: int
    edges_mode: str  # "packed" (integer vertices) or "radix" (tuple vertices)


def _layout(csr: PathCSR) -> Tuple[List[Tuple[Dict[str, Any], np.ndarray]], int]:
    """Each store array with its header entry, and the payload size.

    The one definition of the payload layout: every array starts at a
    :func:`~repro.hypercube.pathcode.csr_aligned` offset after the last.
    """
    source = {
        "nodes": csr.nodes,
        "path_offsets": csr.path_offsets,
        "bundle_offsets": csr.bundle_offsets,
        "path_reversed": csr.path_reversed,
        "edge_uv": csr.edges.uv.reshape(-1),
        "lookup_keys": csr.lookup.keys,
        "lookup_gids": csr.lookup.gids,
        "lookup_flips": csr.lookup.flips,
    }
    placed = []
    offset = 0  # relative to the payload start
    for name, dt in _STORE_ARRAYS:
        arr = np.ascontiguousarray(source[name], dtype=dt)
        offset = csr_aligned(offset)
        placed.append(
            ({"name": name, "dtype": dt.str, "size": int(arr.size), "offset": offset}, arr)
        )
        offset += arr.nbytes
    return placed, offset


def _payload_chunks(
    placed: List[Tuple[Dict[str, Any], np.ndarray]],
) -> Iterator[Union[bytes, np.ndarray]]:
    """The payload's bytes in file order, alignment gaps included."""
    pos = 0
    for spec, arr in placed:
        gap = spec["offset"] - pos
        if gap:
            yield b"\0" * gap
        yield arr
        pos = spec["offset"] + arr.nbytes


def payload_digest(csr: PathCSR) -> str:
    """SHA-256 hex digest of ``csr``'s array payload as a store file lays it out.

    Equals the ``sha256`` that :func:`write_store` records for ``csr``,
    without writing anything.
    """
    digest = hashlib.sha256()
    for chunk in _payload_chunks(_layout(csr)[0]):
        digest.update(chunk)
    return digest.hexdigest()


def write_store(
    path: Union[str, Path],
    csr: PathCSR,
    blob_text: str,
    *,
    spec_key: str,
    kind: str,
    params: Optional[Dict[str, Any]] = None,
    package_version: str = "",
    construction: str = "",
    artifact_version: int = 1,
) -> StoreInfo:
    """Serialize ``csr`` (+ the short ``blob_text``) to ``path``.

    The write goes to a per-process unique ``.tmp`` sibling, is fsynced,
    and lands via ``os.replace`` — concurrent admits of the same key
    cannot tear each other's files and a crash leaves only a ``.tmp``
    orphan for :meth:`~repro.service.registry.EmbeddingRegistry.clear`
    to sweep.
    """
    path = Path(path)
    placed, payload = _layout(csr)
    blob = blob_text.encode()
    header: Dict[str, Any] = {
        "schema": STORE_SCHEMA,
        "artifact_version": artifact_version,
        "spec_key": spec_key,
        "kind": kind,
        "params": params if params is not None else {},
        "package_version": package_version,
        "construction": construction,
        "host_n": csr.host_n,
        "payload": payload,
        "arrays": [spec for spec, _ in placed],
        "blob_bytes": len(blob),
        "blob_sha256": hashlib.sha256(blob).hexdigest(),
        "edges_mode": "radix" if csr.edges.radix else "packed",
        "vertex_radix": list(csr.edges.radix),
        "lookup_base": csr.lookup.base,
    }
    # digest/offsets go into the header, so serialize twice: once to size
    # the reserved region, once for real
    head_blob = json.dumps(header, separators=(",", ":")).encode()
    digest_pad = 192  # > ,"sha256":"..","data_start":N,"blob_offset":N
    data_start = csr_aligned(_PREFIX.size + len(head_blob) + digest_pad)
    blob_offset = data_start + csr_aligned(payload)

    tmp = path.with_name(f"{path.name}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
    path.parent.mkdir(parents=True, exist_ok=True)
    digest = hashlib.sha256()
    try:
        with open(tmp, "wb") as fh:
            fh.write(b"\0" * data_start)
            for chunk in _payload_chunks(placed):
                fh.write(chunk)
                digest.update(chunk)
            fh.write(b"\0" * (blob_offset - data_start - payload))
            fh.write(blob)
            header["sha256"] = digest.hexdigest()
            header["data_start"] = data_start
            header["blob_offset"] = blob_offset
            head_blob = json.dumps(header, separators=(",", ":")).encode()
            if _PREFIX.size + len(head_blob) > data_start:  # pragma: no cover
                raise AssertionError("store header overran its reserved region")
            fh.seek(0)
            fh.write(_PREFIX.pack(_MAGIC, len(head_blob)))
            fh.write(head_blob)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        if tmp.exists():  # a failed write must not leak its temp file
            try:
                tmp.unlink()
            except OSError:  # pragma: no cover - best-effort cleanup
                pass
    return StoreInfo(
        path=str(path),
        spec_key=spec_key,
        kind=kind,
        nbytes=payload,
        sha256=header["sha256"],
        blob_bytes=len(blob),
        num_bundles=csr.num_bundles,
        num_paths=csr.num_paths,
        edges_mode=header["edges_mode"],
    )


def read_store_header(path: Union[str, Path]) -> Dict[str, Any]:
    """Parse just the JSON header of a store file (no payload mapping).

    Cheap enough for listings over hundreds of artifacts; raises
    :class:`StoreIntegrityError` on a bad magic or header, ``OSError``
    on filesystem trouble.
    """
    path = Path(path)
    size = path.stat().st_size
    with open(path, "rb") as fh:
        prefix = fh.read(_PREFIX.size)
        if len(prefix) < _PREFIX.size or prefix[:8] != _MAGIC:
            raise StoreIntegrityError(f"{path} is not a repro store file")
        _, head_len = _PREFIX.unpack(prefix)
        if _PREFIX.size + head_len > size:
            raise StoreIntegrityError(f"{path}: truncated header")
        head_blob = fh.read(head_len)
    try:
        header = json.loads(head_blob)
    except ValueError as err:
        raise StoreIntegrityError(f"{path}: bad header ({err})") from err
    if not isinstance(header, dict):
        raise StoreIntegrityError(f"{path}: header is not an object")
    return header


class StoreView:
    """A memmapped store artifact: ``.csr`` serves straight off the file.

    Holds one read-only ``numpy.memmap`` over the whole file; every CSR
    array (and the packed edge lookup) is a zero-copy view into it.  A
    view from :meth:`in_memory` maps no file and has an empty
    ``info.path``.  ``close()`` drops the views and the mapping.
    """

    def __init__(
        self,
        csr: PathCSR,
        info: StoreInfo,
        header: Optional[Dict[str, Any]] = None,
        mm: Optional[np.ndarray] = None,
    ) -> None:
        self.csr = csr
        self.info = info
        self.header = header if header is not None else {}
        self._mm = mm

    @classmethod
    def in_memory(cls, csr: PathCSR, *, spec_key: str, kind: str) -> "StoreView":
        """Serve an in-memory CSR export that no store file backs."""
        info = StoreInfo(
            path="",
            spec_key=spec_key,
            kind=kind,
            nbytes=csr.nbytes(),
            sha256="",
            blob_bytes=0,
            num_bundles=csr.num_bundles,
            num_paths=csr.num_paths,
            edges_mode="radix" if csr.edges.radix else "packed",
        )
        return cls(csr, info)

    def verify_payload(self) -> None:
        """Re-hash the full array payload against the header digest.

        The on-demand check for payloads above ``EAGER_VERIFY_LIMIT``;
        raises :class:`StoreIntegrityError` on mismatch.
        """
        if self._mm is None:
            raise StoreIntegrityError(f"{self.info.path!r}: view maps no file")
        lo = int(self.header["data_start"])
        hi = lo + int(self.header["payload"])
        digest = hashlib.sha256(self._mm[lo:hi]).hexdigest()
        if digest != self.header["sha256"]:
            raise StoreIntegrityError(
                f"{self.info.path}: payload checksum mismatch "
                f"({digest[:12]} != {self.header['sha256'][:12]})"
            )

    def blob_text(self) -> str:
        """The blob text written with the store (always checksummed)."""
        if self._mm is None:
            raise StoreIntegrityError(f"{self.info.path!r}: view maps no file")
        lo = int(self.header["blob_offset"])
        hi = lo + int(self.header["blob_bytes"])
        blob = bytes(self._mm[lo:hi])
        digest = hashlib.sha256(blob).hexdigest()
        if digest != self.header["blob_sha256"]:
            raise StoreIntegrityError(
                f"{self.info.path}: blob checksum mismatch "
                f"({digest[:12]} != {self.header['blob_sha256'][:12]})"
            )
        return blob.decode()

    def close(self) -> None:
        self.csr = None  # type: ignore[assignment]  # drop array views
        self._mm = None


def open_store(
    path: Union[str, Path],
    *,
    expect_key: Optional[str] = None,
    expect_package_version: Optional[str] = None,
    expect_artifact_version: Optional[int] = None,
) -> StoreView:
    """Map a store file zero-copy into a served :class:`PathCSR`.

    Always validates magic, schema, header integrity, the dtype contract,
    and every array extent against the actual file size; ``expect_*``
    pins spec key / package version / artifact version (the registry's
    staleness checks).  The payload digest is re-hashed here only up to
    ``EAGER_VERIFY_LIMIT`` bytes — see the module docstring for the
    trade.  Filesystem errors surface as ``OSError`` (transient, the file
    may be fine); validation failures, a missing or mistyped header field
    included, raise :class:`StoreIntegrityError` (the file is bad or
    stale).
    """
    path = Path(path)
    header = read_store_header(path)
    if header.get("schema") != STORE_SCHEMA:
        raise StoreIntegrityError(
            f"{path}: schema {header.get('schema')!r} != {STORE_SCHEMA}"
        )
    if expect_key is not None and header.get("spec_key") != expect_key:
        raise StoreIntegrityError(f"{path}: spec key mismatch")
    if (
        expect_artifact_version is not None
        and header.get("artifact_version") != expect_artifact_version
    ):
        raise StoreIntegrityError(f"{path}: artifact version mismatch")
    if (
        expect_package_version is not None
        and header.get("package_version") != expect_package_version
    ):
        raise StoreIntegrityError(f"{path}: package version mismatch")
    try:
        view = _map_store(path, header)
    except (KeyError, TypeError, ValueError) as err:
        raise StoreIntegrityError(f"{path}: malformed header ({err!r})") from err
    if view.info.nbytes <= EAGER_VERIFY_LIMIT:
        view.verify_payload()
    return view


def _map_store(path: Path, header: Dict[str, Any]) -> StoreView:
    """Map the arrays of ``path`` where its parsed ``header`` places them."""
    size = path.stat().st_size
    data_start = int(header["data_start"])
    payload = int(header["payload"])
    blob_end = int(header["blob_offset"]) + int(header["blob_bytes"])
    if data_start + payload > size or blob_end > size:
        raise StoreIntegrityError(f"{path}: truncated payload")

    mm = np.memmap(path, dtype=np.uint8, mode="r")
    views: Dict[str, np.ndarray] = {}
    by_name = {s["name"]: s for s in header["arrays"]}
    for field_name, dt in _STORE_ARRAYS:
        spec = by_name.get(field_name)
        if spec is None or spec["dtype"] != dt.str:
            raise StoreIntegrityError(
                f"{path}: array {field_name!r} violates the dtype contract "
                f"({spec and spec['dtype']} != {dt.str})"
            )
        lo = data_start + int(spec["offset"])
        hi = lo + int(spec["size"]) * dt.itemsize
        if not data_start <= lo <= hi <= size:
            raise StoreIntegrityError(f"{path}: array {field_name!r} truncated")
        # plain ndarray views: indexing a memmap subclass costs every request
        # memmap.__getitem__; the base chain still holds the mapping
        views[field_name] = mm[lo:hi].view(dtype=dt, type=np.ndarray)

    csr = PathCSR(
        host_n=int(header["host_n"]),
        edges=PackedEdges(
            views["edge_uv"].reshape(-1, 2),
            tuple(int(r) for r in header["vertex_radix"]),
        ),
        nodes=views["nodes"],
        path_offsets=views["path_offsets"],
        bundle_offsets=views["bundle_offsets"],
        path_reversed=views["path_reversed"],
        lookup=EdgeLookup(
            base=int(header["lookup_base"]),
            keys=views["lookup_keys"],
            gids=views["lookup_gids"],
            flips=views["lookup_flips"],
        ),
    )
    info = StoreInfo(
        path=str(path),
        spec_key=str(header["spec_key"]),
        kind=str(header["kind"]),
        nbytes=payload,
        sha256=str(header["sha256"]),
        blob_bytes=int(header["blob_bytes"]),
        num_bundles=csr.num_bundles,
        num_paths=csr.num_paths,
        edges_mode=str(header["edges_mode"]),
    )
    return StoreView(csr, info, header, mm)

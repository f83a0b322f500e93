"""The memmapped artifact store and the registry tiers built on it.

Covers the instant-start contract end to end: a store file round-trips a
CSR field-identically (integer vertices packed as themselves, tuple
vertices by radix), every corruption class is caught by the right
checksum at the right time, a malformed or schema-1 header is a stale
artifact the registry removes and rebuilds, transient filesystem errors
never delete a healthy artifact, pre-store JSON artifacts are ignored, two
racing processes produce exactly one build, and a fresh service serves its
first batch off the mapped file without rebuilding anything.
"""

import json
import os
import random
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
import repro.service.store as store_module
from repro.core import embed_cycle_load1
from repro.core.embedding import Embedding, MultiCopyEmbedding, MultiPathEmbedding
from repro.core.fast_verify import embedding_csr
from repro.qa.constructions import default_space
from repro.service.api import RoutingService, disjoint_paths
from repro.service.registry import EmbeddingRegistry, make_artifact
from repro.service.specs import (
    BatchRouteResult,
    EmbeddingSpec,
    RouteRequest,
    build_spec,
)
from repro.service.store import (
    EAGER_VERIFY_LIMIT,
    PackedEdges,
    StoreIntegrityError,
    open_store,
    payload_digest,
    read_store_header,
    write_store,
)


def _csr(n=6):
    return embedding_csr(embed_cycle_load1(n))


def _write(tmp_path, csr, blob="{}", **kw):
    kw.setdefault("spec_key", "k" * 64)
    kw.setdefault("kind", "cycle")
    path = tmp_path / "artifact.rpstore"
    info = write_store(path, csr, blob, **kw)
    return path, info


def _flip_byte(path, offset):
    with open(path, "r+b") as fh:
        fh.seek(offset)
        byte = fh.read(1)
        fh.seek(offset)
        fh.write(bytes([byte[0] ^ 0xFF]))


class TestRoundtrip:
    def test_packed_edges_field_identity(self, tmp_path):
        csr = _csr()
        path, info = _write(tmp_path, csr)
        assert info.edges_mode == "packed"
        view = open_store(path)
        try:
            mapped = view.csr
            assert mapped.host_n == csr.host_n
            for f in ("nodes", "path_offsets", "bundle_offsets", "path_reversed"):
                assert np.array_equal(getattr(mapped, f), getattr(csr, f)), f
            assert list(mapped.edges) == list(csr.edges)
            assert mapped.lookup is not None  # searchsorted path is armed
        finally:
            view.close()

    def test_packed_resolution_matches_fresh(self, tmp_path):
        csr = _csr()
        path, _ = _write(tmp_path, csr)
        view = open_store(path)
        try:
            batch = list(csr.edges[:8]) + [(v, u) for u, v in csr.edges[:8]]
            got = view.csr.take(batch)
            want = csr.take(batch)
            assert all(np.array_equal(g, w) for g, w in zip(got, want))
            with pytest.raises(KeyError):
                view.csr.resolve([(0, 5)])  # not a guest edge
        finally:
            view.close()

    def test_tuple_vertex_edges_pack_by_radix(self, tmp_path):
        csr = embedding_csr(build_spec(EmbeddingSpec.make("grid", dims=(4, 4))))
        path, info = _write(tmp_path, csr, kind="grid")
        assert info.edges_mode == "radix"
        assert read_store_header(path)["vertex_radix"] == [4, 4]
        view = open_store(path)
        try:
            assert view.csr.lookup is not None
            assert list(view.csr.edges) == list(csr.edges)  # nested tuples
            batch = list(csr.edges) + [(v, u) for u, v in csr.edges]
            got = view.csr.take(batch)
            want = csr.take(batch)
            assert all(np.array_equal(g, w) for g, w in zip(got, want))
        finally:
            view.close()

    def test_blob_rides_behind_the_arrays(self, tmp_path):
        blob = json.dumps({"payload": "x" * 2048})
        path, info = _write(tmp_path, _csr(), blob=blob)
        assert info.blob_bytes == len(blob.encode())
        view = open_store(path)
        try:
            assert view.blob_text() == blob
        finally:
            view.close()

    def test_header_metadata(self, tmp_path):
        path, info = _write(
            tmp_path, _csr(), spec_key="s" * 64, kind="cycle",
            params={"n": 6}, package_version="9.9.9", construction="cycle(n=6)",
        )
        header = read_store_header(path)
        assert header["spec_key"] == "s" * 64
        assert header["kind"] == "cycle"
        assert header["params"] == {"n": 6}
        assert header["package_version"] == "9.9.9"
        assert header["sha256"] == info.sha256
        assert header["payload"] == info.nbytes
        # every array offset is 8-aligned so int64 views map directly
        assert all(s["offset"] % 8 == 0 for s in header["arrays"])

    @pytest.mark.parametrize("kind, params", [("cycle", {"n": 6}), ("grid", {"dims": (4, 4)})])
    def test_payload_digest_is_the_written_digest(self, tmp_path, kind, params):
        csr = embedding_csr(build_spec(EmbeddingSpec.make(kind, **params)))
        path, info = _write(tmp_path, csr, kind=kind)
        assert payload_digest(csr) == info.sha256
        view = open_store(path)
        assert payload_digest(view.csr) == info.sha256  # mapped arrays too
        view.close()

    def test_write_leaves_no_temp_files(self, tmp_path):
        _write(tmp_path, _csr())
        assert list(tmp_path.glob("*.tmp")) == []

    def test_closed_view_refuses(self, tmp_path):
        path, _ = _write(tmp_path, _csr())
        view = open_store(path)
        view.close()
        with pytest.raises(StoreIntegrityError):
            view.blob_text()
        with pytest.raises(StoreIntegrityError):
            view.verify_payload()


class TestPackedEdges:
    def test_sequence_surface(self):
        uv = np.array([[0, 1], [2, 3], [4, 5]], dtype=np.int64)
        edges = PackedEdges(uv)
        assert len(edges) == 3
        assert edges[1] == (2, 3)
        assert edges[-1] == (4, 5)
        assert edges[:2] == [(0, 1), (2, 3)]
        assert list(edges) == [(0, 1), (2, 3), (4, 5)]
        assert all(isinstance(x, int) for e in edges for x in e)
        # radix (3, 2) numbers the tuple vertex (x, y) as x * 2 + y
        uv = np.array([[0, 2], [3, 5]], dtype=np.int64)
        edges = PackedEdges(uv, (3, 2))
        assert len(edges) == 2
        assert edges[0] == ((0, 0), (1, 0))
        assert edges[-1] == ((1, 1), (2, 1))
        assert edges[:1] == [((0, 0), (1, 0))]
        assert list(edges) == [((0, 0), (1, 0)), ((1, 1), (2, 1))]
        assert all(isinstance(x, int) for e in edges for v in e for x in v)


class TestIntegrity:
    def test_not_a_store_file(self, tmp_path):
        bogus = tmp_path / "bogus.rpstore"
        bogus.write_bytes(b"not a store" * 10)
        with pytest.raises(StoreIntegrityError):
            open_store(bogus)
        with pytest.raises(StoreIntegrityError):
            read_store_header(bogus)

    def test_truncation_detected(self, tmp_path):
        path, _ = _write(tmp_path, _csr())
        size = path.stat().st_size
        with open(path, "r+b") as fh:
            fh.truncate(size - 64)
        with pytest.raises(StoreIntegrityError):
            open_store(path)

    def test_payload_tamper_caught_eagerly_when_small(self, tmp_path):
        path, info = _write(tmp_path, _csr())
        assert info.nbytes <= EAGER_VERIFY_LIMIT  # so open_store re-hashes it
        _flip_byte(path, read_store_header(path)["data_start"])
        with pytest.raises(StoreIntegrityError):
            open_store(path)

    def test_lazy_mode_defers_payload_hash(self, tmp_path, monkeypatch):
        path, _ = _write(tmp_path, _csr())
        _flip_byte(path, read_store_header(path)["data_start"])
        monkeypatch.setattr(store_module, "EAGER_VERIFY_LIMIT", 0)  # "huge"
        view = open_store(path)  # open succeeds ...
        try:
            with pytest.raises(StoreIntegrityError):
                view.verify_payload()  # ... the on-demand re-hash balks
        finally:
            view.close()

    def test_blob_tamper_caught_on_read_even_in_lazy_mode(
        self, tmp_path, monkeypatch
    ):
        path, _ = _write(tmp_path, _csr(), blob='{"k": "v"}')
        _flip_byte(path, read_store_header(path)["blob_offset"])
        monkeypatch.setattr(store_module, "EAGER_VERIFY_LIMIT", 0)
        view = open_store(path)
        try:
            with pytest.raises(StoreIntegrityError):
                view.blob_text()  # blob reads are always digest-checked
        finally:
            view.close()

    def test_expectations_pin_key_and_versions(self, tmp_path):
        path, _ = _write(
            tmp_path, _csr(), spec_key="a" * 64, package_version="1.2.3",
            artifact_version=1,
        )
        open_store(path, expect_key="a" * 64, expect_package_version="1.2.3",
                   expect_artifact_version=1).close()
        with pytest.raises(StoreIntegrityError):
            open_store(path, expect_key="b" * 64)
        with pytest.raises(StoreIntegrityError):
            open_store(path, expect_package_version="9.9.9")
        with pytest.raises(StoreIntegrityError):
            open_store(path, expect_artifact_version=2)

    def test_missing_file_raises_oserror_not_integrity(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            open_store(tmp_path / "absent.rpstore")


def _spec(n=6):
    return EmbeddingSpec.make("cycle", n=n)


# same-length header tampers: the file keeps its size and payload digest
_TAMPERS = {
    "not-an-object": lambda head: b"[]".ljust(len(head)),
    "missing-field": lambda head: head.replace(b'"host_n"', b'"host_x"', 1),
    "schema-1": lambda head: head.replace(b'"schema":2', b'"schema":1', 1),
}


def _tamper_header(path, tamper):
    prefix = struct.Struct("<8sQ")  # magic, header length
    with open(path, "r+b") as fh:
        _, head_len = prefix.unpack(fh.read(prefix.size))
        head = fh.read(head_len)
        tampered = tamper(head)
        assert tampered != head and len(tampered) == len(head)
        fh.seek(prefix.size)
        fh.write(tampered)


class TestRegistryTiers:
    def test_transient_error_spares_the_artifact(self, tmp_path, monkeypatch):
        reg = EmbeddingRegistry(cache_dir=tmp_path)
        spec = _spec()
        reg.get_or_build(spec)
        path = reg.path_for(spec)

        import repro.service.registry as registry_mod

        def flaky(*args, **kwargs):
            raise PermissionError("flaky mount")

        monkeypatch.setattr(registry_mod, "open_store", flaky)
        fresh = EmbeddingRegistry(cache_dir=tmp_path)
        assert fresh.get_store(spec) is None
        assert fresh.get(spec) is None
        assert path.exists()  # NOT deleted: the file may be perfectly fine
        assert fresh.metrics.count("disk_transient") >= 1
        assert fresh.metrics.count("disk_corrupt") == 0

    def test_corrupt_artifact_is_removed(self, tmp_path):
        reg = EmbeddingRegistry(cache_dir=tmp_path)
        spec = _spec()
        reg.get_or_build(spec)
        path = reg.path_for(spec)
        with open(path, "r+b") as fh:
            fh.truncate(64)
        fresh = EmbeddingRegistry(cache_dir=tmp_path)
        assert fresh.get_store(spec) is None
        assert not path.exists()
        assert fresh.metrics.count("disk_corrupt") == 1

    @pytest.mark.parametrize("tamper", sorted(_TAMPERS))
    def test_stale_header_is_removed_and_rebuilt(self, tmp_path, tamper):
        reg = EmbeddingRegistry(cache_dir=tmp_path)
        spec = _spec()
        reg.get_or_build(spec)
        path = reg.path_for(spec)
        _tamper_header(path, _TAMPERS[tamper])
        with pytest.raises(StoreIntegrityError):
            open_store(path)
        fresh = EmbeddingRegistry(cache_dir=tmp_path)
        assert fresh.get_store(spec) is None
        assert fresh.metrics.count("disk_corrupt") == 1
        assert not path.exists()
        assert fresh.get_or_build(spec) is not None
        assert fresh.metrics.count("builds") == 1
        fresh.get_store(spec).close()  # the rebuilt store maps again

    def test_artifact_version_1_store_is_removed_and_rebuilt(self, tmp_path):
        spec = _spec()
        reg = EmbeddingRegistry(cache_dir=tmp_path)
        path = reg.path_for(spec)
        emb = build_spec(spec)
        write_store(  # a store as version 1 wrote it, JSON blob and all
            path, embedding_csr(emb), json.dumps({"payload": "{}"}),
            spec_key=spec.cache_key(), kind=spec.kind,
            package_version=repro.__version__, artifact_version=1,
        )
        assert reg.get(spec) is None
        assert reg.metrics.count("disk_corrupt") == 1
        assert not path.exists()
        reg.get_or_build(spec)
        assert reg.metrics.count("builds") == 1
        assert read_store_header(path)["artifact_version"] == 2
        reg.get_store(spec).close()

    def test_rebuild_that_differs_from_the_store_replaces_it(
        self, tmp_path, monkeypatch
    ):
        import repro.service.registry as registry_mod

        spec = _spec()
        EmbeddingRegistry(cache_dir=tmp_path).get_or_build(spec)
        other = build_spec(EmbeddingSpec.make("cycle2", n=6))  # valid, but not spec's
        monkeypatch.setattr(registry_mod, "build_spec", lambda s: other)
        fresh = EmbeddingRegistry(cache_dir=tmp_path)
        assert fresh.get(spec) is other
        assert fresh.metrics.count("disk_corrupt") == 1
        assert fresh.metrics.count("rebuilds") == 0
        assert fresh.metrics.count("builds") == 0
        assert fresh.metrics.count("artifacts_written") == 1
        view = EmbeddingRegistry(cache_dir=tmp_path).get_store(spec)
        want = embedding_csr(other)
        assert view.info.sha256 == payload_digest(want)
        for f in ("nodes", "path_offsets", "bundle_offsets", "path_reversed"):
            assert np.array_equal(getattr(view.csr, f), getattr(want, f)), f
        view.close()
        # the rewritten store now agrees with the builder
        again = EmbeddingRegistry(cache_dir=tmp_path)
        assert again.get(spec) is other
        assert again.metrics.count("disk_corrupt") == 0
        assert again.metrics.count("rebuilds") == 1

    def test_clear_sweeps_tmp_and_lock_orphans(self, tmp_path):
        reg = EmbeddingRegistry(cache_dir=tmp_path)
        spec = _spec()
        reg.get_or_build(spec)
        kind_dir = reg.path_for(spec).parent
        (kind_dir / "deadbeef.rpstore.12345.abcd.tmp").write_bytes(b"orphan")
        (kind_dir / "deadbeef.lock").write_text("99999")
        (tmp_path / "stray.tmp").write_bytes(b"orphan")
        assert reg.clear() == 1  # one artifact, orphans not counted
        assert list(tmp_path.rglob("*.tmp")) == []
        assert list(tmp_path.rglob("*.lock")) == []
        assert reg.metrics.count("orphans_swept") == 3

    def test_pre_store_json_artifact_is_not_served(self, tmp_path):
        spec = _spec()
        emb = build_spec(spec)
        emb.verify()
        stale = tmp_path / f"{spec.cache_key()}.json"
        stale.write_text(make_artifact(spec, emb))
        reg = EmbeddingRegistry(cache_dir=tmp_path)
        assert reg.get(spec) is None
        assert reg.get_store(spec) is None
        assert spec not in reg
        assert reg.ls() == []
        assert stale.exists()  # left for the user to delete

    def test_multicopy_roundtrip_through_binary_tier(self, tmp_path):
        spec = EmbeddingSpec.make("ccc", n=4)
        reg = EmbeddingRegistry(cache_dir=tmp_path)
        built = reg.get_or_build(spec)
        fresh = EmbeddingRegistry(cache_dir=tmp_path)
        back = fresh.get(spec)  # rebuilt and checked against the store
        assert back.k == built.k
        back.verify()
        view = fresh.get_store(spec)
        want = embedding_csr(built)
        batch = list(want.edges[:6]) + [(v, u) for u, v in want.edges[:6]]
        got = view.csr.take(batch)
        ref = want.take(batch)
        assert all(np.array_equal(g, r) for g, r in zip(got, ref))


def _env():
    src_dir = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
    return env


_RACE_WORKER = """
import sys
from repro.service.registry import EmbeddingRegistry
from repro.service.specs import EmbeddingSpec

reg = EmbeddingRegistry(cache_dir=sys.argv[1])
spec = EmbeddingSpec.make("cycle", n=8)
emb = reg.get_or_build(spec)
assert emb is not None
print(reg.metrics.count("builds"))
"""


class TestCrossProcess:
    def test_two_processes_build_exactly_once(self, tmp_path):
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", _RACE_WORKER, str(tmp_path)],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True, env=_env(),
            )
            for _ in range(2)
        ]
        outs = [p.communicate(timeout=120) for p in procs]
        assert all(p.returncode == 0 for p in procs), outs
        builds = [int(out.strip()) for out, _ in outs]
        assert sum(builds) == 1, f"duplicate build: {builds}"
        # whoever won, the artifact on disk is whole and valid
        reg = EmbeddingRegistry(cache_dir=tmp_path)
        spec = EmbeddingSpec.make("cycle", n=8)
        view = reg.get_store(spec)
        assert view is not None
        view.verify_payload()
        assert list(tmp_path.rglob("*.tmp")) == []
        assert list(tmp_path.rglob("*.lock")) == []

    def test_dead_builders_lock_is_stolen(self, tmp_path):
        reg = EmbeddingRegistry(cache_dir=tmp_path)
        spec = _spec()
        lock = reg._lock_path_for(spec)
        lock.parent.mkdir(parents=True, exist_ok=True)
        lock.write_text("999999999")  # a pid that cannot be alive
        emb = reg.get_or_build(spec)  # must not deadlock
        assert emb is not None
        assert reg.metrics.count("builds") == 1
        assert not lock.exists()

    def test_concurrent_admits_do_not_tear(self, tmp_path):
        spec = _spec()
        emb = build_spec(spec)
        emb.verify()
        import threading

        regs = [EmbeddingRegistry(cache_dir=tmp_path) for _ in range(4)]
        threads = [
            threading.Thread(target=r.put, args=(spec, emb)) for r in regs
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        view = EmbeddingRegistry(cache_dir=tmp_path).get_store(spec)
        assert view is not None
        view.verify_payload()
        assert view.info.sha256 == payload_digest(embedding_csr(emb))


class TestFileBackedServing:
    def test_cold_service_serves_off_the_file(self, tmp_path):
        spec = _spec(8)
        warm = RoutingService(registry=EmbeddingRegistry(cache_dir=tmp_path))
        want = warm.route_batch(spec, [(0, 1), (3, 2)])
        warm.close()

        cold = RoutingService(registry=EmbeddingRegistry(cache_dir=tmp_path))
        got = cold.route_batch(spec, [(0, 1), (3, 2)])
        assert [got.paths(i) for i in range(2)] == [
            want.paths(i) for i in range(2)
        ]
        shard = cold.shard_for(spec)
        assert shard.info.path.endswith(".rpstore")  # no rebuild
        assert cold.metrics.count("builds") == 0
        cold.close()

    def test_attach_shard_by_store_path(self, tmp_path):
        csr = _csr()
        path, _ = _write(tmp_path, csr, spec_key="w" * 64)
        view = open_store(str(path))
        assert view.info.spec_key == "w" * 64
        batch = list(csr.edges[:4])
        got = view.csr.take(batch)
        want = csr.take(batch)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
        view.close()

    def test_first_shard_for_serves_the_store_file(self, tmp_path):
        svc = RoutingService(registry=EmbeddingRegistry(cache_dir=tmp_path))
        spec = _spec()
        shard = svc.shard_for(spec)  # empty cache: build, admit, map
        assert shard.info.path == str(svc.registry.path_for(spec))
        assert svc.metrics.count("builds") == 1
        svc.close()

    def test_deleted_store_serves_the_in_memory_export(self, tmp_path):
        svc = RoutingService(registry=EmbeddingRegistry(cache_dir=tmp_path))
        spec = _spec()
        emb = svc.get_embedding(spec)
        svc.registry.path_for(spec).unlink()  # another process cleared it
        batch = [(0, 1), (2, 1), (5, 4)]
        got = svc.route_batch(spec, batch)
        assert [got.paths(i) for i in range(3)] == [
            disjoint_paths(emb, edge) for edge in batch
        ]
        assert svc.shard_for(spec).info.path == ""  # process-local
        svc.close()

    @pytest.mark.parametrize(
        "kind, params, request_",
        [
            ("cycle", {"n": 6}, (0.5, 1)),
            ("cycle", {"n": 6}, ("0", "1")),
            ("grid", {"dims": (4, 4)}, (0.5, 1)),
            ("grid", {"dims": (4, 4)}, ("0", "1")),
            ("grid", {"dims": (4, 4)}, ((0.5, 0), (1, 0))),
        ],
        ids=["cycle-float", "cycle-str", "grid-float", "grid-str", "grid-coordinate"],
    )
    def test_non_integer_endpoints_are_unknown(
        self, tmp_path, kind, params, request_
    ):
        spec = EmbeddingSpec.make(kind, **params)
        emb = EmbeddingRegistry(cache_dir=tmp_path).get_or_build(spec)
        with pytest.raises(KeyError):
            disjoint_paths(emb, request_)  # the referee
        cold = RoutingService(registry=EmbeddingRegistry(cache_dir=tmp_path))
        valid = cold.shard_for(spec).csr.edges[0]  # off the store file
        with pytest.raises(KeyError, match="not in embedding"):
            cold.route_batch(spec, [request_])
        # behind a valid request, the error still names the bad one
        with pytest.raises(KeyError, match=re.escape(repr(request_))):
            cold.route_batch(spec, [valid, request_])
        cold.close()


def _stored_edges(emb):
    """Every guest edge ``emb`` stores, in the embedding's own order."""
    if isinstance(emb, MultiCopyEmbedding):
        return list(dict.fromkeys(e for c in emb.copies for e in _stored_edges(c)))
    return list(emb.edge_paths)


class TestResolverReferee:
    def test_every_kind_resolves_like_disjoint_paths(self, tmp_path):
        rng = random.Random(16)
        checked = []
        for construction in default_space():
            emb = construction.build(construction.sample(rng))
            if not isinstance(emb, (Embedding, MultiCopyEmbedding, MultiPathEmbedding)):
                continue  # scenario subjects route nothing
            edges = _stored_edges(emb)
            batch = edges + [(v, u) for u, v in edges]
            fresh = embedding_csr(emb)
            path = tmp_path / f"{construction.kind}.rpstore"
            write_store(path, fresh, "{}", spec_key="k" * 64, kind=construction.kind)
            view = open_store(path)
            requests = [RouteRequest(edge) for edge in batch]
            for csr in (fresh, view.csr):
                result = BatchRouteResult(requests, *csr.take(batch))
                for i, edge in enumerate(batch):
                    assert result.paths(i) == disjoint_paths(emb, edge), (
                        construction.kind, edge,
                    )
            view.close()
            checked.append(construction.kind)
        assert len(checked) == 18, checked

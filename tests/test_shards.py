"""Shard lifecycle: publish/attach/detach/unlink, integrity, multi-process.

The shared-memory layer has one safety story — publishers own segments,
attachers are guests — and these tests exercise it end to end: zero-copy
attach resolves the same answers as the publisher, a corrupted payload is
refused at attach, a crashing worker cannot reap a segment, and two
workers can serve batches off one published shard (the tier-1 smoke for
the batch-serving redesign).
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.core import embed_cycle_load1
from repro.core.fast_verify import embedding_csr
from repro.obs import MetricsRegistry
from repro.service.shards import (
    ShardIntegrityError,
    ShardManager,
    attach_shard,
    publish_csr,
)


def _csr(n=6):
    return embedding_csr(embed_cycle_load1(n))


def _env():
    src_dir = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _run_worker(probe: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, env=_env(),
    )


class TestPublishAttach:
    def test_roundtrip_is_field_identical(self):
        csr = _csr()
        shm, info = publish_csr(csr, spec_key="test")
        try:
            view = attach_shard(info.name)
            try:
                assert view.info.spec_key == "test"
                assert view.info.num_paths == csr.num_paths
                assert view.csr.edges == csr.edges
                batch = list(csr.edges[:4]) + [
                    (v, u) for u, v in csr.edges[:4]
                ]
                a_nodes, a_po, a_ro = view.csr.take(batch)
                b_nodes, b_po, b_ro = csr.take(batch)
                assert (a_nodes == b_nodes).all()
                assert (a_po == b_po).all()
                assert (a_ro == b_ro).all()
            finally:
                view.close()
        finally:
            shm.close()
            shm.unlink()

    def test_attached_arrays_are_read_only(self):
        shm, info = publish_csr(_csr())
        try:
            view = attach_shard(info.name)
            with pytest.raises((ValueError, RuntimeError)):
                view.csr.nodes[0] = 99
            view.close()
        finally:
            shm.close()
            shm.unlink()

    def test_unlinked_segment_cannot_be_attached(self):
        shm, info = publish_csr(_csr())
        shm.close()
        shm.unlink()
        with pytest.raises(FileNotFoundError):
            attach_shard(info.name)

    def test_payload_corruption_detected(self):
        csr = _csr()
        shm, info = publish_csr(csr)
        try:
            shm.buf[-1] ^= 0xFF  # flip one payload byte
            with pytest.raises(ShardIntegrityError, match="checksum"):
                attach_shard(info.name)
        finally:
            shm.close()
            shm.unlink()

    def test_bad_magic_detected(self):
        shm, info = publish_csr(_csr())
        try:
            shm.buf[0] ^= 0xFF
            with pytest.raises(ShardIntegrityError, match="not a repro shard"):
                attach_shard(info.name)
        finally:
            shm.close()
            shm.unlink()

    def test_dtype_contract_violation_detected(self):
        shm, info = publish_csr(_csr())
        try:
            # same-length in-place header tamper: nodes dtype <i8 -> <i2
            head = bytes(shm.buf[: 4096]).replace(b'"dtype":"<i8"', b'"dtype":"<i2"', 1)
            shm.buf[: 4096] = head
            with pytest.raises(ShardIntegrityError, match="dtype contract"):
                attach_shard(info.name)
        finally:
            shm.close()
            shm.unlink()


class TestShardManager:
    def test_get_or_publish_caches_and_counts(self):
        metrics = MetricsRegistry()
        with ShardManager(metrics=metrics) as mgr:
            first = mgr.get_or_publish("k", _csr)
            again = mgr.get_or_publish("k", _csr)
            assert again is first
            assert metrics.count("shard_misses") == 1
            assert metrics.count("shard_hits") == 1
            assert metrics.snapshot()["gauges"]["shards_active"] == 1
            assert list(mgr.info()) == ["k"]
            assert mgr.get("k") is first and mgr.get("absent") is None

    def test_unlink_and_close(self):
        mgr = ShardManager()
        view = mgr.get_or_publish("k", _csr)
        name = view.info.name
        assert mgr.unlink("k") is True
        assert mgr.unlink("k") is False  # idempotent
        with pytest.raises(FileNotFoundError):
            attach_shard(name)
        mgr.get_or_publish("k2", _csr)
        mgr.close()
        assert mgr.info() == {}
        mgr.close()  # close is idempotent too

    def test_teardown_while_caller_holds_arrays(self):
        # regression: closing the segment before unlinking it raised
        # BufferError while a caller still held an array from view.csr —
        # unlink(key) failed with shards_active stuck at 1, and close()
        # swallowed the error and left the segment in /dev/shm
        metrics = MetricsRegistry()
        mgr = ShardManager(metrics=metrics)
        view = mgr.get_or_publish("k", _csr)
        held, name = view.csr.nodes, view.info.name
        expected = held.copy()
        other = mgr.get_or_publish("k2", lambda: _csr(4))
        held_other, other_name = other.csr.nodes, other.info.name
        assert mgr.unlink("k") is True
        mgr.close()
        for segment in (name, other_name):
            with pytest.raises(FileNotFoundError):
                attach_shard(segment)
            if os.path.isdir("/dev/shm"):
                assert not os.path.exists(os.path.join("/dev/shm", segment))
        gauges = metrics.snapshot()["gauges"]
        assert gauges["shards_active"] == 0 and gauges["shard_bytes"] == 0
        assert (held == expected).all() and held_other.size > 0

    def test_local_backend_serves_without_segments(self):
        metrics = MetricsRegistry()
        with ShardManager(metrics=metrics, backend="local") as mgr:
            view = mgr.get_or_publish("k", _csr)
            assert view.info.backend == "local" and view.info.name == ""
            nodes, _, _ = view.csr.take([view.csr.edges[0]])
            assert nodes.size > 0

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            ShardManager(backend="nfs")


class TestMultiProcess:
    def test_worker_crash_leaves_segment_alive(self):
        shm, info = publish_csr(_csr(), spec_key="crashy")
        try:
            out = _run_worker(
                "import os;"
                "from repro.service.shards import attach_shard;"
                f"view = attach_shard({info.name!r});"
                "view.csr.take([view.csr.edges[0]]);"
                "print('attached-ok', flush=True);"
                "os._exit(17)"  # die without any cleanup
            )
            assert "attached-ok" in out.stdout
            assert out.returncode == 17
            # the publisher's segment must have survived the guest's death
            view = attach_shard(info.name)
            assert view.info.spec_key == "crashy"
            view.close()
        finally:
            shm.close()
            shm.unlink()

    def test_two_workers_resolve_batches(self):
        csr = _csr()
        shm, info = publish_csr(csr, spec_key="smoke")
        try:
            batch = list(csr.edges[:8]) + [(v, u) for u, v in csr.edges[:8]]
            _, _, request_offsets = csr.take(batch)
            expected = int(request_offsets[-1])
            probe = (
                "from repro.service.shards import attach_shard;"
                f"view = attach_shard({info.name!r});"
                f"batch = {batch!r};"
                "nodes, po, ro = view.csr.take(batch);"
                "print('paths', int(ro[-1]), flush=True);"
                "view.close()"
            )
            workers = [
                subprocess.Popen(
                    [sys.executable, "-c", probe],
                    stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                    text=True, env=_env(),
                )
                for _ in range(2)
            ]
            for worker in workers:
                out, err = worker.communicate(timeout=60)
                assert worker.returncode == 0, err
                assert f"paths {expected}" in out
        finally:
            shm.close()
            shm.unlink()

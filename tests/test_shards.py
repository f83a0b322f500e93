"""Shard lifecycle: publish/open/unlink, integrity, multi-process.

Every shard is the ``StoreView`` of a memmapped ``.rpstore`` file, and
the layer has one safety story — publishers own their views, other
processes are guests that open the same file — and these tests exercise
it end to end: mapped arrays are read-only, a tampered dtype contract is
refused at open, unlinking a shard never deletes its store, a crashing
worker cannot take a shard from its publisher, and two workers can serve
batches off one store file (the tier-1 smoke for the batch-serving
redesign).
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core import embed_cycle_load1
from repro.core.fast_verify import embedding_csr
from repro.obs import MetricsRegistry
from repro.service.shards import ShardManager
from repro.service.store import StoreIntegrityError, open_store, write_store


def _csr(n=6):
    return embedding_csr(embed_cycle_load1(n))


def _store(tmp_path, n=6, key="test"):
    path = tmp_path / f"{key}-{n}.rpstore"
    write_store(path, _csr(n), "{}", spec_key=key, kind="cycle")
    return str(path)


def _publish(mgr, key, path):
    return mgr.publish_mapped(key, open_store(path))


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
    def test_attached_arrays_are_read_only(self, tmp_path):
        view = open_store(_store(tmp_path))
        # plain ndarray views of the mapping, not memmap subclasses
        assert type(view.csr.nodes) is type(view.csr.lookup.keys) is np.ndarray
        with pytest.raises((ValueError, RuntimeError)):
            view.csr.nodes[0] = 99
        with pytest.raises((ValueError, RuntimeError)):
            view.csr.lookup.keys[0] = 99
        view.close()

    def test_dtype_contract_violation_detected(self, tmp_path):
        path = _store(tmp_path)
        with open(path, "r+b") as fh:
            # same-length in-place header tamper: nodes dtype <i8 -> <i2
            head = fh.read(4096)
            fh.seek(0)
            fh.write(head.replace(b'"dtype":"<i8"', b'"dtype":"<i2"', 1))
        with pytest.raises(StoreIntegrityError, match="dtype contract"):
            open_store(path)


class TestShardManager:
    def test_publish_mapped_caches_and_counts(self, tmp_path):
        metrics = MetricsRegistry()
        path = _store(tmp_path)
        with ShardManager(metrics=metrics) as mgr:
            first = _publish(mgr, "k", path)
            again = _publish(mgr, "k", path)  # a racing publish of one key
            assert again is first
            assert first.info.path == path
            assert metrics.count("shards_published") == 1
            assert metrics.snapshot()["gauges"]["shards_active"] == 1
            assert list(mgr.info()) == ["k"]
            assert mgr.get("k") is first and mgr.get("absent") is None

    def test_unlink_and_close(self, tmp_path):
        mgr = ShardManager()
        path = _store(tmp_path)
        _publish(mgr, "k", path)
        assert mgr.unlink("k") is True
        assert mgr.unlink("k") is False  # idempotent
        assert mgr.get("k") is None
        assert os.path.exists(path)  # the store belongs to the registry
        open_store(path).close()
        _publish(mgr, "k2", _store(tmp_path, n=4))
        mgr.close()
        assert mgr.info() == {}
        mgr.close()  # close is idempotent too

    def test_teardown_while_caller_holds_arrays(self, tmp_path):
        # a caller holding an array from view.csr must neither fail the
        # teardown nor see its array change underneath it
        metrics = MetricsRegistry()
        mgr = ShardManager(metrics=metrics)
        view = _publish(mgr, "k", _store(tmp_path))
        held = view.csr.nodes
        expected = held.copy()
        other = _publish(mgr, "k2", _store(tmp_path, n=4))
        held_other = other.csr.nodes
        assert mgr.unlink("k") is True
        mgr.close()
        assert view.csr is None and other.csr is None
        gauges = metrics.snapshot()["gauges"]
        assert gauges["shards_active"] == 0 and gauges["shard_bytes"] == 0
        assert (held == expected).all() and held_other.size > 0


class TestMultiProcess:
    def test_worker_crash_leaves_shard_alive(self, tmp_path):
        mgr = ShardManager()
        view = _publish(mgr, "crashy", _store(tmp_path, key="crashy"))
        out = _run_worker(
            "import os;"
            "from repro.service.store import open_store;"
            f"view = open_store({view.info.path!r});"
            "view.csr.take([view.csr.edges[0]]);"
            "print('opened-ok', flush=True);"
            "os._exit(17)"  # die without any cleanup
        )
        assert "opened-ok" in out.stdout
        assert out.returncode == 17
        # the publisher keeps serving after the guest's death
        nodes, _, _ = mgr.get("crashy").csr.take([view.csr.edges[0]])
        assert nodes.size > 0
        again = open_store(view.info.path)
        assert again.info.spec_key == "crashy"
        again.close()
        mgr.close()

    def test_two_workers_resolve_batches(self, tmp_path):
        csr = _csr()
        path = _store(tmp_path, key="smoke")
        batch = list(csr.edges[:8]) + [(v, u) for u, v in csr.edges[:8]]
        _, _, request_offsets = csr.take(batch)
        expected = int(request_offsets[-1])
        probe = (
            "from repro.service.store import open_store;"
            f"view = open_store({path!r});"
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

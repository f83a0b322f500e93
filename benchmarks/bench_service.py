"""Service layer: cold-build vs warm-cache vs parallel-batch throughput.

Not a paper experiment — this bench gives the serving subsystem its
baseline numbers: how much a memory hit and a store map save over
rebuilding (the Theorem-5 pipeline is the expensive artifact), that the
on-disk tier is shared across processes, and what a batch of mixed
routing requests sustains through the concurrent engine.  Results are recorded in
EXPERIMENTS.md (S1).
"""

import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from conftest import print_table

import repro
from repro.service import (
    BuildEngine,
    EmbeddingRegistry,
    EmbeddingSpec,
    RouteRequest,
    RoutingService,
    build_spec,
)

# deliberately stable across runs: the second invocation of this bench
# demonstrates the cross-process on-disk tier
CACHE_DIR = Path(tempfile.gettempdir()) / "repro-bench-service-cache"

TREE_SPEC = EmbeddingSpec.make("tree", m=4)  # Theorem-5-scale artifact


def test_cold_vs_warm_vs_disk_tiers():
    registry = EmbeddingRegistry(cache_dir=CACHE_DIR)

    t0 = time.perf_counter()
    cold_emb = build_spec(TREE_SPEC)
    cold_emb.verify()
    cold = time.perf_counter() - t0

    registry.get_or_build(TREE_SPEC)  # populate both tiers
    t0 = time.perf_counter()
    warm_emb = registry.get(TREE_SPEC)
    warm = time.perf_counter() - t0

    fresh = EmbeddingRegistry(cache_dir=CACHE_DIR)  # no memory tier yet
    t0 = time.perf_counter()
    view = fresh.get_store(TREE_SPEC)
    mapped = time.perf_counter() - t0

    t0 = time.perf_counter()
    disk_emb = fresh.get(TREE_SPEC)
    rebuilt = time.perf_counter() - t0

    assert warm_emb is not None and view is not None and disk_emb is not None
    view.close()
    assert fresh.metrics.count("disk_hits") == 1
    assert fresh.metrics.count("rebuilds") == 1
    print_table(
        "service: latency by tier (Theorem 5, m=4)",
        [
            ("cold build+verify", f"{cold * 1000:.1f}", "1.0x"),
            ("store hit get(): rebuild+verify+digest", f"{rebuilt * 1000:.1f}",
             f"{cold / rebuilt:.1f}x"),
            ("store map (get_store)", f"{mapped * 1000:.3f}", f"{cold / mapped:.0f}x"),
            ("memory tier", f"{warm * 1000:.3f}", f"{cold / warm:.0f}x"),
        ],
        ["tier", "latency (ms)", "speedup"],
    )
    # the acceptance bar: a memory hit and a store map are each >= 10x
    # faster than cold construction; a store hit that needs the embedding
    # object rebuilds it, so that row is a build and has no bar
    assert cold >= 10 * warm, f"warm {warm:.4f}s not 10x under cold {cold:.4f}s"
    assert cold >= 10 * mapped, f"map {mapped:.4f}s not 10x under cold {cold:.4f}s"


def test_disk_tier_is_shared_across_processes():
    registry = EmbeddingRegistry(cache_dir=CACHE_DIR)
    registry.get_or_build(TREE_SPEC)
    path = str(registry.path_for(TREE_SPEC))
    src_dir = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
    probe = (
        "from repro.service import EmbeddingRegistry, EmbeddingSpec;"
        f"reg = EmbeddingRegistry(cache_dir={str(CACHE_DIR)!r});"
        "spec = EmbeddingSpec.make('tree', m=4);"
        "view = reg.get_store(spec);"
        "assert view is not None, 'expected a store hit in a fresh process';"
        "print('store_hits', reg.metrics.count('store_hits'));"
        "print('builds', reg.metrics.count('builds'));"
        "print('path', view.info.path)"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, env=env, check=True,
    )
    assert "store_hits 1" in out.stdout
    assert "builds 0" in out.stdout
    assert f"path {path}" in out.stdout


def test_parallel_batch_throughput():
    workload = (
        [EmbeddingSpec.make("cycle", n=n) for n in (6, 8, 10)]
        + [
            EmbeddingSpec.make("cycle2", n=8),
            EmbeddingSpec.make("grid", dims=(16, 16), torus=True),
            EmbeddingSpec.make("ccc", n=4),
            EmbeddingSpec.make("large-cycle", n=8),
            EmbeddingSpec.make("tree", m=2),
        ]
    )

    with tempfile.TemporaryDirectory() as serial_dir:
        engine = BuildEngine(EmbeddingRegistry(cache_dir=serial_dir), max_workers=0)
        t0 = time.perf_counter()
        engine.build_batch(workload)
        serial = time.perf_counter() - t0

    with tempfile.TemporaryDirectory() as parallel_dir:
        registry = EmbeddingRegistry(cache_dir=parallel_dir)
        engine = BuildEngine(registry)
        t0 = time.perf_counter()
        engine.build_batch(workload)
        parallel = time.perf_counter() - t0

        t0 = time.perf_counter()
        engine.build_batch(workload)  # now every spec is cached
        cached = time.perf_counter() - t0

    n = len(workload)
    print_table(
        f"service: mixed batch of {n} construction requests",
        [
            ("serial cold", f"{serial:.3f}", f"{n / serial:.1f}"),
            ("parallel cold", f"{parallel:.3f}", f"{n / parallel:.1f}"),
            ("warm cache", f"{cached:.4f}", f"{n / cached:.0f}"),
        ],
        ["mode", "time (s)", "requests/s"],
    )
    # shape: cache beats any rebuild by an order of magnitude; the pool
    # pays a fixed startup cost, so its bound is additive — it wins
    # outright once cores * construction time amortize the fork
    assert cached * 10 <= serial
    assert parallel <= serial + 1.5


def test_warm_route_serving_rate():
    registry = EmbeddingRegistry(cache_dir=CACHE_DIR)
    service = RoutingService(registry=registry)
    spec = EmbeddingSpec.make("cycle", n=10)
    service.get_embedding(spec)  # warm
    edges = list(service.get_embedding(spec).edge_paths)
    requests = 2_000
    t0 = time.perf_counter()
    for i in range(requests):
        service.route(spec, RouteRequest(edges[i % len(edges)]))
    elapsed = time.perf_counter() - t0
    rate = requests / elapsed
    print_table(
        "service: warm-cache routing requests",
        [(requests, f"{elapsed:.3f}", f"{rate:,.0f}")],
        ["requests", "time (s)", "requests/s"],
    )
    assert rate > 1_000  # warm serving must never fall back to rebuilds

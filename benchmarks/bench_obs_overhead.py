"""Instrumentation overhead: disabled recording must stay off the hot path.

The obs acceptance bar (ISSUE.md): with ``recorder=None`` the simulators
pay only a truthiness test per decision point, so a permutation workload
runs at the same speed as before the instrumentation existed.  Timing
comparisons on shared CI hardware are noisy, so the assertion is lenient
(well under 2x, versus the <5% target measured locally); the recording-on
column is printed for the record, not asserted.
"""

import time

from conftest import print_table

from repro.hypercube.graph import Hypercube
from repro.obs import LinkRecorder
from repro.routing.batched import BatchedStoreForward
from repro.routing.permutation import dimension_order_path, random_permutation
from repro.routing.simulator import StoreForwardSimulator


def _workload(n=8, reps=4, seed=3):
    perm = random_permutation(1 << n, seed=seed)
    paths = [dimension_order_path(n, u, v) for u, v in enumerate(perm) if u != v]
    return [(p, r + 1) for p in paths for r in range(reps)]


def _best_of(fn, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_disabled_recorder_overhead():
    host = Hypercube(8)
    work = _workload()
    rows = []
    for engine in (StoreForwardSimulator, BatchedStoreForward):
        base = _best_of(lambda: engine(host).run(work))
        off = _best_of(lambda: engine(host).run(work, recorder=None))
        on = _best_of(
            lambda: engine(host).run(work, recorder=LinkRecorder(host=host))
        )
        rows.append(
            (
                engine.engine,
                f"{base * 1000:.2f}ms",
                f"{off * 1000:.2f}ms",
                f"{on * 1000:.2f}ms",
                f"{off / base:.3f}",
            )
        )
        # recorder=None must be indistinguishable from the plain run;
        # generous bound because CI timers jitter
        assert off <= base * 1.5 + 0.01
    print_table(
        "obs: recorder overhead (Q_8 permutation, 4 packets/node)",
        rows,
        ["engine", "baseline", "recorder=None", "recording", "off/base"],
    )

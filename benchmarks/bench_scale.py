"""Scale check: the next power-of-two regime and beyond (n = 16..20).

n = 16, 17 are the first sizes beyond the unit-test range where 2k = 8 is a
power of two again, so Theorems 1 and 2 owe their *exact* claims: width
floor(n/2) (+1 for Theorem 1's direct edge), cost 3, and 100% link busy for
n = 16.  Construction plus full schedule verification runs in seconds.

The vectorized kernels extend the checkable regime: Q_18 verification runs
fast *and* reference engines side by side (the scalar walk is still
affordable there, so the agreement is asserted, not assumed), Q_20 runs
the vectorized kernels alone (million-node host — the regime the scalar
walk priced out), and the Q_12 Section-7 wormhole workload pits the two
flit engines against each other at scale.
"""

import time

import pytest
from conftest import print_table

from repro.core import (
    embed_cycle_load1,
    embed_cycle_load2,
    theorem1_claim,
    theorem2_claim,
)
from repro.routing.schedule import multipath_packet_schedule


def test_scale_theorem1_n16(benchmark):
    rows = []
    for n in (16, 17):
        emb = embed_cycle_load1(n)
        emb.verify()
        sched = multipath_packet_schedule(emb, extra_direct_at=3)
        sched.verify()
        claim = theorem1_claim(n)
        rows.append((n, 1 << n, claim["width"], emb.width, sched.makespan))
        assert emb.width >= claim["width"]
        assert sched.makespan == 3
    print_table(
        "scale: Theorem 1 at 2^16-node hosts (full power-of-two width)",
        rows,
        ["n", "nodes", "claimed w", "measured w", "cost"],
    )

    benchmark(lambda: embed_cycle_load1(14))


def test_scale_theorem2_n16(benchmark):
    emb = embed_cycle_load2(16)
    emb.verify()
    sched = multipath_packet_schedule(emb)
    sched.verify()
    claim = theorem2_claim(16)
    busy = sched.busy_link_fraction()
    print_table(
        "scale: Theorem 2 at n=16 (131072 guest vertices)",
        [(16, claim["width"], emb.width, claim["cost"], sched.makespan,
          f"{busy:.2f}")],
        ["n", "claimed w", "measured w", "claimed cost", "measured cost",
         "link busy"],
    )
    assert emb.width == claim["width"] == 8
    assert sched.makespan == 3
    assert busy == 1.0

    benchmark(lambda: embed_cycle_load2(12))


def _verify_signature(report):
    return (
        tuple((c.name, c.passed) for c in report.checks),
        tuple(sorted(report.metrics.items())),
    )


def test_scale_verification_q18(benchmark):
    """Q_18 (262k nodes): vectorized vs scalar verification, side by side."""
    emb = embed_cycle_load1(18)
    t0 = time.perf_counter()
    fast = emb.verify(strict=False)
    t_fast = time.perf_counter() - t0
    t0 = time.perf_counter()
    reference = emb.verify_reference(strict=False)
    t_ref = time.perf_counter() - t0
    assert fast.ok and reference.ok
    assert _verify_signature(fast) == _verify_signature(reference)
    claim = theorem1_claim(18)
    print_table(
        "scale: Q_18 verification, vectorized kernels vs scalar referee",
        [(18, 1 << 18, claim["width"], fast.metrics["width"],
          f"{t_ref:.2f}s", f"{t_fast:.2f}s", f"{t_ref / t_fast:.1f}x")],
        ["n", "nodes", "claimed w", "measured w", "reference", "fast",
         "speedup"],
    )
    assert t_ref / t_fast >= 3.0

    benchmark(lambda: emb.verify(strict=False))


@pytest.mark.slow
def test_scale_verification_q20():
    """Q_20 (1M nodes): the regime the scalar walk priced out.

    Vectorized kernels only — the point is that full multipath
    verification of a million-node host completes at all.  The certified
    width follows E3's non-power-of-two rule (2k = 20), not the raw
    floor(n/2) claim.
    """
    emb = embed_cycle_load1(20)
    t0 = time.perf_counter()
    report = emb.verify(strict=False)
    t_fast = time.perf_counter() - t0
    assert report.ok
    claim = theorem1_claim(20)
    print_table(
        "scale: Q_20 verification (vectorized kernels only)",
        [(20, 1 << 20, claim["width"], report.metrics["width"],
          f"{t_fast:.2f}s")],
        ["n", "nodes", "claimed w", "measured w", "fast verify"],
    )
    # E3: 2k = 20 is not a power of two, so the moment-indexing width is
    # 2^floor(log2 n)/2 + 1 = 9, one short of the claimed floor(n/2)
    assert report.metrics["width"] == (1 << (20).bit_length() - 1) // 2 + 1


def test_scale_wormhole_q12(benchmark):
    """Q_12 Section-7 wormhole traffic: both flit engines, same makespan."""
    from repro.hypercube.graph import Hypercube
    from repro.routing.batched import BatchedWormhole
    from repro.routing.permutation import dimension_order_path, random_permutation
    from repro.routing.wormhole import WormholeSimulator

    n, num_flits, overlays = 12, 16, 4
    work = []
    for s in range(overlays):
        perm = random_permutation(1 << n, seed=s + 1)
        work += [
            (dimension_order_path(n, u, v), num_flits, s + 1)
            for u, v in enumerate(perm)
            if u != v
        ]

    def run_reference():
        t0 = time.perf_counter()
        makespan = WormholeSimulator(Hypercube(n)).run(work).makespan
        return makespan, time.perf_counter() - t0

    def run_batched():
        t0 = time.perf_counter()
        makespan = BatchedWormhole(Hypercube(n)).run(work).makespan
        return makespan, time.perf_counter() - t0

    ref_makespan, t_ref = run_reference()
    fast_makespan, t_fast = run_batched()
    assert ref_makespan == fast_makespan
    print_table(
        "scale: Q_12 wormhole, flit-loop reference vs batched frontiers",
        [(n, len(work), num_flits, ref_makespan, f"{t_ref:.2f}s",
          f"{t_fast:.2f}s", f"{t_ref / t_fast:.1f}x")],
        ["n", "worms", "M", "makespan", "reference", "fast", "speedup"],
    )

    benchmark(lambda: run_batched()[0])

"""Performance: reference vs batched simulator (hpc-parallel hygiene).

Not a paper experiment — this bench keeps the two simulator engines honest
against each other (same semantics class, comparable makespans) and records
where the numpy engine pays off at batch size one, per the profile-first
guidance.
"""

from conftest import print_table

from repro.hypercube.graph import Hypercube
from repro.routing.batched import BatchedStoreForward
from repro.routing.permutation import dimension_order_path, random_permutation
from repro.routing.simulator import StoreForwardSimulator


def _workload(n: int, reps: int):
    perm = random_permutation(1 << n, seed=1)
    paths = [dimension_order_path(n, u, v) for u, v in enumerate(perm) if u != v]
    return [(p, r + 1) for p in paths for r in range(reps)]


def test_perf_reference_engine(benchmark):
    work = _workload(10, 4)

    def run():
        sim = StoreForwardSimulator(Hypercube(10))
        return sim.run(work).makespan

    makespan = benchmark(run)
    assert makespan > 0


def test_perf_vectorized_engine(benchmark):
    work = _workload(10, 4)

    def run():
        sim = BatchedStoreForward(Hypercube(10))
        return sim.run(work).makespan

    makespan = benchmark(run)
    assert makespan > 0


def test_engines_agree_within_envelope():
    rows = []
    for n, reps in ((8, 4), (10, 4), (12, 4)):
        work = _workload(n, reps)
        a = StoreForwardSimulator(Hypercube(n)).run(work).makespan
        b = BatchedStoreForward(Hypercube(n)).run(work).makespan
        rows.append((n, len(work), a, b))
        # FIFO vs static-priority arbitration: same congestion+dilation
        # envelope, so makespans stay within a small factor
        assert 0.5 <= b / a <= 2.0
    print_table(
        "perf: FIFO reference vs batched static-priority engine",
        rows,
        ["n", "packets", "reference makespan", "batched makespan"],
    )

"""E16 (Section 7's [20], Pippenger): routing with limited buffers.

Claim shape reproduced: constant-size node buffers suffice for fast
permutation routing — but only with care.  Naive backpressure deadlocks on
injection pressure; reserving two transit slots per node restores progress,
and B = 8 already matches the unbounded-buffer time.
"""

from conftest import print_table

from repro.hypercube.graph import Hypercube
from repro.routing.bounded_buffers import BoundedBufferSimulator, BufferDeadlock
from repro.routing.permutation import dimension_order_path, random_permutation
from repro.routing.simulator import StoreForwardSimulator


def _paths(n=6, reps=4):
    perm = random_permutation(1 << n, seed=2)
    return [
        dimension_order_path(n, u, v)
        for u, v in enumerate(perm)
        if u != v
        for _ in range(reps)
    ]


def test_e16_buffer_sweep(benchmark):
    ref = StoreForwardSimulator(Hypercube(6))
    unbounded = ref.run(_paths()).makespan

    rows = [("unbounded", "-", unbounded)]
    for B, R in ((2, 0), (2, 1), (3, 2), (4, 2), (8, 4), (16, 4)):
        sim = BoundedBufferSimulator(Hypercube(6), B, injection_reserve=R)
        try:
            rows.append((B, R, sim.run(_paths()).makespan))
        except BufferDeadlock:
            rows.append((B, R, "DEADLOCK"))
    print_table(
        "E16: permutation routing vs node buffer size (Q_6, 4 packets/node)",
        rows,
        ["buffer B", "injection reserve", "completion"],
    )
    finite = [r[2] for r in rows[1:] if isinstance(r[2], int)]
    assert finite  # some constant-buffer configuration completes
    assert min(finite) <= 2 * unbounded  # within 2x of unbounded
    assert any(r[2] == "DEADLOCK" for r in rows)  # and naive ones jam

    def run_b8():
        sim = BoundedBufferSimulator(Hypercube(6), 8, injection_reserve=4)
        return sim.run(_paths()).makespan

    benchmark(run_b8)

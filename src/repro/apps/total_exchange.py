"""All-to-all personalized communication (Section 1's Stout–Wagar theme).

Every node sends a distinct packet to every other node.  Two regimes:

* **single-port dimension exchange** — the classical algorithm: ``n``
  rounds, round ``d`` forwards everything whose destination differs in bit
  ``d`` over the one dimension-``d`` link; each round ships ``2^{n-1}``
  packets per node sequentially, so the total is ``n * 2^{n-1}`` steps;
* **all-port e-cube** — the paper's model (every node drives all ``n``
  links each step): all ``2^n * (2^n - 1)`` packets go at once on their
  dimension-order paths.  E-cube spreads them perfectly evenly —
  ``2^{n-1}`` packets per directed link — so the measured completion is
  ``~2^{n-1} + n``: the Theta(n) "use every link" dividend again.
"""

from __future__ import annotations

from typing import Dict

from repro.hypercube.graph import Hypercube
from repro.routing.batched import BatchedStoreForward
from repro.routing.permutation import dimension_order_path

__all__ = [
    "single_port_exchange_steps",
    "all_port_exchange_steps",
    "ecube_link_load",
    "total_exchange_comparison",
]


def single_port_exchange_steps(n: int, measured: bool = True) -> int:
    """Steps for the single-port all-to-all exchange.

    ``measured=True`` simulates it (every node may start one send per step,
    e-cube paths); the result coincides exactly with the dimension-exchange
    closed form ``n * 2^{n-1}`` (asserted at small n in the tests).
    """
    if not measured:
        return n * (1 << (n - 1))
    from repro.routing.simulator import StoreForwardSimulator

    host = Hypercube(n)
    schedule = [
        dimension_order_path(n, s, t)
        for s in range(host.num_nodes)
        for t in range(host.num_nodes)
        if s != t
    ]
    return StoreForwardSimulator(host, port_limit=1).run(schedule).makespan


def ecube_link_load(n: int) -> Dict[int, int]:
    """Packets per directed link under e-cube all-pairs routing.

    Returns the histogram {load: count}; the classical fact is a perfectly
    uniform ``2^{n-1}`` on every directed link.
    """
    from collections import Counter

    host = Hypercube(n)
    counts: Counter = Counter()
    for s in range(host.num_nodes):
        for t in range(host.num_nodes):
            if s == t:
                continue
            path = dimension_order_path(n, s, t)
            for a, b in zip(path, path[1:]):
                counts[host.edge_id(a, b)] += 1
    return dict(Counter(counts.values()))


def all_port_exchange_steps(n: int) -> int:
    """Measured completion of the all-port exchange on the simulator."""
    host = Hypercube(n)
    schedule = [
        dimension_order_path(n, s, t)
        for s in range(host.num_nodes)
        for t in range(host.num_nodes)
        if s != t
    ]
    return BatchedStoreForward(host).run(schedule).makespan


def total_exchange_comparison(n: int) -> Dict[str, int]:
    """One row of the E15 table."""
    return {
        "n": n,
        "single_port": single_port_exchange_steps(n),
        "all_port": all_port_exchange_steps(n),
        "bandwidth_bound": 1 << (n - 1),
    }

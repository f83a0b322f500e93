"""Link/node faults and fault-tolerant delivery over multipath embeddings (§1).

``FaultModel`` marks a subset of directed hypercube links and/or nodes as
dead, optionally only from a given simulation step onward (``active_from``
— the "kill k components mid-run" campaigns in :mod:`repro.scenarios`).
``multipath_delivery_experiment`` sends an IDA-dispersed message down the
``w`` edge-disjoint paths of each guest edge and reports, per edge, whether
enough pieces survived to reconstruct — the experiment behind bench E13.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Set, Tuple

from repro._compat import resolve_rng
from repro.core.embedding import MultiPathEmbedding
from repro.fault.ida import disperse, reconstruct
from repro.hypercube.graph import Hypercube

__all__ = [
    "FaultModel",
    "multipath_delivery_experiment",
    "DeliveryReport",
]


@dataclass
class FaultModel:
    """Failed directed links and failed nodes of a hypercube.

    ``failed`` holds directed edge ids, ``failed_nodes`` node ids.  A hop
    ``u -> v`` is dead when its directed link failed or either endpoint
    failed.  ``active_from`` is the first simulation step at which the
    faults apply (0 = from the start, the static model); the simulators
    consult it via :meth:`active`, so a mid-run kill leaves packets that
    cleared the faulty region untouched.
    """

    host: Hypercube
    failed: Set[int] = field(default_factory=set)  # directed edge ids
    failed_nodes: Set[int] = field(default_factory=set)
    active_from: int = 0

    @classmethod
    def random(
        cls, host: Hypercube, failure_prob: float, seed: Optional[int] = None,
        symmetric: bool = True, rng: Optional[random.Random] = None,
    ) -> "FaultModel":
        """Fail each (undirected) link independently with ``failure_prob``.

        Deterministic given ``seed`` (default 0); pass ``rng`` instead to
        draw from a shared stream.
        """
        if not 0 <= failure_prob <= 1:
            raise ValueError("failure probability must be in [0, 1]")
        rng = resolve_rng(seed, rng)
        failed: Set[int] = set()
        for u in range(host.num_nodes):
            for d in range(host.n):
                v = u ^ (1 << d)
                if u < v and rng.random() < failure_prob:
                    failed.add(u * host.n + d)
                    if symmetric:
                        failed.add(v * host.n + d)
        return cls(host, failed)

    @classmethod
    def random_links(
        cls, host: Hypercube, k: int, seed: Optional[int] = None,
        rng: Optional[random.Random] = None, symmetric: bool = True,
        active_from: int = 0,
    ) -> "FaultModel":
        """Kill exactly ``k`` distinct undirected links, chosen uniformly.

        ``symmetric`` (the default) kills both directions of each link —
        the fail-stop model of the paper's reliability discussion.
        """
        total = host.num_edges // 2
        if not 0 <= k <= total:
            raise ValueError(f"need 0 <= k <= {total} undirected links, got {k}")
        rng = resolve_rng(seed, rng)
        undirected = [
            (u, d)
            for u in range(host.num_nodes)
            for d in range(host.n)
            if u < u ^ (1 << d)
        ]
        failed: Set[int] = set()
        for u, d in rng.sample(undirected, k):
            failed.add(u * host.n + d)
            if symmetric:
                failed.add((u ^ (1 << d)) * host.n + d)
        return cls(host, failed, active_from=active_from)

    @classmethod
    def random_nodes(
        cls, host: Hypercube, k: int, seed: Optional[int] = None,
        rng: Optional[random.Random] = None, active_from: int = 0,
    ) -> "FaultModel":
        """Kill exactly ``k`` distinct nodes, chosen uniformly."""
        if not 0 <= k <= host.num_nodes:
            raise ValueError(f"need 0 <= k <= {host.num_nodes} nodes, got {k}")
        rng = resolve_rng(seed, rng)
        nodes = set(rng.sample(range(host.num_nodes), k))
        return cls(host, set(), nodes, active_from=active_from)

    def merged(self, other: "FaultModel") -> "FaultModel":
        """Union of two fault sets on the same host (earliest activation)."""
        if other.host.n != self.host.n:
            raise ValueError("fault models live on different hosts")
        return FaultModel(
            self.host,
            self.failed | other.failed,
            self.failed_nodes | other.failed_nodes,
            min(self.active_from, other.active_from),
        )

    def active(self, step: int) -> bool:
        """True when the faults apply at simulation step ``step``."""
        return step >= self.active_from

    def hop_dead(self, eid: int) -> bool:
        """True when directed link ``eid`` or either endpoint has failed."""
        if eid in self.failed:
            return True
        if not self.failed_nodes:
            return False
        u, d = divmod(eid, self.host.n)
        return u in self.failed_nodes or (u ^ (1 << d)) in self.failed_nodes

    def dead_link_mask(self):
        """Boolean numpy mask over directed edge ids (fast-engine view)."""
        import numpy as np

        n = self.host.n
        dead = np.zeros(self.host.num_nodes * n, dtype=bool)
        if self.failed:
            dead[list(self.failed)] = True
        for node in self.failed_nodes:
            dead[node * n:(node + 1) * n] = True  # outgoing
            for d in range(n):
                dead[(node ^ (1 << d)) * n + d] = True  # incoming
        return dead

    def path_alive(self, path: Sequence[int]) -> bool:
        """True when no hop of ``path`` crosses a failed link or node.

        A zero-hop path never fails under link faults (nothing is
        transmitted); it does fail when its single node is dead.
        """
        if self.failed_nodes:
            if len(path) == 1:
                return path[0] not in self.failed_nodes
            if any(v in self.failed_nodes for v in path):
                return False
        return all(
            self.host.edge_id(a, b) not in self.failed
            for a, b in zip(path, path[1:])
        )


@dataclass
class DeliveryReport:
    """Outcome of a fault-tolerant delivery experiment."""

    total_edges: int
    delivered: int
    surviving_paths: Dict[Tuple, int]
    pieces_needed: int

    @property
    def delivery_rate(self) -> float:
        return self.delivered / self.total_edges if self.total_edges else 1.0


def multipath_delivery_experiment(
    emb: MultiPathEmbedding,
    faults: FaultModel,
    message: bytes = b"multiple paths in hypercubes",
    pieces_needed: int | None = None,
) -> DeliveryReport:
    """IDA-protected delivery across every guest edge of ``emb``.

    Each guest edge disperses ``message`` into one piece per path
    (``w = number of paths``) and needs any ``pieces_needed`` (default
    ``ceil(w/2)``) surviving paths to reconstruct.  Co-located edges (trivial
    paths) always deliver.  Surviving paths are counted first: an edge with
    fewer than ``pieces_needed`` of them cannot deliver, so its message is
    never dispersed.
    """
    delivered = 0
    surviving: Dict[Tuple, int] = {}
    total = 0
    for edge, paths in emb.edge_paths.items():
        total += 1
        if len(paths) == 1 and len(paths[0]) == 1:
            surviving[edge] = 1
            delivered += 1
            continue
        w = len(paths)
        m = pieces_needed if pieces_needed is not None else -(-w // 2)
        m = min(m, w)
        alive = [i for i, p in enumerate(paths) if faults.path_alive(p)]
        surviving[edge] = len(alive)
        if len(alive) >= m:
            pieces = disperse(message, w, m)
            if reconstruct([pieces[i] for i in alive], w, m) != message:
                raise AssertionError("IDA reconstruction mismatch")
            delivered += 1
    return DeliveryReport(total, delivered, surviving, pieces_needed or 0)


def redundancy_tradeoff_sweep(
    emb: MultiPathEmbedding,
    failure_prob: float,
    trials: int = 3,
    message: bytes = b"routing multiple paths",
):
    """Reliability vs bandwidth across the IDA redundancy knob.

    For each threshold ``m`` (pieces needed out of the ``w`` paths), returns
    the measured delivery rate and the bandwidth overhead ``w/m`` — the
    trade-off Rabin's scheme exposes and the paper's width makes available.
    """
    width = emb.width
    rows = []
    for m in range(1, width + 1):
        total = 0.0
        for seed in range(trials):
            faults = FaultModel.random(emb.host, failure_prob, seed=seed)
            rep = multipath_delivery_experiment(
                emb, faults, message, pieces_needed=m
            )
            total += rep.delivery_rate
        rows.append(
            {
                "pieces_needed": m,
                "overhead": round(width / m, 3),
                "delivery_rate": round(total / trials, 4),
            }
        )
    return rows

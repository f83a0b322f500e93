"""Permutation routing on the hypercube (paper Section 7).

The experiment behind bench E11: every node sends an ``M``-packet message to
a unique destination.

* **Baseline**: the whole message follows one dimension-order path.  With
  store-and-forward queueing (or wormhole reservation), congested links
  serialize whole messages and completion takes ``Theta(n * M)``.
* **Multiple-copy CCC routing**: the message splits into ``n`` pieces, piece
  ``k`` routed through copy ``k`` of Theorem 3's CCC embedding.  Since the
  copies' images are edge-disjoint up to congestion 2, all pieces move in
  parallel and completion is ``O(M + n)``.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence, Tuple

from repro._compat import resolve_rng
from repro.core.ccc_multicopy import ccc_multicopy_embedding
from repro.core.embedding import Embedding, MultiCopyEmbedding
from repro.hypercube.graph import Hypercube
from repro.routing.pathutils import erase_loops
from repro.routing.simulator import StoreForwardSimulator
from repro.routing.wormhole import WormholeSimulator

__all__ = [
    "dimension_order_path",
    "ccc_route",
    "ccc_copy_host_path",
    "permutation_baseline_time",
    "permutation_multicopy_time",
    "random_permutation",
    "bit_reversal_permutation",
]


def dimension_order_path(n: int, u: int, v: int) -> List[int]:
    """The e-cube path from ``u`` to ``v``: fix differing bits low to high."""
    path = [u]
    cur = u
    for d in range(n):
        if (cur ^ v) >> d & 1:
            cur ^= 1 << d
            path.append(cur)
    return path


def ccc_route(
    n: int, src: Tuple[int, int], dst: Tuple[int, int]
) -> List[Tuple[int, int]]:
    """A canonical CCC route: one level loop fixing column bits, then spin.

    Follows straight edges around the column cycle, taking the cross edge at
    level ``l`` whenever bit ``l`` of the current column disagrees with the
    destination; then continues straight to the destination level.  Length
    at most ``2n + n``.
    """
    level, col = src
    path = [src]
    for _ in range(n):
        if (col ^ dst[1]) >> level & 1:
            col ^= 1 << level
            path.append((level, col))
        level = (level + 1) % n
        path.append((level, col))
    while level != dst[0]:
        level = (level + 1) % n
        path.append((level, col))
    assert path[-1] == dst
    return path


def ccc_copy_host_path(
    copy: Embedding,
    n: int,
    src_host: int,
    dst_host: int,
    rng: random.Random | None = None,
) -> List[int]:
    """Host path between two hypercube nodes through one CCC copy.

    Each Theorem 3 copy maps the CCC bijectively onto the host nodes, so
    every host node *is* a CCC vertex of the copy; route between the CCC
    preimages and push the route back through the (dilation-1) embedding.

    With ``rng``, the route goes Valiant-style through a uniformly random
    intermediate CCC vertex — the randomized two-phase routing of the
    paper's Section 7 citations, which keeps congestion near average for
    *every* permutation (including adversarial ones like bit reversal).
    """
    inverse = getattr(copy, "_inverse_cache", None)
    if inverse is None:
        inverse = {h: v for v, h in copy.vertex_map.items()}
        copy._inverse_cache = inverse
    src, dst = inverse[src_host], inverse[dst_host]
    if rng is None:
        route = ccc_route(n, src, dst)
    else:
        mid = (rng.randrange(n), rng.randrange(1 << n))
        route = ccc_route(n, src, mid)[:-1] + ccc_route(n, mid, dst)
    hosts = [copy.vertex_map[v] for v in route]
    # two-phase routes may revisit nodes; a worm cannot own one link twice,
    # so cut the loops out (store-and-forward does not care either way)
    return list(erase_loops(hosts))


def random_permutation(
    size: int, seed: Optional[int] = None, rng: Optional[random.Random] = None
) -> List[int]:
    """A random permutation of ``range(size)``.

    Deterministic given ``seed`` (default 0); pass ``rng`` instead to draw
    from a shared stream.
    """
    rng = resolve_rng(seed, rng)
    perm = list(range(size))
    rng.shuffle(perm)
    return perm


def bit_reversal_permutation(bits: int) -> List[int]:
    """The bit-reversal permutation of ``range(2**bits)``.

    The classical adversarial input for deterministic dimension-order
    routing: congestion ``2**(bits/2)`` on the middle links, which the
    paper's randomized multi-path schemes avoid.
    """
    out = []
    for v in range(1 << bits):
        r = 0
        for b in range(bits):
            if v >> b & 1:
                r |= 1 << (bits - 1 - b)
        out.append(r)
    return out


def permutation_baseline_time(
    n: int, perm: Sequence[int], packets: int, mode: str = "message"
) -> int:
    """Completion time: each node sends one ``packets``-packet message along
    a single dimension-order path.

    Modes: ``"message"`` — store-and-forward of the whole message (each hop
    occupies its link for ``packets`` steps: the Section 7 baseline that
    costs Theta(n * M)); ``"packet"`` — the message pipelines packet by
    packet; ``"wormhole"`` — flit-level wormhole with 1-flit buffers.
    """
    if mode not in ("message", "packet", "wormhole"):
        raise ValueError(f"unknown mode {mode!r}")
    host = Hypercube(n)
    if mode == "wormhole":
        worms = [
            (dimension_order_path(n, u, v), packets, 1)
            for u, v in enumerate(perm)
            if u != v
        ]
        return WormholeSimulator(host).run(worms).makespan
    schedule = []
    for u, v in enumerate(perm):
        if u == v:
            continue
        path = dimension_order_path(n, u, v)
        if mode == "message":
            schedule.append((path, 1, packets))
        elif mode == "packet":
            schedule.extend((path, t + 1) for t in range(packets))
        else:
            raise ValueError(f"unknown mode {mode!r}")
    return StoreForwardSimulator(host).run(schedule).makespan


def permutation_multicopy_time(
    n: int,
    perm: Sequence[int],
    packets: int,
    mode: str = "message",
    randomized: bool = False,
    seed: Optional[int] = None,
    rng: Optional[random.Random] = None,
) -> int:
    """Completion time with the message split across the n CCC copies.

    ``n`` must be a power of two (Theorem 3); the host is ``Q_{n + log n}``
    and the permutation must have ``2**(n + log n)`` entries.  Each of the
    ``n`` pieces carries ``ceil(packets / n)`` packets, so in ``"message"``
    mode a hop costs only ``M/n`` steps — this is exactly how breaking the
    message over the copies turns Theta(n * M) into O(M).  With
    ``randomized=True`` every piece routes Valiant-style through a random
    intermediate (the paper's cited randomized algorithms), making the
    completion time permutation-independent.
    """
    if mode not in ("message", "packet", "wormhole"):
        raise ValueError(f"unknown mode {mode!r}")
    mc: MultiCopyEmbedding = ccc_multicopy_embedding(n)
    host = mc.host
    if len(perm) != host.num_nodes:
        raise ValueError(
            f"permutation must cover the {host.num_nodes} nodes of Q_{host.n}"
        )
    rng = resolve_rng(seed, rng) if randomized else None
    per_piece = -(-packets // mc.k)
    if mode == "wormhole":
        # the wrapped CCC level loops have cyclic channel dependencies, so
        # classical 1-flit wormhole would deadlock; per-node message buffers
        # (virtual cut-through) model the queueing the paper's Section 7
        # store-and-forward algorithms assume
        worms = [
            (ccc_copy_host_path(copy, n, u, v, rng), per_piece, 1)
            for u, v in enumerate(perm)
            if u != v
            for copy in mc.copies
        ]
        sim = WormholeSimulator(host, buffer_capacity=per_piece)
        return sim.run(worms).makespan
    schedule = []
    for u, v in enumerate(perm):
        if u == v:
            continue
        for copy in mc.copies:
            path = ccc_copy_host_path(copy, n, u, v, rng)
            if mode == "message":
                schedule.append((path, 1, per_piece))
            elif mode == "packet":
                schedule.extend((path, t + 1) for t in range(per_piece))
            else:
                raise ValueError(f"unknown mode {mode!r}")
    return StoreForwardSimulator(host).run(schedule).makespan

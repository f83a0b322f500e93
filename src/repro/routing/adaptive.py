"""Adaptive path selection over width-w bundles (a Section 7 extension).

The width of a multiple-path embedding is useful even for single-track
messages: a router can place each message on the *least-loaded* of its
``w`` candidate paths.  This module measures that effect — oblivious
(always path 0) versus adaptive (greedy least-loaded) placement of wormhole
messages over the paths of a multipath embedding.
"""

from __future__ import annotations

import random
from collections import Counter
from typing import Dict, List, Optional, Sequence

from repro._compat import resolve_rng
from repro.core.embedding import MultiPathEmbedding
from repro.routing.wormhole import WormholeSimulator

__all__ = ["adaptive_wormhole_experiment"]


def _link_ids(emb: MultiPathEmbedding, path: Sequence[int]) -> List[int]:
    return [emb.host.edge_id(a, b) for a, b in zip(path, path[1:])]


def adaptive_wormhole_experiment(
    emb: MultiPathEmbedding,
    num_messages: int,
    flits: int,
    seed: Optional[int] = None,
    rng: Optional[random.Random] = None,
) -> Dict[str, int]:
    """Wormhole ``num_messages`` along guest edges, oblivious vs adaptive.

    Random guest edges each carry one ``flits``-flit worm.  Oblivious
    routing always uses path 0 of the edge's bundle; adaptive routing picks
    the bundle path minimizing the current maximum link load.  Returns both
    completion times (same message set, same seeds).  Randomness comes from
    ``seed`` (default 0) or a shared ``rng`` stream, never both.

    Both arms run with per-node message buffers (virtual cut-through):
    arbitrary multipath bundles contain cyclic link dependencies, so
    classical 1-flit wormhole can deadlock — detected by the simulator —
    and a deadlock-free discipline keeps the comparison meaningful.
    """
    rng = resolve_rng(seed, rng)
    edges = list(emb.edge_paths)
    moving = [e for e in edges if len(emb.edge_paths[e][0]) > 1]
    chosen = [moving[rng.randrange(len(moving))] for _ in range(num_messages)]

    sim = WormholeSimulator(emb.host, buffer_capacity=flits)
    # oblivious: everyone on path 0
    oblivious = [(emb.edge_paths[e][0], flits, 1) for e in chosen]

    # adaptive: greedy least-loaded path in the bundle
    load: Counter = Counter()
    adaptive = []
    for e in chosen:
        best, best_cost = None, None
        for path in emb.edge_paths[e]:
            if len(path) < 2:
                continue
            ids = _link_ids(emb, path)
            cost = (max(load[i] for i in ids), sum(load[i] for i in ids))
            if best_cost is None or cost < best_cost:
                best, best_cost = path, cost
        for i in _link_ids(emb, best):
            load[i] += 1
        adaptive.append((best, flits, 1))
    return {
        "messages": num_messages,
        "flits": flits,
        "oblivious": sim.run(oblivious).makespan,
        "adaptive": sim.run(adaptive).makespan,
    }

"""The built-in adversarial traffic generators.

Each generator is an *open-loop* source: at every injection step in
``range(1, horizon + 1)`` every node draws a number of arrivals with mean
``load`` (integer part deterministic, fractional part Bernoulli — so the
offered load is exact in expectation and the knob is continuous), picks a
destination by its pattern, and ships one packet along the deterministic
dimension-order (e-cube) path.  That path choice is the point: these are
the classical worst cases *for* oblivious dimension-order routing
(bit-reversal and transpose concentrate ``2^(n/2)`` packets on middle
links; tornado defeats minimal adaptivity; hot-spot and many-to-one model
incast), which is the congestion the paper's multipath constructions are
designed to spread.

Self-addressed arrivals are skipped (nothing is transmitted), so measured
injection counts sit at or just below ``load * nodes * horizon``.

Generators emit :class:`~repro.routing.api.ScheduleColumns` from integer
(src, dst, step) columns, whose e-cube paths one vectorized pass builds
(:func:`~repro.hypercube.pathcode.ecube_paths`).  A fixed pattern
src -> dst draws nothing per packet, so all of its cells' arrivals are
drawn in one pass; hot-spot and poisson draw every destination, so they go
cell by cell.  Both make the same ``random.Random`` calls in one order.
"""

from __future__ import annotations

import random
from typing import Callable, List, Sequence, Tuple

import numpy as np

from repro.hypercube.graph import Hypercube
from repro.hypercube.pathcode import ecube_paths
from repro.routing.api import ScheduleColumns
from repro.routing.permutation import (
    bit_reversal_permutation,
    random_permutation,
)
from repro.scenarios.registry import register_scenario

__all__: List[str] = []


def _columns(
    n: int, src: np.ndarray, dst: np.ndarray, step: np.ndarray
) -> ScheduleColumns:
    """The packets with ``dst != src`` as e-cube schedule columns."""
    keep = src != dst
    return ScheduleColumns(
        *ecube_paths(n, src[keep], dst[keep]),
        step[keep],
        np.ones(int(keep.sum()), dtype=np.int64),
    )


def _table_loop(
    host: Hypercube,
    rng: random.Random,
    load: float,
    horizon: int,
    table: Sequence[int],
) -> ScheduleColumns:
    """The open loop of a fixed pattern ``src -> table[src]``.

    Cell ``k`` is (step ``k // nodes + 1``, node ``k % nodes``), the order
    in which :func:`_open_loop` draws its cells.
    """
    size, whole = host.num_nodes, int(load)
    frac = load - whole
    counts = np.full(horizon * size, whole, dtype=np.int64)
    if frac > 0:  # one draw per cell: ``count`` ends the endless iterator
        counts += np.fromiter(iter(rng.random, None), np.float64, counts.size) < frac
    cell = np.repeat(np.arange(counts.size, dtype=np.int64), counts)
    src = cell % size
    dst = np.asarray(table, dtype=np.int64)[src]
    return _columns(host.n, src, dst, cell // size + 1)


def _open_loop(
    host: Hypercube,
    rng: random.Random,
    load: float,
    horizon: int,
    dest: Callable[[int], int],
) -> ScheduleColumns:
    """The cell-by-cell open loop; ``dest(src)`` draws targets from ``rng``.

    A cell has ``load``'s integer part of arrivals, plus one with
    probability its fractional part, drawn only when that part is positive.
    """
    packets: List[Tuple[int, int, int]] = []
    whole = int(load)
    frac = load - whole
    for t in range(1, horizon + 1):
        for s in range(host.num_nodes):
            for _ in range(whole + (frac > 0 and rng.random() < frac)):
                packets.append((s, dest(s), t))
    src, dst, step = np.array(packets, dtype=np.int64).reshape(-1, 3).T
    return _columns(host.n, src, dst, step)


@register_scenario("bit-reversal")
def bit_reversal(
    host: Hypercube, rng: random.Random, *, load: float, horizon: int
) -> ScheduleColumns:
    """Bit-reversal permutation: node v sends to reverse(v)."""
    table = bit_reversal_permutation(host.n)
    return _table_loop(host, rng, load, horizon, table)


@register_scenario("transpose")
def transpose(
    host: Hypercube, rng: random.Random, *, load: float, horizon: int
) -> ScheduleColumns:
    """Matrix transpose: rotate the address by n/2 (swap halves)."""
    n, mask = host.n, host.num_nodes - 1
    rot = n // 2
    v = np.arange(host.num_nodes, dtype=np.int64)
    if rot == 0:  # Q_1 has no transpose: nothing is offered or drawn
        return _table_loop(host, rng, 0, horizon, v)
    return _table_loop(
        host, rng, load, horizon, ((v << rot) | (v >> (n - rot))) & mask
    )


@register_scenario("shuffle")
def shuffle(
    host: Hypercube, rng: random.Random, *, load: float, horizon: int
) -> ScheduleColumns:
    """Perfect shuffle: rotate the address left by one bit."""
    n, mask = host.n, host.num_nodes - 1
    v = np.arange(host.num_nodes, dtype=np.int64)
    if n < 2:  # Q_1 has no shuffle: nothing is offered or drawn
        return _table_loop(host, rng, 0, horizon, v)
    return _table_loop(
        host, rng, load, horizon, ((v << 1) | (v >> (n - 1))) & mask
    )


@register_scenario("tornado")
def tornado(
    host: Hypercube, rng: random.Random, *, load: float, horizon: int
) -> ScheduleColumns:
    """Tornado offset: v sends to (v + 2^(n-1) - 1) mod 2^n.

    The ring-adversarial offset pattern adapted to the hypercube address
    space (degenerate for n = 1, where the offset is zero).
    """
    size = host.num_nodes
    offset = size // 2 - 1
    v = np.arange(size, dtype=np.int64)
    return _table_loop(host, rng, load, horizon, (v + offset) % size)


@register_scenario("hot-spot", hot=0, hot_fraction=0.25)
def hot_spot(
    host: Hypercube, rng: random.Random, *, load: float, horizon: int,
    hot: int = 0, hot_fraction: float = 0.25,
) -> ScheduleColumns:
    """Hot-spot: each packet targets one hot node with extra probability."""
    if not 0 <= hot_fraction <= 1:
        raise ValueError("hot_fraction must be in [0, 1]")
    size = host.num_nodes

    def dest(src: int) -> int:
        if rng.random() < hot_fraction:
            return hot % size
        return rng.randrange(size)

    return _open_loop(host, rng, load, horizon, dest)


@register_scenario("many-to-one", sink=0)
def many_to_one(
    host: Hypercube, rng: random.Random, *, load: float, horizon: int,
    sink: int = 0,
) -> ScheduleColumns:
    """Incast: every node sends to a single sink."""
    table = np.full(host.num_nodes, sink % host.num_nodes, dtype=np.int64)
    return _table_loop(host, rng, load, horizon, table)


@register_scenario("poisson")
def poisson(
    host: Hypercube, rng: random.Random, *, load: float, horizon: int
) -> ScheduleColumns:
    """Uniform-random open-loop arrivals — the baseline saturation traffic."""
    size = host.num_nodes
    return _open_loop(
        host, rng, load, horizon, lambda src: rng.randrange(size)
    )


@register_scenario("permutation")
def permutation(
    host: Hypercube, rng: random.Random, *, load: float, horizon: int
) -> ScheduleColumns:
    """A fresh random permutation, fixed for the whole run: v -> perm[v].

    The workload the historical ``repro faults`` experiment used, now a
    first-class scenario (and the campaign engine's default).
    """
    perm = random_permutation(host.num_nodes, rng=rng)
    return _table_loop(host, rng, load, horizon, perm)

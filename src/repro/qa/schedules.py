"""Random packet schedules and schedule shrinking for the QA harness.

Two schedule sources feed the differential and metamorphic layers:

* :func:`random_schedule` — synthetic traffic between random node pairs of
  a hypercube, each packet on a (randomly rotated) dimension-order path;
* :func:`embedding_schedule` — a sample of the host paths an embedding
  actually provides, which is the traffic the paper's cost claims are
  about.

Schedules here are plain ``(path, release_step)`` tuples — the least
structured shape :func:`repro.routing.api.normalize_schedule` accepts — so
they JSON-round-trip through the corpus unchanged.

:func:`shrink_schedule` proposes strictly smaller schedules for failure
minimization: drop halves (delta-debugging style), drop single packets,
then normalize release steps to 1.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Iterator, List, Sequence, Tuple

from repro.fault.faults import FaultModel

__all__ = [
    "ARMING_QUEUE",
    "DEADLOCK_CYCLE",
    "arming_faults",
    "all_host_paths",
    "random_schedule",
    "random_worm_schedule",
    "embedding_schedule",
    "shrink_schedule",
    "shrink_worm_schedule",
    "random_schedule_batch",
    "random_worm_schedule_batch",
    "shrink_batch",
    "schedule_to_jsonable",
    "schedule_from_jsonable",
]

Schedule = List[Tuple[Tuple[int, ...], int]]
# wormhole traffic: (path, num_flits, release_step) per worm
WormSchedule = List[Tuple[Tuple[int, ...], int, int]]

# four 8-flit worms chasing each other around the 4-cycle 0-1-3-2-0 of any
# Q_n with n >= 2: each head needs the link the next worm holds, so the
# lane deadlocks at every buffer capacity below 8.  Random lanes seldom
# deadlock; prefixing a lane with this one makes sure it does.
DEADLOCK_CYCLE: WormSchedule = [
    (path, 8, 1) for path in ((0, 1, 3), (1, 3, 2), (3, 2, 0), (2, 0, 1))
]

# six packets queue on link 0 -> 1 of any Q_n, n >= 2, which
# ``arming_faults`` kills at step 3: two cross first, and only a sweep of
# the queue at the arming step drops the four still waiting.  Two later
# packets join the dead link as arrivals, one released onto it (dropped
# at step 4), one over 2 -> 0 (dropped at 5, the lane's last step).
ARMING_QUEUE: Schedule = [((0, 1, 3), 1)] * 6 + [((0, 1), 4), ((2, 0, 1), 4)]


def arming_faults(host: Any) -> FaultModel:
    """The fault model of :data:`ARMING_QUEUE`: link 0 -> 1 dies at step 3."""
    return FaultModel(host, {host.edge_id(0, 1)}, active_from=3)


def all_host_paths(emb: Any) -> List[Tuple[int, ...]]:
    """Every host path an embedding provides, flattened across styles.

    Multicopy embeddings contribute one path per guest edge per copy;
    multipath embeddings contribute every path of every bundle; classical
    embeddings contribute their single path per guest edge.
    """
    if hasattr(emb, "copies"):
        return [
            tuple(p) for c in emb.copies for p in c.edge_paths.values()
        ]
    paths: List[Tuple[int, ...]] = []
    for entry in emb.edge_paths.values():
        if entry and isinstance(entry[0], (tuple, list)):
            paths.extend(tuple(p) for p in entry)
        else:
            paths.append(tuple(entry))
    return paths


def _dimension_order_path(n: int, u: int, v: int, start: int) -> Tuple[int, ...]:
    """The e-cube path from ``u`` to ``v`` fixing dimensions from ``start``."""
    path = [u]
    cur = u
    for i in range(n):
        d = (start + i) % n
        if (cur ^ v) >> d & 1:
            cur ^= 1 << d
            path.append(cur)
    return tuple(path)


def random_schedule(
    host: Any,
    rng: random.Random,
    max_packets: int = 40,
    max_release: int = 5,
) -> Schedule:
    """Random traffic on ``host``: up to ``max_packets`` packets between
    random pairs, each on a randomly rotated dimension-order path with a
    random release step in ``[1, max_release]``.

    Rotating the dimension order varies which links collide without ever
    producing a non-hypercube hop, so every generated schedule is valid for
    both engines.
    """
    schedule: Schedule = []
    for _ in range(rng.randint(0, max_packets)):
        u = rng.randrange(host.num_nodes)
        v = rng.randrange(host.num_nodes)
        path = _dimension_order_path(host.n, u, v, rng.randrange(max(1, host.n)))
        schedule.append((path, rng.randint(1, max_release)))
    return schedule


def random_worm_schedule(
    host: Any,
    rng: random.Random,
    max_worms: int = 12,
    max_flits: int = 8,
    max_release: int = 4,
    rotate: bool = False,
) -> WormSchedule:
    """Random wormhole traffic: ``(path, num_flits, release_step)`` worms.

    With ``rotate=False`` (the default) every worm follows the plain
    dimension-order (e-cube) route, which is deadlock-free — the schedule
    exercises blocking, pipelining and buffer slack without tripping
    :class:`~repro.routing.wormhole.WormholeDeadlock`.  ``rotate=True``
    rotates each worm's dimension order randomly, which *can* produce
    cyclic link waits — useful for checking that two engines deadlock on
    exactly the same schedules.
    """
    schedule: WormSchedule = []
    for _ in range(rng.randint(1, max_worms)):
        u = rng.randrange(host.num_nodes)
        v = rng.randrange(host.num_nodes)
        while v == u:
            v = rng.randrange(host.num_nodes)
        start = rng.randrange(max(1, host.n)) if rotate else 0
        path = _dimension_order_path(host.n, u, v, start)
        schedule.append(
            (path, rng.randint(1, max_flits), rng.randint(1, max_release))
        )
    return schedule


def shrink_worm_schedule(schedule: Sequence[Tuple[Tuple[int, ...], int, int]]) -> Iterator[WormSchedule]:
    """Strictly smaller/simpler worm schedules, biggest cuts first.

    Same shape as :func:`shrink_schedule`: drop halves, drop single worms,
    then flatten every release step to 1 and every flit count toward 1.
    """
    items = [(tuple(p), int(m), int(r)) for p, m, r in schedule]
    n = len(items)
    if n > 1:
        half = n // 2
        yield items[half:]
        yield items[:half]
    if n > 1:
        for i in range(n):
            yield items[:i] + items[i + 1 :]
    if any(r != 1 for _, _, r in items):
        yield [(p, m, 1) for p, m, _ in items]
    if any(m > 1 for _, m, _ in items):
        yield [(p, max(1, m // 2), r) for p, m, r in items]


def random_schedule_batch(
    host: Any,
    rng: random.Random,
    max_lanes: int = 4,
    max_packets: int = 12,
    max_release: int = 5,
) -> List[Schedule]:
    """A batch of independent random schedules — one lane per simulation.

    The batched engines advance every lane in the same tensor step loop;
    the batched differential replays each lane through the reference
    engine and demands identical results, so a batch is the natural fuzz
    subject for cross-lane interference bugs (a lane's packets leaking
    into another lane's arbitration).
    """
    lanes = rng.randint(1, max_lanes)
    return [
        random_schedule(
            host, rng, max_packets=max_packets, max_release=max_release
        )
        for _ in range(lanes)
    ]


def random_worm_schedule_batch(
    host: Any,
    rng: random.Random,
    max_lanes: int = 3,
    max_worms: int = 8,
    max_flits: int = 6,
) -> List[WormSchedule]:
    """A batch of independent worm schedules, some deadlock-prone.

    Roughly half the lanes draw rotated (cyclically dependent) routes so
    batched per-lane deadlock freezing gets exercised next to lanes that
    run to completion.
    """
    lanes = rng.randint(1, max_lanes)
    return [
        random_worm_schedule(
            host,
            rng,
            max_worms=max_worms,
            max_flits=max_flits,
            rotate=bool(rng.random() < 0.5),
        )
        for _ in range(lanes)
    ]


def shrink_batch(
    batch: Sequence[Sequence],
    shrink_lane: Callable[[Sequence], Iterator[List]],
) -> Iterator[List[List]]:
    """Strictly smaller/simpler batches, biggest cuts first.

    Mirrors :func:`shrink_schedule` one level up: drop half the lanes,
    drop single lanes, then shrink one lane at a time with the supplied
    per-lane shrinker (:func:`shrink_schedule` or
    :func:`shrink_worm_schedule`).  Lane order is preserved throughout so
    a diverging lane index stays meaningful while shrinking.
    """
    lanes = [list(lane) for lane in batch]
    n = len(lanes)
    if n > 1:
        half = n // 2
        yield lanes[half:]
        yield lanes[:half]
        for i in range(n):
            yield lanes[:i] + lanes[i + 1 :]
    for i in range(n):
        for candidate in shrink_lane(lanes[i]):
            yield lanes[:i] + [list(candidate)] + lanes[i + 1 :]


def embedding_schedule(
    emb: Any,
    rng: random.Random,
    max_packets: int = 60,
    max_release: int = 3,
) -> Schedule:
    """A random sample of the embedding's own host paths as a schedule.

    Zero-hop (co-located) paths are kept with small probability — they
    exercise the step-0 delivery corner without dominating the schedule.
    """
    paths = all_host_paths(emb)
    rng.shuffle(paths)
    schedule: Schedule = []
    for path in paths:
        if len(schedule) >= max_packets:
            break
        if len(path) == 1 and rng.random() > 0.1:
            continue
        schedule.append((tuple(path), rng.randint(1, max_release)))
    return schedule


def shrink_schedule(schedule: Sequence[Tuple[Tuple[int, ...], int]]) -> Iterator[Schedule]:
    """Strictly smaller (or simpler) candidate schedules, biggest cuts first.

    Order: drop the first/second half, drop each packet individually, then
    flatten every release step to 1 (same packets, simpler timing).  The
    caller keeps any candidate on which its failure still reproduces and
    re-shrinks from there, so greedy iteration reaches a local minimum.
    """
    items = [(tuple(p), int(r)) for p, r in schedule]
    n = len(items)
    if n > 1:
        half = n // 2
        yield items[half:]
        yield items[:half]
    if n > 0:
        for i in range(n):
            yield items[:i] + items[i + 1 :]
    if any(r != 1 for _, r in items):
        yield [(p, 1) for p, _ in items]


def schedule_to_jsonable(schedule: Sequence[Sequence[Any]]) -> list:
    """A JSON-safe form of a ``(path, release)`` packet schedule or a
    ``(path, num_flits, release)`` worm schedule."""
    return [[list(item[0]), *(int(x) for x in item[1:])] for item in schedule]


def schedule_from_jsonable(data: Sequence) -> list:
    """Invert :func:`schedule_to_jsonable` (lists back to tuples)."""
    return [
        (tuple(int(x) for x in item[0]), *(int(x) for x in item[1:]))
        for item in data
    ]

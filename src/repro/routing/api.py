"""The unified simulator API: one protocol, one schedule shape, one result.

Every engine in this package is a function of its schedule, with no
state kept between runs, and accepts the same call::

    result = sim.run(schedule, max_steps=..., recorder=...)

where ``recorder`` is an optional
:class:`repro.obs.recorder.LinkRecorder`-shaped sink and the return is a
:class:`SimResult` with identical fields across engines, so measurement
code can swap engines freely (``isinstance(sim, Simulator)`` checks
conformance at runtime).  The wormhole engines take
``(path, num_flits, release_step)`` triples; the packet engines
(:class:`~repro.routing.simulator.StoreForwardSimulator`,
:class:`~repro.routing.batched.BatchedStoreForward`,
:class:`~repro.routing.bounded_buffers.BoundedBufferSimulator`) read any
schedule through :func:`normalize_schedule`, which validates every item
in one pass and returns :class:`ScheduleColumns`: every path in one flat
CSR node vector with its offsets, plus ``int64`` release and service
arrays.  Columns built directly (the scenario generators emit them) pass
through a vectorized check without ever becoming path tuples.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    Optional,
    Protocol,
    Tuple,
    Union,
    runtime_checkable,
)

import numpy as np

from repro.hypercube.pathcode import flatten_paths

__all__ = [
    "ScheduleColumns",
    "SimRequest",
    "SimResult",
    "Simulator",
    "normalize_schedule",
]

# the item and path containers almost every schedule uses: an exact type
# test on these skips the much slower ``Sequence`` ABC check
_BUILTIN_SEQUENCES = (tuple, list)


def _check_packet(path: Sequence, release: int, service: int) -> None:
    """Raise the first of a packet's three validation errors, if any."""
    if len(path) < 1:
        raise ValueError("packet path must contain at least one node")
    if release < 1:
        raise ValueError("release step must be >= 1")
    if service < 1:
        raise ValueError("service time must be >= 1")


@dataclass(frozen=True)
class SimRequest:
    """One packet: a fixed host path, a release step, a per-hop service time."""

    path: Tuple[int, ...]
    release_step: int = 1
    service_time: int = 1

    def __post_init__(self) -> None:
        _check_packet(self.path, self.release_step, self.service_time)


# a schedule item: a bare path, (path, release), (path, release, service),
# or an explicit SimRequest
ScheduleItem = Union[Sequence[int], Tuple[Sequence[int], int],
                     Tuple[Sequence[int], int, int], SimRequest]


# eq=False: a generated __eq__ would truth-test ndarray comparisons and raise
@dataclass(frozen=True, eq=False)
class ScheduleColumns:
    """A normalized schedule, one column per packet field, in schedule order.

    Packet ``i``'s host path is ``nodes[offsets[i]:offsets[i + 1]]`` (the
    :func:`repro.hypercube.pathcode.flatten_paths` layout); ``release[i]``
    and ``service[i]`` are its release step and per-hop service time.  All
    four are ``int64`` arrays, and ``offsets`` has one entry more than
    there are packets.
    """

    nodes: np.ndarray
    offsets: np.ndarray
    release: np.ndarray
    service: np.ndarray

    def __len__(self) -> int:
        return self.offsets.size - 1

    @property
    def paths(self) -> List[Tuple[int, ...]]:
        """Every packet's host path as a tuple, built on each access."""
        flat, bounds = self.nodes.tolist(), self.offsets.tolist()
        return [tuple(flat[a:b]) for a, b in zip(bounds, bounds[1:])]


def _check_columns(cols: ScheduleColumns) -> None:
    """Raise what the per-item check raises for the first bad packet."""
    lengths = np.diff(cols.offsets)
    ends = cols.offsets[:1].tolist() + cols.offsets[-1:].tolist()
    if ends != [0, cols.nodes.size] or not (
        cols.release.size == cols.service.size == lengths.size
    ):
        raise ValueError("schedule columns disagree on the packet count")
    bad = (lengths < 1) | (cols.release < 1) | (cols.service < 1)
    if bad.any():
        i = int(bad.argmax())
        _check_packet(range(max(0, lengths[i])), cols.release[i], cols.service[i])


def normalize_schedule(
    schedule: Union[Iterable[ScheduleItem], ScheduleColumns],
) -> ScheduleColumns:
    """Validate a schedule and return it as :class:`ScheduleColumns`.

    Each item may be a bare path (a sequence of node ids), a
    ``(path, release_step)`` pair, a ``(path, release_step, service_time)``
    triple, or an explicit :class:`SimRequest`.  Items are checked as they
    are read, so the first bad one raises :class:`SimRequest`'s own
    ``ValueError``, or a ``TypeError`` for an item of no accepted shape.
    A :class:`ScheduleColumns` is checked column by column and returned as
    is; its first bad packet raises the same ``ValueError`` its items would.
    """
    if isinstance(schedule, ScheduleColumns):
        _check_columns(schedule)
        return schedule
    paths: List[Sequence[int]] = []
    release: List[int] = []
    service: List[int] = []
    item: Any  # the exact-type tests below do the narrowing mypy cannot
    for item in schedule:
        if type(item) not in _BUILTIN_SEQUENCES:
            if isinstance(item, SimRequest):
                paths.append(item.path)
                release.append(item.release_step)
                service.append(item.service_time)
                continue
            if not isinstance(item, Sequence):
                raise TypeError(f"schedule item {item!r} is not a path or tuple")
        if len(item) == 0:
            raise ValueError("packet path must contain at least one node")
        first = item[0]
        if type(first) is int or (
            isinstance(first, int) and not isinstance(first, bool)
        ):
            path, r, s = item, 1, 1  # bare path
        elif type(first) in _BUILTIN_SEQUENCES or isinstance(first, Sequence):
            path, size = first, len(item)
            if size == 2:
                r, s = int(item[1]), 1
            elif size == 3:
                r, s = int(item[1]), int(item[2])
            else:
                raise TypeError(
                    "tuple schedule items must be (path, release[, service])"
                )
        else:
            raise TypeError(f"schedule item {item!r} is not a path or tuple")
        _check_packet(path, r, s)
        paths.append(path)
        release.append(r)
        service.append(s)
    return ScheduleColumns(
        *flatten_paths(paths),
        np.array(release, dtype=np.int64),
        np.array(service, dtype=np.int64),
    )


@dataclass(frozen=True)
class SimResult:
    """What one simulation run measured — identical fields for every engine.

    ``makespan`` is the step at which the last packet completed (0 for an
    empty or all-zero-hop schedule); ``done_steps`` lists each packet's
    completion step in schedule order; ``steps`` is how many simulated time
    steps the engine executed; ``recorder`` echoes back the sink passed to
    ``run`` (None when instrumentation was off).
    """

    makespan: int
    delivered: int
    injected: int
    steps: int
    done_steps: Tuple[int, ...]
    engine: str
    recorder: Optional[Any] = field(default=None, compare=False, repr=False)

    # the measured fields two engines must agree on to be *equivalent*
    # (``engine`` names the implementation and ``recorder`` is a sink, so
    # neither participates)
    MEASURED_FIELDS = ("makespan", "delivered", "injected", "steps", "done_steps")

    def measured(self) -> Dict[str, Any]:
        """The measured fields as a dict (the differential-testing view)."""
        return {name: getattr(self, name) for name in self.MEASURED_FIELDS}

    def diff_fields(self, other: "SimResult") -> Tuple[str, ...]:
        """Names of measured fields where ``self`` and ``other`` disagree."""
        return tuple(
            name
            for name in self.MEASURED_FIELDS
            if getattr(self, name) != getattr(other, name)
        )


def _per_lane_recorders(recorders: Any, lanes: int) -> List[Any]:
    """Normalize ``recorders`` to one (possibly None) sink per lane.

    A single recorder is *not* broadcast — merging every lane's counts
    into one sink silently corrupts per-run congestion profiles, so a
    shared sink must be passed explicitly per lane.
    """
    if recorders is None:
        return [None] * lanes
    if not isinstance(recorders, (list, tuple)):
        raise ValueError(
            "recorders must be a per-lane sequence (one recorder or None "
            "per lane); a single recorder is not broadcast because merging "
            "lanes corrupts per-run congestion profiles"
        )
    per_lane = list(recorders)
    if len(per_lane) != lanes:
        raise ValueError(
            f"need one recorder (or None) per lane: got {len(per_lane)} "
            f"for {lanes} lane(s)"
        )
    return per_lane


@runtime_checkable
class Simulator(Protocol):
    """Anything that can run a schedule and report a :class:`SimResult`."""

    def run(
        self,
        schedule: Iterable[ScheduleItem],
        *,
        max_steps: int = 10_000_000,
        recorder: Optional[Any] = None,
    ) -> SimResult:
        ...

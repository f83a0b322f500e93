"""The unified simulator API: one protocol, one schedule shape, one result.

Every packet-level engine in this package — the reference FIFO
:class:`~repro.routing.simulator.StoreForwardSimulator` and the batched
:class:`~repro.routing.batched.BatchedStoreForward` (whose ``run`` is a
batch of one) — accepts the same call::

    result = sim.run(schedule, max_steps=..., recorder=...)

where ``schedule`` is any iterable of packet descriptions (see
:func:`normalize_schedule`), ``recorder`` is an optional
:class:`repro.obs.recorder.LinkRecorder`-shaped sink, and the return is a
:class:`SimResult` with identical fields across engines, so measurement
code can swap engines freely (``isinstance(sim, Simulator)`` checks
conformance at runtime).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    Union,
    runtime_checkable,
)

__all__ = ["SimRequest", "SimResult", "Simulator", "normalize_schedule"]


@dataclass(frozen=True)
class SimRequest:
    """One packet: a fixed host path, a release step, a per-hop service time."""

    path: Tuple[int, ...]
    release_step: int = 1
    service_time: int = 1

    def __post_init__(self) -> None:
        if len(self.path) < 1:
            raise ValueError("packet path must contain at least one node")
        if self.release_step < 1:
            raise ValueError("release step must be >= 1")
        if self.service_time < 1:
            raise ValueError("service time must be >= 1")


# a schedule item: a bare path, (path, release), (path, release, service),
# or an explicit SimRequest
ScheduleItem = Union[Sequence[int], Tuple[Sequence[int], int],
                     Tuple[Sequence[int], int, int], SimRequest]


def normalize_schedule(schedule: Iterable[ScheduleItem]) -> List[SimRequest]:
    """Normalize the accepted schedule shapes to a list of :class:`SimRequest`.

    Each item may be a bare path (a sequence of node ids), a
    ``(path, release_step)`` pair, a ``(path, release_step, service_time)``
    triple, or an explicit :class:`SimRequest`.
    """
    out: List[SimRequest] = []
    for item in schedule:
        if isinstance(item, SimRequest):
            out.append(item)
            continue
        if not isinstance(item, Sequence):
            raise TypeError(f"schedule item {item!r} is not a path or tuple")
        if len(item) == 0:
            raise ValueError("packet path must contain at least one node")
        first = item[0]
        if isinstance(first, (int,)) and not isinstance(first, bool):
            out.append(SimRequest(tuple(item)))  # bare path
        elif isinstance(first, Sequence):
            path, rest = tuple(first), tuple(item[1:])
            if len(rest) == 1:
                out.append(SimRequest(path, int(rest[0])))
            elif len(rest) == 2:
                out.append(SimRequest(path, int(rest[0]), int(rest[1])))
            else:
                raise TypeError(
                    "tuple schedule items must be (path, release[, service])"
                )
        else:
            raise TypeError(f"schedule item {item!r} is not a path or tuple")
    return out


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


@runtime_checkable
class Simulator(Protocol):
    """Anything that can run a packet schedule and report a :class:`SimResult`."""

    def run(
        self,
        schedule: Iterable[ScheduleItem],
        *,
        max_steps: int = 10_000_000,
        recorder: Optional[Any] = None,
    ) -> SimResult:
        ...

"""Wormhole (cut-through) routing simulator (paper Section 7).

A *worm* is a message of ``M`` flits following a fixed path.  The head
acquires links one at a time; flits pipeline behind it, one flit per link
per step, with ``buffer_capacity`` flits of slack per intermediate node
(1 = classical wormhole).  A link stays reserved from the step the head
crosses it until the tail (the ``M``-th flit) has crossed.  Blocked worms
stall in place, holding their links — exactly the behavior that makes
store-and-forward algorithms pay ``Theta(n M)`` on the hypercube and that
the multiple-copy/multiple-path embeddings avoid.

Both wormhole engines, :class:`WormholeSimulator` here and
:class:`~repro.routing.batched.BatchedWormhole`, read ``(path, num_flits,
release_step)`` triples and keep no state between runs: ``run`` returns a
``SimResult`` or raises :class:`WormholeDeadlock`, and ``run_many`` returns
one :class:`WormLaneOutcome` per schedule, deadlocks included.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.hypercube.graph import Hypercube
from repro.routing.api import SimResult, _per_lane_recorders

__all__ = ["Worm", "WormLaneOutcome", "WormholeDeadlock", "WormholeSimulator",
           "make_worms"]


class WormholeDeadlock(RuntimeError):
    """No worm can make progress: a cyclic link-wait was detected.

    Classical 1-flit wormhole deadlocks on routes with cyclic channel
    dependencies (e.g. the wrapped CCC level loops).  Callers can avoid it
    with dimension-ordered routes or per-node message buffers
    (``buffer_capacity >= num_flits``, i.e. virtual cut-through).
    """


@dataclass
class Worm:
    """A wormhole message: ``num_flits`` flits along ``path``."""

    path: Tuple[int, ...]
    num_flits: int
    release_step: int = 1
    ident: int = -1
    # flits_crossed[i] = number of flits that have crossed link i
    flits_crossed: List[int] = field(default_factory=list)
    head_link: int = -1  # highest link index acquired
    done_step: Optional[int] = None

    def __post_init__(self):
        if len(self.path) < 2:
            raise ValueError("worm path needs at least one link")
        if self.num_flits < 1:
            raise ValueError("worm needs at least one flit")
        self.flits_crossed = [0] * (len(self.path) - 1)

    @property
    def num_links(self) -> int:
        return len(self.path) - 1


# one worm: (path, num_flits, release_step)
WormItem = Tuple[Sequence[int], int, int]


def make_worms(schedule: Iterable[WormItem]) -> List[Worm]:
    """One fresh :class:`Worm` per schedule item, its ident its position."""
    return [
        Worm(tuple(path), int(flits), int(release), ident=i)
        for i, (path, flits, release) in enumerate(schedule)
    ]


@dataclass
class WormLaneOutcome:
    """One lane's complete wormhole outcome.

    ``makespan`` is the lane's last arrival step, or ``None`` when the lane
    deadlocked (``deadlock`` then carries the reference engine's message,
    ``"<k> worms deadlocked at step <s>"``).  ``worms`` holds the final
    per-worm state exactly as the reference engine would leave it — including
    the partial ``flits_crossed``/``head_link`` of a stuck worm — and
    ``owner`` maps still-held link ids to lane-local worm idents.
    """

    makespan: Optional[int]
    deadlock: Optional[str]
    worms: List[Worm] = field(default_factory=list)
    owner: Dict[int, int] = field(default_factory=dict)

    @property
    def deadlocked(self) -> bool:
        return self.deadlock is not None

    def result(self, engine: str, recorder: Optional[Any] = None) -> SimResult:
        """The lane as ``run`` returns it; raises its WormholeDeadlock."""
        if self.deadlock is not None:
            raise WormholeDeadlock(self.deadlock)
        done = [
            -1 if w.done_step is None else int(w.done_step) for w in self.worms
        ]
        makespan = int(self.makespan or 0)
        return SimResult(
            makespan=makespan,
            delivered=sum(1 for d in done if d >= 0),
            injected=len(done),
            steps=makespan,
            done_steps=tuple(done),
            engine=engine,
            recorder=recorder,
        )


class WormholeSimulator:
    """Flit-level synchronous wormhole simulator: the reference engine."""

    engine = "wormhole"

    def __init__(self, host: Hypercube, buffer_capacity: int = 1):
        if buffer_capacity < 1:
            raise ValueError("buffer capacity must be >= 1")
        self.host = host
        self.buffer_capacity = buffer_capacity

    def run(
        self,
        schedule: Iterable[WormItem],
        *,
        max_steps: int = 10_000_000,
        recorder: Optional[Any] = None,
    ) -> SimResult:
        """Run one worm schedule; raises :class:`WormholeDeadlock`.

        ``recorder`` (a :class:`repro.obs.LinkRecorder`-shaped sink)
        receives one ``on_transmit`` per flit-link crossing — so a link's
        recorded transmission count is the number of flits it carried —
        and one ``on_deliver`` per worm completion.
        """
        [outcome] = self.run_many(
            [schedule], max_steps=max_steps, recorders=[recorder]
        )
        return outcome.result(self.engine, recorder)

    def run_many(
        self,
        schedules: Iterable[Iterable[WormItem]],
        *,
        max_steps: int = 10_000_000,
        recorders: Optional[Sequence[Optional[Any]]] = None,
    ) -> List[WormLaneOutcome]:
        """One :class:`WormLaneOutcome` per schedule, each run from fresh
        state; a deadlocked lane records where it stopped."""
        lanes = [make_worms(schedule) for schedule in schedules]
        recs = _per_lane_recorders(recorders, len(lanes))
        outcomes = []
        for worms, recorder in zip(lanes, recs):
            owner: Dict[int, int] = {}  # link id -> worm ident
            try:
                makespan = self._run_lane(worms, owner, max_steps, recorder)
                outcomes.append(WormLaneOutcome(makespan, None, worms, owner))
            except WormholeDeadlock as err:
                outcomes.append(WormLaneOutcome(None, str(err), worms, owner))
        return outcomes

    def _link_id(self, worm: Worm, i: int) -> int:
        return self.host.edge_id(worm.path[i], worm.path[i + 1])

    def _run_lane(
        self,
        worms: List[Worm],
        owner: Dict[int, int],
        max_steps: int,
        recorder: Optional[Any],
    ) -> int:
        """Step ``worms`` and the link ``owner`` map in place until every
        worm is delivered; returns the last arrival step."""
        remaining = len(worms)
        step = 0
        last_done = 0
        while remaining > 0:
            if not any(
                w.done_step is None and w.release_step <= step + 1 for w in worms
            ):
                # nothing alive is released yet: jump to the next release
                # instead of spinning through guaranteed-empty steps
                step = (
                    min(w.release_step for w in worms if w.done_step is None) - 1
                )
            step += 1
            if step > max_steps:
                raise RuntimeError(f"wormhole simulation exceeded {max_steps} steps")
            progressed = False
            # Phase 1: head acquisitions (deterministic order = worm id).
            for worm in worms:
                if worm.done_step is not None or step < worm.release_step:
                    continue
                if worm.head_link == worm.num_links - 1:
                    continue  # head already at destination side
                nxt = worm.head_link + 1
                # the head flit must be available at the node before link nxt
                if nxt > 0 and worm.flits_crossed[nxt - 1] == 0:
                    continue
                lid = self._link_id(worm, nxt)
                if owner.get(lid) is None:
                    owner[lid] = worm.ident
                    worm.head_link = nxt
                    progressed = True
            # Phase 2: flit movement — one flit per owned link, subject to
            # upstream availability and downstream buffer slack.
            for worm in worms:
                if worm.done_step is not None or step < worm.release_step:
                    continue
                # advance from head side to tail side so same-step moves don't
                # cascade a single flit across several links
                for i in range(worm.head_link, -1, -1):
                    crossed = worm.flits_crossed[i]
                    if crossed >= worm.num_flits:
                        continue  # tail already past this link
                    upstream = (
                        worm.num_flits if i == 0 else worm.flits_crossed[i - 1]
                    )
                    if upstream - crossed < 1:
                        continue  # no flit waiting before this link
                    if i < worm.num_links - 1:
                        slack = crossed - worm.flits_crossed[i + 1]
                        if slack >= self.buffer_capacity:
                            continue  # downstream node buffer is full
                    worm.flits_crossed[i] = crossed + 1
                    progressed = True
                    if recorder:
                        recorder.on_transmit(self._link_id(worm, i), step)
                    if worm.flits_crossed[i] == worm.num_flits:
                        owner.pop(self._link_id(worm, i), None)
                if worm.flits_crossed[-1] == worm.num_flits:
                    worm.done_step = step
                    last_done = step
                    remaining -= 1
                    if recorder:
                        recorder.on_deliver(step)
            if not progressed and all(step >= w.release_step for w in worms):
                stuck = [w.ident for w in worms if w.done_step is None]
                raise WormholeDeadlock(
                    f"{len(stuck)} worms deadlocked at step {step}"
                )
        return last_done

"""Synchronous store-and-forward network simulator (the paper's cost model).

Each directed host link transmits at most one packet per time step; packets
follow fixed paths and wait in FIFO queues at each link.  This is the
"store-and-forward" model of Section 7 and the measurement instrument for
every p-packet cost we report.

The step loop is deliberately simple (dict of per-link deques) — packet
counts in the reproduced experiments are at most a few hundred thousand, and
profiling showed the construction (not simulation) dominates; see the
hpc-parallel guide note in DESIGN.md.

This engine implements the unified :class:`repro.routing.api.Simulator`
protocol: pass a schedule to :meth:`StoreForwardSimulator.run` and get a
:class:`repro.routing.api.SimResult` back, optionally filling a
:class:`repro.obs.recorder.LinkRecorder` with per-link congestion data.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, Iterable, List, Optional, Tuple

from repro.hypercube.graph import Hypercube
from repro.obs.profile import profile_span
from repro.routing.api import ScheduleItem, SimResult, normalize_schedule

__all__ = ["StoreForwardSimulator", "SimPacket"]


@dataclass
class SimPacket:
    """A packet with a fixed path; ``hop`` is the next hop index to take.

    ``service_time`` is the number of steps the packet occupies each link it
    crosses — 1 for a unit packet, ``M`` for an atomic M-packet message
    (message-granularity store-and-forward, the Section 7 baseline).
    """

    path: Tuple[int, ...]
    release_step: int = 1
    service_time: int = 1
    hop: int = 0
    done_step: Optional[int] = None
    ident: int = -1


class StoreForwardSimulator:
    """Synchronous link-bound simulator with per-link FIFO queues.

    ``port_limit`` caps how many outgoing transmissions a node may *start*
    per step: ``None`` is the paper's all-port model (every link usable
    every step); ``1`` is the classical single-port model used by e.g. the
    dimension-exchange algorithms E15 compares against.

    ``tie_break`` picks which queued packet an idle link serves first:
    ``"fifo"`` (the default, the historical behavior) serves in arrival
    order; ``"priority"`` serves the lowest injection index — the *same*
    policy :class:`~repro.routing.batched.BatchedStoreForward` implements,
    which is what makes exact differential testing of the two engines
    possible (see :mod:`repro.qa.differential`).  Both policies are
    work-conserving, so congestion/makespan envelopes are unaffected.
    """

    engine = "store-forward"

    def __init__(
        self,
        host: Hypercube,
        port_limit: Optional[int] = None,
        tie_break: str = "fifo",
    ):
        if port_limit is not None and port_limit < 1:
            raise ValueError("port limit must be >= 1 (or None)")
        if tie_break not in ("fifo", "priority"):
            raise ValueError(f"tie_break must be 'fifo' or 'priority', got {tie_break!r}")
        self.host = host
        self.port_limit = port_limit
        self.tie_break = tie_break

    def run(
        self,
        schedule: Iterable[ScheduleItem],
        *,
        max_steps: int = 10_000_000,
        recorder: Optional[Any] = None,
        faults: Optional[Any] = None,
    ) -> SimResult:
        """Run a packet schedule to completion.

        ``schedule`` is any shape :func:`repro.routing.api.normalize_schedule`
        accepts; returns a :class:`repro.routing.api.SimResult`.  ``recorder``
        (e.g. a :class:`repro.obs.LinkRecorder`) receives per-link
        transmission, queue-depth and delivery events — with ``None`` (the
        default) the hot loop performs no recording work at all.

        ``faults`` (a :class:`repro.fault.FaultModel`) drops packets: from
        ``faults.active_from`` onward, any queued packet whose next hop
        crosses a failed link or touches a failed node is discarded at the
        top of the step (``done_steps`` records ``-1``, ``delivered``
        excludes it).  Transmissions already in progress complete —
        fail-stop at transmission granularity — and zero-hop packets always
        deliver at step 0, before any fault can activate.  The vectorized
        engine implements the identical semantics, so faulty runs stay
        differential-testable.
        """
        cols = normalize_schedule(schedule)
        packets = [
            SimPacket(path, release, service, ident=i)
            for i, (path, release, service) in enumerate(
                zip(cols.paths, cols.release.tolist(), cols.service.tolist())
            )
        ]
        with profile_span("sim.store_forward", packets=len(packets)):
            last_done, steps = self._run_packets(
                packets, max_steps, recorder, faults
            )
        done_steps = tuple(
            pkt.done_step if pkt.done_step is not None else -1 for pkt in packets
        )
        return SimResult(
            makespan=last_done,
            delivered=sum(1 for pkt in packets if pkt.done_step is not None),
            injected=len(packets),
            steps=steps,
            done_steps=done_steps,
            engine=self.engine,
            recorder=recorder,
        )

    def _run_packets(
        self,
        packets: List[SimPacket],
        max_steps: int,
        recorder: Optional[Any],
        faults: Optional[Any] = None,
    ) -> Tuple[int, int]:
        """Drive ``packets`` to completion; returns (last arrival, steps run)."""
        queues: Dict[int, Deque[SimPacket]] = {}  # per-link FIFO queues

        def enqueue(pkt: SimPacket) -> None:
            eid = self.host.edge_id(pkt.path[pkt.hop], pkt.path[pkt.hop + 1])
            queues.setdefault(eid, deque()).append(pkt)

        in_flight = 0
        releases: Dict[int, List[SimPacket]] = {}
        for pkt in packets:
            if len(pkt.path) == 1:
                pkt.done_step = 0
                if recorder:
                    recorder.on_deliver(0)
            else:
                releases.setdefault(pkt.release_step, []).append(pkt)
                in_flight += 1

        step = 0
        last_done = 0
        transmitting: Dict[int, Tuple[SimPacket, int]] = {}  # eid -> (pkt, finish)
        while in_flight > 0:
            if not queues and not transmitting and releases:
                # nothing queued or on a link: jump to the next release
                # instead of spinning through guaranteed-empty steps
                step = max(step, min(releases) - 1)
            step += 1
            if step > max_steps:
                raise RuntimeError(f"simulation exceeded {max_steps} steps")
            for pkt in releases.pop(step, []):
                enqueue(pkt)
            if faults is not None and faults.active(step):
                # every queued packet blocked by a dead link/node is dropped
                # before arbitration; all packets queued on one link share
                # its endpoints, so the whole queue lives or dies together
                for eid in [e for e in queues if faults.hop_dead(e)]:
                    in_flight -= len(queues.pop(eid))
            # start transmissions on idle links (FIFO per link); with a port
            # limit, each node starts at most that many sends per step
            # (links already mid-transmission count against the budget)
            ports: Dict[int, int] = {}
            if self.port_limit is not None:
                for eid in transmitting:
                    node = eid // self.host.n
                    ports[node] = ports.get(node, 0) + 1
            for eid in sorted(queues):
                if eid in transmitting:
                    continue
                if self.port_limit is not None:
                    node = eid // self.host.n
                    if ports.get(node, 0) >= self.port_limit:
                        continue
                    ports[node] = ports.get(node, 0) + 1
                q = queues[eid]
                if recorder:
                    recorder.on_queue_depth(eid, len(q))
                if self.tie_break == "priority" and len(q) > 1:
                    i = min(range(len(q)), key=lambda j: q[j].ident)
                    pkt = q[i]
                    del q[i]
                else:
                    pkt = q.popleft()
                if not q:
                    del queues[eid]
                transmitting[eid] = (pkt, step + pkt.service_time - 1)
                if recorder:
                    recorder.on_transmit(eid, step, pkt.service_time)
            # complete transmissions finishing this step
            for eid in [e for e, (_, f) in transmitting.items() if f <= step]:
                pkt, _ = transmitting.pop(eid)
                pkt.hop += 1
                if pkt.hop >= len(pkt.path) - 1:
                    pkt.done_step = step
                    in_flight -= 1
                    last_done = step
                    if recorder:
                        recorder.on_deliver(step)
                else:
                    enqueue(pkt)
        return last_done, step

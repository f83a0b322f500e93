"""Store-and-forward with finite node buffers (the Pippenger [20] setting).

Section 7 leans on randomized routing results including Pippenger's
"Parallel communication with limited buffers": routing stays fast even when
every node can hold only a constant number of packets.  This simulator adds
that constraint to the link-bound model:

* at most one packet per directed link per step (as everywhere else);
* a packet may cross into node ``v`` only if ``v``'s buffer has room after
  this step's departures (backpressure);
* sources inject from an unbounded external queue (injection also waits for
  room), and packets vanish from the buffer on reaching their destination.

With backpressure, cyclic buffer-wait deadlocks are possible; they are
detected and reported, mirroring the wormhole simulator.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, Iterable, Optional

from repro.hypercube.graph import Hypercube
from repro.routing.api import ScheduleItem, SimResult, normalize_schedule
from repro.routing.simulator import SimPacket

__all__ = ["BoundedBufferSimulator", "BufferDeadlock"]


class BufferDeadlock(RuntimeError):
    """No packet can move: every candidate waits on a full buffer."""


class BoundedBufferSimulator:
    """Synchronous link-bound simulator with per-node buffer capacity."""

    engine = "bounded-buffer"

    def __init__(
        self, host: Hypercube, buffer_capacity: int, injection_reserve: int = 0
    ):
        """``injection_reserve`` buffer slots per node are kept free of
        locally injected packets, so transit traffic can always drain —
        the classical guard against injection-induced buffer deadlock."""
        if buffer_capacity < 1:
            raise ValueError("buffer capacity must be >= 1")
        if not 0 <= injection_reserve < buffer_capacity:
            raise ValueError("reserve must lie in [0, capacity)")
        self.host = host
        self.capacity = buffer_capacity
        self.injection_reserve = injection_reserve

    def run(
        self,
        schedule: Iterable[ScheduleItem],
        *,
        max_steps: int = 10_000_000,
        recorder: Optional[Any] = None,
    ) -> SimResult:
        """Run a unit-service packet schedule to completion.

        Raises ``ValueError`` on a service time other than 1 and
        :class:`BufferDeadlock` when every waiting packet faces a full
        buffer.  ``recorder`` gets one ``on_transmit`` per link crossing
        and one ``on_deliver`` per arrival (zero-hop packets at step 0).
        """
        cols = normalize_schedule(schedule)
        if (cols.service != 1).any():
            raise ValueError(
                "BoundedBufferSimulator supports unit service time only; "
                "use StoreForwardSimulator for atomic multi-packet messages"
            )
        packets = [
            SimPacket(path, release)
            for path, release in zip(cols.paths, cols.release.tolist())
        ]
        # per-link FIFO queues of packets RESIDENT at the link's tail node
        queues: Dict[int, Deque[SimPacket]] = {}
        occupancy: Dict[int, int] = {}
        # external injection queues per source node (unbounded)
        sources: Dict[int, Deque[SimPacket]] = {}
        in_flight = 0
        last_done = 0
        for pkt in packets:
            if len(pkt.path) == 1:
                pkt.done_step = 0
                if recorder:
                    recorder.on_deliver(0)
                continue
            sources.setdefault(pkt.path[0], deque()).append(pkt)
            in_flight += 1
        step = 0
        while in_flight > 0:
            step += 1
            if step > max_steps:
                raise RuntimeError(f"simulation exceeded {max_steps} steps")
            moved = False
            # 1. admit injections while the source buffer has room beyond
            # the transit reserve
            inject_cap = self.capacity - self.injection_reserve
            for node, q in list(sources.items()):
                while q and occupancy.get(node, 0) < inject_cap and \
                        q[0].release_step <= step:
                    pkt = q.popleft()
                    eid = self.host.edge_id(pkt.path[0], pkt.path[1])
                    queues.setdefault(eid, deque()).append(pkt)
                    occupancy[node] = occupancy.get(node, 0) + 1
                    moved = True
                if not q:
                    del sources[node]
            # 2. fix the link winners (FIFO heads), then admit them to a
            # fixed point: a confirmed departure frees a buffer slot that a
            # later pass may hand to an upstream winner (same-step chain
            # advance); winners on genuinely full buffers stay put
            winners = sorted(
                ((eid, queues[eid][0]) for eid in queues), key=lambda w: w[0]
            )
            processed = set()
            progressed = True
            while progressed:
                progressed = False
                for eid, pkt in winners:
                    if eid in processed:
                        continue
                    u = pkt.path[pkt.hop]
                    v = pkt.path[pkt.hop + 1]
                    final = pkt.hop + 1 == len(pkt.path) - 1
                    if not final and occupancy.get(v, 0) >= self.capacity:
                        continue  # backpressure: stay put (for now)
                    q = queues[eid]
                    q.popleft()
                    if not q:
                        del queues[eid]
                    occupancy[u] -= 1
                    pkt.hop += 1
                    processed.add(eid)
                    moved = progressed = True
                    if recorder:
                        recorder.on_transmit(eid, step)
                    if final:
                        pkt.done_step = step
                        last_done = step
                        in_flight -= 1
                        if recorder:
                            recorder.on_deliver(step)
                    else:
                        occupancy[v] = occupancy.get(v, 0) + 1
                        nxt = self.host.edge_id(v, pkt.path[pkt.hop + 1])
                        queues.setdefault(nxt, deque()).append(pkt)
            if not moved:
                waiting_release = any(
                    q and q[0].release_step > step for q in sources.values()
                )
                if waiting_release:
                    continue
                raise BufferDeadlock(
                    f"{in_flight} packets stuck on full buffers at step {step}"
                )
        # every packet arrived: a stuck one raised BufferDeadlock above
        return SimResult(
            makespan=last_done,
            delivered=len(packets),
            injected=len(packets),
            steps=step,
            done_steps=tuple(pkt.done_step or 0 for pkt in packets),
            engine=self.engine,
            recorder=recorder,
        )

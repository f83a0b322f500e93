"""Link-bound routing substrate.

The paper's cost model (Section 3): during one time unit every processor can
send one message packet over each outgoing link.  This subpackage provides

* :mod:`repro.routing.schedule` — explicit packet schedules (the form the
  paper's cost claims take) with conflict verification, plus p-packet cost
  measurement for embeddings;
* :mod:`repro.routing.simulator` — a synchronous store-and-forward queue
  simulator for baselines and randomized routing;
* :mod:`repro.routing.wormhole` — cut-through/wormhole routing (Section 7);
* :mod:`repro.routing.permutation` — randomized permutation routing on the
  embedded CCC/butterfly copies (Section 7);
* :mod:`repro.routing.batched` — batched tensor engines that advance B
  independent runs per tick in a few numpy ops (fleet campaigns, sweeps);
* :mod:`repro.routing.api` — the unified :class:`Simulator` protocol shared
  by the reference and vectorized engines: ``run(schedule, max_steps=...,
  recorder=...) -> SimResult``, with optional per-link instrumentation via
  :mod:`repro.obs`, and :func:`normalize_schedule`, which turns any accepted
  schedule into the :class:`ScheduleColumns` both packet engines read.
"""

from repro.routing.api import (
    ScheduleColumns,
    SimRequest,
    SimResult,
    Simulator,
    normalize_schedule,
)
from repro.routing.batched import BatchedStoreForward, BatchedWormhole
from repro.routing.schedule import (
    PacketSchedule,
    ScheduledPacket,
    multipath_packet_schedule,
    p_packet_cost_singlepath,
)
from repro.routing.simulator import StoreForwardSimulator
from repro.routing.wormhole import (
    Worm,
    WormholeDeadlock,
    WormholeSimulator,
    WormLaneOutcome,
)

__all__ = [
    "BatchedStoreForward",
    "BatchedWormhole",
    "WormLaneOutcome",
    "Worm",
    "WormholeDeadlock",
    "WormholeSimulator",
    "PacketSchedule",
    "ScheduledPacket",
    "ScheduleColumns",
    "SimRequest",
    "SimResult",
    "Simulator",
    "StoreForwardSimulator",
    "multipath_packet_schedule",
    "normalize_schedule",
    "p_packet_cost_singlepath",
]

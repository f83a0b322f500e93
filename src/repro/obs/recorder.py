"""Per-directed-link congestion and occupancy recorders.

A recorder is the sink a simulator fills while it runs: how many packets
each directed host link carried (the *measured congestion* of the run),
how many steps each link was busy (occupancy), the peak queue depth per
link, and the histogram of arrival steps.

The congestion lens matters beyond reporting: per-link packet counts are
exactly the quantity the embedding-congestion lower bounds reason about
(Rajan et al., arXiv:1807.06787), so a recorded run can be checked
against the *structural* congestion the embedding certifies — see
``analysis/validate.py`` and the ``repro obs report`` CLI.

Two implementations share the interface:

* :class:`NullRecorder` — the disabled default.  It is *falsy*, so hot
  loops guard every hook behind ``if recorder:`` and pay one truth test
  per decision point, no calls, no allocations.  ``NULL_RECORDER`` is the
  shared singleton.
* :class:`LinkRecorder` — plain-dict accumulation, plus bulk methods
  (:meth:`LinkRecorder.add_link_counts`, :meth:`LinkRecorder.add_deliveries`)
  so the vectorized engine can dump numpy arrays once per run instead of
  calling per-packet hooks.
"""

from __future__ import annotations

from collections import Counter as _TallyCounter
from typing import Any, Dict, Iterable, List, Optional, Tuple

import numpy as np

__all__ = ["NullRecorder", "NULL_RECORDER", "LinkRecorder"]


class NullRecorder:
    """Falsy no-op sink: the disabled-instrumentation fast path.

    Simulators test ``if recorder:`` before *any* recording work, so with
    this (or ``None``) the hot loop does no per-step calls or
    allocations.  All hooks exist and do nothing, making the object safe
    to pass anywhere a recorder is accepted.
    """

    __slots__ = ()
    enabled = False

    def __bool__(self) -> bool:
        return False

    def on_transmit(self, eid: int, step: int, service_time: int = 1) -> None:
        pass

    def on_deliver(self, step: int, count: int = 1) -> None:
        pass

    def on_queue_depth(self, eid: int, depth: int) -> None:
        pass

    def add_link_counts(self, eids: Iterable[int], counts: Iterable[int]) -> None:
        pass

    def add_deliveries(self, steps: Iterable[int]) -> None:
        pass


NULL_RECORDER = NullRecorder()


def _as_ints(values: Iterable[int]) -> List[int]:
    """Plain Python ints: one bulk ``tolist`` for an integer ndarray, else
    ``int()`` per item."""
    if isinstance(values, np.ndarray) and values.dtype.kind in "iu":
        return values.tolist()
    return [int(v) for v in values]


class LinkRecorder:
    """Accumulates per-directed-link usage and arrival statistics.

    ``link_transmissions[eid]`` counts packets (or flits) the link
    carried; ``link_busy_steps[eid]`` counts time steps the link was
    occupied (they differ when a transmission's service time exceeds one
    step); ``queue_peak[eid]`` is the largest FIFO backlog observed; and
    ``deliveries[step]`` histograms packet arrivals by completion step.
    """

    enabled = True

    def __init__(self, host: Optional[Any] = None):
        self.host = host
        self.link_transmissions: _TallyCounter = _TallyCounter()
        self.link_busy_steps: _TallyCounter = _TallyCounter()
        self.queue_peak: Dict[int, int] = {}
        self.deliveries: _TallyCounter = _TallyCounter()

    # -- per-event hooks (scalar engines) -----------------------------------

    def on_transmit(self, eid: int, step: int, service_time: int = 1) -> None:
        """A transmission starts on directed link ``eid`` at ``step``."""
        self.link_transmissions[eid] += 1
        self.link_busy_steps[eid] += service_time

    def on_deliver(self, step: int, count: int = 1) -> None:
        """``count`` packets complete their final hop at ``step``."""
        self.deliveries[step] += count

    def on_queue_depth(self, eid: int, depth: int) -> None:
        """Sample the FIFO backlog waiting on link ``eid``."""
        if depth > self.queue_peak.get(eid, 0):
            self.queue_peak[eid] = depth

    # -- bulk hooks (vectorized engines) ------------------------------------

    def add_link_counts(self, eids: Iterable[int], counts: Iterable[int]) -> None:
        """Merge per-link transmission totals (unit service time)."""
        pairs = list(zip(_as_ints(eids), _as_ints(counts)))
        merged = dict(pairs)
        if len(merged) == len(pairs):
            # distinct links: one bulk update, a C-level dict.update when
            # the counter is still empty
            self.link_transmissions.update(merged)
            self.link_busy_steps.update(merged)
            return
        for eid, c in pairs:  # a repeated link adds up
            self.link_transmissions[eid] += c
            self.link_busy_steps[eid] += c

    def add_deliveries(self, steps: Iterable[int]) -> None:
        """Merge one arrival step per delivered packet.

        An integer ndarray is counted in one ``np.unique`` pass and merged
        as one ``{step: count}`` dict of Python ints; anything else goes
        item by item.
        """
        if isinstance(steps, np.ndarray) and steps.dtype.kind in "iu":
            values, counts = np.unique(steps, return_counts=True)
            self.deliveries.update(dict(zip(values.tolist(), counts.tolist())))
            return
        self.deliveries.update(_as_ints(steps))

    # -- derived measurements ------------------------------------------------

    @property
    def congestion(self) -> int:
        """Max packets carried by any one directed link during the run."""
        return max(self.link_transmissions.values(), default=0)

    @property
    def delivered(self) -> int:
        return sum(self.deliveries.values())

    @property
    def makespan(self) -> int:
        return max(self.deliveries, default=0)

    def busiest_links(self, k: int = 10) -> List[Tuple[int, int]]:
        """The ``k`` most-used directed links as ``(edge id, packets)``."""
        return self.link_transmissions.most_common(k)

    def step_histogram(self) -> Dict[int, int]:
        """Arrivals per completion step, as a plain sorted dict."""
        return {s: self.deliveries[s] for s in sorted(self.deliveries)}

    def link_congestion_counts(self) -> Dict[int, int]:
        """Packets per directed link, as a plain dict (export shape)."""
        return dict(self.link_transmissions)

    def snapshot(self) -> dict:
        """Plain-dict view for exporters and the CLI."""
        links = {}
        for eid in sorted(self.link_transmissions):
            entry = {
                "transmissions": self.link_transmissions[eid],
                "busy_steps": self.link_busy_steps[eid],
            }
            if eid in self.queue_peak:
                entry["queue_peak"] = self.queue_peak[eid]
            if self.host is not None:
                u, v = self.host.edge_from_id(eid)
                entry["edge"] = [u, v]
            links[str(eid)] = entry
        return {
            "congestion": self.congestion,
            "delivered": self.delivered,
            "makespan": self.makespan,
            "links": links,
            "step_histogram": {
                str(s): c for s, c in self.step_histogram().items()
            },
        }

    def reset(self) -> None:
        self.link_transmissions.clear()
        self.link_busy_steps.clear()
        self.queue_peak.clear()
        self.deliveries.clear()

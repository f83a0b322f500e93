"""Thread-safe metrics registry: counters, gauges, histograms, labels.

One :class:`MetricsRegistry` instance is the measurement substrate for a
component (the service layer threads one through registry/engine/facade).
Metric families are named; each family holds one series per distinct
label set, so ``reg.counter("builds", kind="cycle")`` and
``reg.counter("builds", kind="tree")`` accumulate independently and both
show up in ``snapshot()``.

Histograms store count/sum/min/max plus scale-free power-of-two buckets
(the bucket of ``v`` is the smallest ``2**k >= v``), which keeps a series
O(log range) in memory no matter what it observes.

Unlabeled shorthands (``incr`` / ``count`` / ``observe`` / ``time``)
cover the common counter and timer cases; timer-style histograms (created
via ``observe``/``time``) additionally appear under the
``snapshot()["timers"]`` view.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, Tuple

__all__ = ["MetricsRegistry", "Counter", "Gauge", "Histogram"]

LabelKey = Tuple[Tuple[str, Any], ...]


def _series_name(name: str, labels: LabelKey) -> str:
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically increasing integer."""

    __slots__ = ("_lock", "value")

    def __init__(self, lock: threading.RLock) -> None:
        self._lock = lock
        self.value = 0

    def inc(self, by: int = 1) -> None:
        if by < 0:
            raise ValueError("counters only go up; use a gauge")
        with self._lock:
            self.value += by


class Gauge:
    """A point-in-time value that may move in either direction."""

    __slots__ = ("_lock", "value")

    def __init__(self, lock: threading.RLock) -> None:
        self._lock = lock
        self.value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self.value = value

    def add(self, delta: float) -> None:
        with self._lock:
            self.value += delta


class Histogram:
    """count/sum/min/max plus power-of-two buckets of observed values."""

    __slots__ = ("_lock", "count", "total", "min", "max", "buckets", "unit")

    def __init__(self, lock: threading.RLock, unit: str = "") -> None:
        self._lock = lock
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = 0.0
        self.buckets: Dict[float, int] = {}
        self.unit = unit

    @staticmethod
    def bucket_of(value: float) -> float:
        """Smallest power of two >= value (0 for non-positive values)."""
        if value <= 0:
            return 0.0
        b = 1.0
        while b < value:
            b *= 2
        while b / 2 >= value:
            b /= 2
        return b

    def observe(self, value: float) -> None:
        with self._lock:
            self.count += 1
            self.total += value
            self.min = min(self.min, value)
            self.max = max(self.max, value)
            b = self.bucket_of(value)
            self.buckets[b] = self.buckets.get(b, 0) + 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def summary(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "total": round(self.total, 6),
            "mean": round(self.mean, 6),
            "min": round(self.min, 6) if self.count else 0.0,
            "max": round(self.max, 6),
            "buckets": {str(k): v for k, v in sorted(self.buckets.items())},
        }


class MetricsRegistry:
    """Named counter/gauge/histogram families with labeled series."""

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._counters: Dict[Tuple[str, LabelKey], Counter] = {}
        self._gauges: Dict[Tuple[str, LabelKey], Gauge] = {}
        self._histograms: Dict[Tuple[str, LabelKey], Histogram] = {}

    # -- metric accessors (create on first use) -----------------------------

    @staticmethod
    def _key(name: str, labels: Dict[str, Any]) -> Tuple[str, LabelKey]:
        return name, tuple(sorted(labels.items()))

    def counter(self, name: str, **labels: Any) -> Counter:
        key = self._key(name, labels)
        with self._lock:
            c = self._counters.get(key)
            if c is None:
                c = self._counters[key] = Counter(self._lock)
            return c

    def gauge(self, name: str, **labels: Any) -> Gauge:
        key = self._key(name, labels)
        with self._lock:
            g = self._gauges.get(key)
            if g is None:
                g = self._gauges[key] = Gauge(self._lock)
            return g

    def histogram(self, name: str, unit: str = "", **labels: Any) -> Histogram:
        key = self._key(name, labels)
        with self._lock:
            h = self._histograms.get(key)
            if h is None:
                h = self._histograms[key] = Histogram(self._lock, unit=unit)
            return h

    # -- unlabeled shorthands -----------------------------------------------

    def incr(self, name: str, by: int = 1) -> None:
        """Increment the unlabeled counter ``name``."""
        self.counter(name).inc(by)

    def count(self, name: str) -> int:
        """Current value of the unlabeled counter ``name`` (0 if absent)."""
        with self._lock:
            c = self._counters.get((name, ()))
            return c.value if c is not None else 0

    def observe(self, name: str, seconds: float) -> None:
        """Record a latency sample into the timer histogram ``name``."""
        self.histogram(name, unit="s").observe(seconds)

    @contextmanager
    def time(self, name: str) -> Iterator[None]:
        """Context manager recording the wall time of its body."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.observe(name, time.perf_counter() - start)

    # -- reporting ----------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Plain-dict view of every series.

        ``"timers"`` repeats the seconds-unit histograms in a flat
        ``count``/``total_s``/``mean_s``/… shape for callers that only
        want wall times.
        """
        with self._lock:
            counters = {
                _series_name(n, ls): c.value
                for (n, ls), c in self._counters.items()
            }
            gauges = {
                _series_name(n, ls): g.value
                for (n, ls), g in self._gauges.items()
            }
            histograms = {
                _series_name(n, ls): h.summary()
                for (n, ls), h in self._histograms.items()
            }
            timers = {
                _series_name(n, ls): {
                    "count": h.count,
                    "total_s": round(h.total, 6),
                    "mean_s": round(h.mean, 6),
                    "min_s": round(h.min, 6) if h.count else 0.0,
                    "max_s": round(h.max, 6),
                }
                for (n, ls), h in self._histograms.items()
                if h.unit == "s"
            }
        return {
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
            "timers": timers,
        }

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()

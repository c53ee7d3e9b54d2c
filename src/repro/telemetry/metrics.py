"""Process-wide metrics registry: counters, gauges, latency histograms.

Every instrument is safe to update from ``ThreadExecutor`` workers —
updates take a per-instrument lock, and get-or-create on the registry
takes a registry lock — so concurrent ``inc``/``observe`` calls never
lose updates.
"""

from __future__ import annotations

import math
import threading

__all__ = ["Counter", "Gauge", "LogBucketHistogram", "MetricsRegistry"]


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("name", "_lock", "value")

    def __init__(self, name: str):
        self.name = name
        self._lock = threading.Lock()
        self.value = 0.0

    def inc(self, n: float = 1.0) -> None:
        with self._lock:
            self.value += n


class Gauge:
    """Last-write-wins scalar."""

    __slots__ = ("name", "_lock", "value")

    def __init__(self, name: str):
        self.name = name
        self._lock = threading.Lock()
        self.value = 0.0

    def set(self, v: float) -> None:
        with self._lock:
            self.value = float(v)


class LogBucketHistogram:
    """HDR-style streaming latency histogram with log-spaced buckets.

    Observations land in geometric buckets ``[MIN·g^i, MIN·g^(i+1))``
    stored as a sparse ``{index: count}`` dict, so memory is bounded by
    the dynamic range actually observed (~350 buckets covers 1 ns..3 h)
    regardless of sample count.  Percentile estimates return the bucket's
    geometric midpoint, so the relative error is at most ``sqrt(g) - 1``
    (~4.4% with the default 16-buckets-per-octave growth).

    Merging adds bucket counts, which makes merge exact, commutative,
    and associative — per-process histograms can be combined offline
    (``trace-merge``) without losing percentile fidelity.
    """

    GROWTH = 2.0 ** 0.125  # 16 buckets per octave
    MIN_VALUE = 1e-9  # 1 ns floor; smaller/non-positive values clamp to bucket 0

    __slots__ = ("name", "_lock", "count", "total", "min", "max", "_buckets", "_log_g")

    def __init__(self, name: str = ""):
        self.name = name
        self._lock = threading.Lock()
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self._buckets: dict[int, int] = {}
        self._log_g = math.log(self.GROWTH)

    def _index(self, v: float) -> int:
        if v <= self.MIN_VALUE:
            return 0
        return int(math.floor(math.log(v / self.MIN_VALUE) / self._log_g))

    def _midpoint(self, index: int) -> float:
        # geometric mean of the bucket's bounds
        return self.MIN_VALUE * self.GROWTH ** (index + 0.5)

    def observe(self, v: float) -> None:
        v = float(v)
        i = self._index(v)
        with self._lock:
            self.count += 1
            self.total += v
            if v < self.min:
                self.min = v
            if v > self.max:
                self.max = v
            self._buckets[i] = self._buckets.get(i, 0) + 1

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile estimate (bucket geometric midpoint)."""
        with self._lock:
            if self.count == 0:
                return 0.0
            rank = max(1, math.ceil(p / 100.0 * self.count))
            seen = 0
            for i in sorted(self._buckets):
                seen += self._buckets[i]
                if seen >= rank:
                    return self._midpoint(i)
        return self._midpoint(max(self._buckets))  # pragma: no cover

    def merge(self, other: "LogBucketHistogram") -> "LogBucketHistogram":
        """Fold ``other`` into this histogram in place (exact: adds counts)."""
        with other._lock:
            o_count, o_total = other.count, other.total
            o_min, o_max = other.min, other.max
            o_buckets = dict(other._buckets)
        with self._lock:
            self.count += o_count
            self.total += o_total
            if o_min < self.min:
                self.min = o_min
            if o_max > self.max:
                self.max = o_max
            for i, n in o_buckets.items():
                self._buckets[i] = self._buckets.get(i, 0) + n
        return self

    def to_dict(self) -> dict:
        with self._lock:
            if self.count == 0:
                return {"count": 0, "total": 0.0, "min": 0.0, "max": 0.0, "buckets": {}}
            return {
                "count": self.count,
                "total": self.total,
                "min": self.min,
                "max": self.max,
                "buckets": {str(i): n for i, n in sorted(self._buckets.items())},
            }

    @classmethod
    def from_dict(cls, d: dict, name: str = "") -> "LogBucketHistogram":
        h = cls(name)
        h.count = int(d.get("count", 0))
        h.total = float(d.get("total", 0.0))
        if h.count:
            h.min = float(d["min"])
            h.max = float(d["max"])
        h._buckets = {int(i): int(n) for i, n in d.get("buckets", {}).items()}
        return h

    def summary(self) -> dict:
        if self.count == 0:
            return {
                "count": 0, "total": 0.0, "min": 0.0, "max": 0.0, "mean": 0.0,
                "p50": 0.0, "p95": 0.0, "p99": 0.0,
            }
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.total / self.count,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
        }


class MetricsRegistry:
    """Name → instrument map with thread-safe get-or-create."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._latencies: dict[str, LogBucketHistogram] = {}

    def _get(self, table: dict, name: str, cls):
        inst = table.get(name)
        if inst is None:
            with self._lock:
                inst = table.setdefault(name, cls(name))
        return inst

    def counter(self, name: str) -> Counter:
        return self._get(self._counters, name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(self._gauges, name, Gauge)

    def latency(self, name: str) -> LogBucketHistogram:
        return self._get(self._latencies, name, LogBucketHistogram)

    def snapshot(self) -> dict:
        """Plain-dict view of every instrument (for export / assertions)."""
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            latencies = dict(self._latencies)
        snap = {
            "counters": {k: c.value for k, c in counters.items()},
            "gauges": {k: g.value for k, g in gauges.items()},
        }
        if latencies:
            snap["latencies"] = {k: h.summary() for k, h in latencies.items()}
        return snap

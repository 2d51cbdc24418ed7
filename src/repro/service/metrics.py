"""Lightweight service metrics: counters, gauges, latency histograms.

The scanning service is meant to run continuously, so its observable
state cannot live in return values alone.  The registry here is the
smallest useful subset of a Prometheus-style client: named counters
(monotonic), gauges (set-to-current), and histograms (bounded sample
reservoirs with percentile summaries), all snapshotable as one plain
dict for reports, tests and the CLI.
"""

from __future__ import annotations

import threading
from typing import Optional

# Histograms keep at most this many observations; once full, new samples
# overwrite the oldest (a sliding window, which is what a live service
# wants its latency percentiles computed over anyway).
HISTOGRAM_WINDOW = 8192


class Counter:
    """A monotonically increasing named value."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        return self._value


class Gauge:
    """A named value that tracks a current level (queue depth, pool size).

    Alongside the current level the gauge remembers its *peak* — the
    highest level ever set.  For levels that spike and recede between
    snapshots (queue depth under a bursty streamed crawl, concurrently
    active crawls) the peak is the only record that the spike happened.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0.0
        self._peak = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)
            if self._value > self._peak:
                self._peak = self._value

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount
            if self._value > self._peak:
                self._peak = self._value

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        return self._value

    @property
    def peak(self) -> float:
        return self._peak


def _interpolate(samples: list[float], q: float) -> float:
    """The ``q``-th percentile of non-empty sorted ``samples``, linearly
    interpolated between the two nearest ranks."""
    rank = (q / 100.0) * (len(samples) - 1)
    lower = int(rank)
    upper = min(lower + 1, len(samples) - 1)
    fraction = rank - lower
    return samples[lower] * (1.0 - fraction) + samples[upper] * fraction


class Histogram:
    """A sliding-window sample reservoir with percentile summaries."""

    def __init__(self, name: str, window: int = HISTOGRAM_WINDOW) -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        self.name = name
        self._window = window
        self._samples: list[float] = []
        self._next = 0  # ring-buffer write position once the window is full
        self._count = 0
        self._total = 0.0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self._count += 1
            self._total += value
            if len(self._samples) < self._window:
                self._samples.append(value)
            else:
                self._samples[self._next] = value
                self._next = (self._next + 1) % self._window

    @property
    def count(self) -> int:
        return self._count

    @property
    def total(self) -> float:
        return self._total

    @property
    def mean(self) -> float:
        return self._total / self._count if self._count else 0.0

    @property
    def p50(self) -> float:
        """Median of the retained window (autoscaler / report shorthand)."""
        return self.percentile(50.0)

    @property
    def p95(self) -> float:
        return self.percentile(95.0)

    @property
    def p99(self) -> float:
        return self.percentile(99.0)

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile (0..100) of the retained window."""
        if not 0.0 <= q <= 100.0:
            raise ValueError("percentile must be in [0, 100]")
        with self._lock:
            samples = sorted(self._samples)
        return _interpolate(samples, q) if samples else 0.0

    def summary(self) -> dict:
        with self._lock:
            samples = sorted(self._samples)
            count, total = self._count, self._total
        if not samples:
            return {"count": 0, "mean": 0.0, "min": 0.0, "max": 0.0,
                    "p50": 0.0, "p95": 0.0, "p99": 0.0}
        return {
            "count": count,
            "mean": total / count,
            "min": samples[0],
            "max": samples[-1],
            "p50": _interpolate(samples, 50.0),
            "p95": _interpolate(samples, 95.0),
            "p99": _interpolate(samples, 99.0),
        }


class MetricsRegistry:
    """Create-or-get registry for all of a service's metrics."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._lock = threading.Lock()

    def counter(self, name: str) -> Counter:
        with self._lock:
            metric = self._counters.get(name)
            if metric is None:
                metric = self._counters[name] = Counter(name)
            return metric

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            metric = self._gauges.get(name)
            if metric is None:
                metric = self._gauges[name] = Gauge(name)
            return metric

    def histogram(self, name: str, window: Optional[int] = None) -> Histogram:
        with self._lock:
            metric = self._histograms.get(name)
            if metric is None:
                metric = Histogram(name, window or HISTOGRAM_WINDOW)
                self._histograms[name] = metric
            return metric

    def rollup(self, prefix: str) -> dict:
        """Counters/gauges under ``prefix``, keyed by the stripped suffix.

        Namespaced metric families (the gateway's per-tenant counters
        live at ``tenant.<id>.<name>``) read back as one small dict:
        ``rollup("tenant.acme.")`` → ``{"submitted": 3, ...}``.  Gauges
        only appear when no counter claims the same suffix.
        """
        with self._lock:
            counters = {name[len(prefix):]: c.value
                        for name, c in sorted(self._counters.items())
                        if name.startswith(prefix)}
            gauges = {name[len(prefix):]: g.value
                      for name, g in sorted(self._gauges.items())
                      if name.startswith(prefix)}
        gauges.update(counters)
        return gauges

    def snapshot(self) -> dict:
        """Everything, as one nested plain dict (stable across calls)."""
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
        return {
            "counters": {name: c.value for name, c in sorted(counters.items())},
            "gauges": {name: g.value for name, g in sorted(gauges.items())},
            "gauge_peaks": {name: g.peak for name, g in sorted(gauges.items())},
            "histograms": {name: h.summary() for name, h in sorted(histograms.items())},
        }

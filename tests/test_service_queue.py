"""Tests for the ingest queue, micro-batcher and metrics registry."""

import threading
import time

import pytest

from repro.service.batcher import MicroBatcher
from repro.service.metrics import Histogram, MetricsRegistry
from repro.service.queue import (
    IngestQueue,
    QueueClosedError,
    QueueFullError,
)


class TestRejectPolicy:
    def test_full_queue_rejects_immediately(self):
        queue = IngestQueue(capacity=2, policy="reject")
        queue.put("a")
        queue.put("b")
        with pytest.raises(QueueFullError):
            queue.put("c")
        assert queue.rejected == 1
        assert queue.accepted == 2
        assert queue.depth == 2

    def test_rejected_items_are_not_enqueued(self):
        queue = IngestQueue(capacity=1, policy="reject")
        queue.put("a")
        with pytest.raises(QueueFullError):
            queue.put("b")
        assert queue.get() == "a"
        queue.close()
        assert queue.get() is None


class TestBlockPolicy:
    def test_producer_blocks_until_consumer_frees_space(self):
        queue = IngestQueue(capacity=1, policy="block")
        queue.put("a")
        landed = threading.Event()

        def producer():
            queue.put("b")  # must wait: capacity 1, 'a' still queued
            landed.set()

        thread = threading.Thread(target=producer, daemon=True)
        thread.start()
        assert not landed.wait(0.08), "producer should be backpressured"
        assert queue.get() == "a"
        assert landed.wait(2.0), "producer should proceed once space frees"
        assert queue.get() == "b"
        thread.join(2.0)

    def test_block_with_timeout_raises(self):
        queue = IngestQueue(capacity=1, policy="block")
        queue.put("a")
        started = time.monotonic()
        with pytest.raises(QueueFullError):
            queue.put("b", timeout=0.05)
        assert time.monotonic() - started < 1.0
        assert queue.rejected == 1


class TestCloseSemantics:
    def test_put_after_close_raises(self):
        queue = IngestQueue(capacity=4)
        queue.close()
        with pytest.raises(QueueClosedError):
            queue.put("a")

    def test_get_drains_then_signals_done(self):
        queue = IngestQueue(capacity=4)
        queue.put("a")
        queue.close()
        assert queue.get() == "a"
        assert queue.get() is None  # closed + empty → consumer exit signal

    def test_close_wakes_blocked_producer(self):
        queue = IngestQueue(capacity=1, policy="block")
        queue.put("a")
        error: list = []

        def producer():
            try:
                queue.put("b")
            except QueueClosedError as exc:
                error.append(exc)

        thread = threading.Thread(target=producer, daemon=True)
        thread.start()
        time.sleep(0.05)
        queue.close()
        thread.join(2.0)
        assert error, "blocked producer must be released by close()"

    def test_get_timeout_returns_none(self):
        queue = IngestQueue(capacity=4)
        assert queue.get(timeout=0.02) is None

    def test_validation(self):
        with pytest.raises(ValueError):
            IngestQueue(capacity=0)
        with pytest.raises(ValueError):
            IngestQueue(policy="drop-newest")


class TestMicroBatcher:
    def test_size_triggered_flush(self):
        queue = IngestQueue(capacity=16)
        batcher = MicroBatcher(queue, max_size=3, max_delay=30.0)
        for item in ("a", "b", "c", "d"):
            queue.put(item)
        assert batcher.next_batch() == ["a", "b", "c"]
        assert batcher.size_flushes == 1
        assert batcher.deadline_flushes == 0

    def test_deadline_triggered_flush(self):
        queue = IngestQueue(capacity=16)
        batcher = MicroBatcher(queue, max_size=100, max_delay=0.05)
        queue.put("a")
        started = time.monotonic()
        batch = batcher.next_batch()
        elapsed = time.monotonic() - started
        assert batch == ["a"]
        assert batcher.deadline_flushes == 1
        assert elapsed < 5.0  # released by the deadline, not max_size

    def test_deadline_measured_from_first_item(self):
        queue = IngestQueue(capacity=16)
        batcher = MicroBatcher(queue, max_size=100, max_delay=0.15)
        result: list = []

        def consume():
            result.append(batcher.next_batch())

        thread = threading.Thread(target=consume, daemon=True)
        thread.start()
        queue.put("a")  # opens the batch, starts the clock
        time.sleep(0.03)
        queue.put("b")  # arrives within the deadline → same batch
        thread.join(5.0)
        assert result and result[0] == ["a", "b"]

    def test_closed_queue_flushes_partial_batch_then_stops(self):
        queue = IngestQueue(capacity=16)
        batcher = MicroBatcher(queue, max_size=10, max_delay=30.0)
        queue.put("a")
        queue.put("b")
        queue.close()
        assert batcher.next_batch() == ["a", "b"]
        assert batcher.next_batch() is None

    def test_validation(self):
        queue = IngestQueue(capacity=4)
        with pytest.raises(ValueError):
            MicroBatcher(queue, max_size=0)
        with pytest.raises(ValueError):
            MicroBatcher(queue, max_delay=-1.0)


class TestMetrics:
    def test_counter_monotonic(self):
        registry = MetricsRegistry()
        counter = registry.counter("scanned")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_counter_identity_by_name(self):
        registry = MetricsRegistry()
        registry.counter("x").inc()
        registry.counter("x").inc()
        assert registry.counter("x").value == 2

    def test_gauge(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("queue_depth")
        gauge.set(7)
        gauge.inc()
        gauge.dec(3)
        assert gauge.value == 5.0

    def test_histogram_summary(self):
        histogram = Histogram("latency")
        for value in (1.0, 2.0, 3.0, 4.0):
            histogram.observe(value)
        summary = histogram.summary()
        assert summary["count"] == 4
        assert summary["min"] == 1.0 and summary["max"] == 4.0
        assert summary["mean"] == pytest.approx(2.5)
        assert summary["p50"] == pytest.approx(2.5)
        for q in (50, 95, 99):
            assert summary[f"p{q}"] == histogram.percentile(q)

    def test_histogram_window_slides(self):
        histogram = Histogram("latency", window=4)
        for value in range(100):
            histogram.observe(float(value))
        assert histogram.count == 100
        # Percentiles come from the last 4 observations only.
        assert histogram.percentile(0) >= 96.0

    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.counter("submitted").inc(3)
        registry.gauge("depth").set(2)
        registry.histogram("lat").observe(0.5)
        snapshot = registry.snapshot()
        assert snapshot["counters"] == {"submitted": 3}
        assert snapshot["gauges"] == {"depth": 2.0}
        assert snapshot["histograms"]["lat"]["count"] == 1

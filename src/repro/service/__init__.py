"""The online ad-scanning service.

Wraps the batch :class:`~repro.core.oracle.CombinedOracle` as a serving
system: bounded ingest queue with backpressure, content-hash verdict
cache (an LRU), micro-batching, a deterministic thread worker pool,
and a metrics registry — composed by :class:`ScanService`.
"""

from repro.service.autoscaler import Autoscaler, AutoscalerConfig, ScaleEvent
from repro.service.batcher import MicroBatcher
from repro.service.breaker import (
    BreakerOpenError,
    CircuitBreaker,
    DeadLetter,
    DeadLetterLog,
)
from repro.service.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.service.queue import (
    IngestQueue,
    QueueClosedError,
    QueueFullError,
)
from repro.service.service import (
    AttachedTicket,
    ScanService,
    ScanTicket,
    ServiceConfig,
    ServiceDegradedError,
    sighting_record,
)
from repro.service.streaming import StreamingCorpus, stream_crawl
from repro.service.workers import (
    OracleWorkerPool,
    ScanTask,
    ScanWorker,
    WorkerCrashed,
    hermetic_judge,
)

__all__ = [
    "AttachedTicket",
    "Autoscaler",
    "AutoscalerConfig",
    "ScaleEvent",
    "WorkerCrashed",
    "BreakerOpenError",
    "CircuitBreaker",
    "Counter",
    "DeadLetter",
    "DeadLetterLog",
    "Gauge",
    "Histogram",
    "IngestQueue",
    "MetricsRegistry",
    "MicroBatcher",
    "OracleWorkerPool",
    "QueueClosedError",
    "QueueFullError",
    "ScanService",
    "ScanTask",
    "ScanTicket",
    "ScanWorker",
    "ServiceConfig",
    "ServiceDegradedError",
    "StreamingCorpus",
    "hermetic_judge",
    "sighting_record",
    "stream_crawl",
]

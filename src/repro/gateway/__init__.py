"""The multi-tenant scan gateway: the service's front door.

Fronts :class:`~repro.service.service.ScanService` with identity and
policy: API-key authentication over hashed key storage
(:mod:`repro.gateway.auth`), per-tenant sliding-window rate limiting
(:mod:`repro.gateway.ratelimit`), submission and spend quotas with
cheap billing for cache/dedup hits (:mod:`repro.gateway.quota`), and
priority classes feeding a weighted-fair stride scheduler in front of
the bounded ingest queue (:mod:`repro.gateway.admission`) — composed by
:class:`~repro.gateway.gateway.ScanGateway`, which also exposes the
HTTP-shaped route table (``/v1/scan``, ``/v1/health``, ``/v1/stats``…).

Every decision reads time through one injected clock and uses no
randomness, so gateway behaviour is deterministic and replayable.  The
gateway is strictly additive: a :class:`ScanService` used without one
behaves bit-identically to the pre-gateway service.
"""

from repro.gateway.admission import AdmissionBuffer
from repro.gateway.auth import (
    PRIORITIES,
    PRIORITY_WEIGHTS,
    Tenant,
    TenantRegistry,
    hash_key,
    mint_key,
)
from repro.gateway.clock import Clock, ManualClock
from repro.gateway.errors import (
    AdmissionRejectedError,
    AuthenticationError,
    GatewayDegradedError,
    GatewayError,
    QuotaExceededError,
    RateLimitedError,
    TenantDisabledError,
)
from repro.gateway.gateway import (
    ANONYMOUS_TENANT,
    GatewayConfig,
    GatewayResponse,
    GatewayTicket,
    ScanGateway,
)
from repro.gateway.quota import QuotaLedger, TenantUsage
from repro.gateway.ratelimit import (
    MemorySlidingWindow,
    RateDecision,
)

__all__ = [
    "ANONYMOUS_TENANT",
    "AdmissionBuffer",
    "AdmissionRejectedError",
    "AuthenticationError",
    "Clock",
    "GatewayConfig",
    "GatewayDegradedError",
    "GatewayError",
    "GatewayResponse",
    "GatewayTicket",
    "ManualClock",
    "MemorySlidingWindow",
    "PRIORITIES",
    "PRIORITY_WEIGHTS",
    "QuotaExceededError",
    "QuotaLedger",
    "RateDecision",
    "RateLimitedError",
    "ScanGateway",
    "Tenant",
    "TenantDisabledError",
    "TenantRegistry",
    "TenantUsage",
    "hash_key",
    "mint_key",
]

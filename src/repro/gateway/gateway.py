"""`ScanGateway`: the multi-tenant front door of the scan service.

Every submission walks the same four checkpoints, in order::

    auth (401) → rate limit (429) → quota (403) → fair admission (503)
      → ScanService.submit (tenant-attributed)

The gateway is *HTTP-shaped but in-process*: :meth:`ScanGateway.handle`
routes ``(method, path, headers, body)`` requests exactly as an HTTP
edge would — status codes, ``Retry-After`` headers, JSON error bodies —
while the programmatic API (:meth:`submit_record` /
:meth:`submit_html`) serves the CLI, examples and benchmarks without any
socket.  Both surfaces share one decision path, so what the tests pin is
what a real front end would serve.

Determinism: the gateway reads time only through its injected clock and
contains no randomness, so every admission, throttle and quota decision
is a pure function of ``(config, tenants, call sequence, clock
readings)``.  Metrics — per-tenant counters, verdict mix, admission
latency histograms — roll into the backing service's existing
:class:`~repro.service.metrics.MetricsRegistry` so one snapshot covers
the whole stack.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.core.oracle import AdVerdict
from repro.core.persistence import verdict_to_dict
from repro.crawler.corpus import AdRecord
from repro.gateway.admission import AdmissionBuffer
from repro.gateway.auth import Tenant, TenantRegistry
from repro.gateway.clock import Clock
from repro.gateway.errors import (
    AuthenticationError,
    GatewayDegradedError,
    GatewayError,
    QuotaExceededError,
    RateLimitedError,
    TenantDisabledError,
    maybe_retry_after,
)
from repro.gateway.quota import DEFAULT_CACHED_COST, DEFAULT_SCAN_COST, QuotaLedger
from repro.gateway.ratelimit import MemorySlidingWindow
from repro.service.queue import QueueClosedError, QueueFullError
from repro.service.service import (
    ScanService,
    ScanTicket,
    ServiceDegradedError,
    sighting_record,
)

#: The standing identity used when ``require_auth`` is off and a request
#: arrives without a key (a public scanning endpoint's "free tier").
ANONYMOUS_TENANT = "anonymous"


@dataclass
class GatewayConfig:
    """All the gateway's knobs in one place."""

    #: Refuse keyless/unknown requests (401) instead of mapping them to
    #: the anonymous tenant.
    require_auth: bool = True
    #: Bounded weighted-fair buffer between policy checks and the
    #: service's ingest queue.
    admission_capacity: int = 1024
    #: Most items forwarded to the service per pump pass (keeps one
    #: caller from doing unbounded forwarding work inline).
    forward_burst: int = 64
    #: Spend billed per fresh oracle scan / per cache-or-dedup hit.
    scan_cost: float = DEFAULT_SCAN_COST
    cached_cost: float = DEFAULT_CACHED_COST
    #: Secret for deterministic API-key minting (see auth.mint_key).
    secret_seed: int = 2014
    #: Time source for every gateway decision; None = time.monotonic.
    clock: Optional[Clock] = None
    #: Limits applied to the anonymous tenant when require_auth is off.
    anonymous_tenant: Tenant = field(default_factory=lambda: Tenant(
        tenant_id=ANONYMOUS_TENANT, name="unauthenticated callers",
        priority="best_effort", rate_limit=30, rate_window=60.0))


class GatewayTicket:
    """A tenant's claim on one gateway submission.

    Unlike a :class:`~repro.service.service.ScanTicket`, this ticket
    exists *before* the submission reaches the service — it is minted at
    admission-buffer enqueue time and attaches to the inner service
    ticket when the weighted-fair scheduler forwards it.  ``result()``
    therefore drives the gateway's pump: a caller blocked on its verdict
    is also the engine that moves the admission queue.
    """

    def __init__(self, ticket_id: str, tenant_id: str, record: AdRecord,
                 enqueued_at: float, gateway: "ScanGateway") -> None:
        self.ticket_id = ticket_id
        self.tenant_id = tenant_id
        self.record = record
        self.enqueued_at = enqueued_at
        self.forwarded_at: Optional[float] = None
        self._gateway = gateway
        self._inner: Optional[ScanTicket] = None
        self._error: Optional[BaseException] = None
        self._mix_recorded = False

    # -- state ---------------------------------------------------------------

    @property
    def forwarded(self) -> bool:
        return self._inner is not None or self._error is not None

    @property
    def from_cache(self) -> bool:
        return self._inner is not None and self._inner.from_cache

    @property
    def done(self) -> bool:
        if self._error is not None:
            return True
        return self._inner is not None and self._inner.done

    @property
    def admission_latency(self) -> Optional[float]:
        """Seconds between enqueue and forward (gateway-clock units)."""
        if self.forwarded_at is None:
            return None
        return self.forwarded_at - self.enqueued_at

    # -- resolution ----------------------------------------------------------

    def result(self, timeout: Optional[float] = None) -> AdVerdict:
        """Block for the verdict, pumping the admission queue as needed."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while self._inner is None:
            if self._error is not None:
                raise self._error
            if self._gateway.pump() == 0 and self._inner is None:
                if self._error is not None:
                    raise self._error
                if deadline is not None and time.monotonic() >= deadline:
                    raise TimeoutError(
                        f"ticket {self.ticket_id} not admitted after {timeout}s")
                time.sleep(0.001)
        remaining = None
        if deadline is not None:
            remaining = max(0.001, deadline - time.monotonic())
        verdict = self._inner.result(remaining)
        self._gateway._record_verdict_mix(self, verdict)
        return verdict

    def to_body(self) -> dict:
        """The HTTP-shaped status body for this ticket."""
        body = {
            "ticket": self.ticket_id,
            "tenant": self.tenant_id,
            "ad_id": self.record.ad_id,
            "status": ("done" if self.done
                       else "admitted" if self.forwarded else "queued"),
        }
        if self.admission_latency is not None:
            body["admission_latency"] = self.admission_latency
        return body


class GatewayResponse:
    """One HTTP-shaped reply: status, JSON-able body, headers."""

    def __init__(self, status: int, body: dict,
                 headers: Optional[dict] = None) -> None:
        self.status = status
        self.body = body
        self.headers = headers or {}

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300


class ScanGateway:
    """Auth → rate limit → quota → weighted-fair admission → ScanService."""

    def __init__(self, service: ScanService,
                 registry: Optional[TenantRegistry] = None,
                 config: Optional[GatewayConfig] = None) -> None:
        self.service = service
        self.config = config or GatewayConfig()
        self.registry = registry or TenantRegistry(self.config.secret_seed)
        self.rate_limiter = MemorySlidingWindow()
        self.clock: Clock = self.config.clock or time.monotonic
        self.ledger = QuotaLedger(scan_cost=self.config.scan_cost,
                                  cached_cost=self.config.cached_cost)
        self.admission = AdmissionBuffer(self.config.admission_capacity)
        self.metrics = service.metrics
        self._lock = threading.Lock()
        self._pump_lock = threading.Lock()
        self._ticket_seq = 0
        self._tickets: dict[str, GatewayTicket] = {}
        #: Creatives this gateway has already forwarded — a later
        #: submission of the same content bills the cached cost even
        #: when it coalesces onto an in-flight scan rather than hitting
        #: the verdict cache.
        self._seen_hashes: set[str] = set()
        for name in ("gateway_requests", "gateway_admitted",
                     "gateway_auth_failures", "gateway_throttled",
                     "gateway_quota_rejected", "gateway_admission_rejected",
                     "gateway_degraded_rejections"):
            self.metrics.counter(name)
        self.metrics.gauge("gateway_admission_depth")
        self.metrics.histogram("gateway_admission_latency")

    # -- tenant management ---------------------------------------------------

    def register_tenant(self, tenant: Tenant,
                        api_key: Optional[str] = None) -> str:
        """Add a tenant; returns the API key that authenticates it."""
        return self.registry.register(tenant, api_key=api_key)

    def _authenticate(self, api_key: Optional[str]) -> Tenant:
        # Anonymous fallback applies only to *missing* keys, never wrong
        # ones: a caller presenting a bad key meant to authenticate, and
        # refusing loudly beats silently demoting them to the anonymous
        # tenant's limits.
        if not api_key and not self.config.require_auth:
            return self._anonymous_tenant()
        try:
            return self.registry.authenticate(api_key)
        except (AuthenticationError, TenantDisabledError):
            self.metrics.counter("gateway_auth_failures").inc()
            raise

    def _anonymous_tenant(self) -> Tenant:
        tenant = self.config.anonymous_tenant
        if tenant.tenant_id not in self.registry:
            self.registry.register(tenant)
        return self.registry.get(tenant.tenant_id)

    # -- submission ----------------------------------------------------------

    def submit_record(self, api_key: Optional[str],
                      record: AdRecord) -> GatewayTicket:
        """Run one record through every checkpoint; returns its ticket.

        Raises the checkpoint-specific :class:`GatewayError` subclass on
        refusal (401/429/403/503 in HTTP terms); refusals never consume
        admission capacity, and a rate/quota refusal is charged to the
        refusing tenant's counters so the rollup is exact.
        """
        self.metrics.counter("gateway_requests").inc()
        tenant = self._authenticate(api_key)
        tid = tenant.tenant_id
        now = self.clock()
        if tenant.rate_limit is not None:
            decision = self.rate_limiter.check(tid, tenant.rate_limit,
                                               tenant.rate_window, now)
            if not decision.allowed:
                self.metrics.counter("gateway_throttled").inc()
                self.metrics.counter(f"tenant.{tid}.throttled").inc()
                raise RateLimitedError(
                    f"tenant {tid!r} over its rate limit "
                    f"({decision.in_window}/{decision.limit} in "
                    f"{tenant.rate_window:g}s)",
                    retry_after=decision.retry_after)
        try:
            self.ledger.admit(tenant)
        except QuotaExceededError:
            self.metrics.counter("gateway_quota_rejected").inc()
            self.metrics.counter(f"tenant.{tid}.quota_rejected").inc()
            raise
        with self._lock:
            self._ticket_seq += 1
            ticket_id = f"tk-{self._ticket_seq:06d}"
        ticket = GatewayTicket(ticket_id, tid, record, now, self)
        try:
            self.admission.push(tid, tenant.weight, ticket)
        except GatewayError:
            self.ledger.refund_submission(tid)
            self.metrics.counter("gateway_admission_rejected").inc()
            self.metrics.counter(f"tenant.{tid}.admission_rejected").inc()
            raise
        with self._lock:
            self._tickets[ticket_id] = ticket
        self.metrics.counter(f"tenant.{tid}.submitted").inc()
        self.metrics.gauge("gateway_admission_depth").set(self.admission.depth)
        self.pump()
        return ticket

    def submit_html(self, api_key: Optional[str], html: str) -> GatewayTicket:
        """Submit one raw creative (the HTTP body shape)."""
        return self.submit_record(api_key, sighting_record(html))

    # -- forwarding ----------------------------------------------------------

    def pump(self, max_items: Optional[int] = None) -> int:
        """Forward admitted items to the service in weighted-fair order.

        Runs until the admission buffer is empty, the service's ingest
        queue has no headroom, or the burst limit is reached.  Returns
        the number of items forwarded.  Any caller may pump; the pump
        lock serialises forwarding so fair order is preserved under
        concurrent submitters.
        """
        budget = self.config.forward_burst if max_items is None else max_items
        forwarded = 0
        with self._pump_lock:
            while forwarded < budget:
                if self.service.queue.depth >= self.service.queue.capacity:
                    break
                popped = self.admission.pop()
                if popped is None:
                    break
                tid, ticket = popped
                if not self._forward(tid, ticket):
                    break
                forwarded += 1
        if forwarded:
            self.metrics.gauge("gateway_admission_depth").set(
                self.admission.depth)
        return forwarded

    def _forward(self, tid: str, ticket: GatewayTicket) -> bool:
        """Hand one admitted ticket to the service; False = put it back."""
        try:
            inner = self.service.submit(ticket.record, tenant=tid)
        except QueueFullError:
            self.admission.push_front(tid, ticket)
            return False
        except ServiceDegradedError as exc:
            self.metrics.counter("gateway_degraded_rejections").inc()
            self.metrics.counter(f"tenant.{tid}.degraded_rejections").inc()
            ticket._error = GatewayDegradedError(str(exc))
            return True
        except QueueClosedError as exc:
            ticket._error = exc
            return True
        now = self.clock()
        ticket._inner = inner
        ticket.forwarded_at = now
        latency = now - ticket.enqueued_at
        self.metrics.counter("gateway_admitted").inc()
        self.metrics.counter(f"tenant.{tid}.admitted").inc()
        self.metrics.histogram("gateway_admission_latency").observe(latency)
        self.metrics.histogram(f"tenant.{tid}.admission_latency").observe(latency)
        cached = inner.from_cache or ticket.record.content_hash in self._seen_hashes
        self._seen_hashes.add(ticket.record.content_hash)
        self.ledger.charge_scan(tid, cached=cached)
        self.metrics.counter(
            f"tenant.{tid}.{'cached' if cached else 'fresh'}_billed").inc()
        self.metrics.gauge(f"tenant.{tid}.spend").set(
            self.ledger.usage(tid).spend)
        return True

    def drain(self, timeout: Optional[float] = None) -> None:
        """Forward everything admitted, then wait for every verdict."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            self.pump()
            if self.admission.depth == 0:
                break
            if deadline is not None and time.monotonic() >= deadline:
                raise TimeoutError(
                    f"{self.admission.depth} submissions still awaiting "
                    f"admission after {timeout}s")
            time.sleep(0.001)
        remaining = None
        if deadline is not None:
            remaining = max(0.001, deadline - time.monotonic())
        self.service.drain(timeout=remaining)
        with self._lock:
            tickets = list(self._tickets.values())
        for ticket in tickets:
            if ticket._inner is not None and ticket._inner.done:
                try:
                    self._record_verdict_mix(ticket, ticket._inner.result(0))
                except Exception:
                    pass

    def _record_verdict_mix(self, ticket: GatewayTicket,
                            verdict: AdVerdict) -> None:
        with self._lock:
            if ticket._mix_recorded:
                return
            ticket._mix_recorded = True
        tid = ticket.tenant_id
        self.metrics.counter(f"tenant.{tid}.completed").inc()
        kind = "malicious" if verdict.is_malicious else "benign"
        self.metrics.counter(f"tenant.{tid}.{kind}").inc()

    # -- introspection -------------------------------------------------------

    def ticket(self, ticket_id: str) -> Optional[GatewayTicket]:
        with self._lock:
            return self._tickets.get(ticket_id)

    def health(self) -> dict:
        """The liveness rollup an edge health check would scrape."""
        degraded = self.service.pool.all_breakers_open
        return {
            "status": "degraded" if degraded else "ok",
            "degraded": degraded,
            "queue": {
                "depth": self.service.queue.depth,
                "capacity": self.service.queue.capacity,
                "high_water": self.service.queue.high_water,
            },
            "admission": {
                "depth": self.admission.depth,
                "capacity": self.admission.capacity,
                "high_water": self.admission.high_water,
            },
            "breakers": self.service.pool.breaker_stats(),
            "workers_alive": self.service.pool.alive,
        }

    def tenant_rollup(self, tenant_id: str) -> dict:
        """One tenant's usage + counters + admission latency summary."""
        usage = self.ledger.usage(tenant_id).to_dict()
        prefix = f"tenant.{tenant_id}."
        snapshot = self.metrics.snapshot()
        counters = {name[len(prefix):]: value
                    for name, value in snapshot["counters"].items()
                    if name.startswith(prefix)}
        latency = snapshot["histograms"].get(
            f"{prefix}admission_latency",
            {"count": 0, "p50": 0.0, "p95": 0.0, "p99": 0.0})
        return {
            "tenant_id": tenant_id,
            "usage": usage,
            "counters": counters,
            "admission_latency": latency,
        }

    def stats(self) -> dict:
        """Everything: per-tenant rollups, admission, limiter, totals."""
        snapshot = self.metrics.snapshot()
        totals = {name: value for name, value in snapshot["counters"].items()
                  if name.startswith("gateway_")}
        stats = {
            "totals": totals,
            "tenants": {tenant.tenant_id: self.tenant_rollup(tenant.tenant_id)
                        for tenant in self.registry.tenants()},
            "admission": self.admission.stats(),
            "rate_limiter": self.rate_limiter.stats(),
            "admission_latency": snapshot["histograms"].get(
                "gateway_admission_latency", {}),
        }
        if getattr(self.service, "store", None) is not None:
            # The persistent tier rides along so one /v1/stats poll shows
            # operators the durable state behind the cache.
            stats["store"] = self.service.store.stats()
        return stats

    # -- the HTTP shape ------------------------------------------------------

    def handle(self, method: str, path: str,
               headers: Optional[dict] = None,
               body: Optional[dict] = None) -> GatewayResponse:
        """Route one HTTP-shaped request.

        Routes::

            POST /v1/scan            submit {"html": ...[, "wait": true]}
            GET  /v1/verdicts/<id>   poll/fetch one ticket's verdict
            GET  /v1/usage           the calling tenant's own rollup
            GET  /v1/health          liveness (no auth; 503 when degraded)
            GET  /v1/stats           global rollups (no auth)

        Policy refusals surface as their HTTP status with a JSON error
        body; throttles carry a ``retry-after`` header.
        """
        headers = {k.lower(): v for k, v in (headers or {}).items()}
        api_key = headers.get("x-api-key")
        try:
            return self._route(method.upper(), path, api_key, body or {})
        except GatewayError as exc:
            return GatewayResponse(exc.status, exc.to_body(),
                                   maybe_retry_after(exc))

    def _route(self, method: str, path: str, api_key: Optional[str],
               body: dict) -> GatewayResponse:
        if (method, path) == ("GET", "/v1/health"):
            health = self.health()
            return GatewayResponse(503 if health["degraded"] else 200, health)
        if (method, path) == ("GET", "/v1/stats"):
            return GatewayResponse(200, self.stats())
        if (method, path) == ("POST", "/v1/scan"):
            html = body.get("html")
            if not isinstance(html, str) or not html:
                return GatewayResponse(400, {"error": "BadRequest",
                                             "detail": "body.html required"})
            ticket = self.submit_html(api_key, html)
            if body.get("wait"):
                verdict = ticket.result(timeout=body.get("timeout"))
                return GatewayResponse(200, {
                    **ticket.to_body(),
                    "verdict": verdict_to_dict(verdict),
                    "from_cache": ticket.from_cache,
                })
            return GatewayResponse(202, ticket.to_body())
        if method == "GET" and path.startswith("/v1/verdicts/"):
            tenant = self._authenticate(api_key)
            ticket = self.ticket(path[len("/v1/verdicts/"):])
            if ticket is None:
                return GatewayResponse(404, {"error": "NotFound",
                                             "detail": "unknown ticket"})
            if ticket.tenant_id != tenant.tenant_id:
                return GatewayResponse(403, {"error": "Forbidden",
                                             "detail": "not your ticket"})
            self.pump()
            if not ticket.done:
                return GatewayResponse(202, ticket.to_body())
            verdict = ticket.result(timeout=0.001)
            return GatewayResponse(200, {
                **ticket.to_body(),
                "verdict": verdict_to_dict(verdict),
                "from_cache": ticket.from_cache,
            })
        if (method, path) == ("GET", "/v1/usage"):
            tenant = self._authenticate(api_key)
            return GatewayResponse(200, self.tenant_rollup(tenant.tenant_id))
        return GatewayResponse(404, {"error": "NotFound",
                                     "detail": f"no route {method} {path}"})

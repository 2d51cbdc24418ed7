"""Per-tenant sliding-window rate limiting.

The limiter answers one question — "may this tenant submit *now*?" —
from an exact sliding-window log: a request is admitted iff fewer than
``limit`` requests landed in the last ``window`` seconds.  Unlike fixed
buckets, the exact log cannot be gamed by straddling a bucket boundary,
and because it reads time only through the injected gateway clock the
decision (and the ``retry_after`` it quotes on refusal) is a pure
function of the request history — deterministic under a
:class:`~repro.gateway.clock.ManualClock`.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass


@dataclass(frozen=True)
class RateDecision:
    """One limiter verdict: admitted or refused-with-an-appointment."""

    allowed: bool
    #: Requests inside the window *after* this decision was applied.
    in_window: int
    limit: int
    #: On refusal: seconds until the oldest in-window request expires
    #: (the earliest instant a retry can succeed).  0.0 when allowed.
    retry_after: float = 0.0


class MemorySlidingWindow:
    """The gateway's limiter: one timestamp deque per tenant.

    ``check`` is the single atomic read-modify-write: evict expired
    entries, then either record the request (allowed) or leave state
    untouched and quote a retry time (refused).  Safe under concurrent
    callers.
    """

    def __init__(self) -> None:
        self._windows: dict[str, deque] = {}
        self._lock = threading.Lock()
        self.allowed_total = 0
        self.throttled_total = 0

    def check(self, tenant_id: str, limit: int, window: float,
              now: float) -> RateDecision:
        with self._lock:
            log = self._windows.get(tenant_id)
            if log is None:
                log = self._windows[tenant_id] = deque()
            cutoff = now - window
            while log and log[0] <= cutoff:
                log.popleft()
            if len(log) < limit:
                log.append(now)
                self.allowed_total += 1
                return RateDecision(allowed=True, in_window=len(log),
                                    limit=limit)
            self.throttled_total += 1
            return RateDecision(allowed=False, in_window=len(log),
                                limit=limit,
                                retry_after=max(0.0, log[0] + window - now))

    def reset(self, tenant_id: str) -> None:
        """Forget a tenant's window (admin action)."""
        with self._lock:
            self._windows.pop(tenant_id, None)

    def stats(self) -> dict:
        with self._lock:
            return {
                "backend": "memory",
                "tenants_tracked": len(self._windows),
                "allowed_total": self.allowed_total,
                "throttled_total": self.throttled_total,
            }

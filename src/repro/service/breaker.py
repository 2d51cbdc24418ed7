"""Per-worker circuit breakers and the dead-letter log.

A scan worker whose oracle stack keeps failing (in the real pipeline: a
wedged Wepawet instance, an analysis VM out of disk, a poisoned sample)
must not keep eating tasks and returning errors.  Each worker gets a
:class:`CircuitBreaker` wrapped around its scan attempts:

* **closed** — normal operation; ``threshold`` consecutive failures trip
  it open;
* **open** — the worker refuses work (tasks are requeued for healthier
  workers) until ``cooldown`` seconds pass;
* **half-open** — after the cooldown one probe task is let through; a
  success closes the breaker, a failure re-opens it for another cooldown.

The clock is injectable so the state machine is unit-testable without
sleeping.  Failures that exhaust a task's attempt budget land in the
:class:`DeadLetterLog` — the service never silently drops a submission.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

STATE_CLOSED = "closed"
STATE_OPEN = "open"
STATE_HALF_OPEN = "half_open"


class BreakerOpenError(RuntimeError):
    """Raised for a task that could not be routed around an open breaker."""


class CircuitBreaker:
    """Closed → open → half-open failure isolation for one worker.

    Thread-safe; all transitions happen under one lock.  The open →
    half-open transition is lazy — it fires inside :meth:`allow` (or
    :meth:`state`) once the cooldown has elapsed, so no timer thread is
    needed.
    """

    def __init__(self, threshold: int = 3, cooldown: float = 0.2,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if threshold < 1:
            raise ValueError("threshold must be >= 1")
        if cooldown < 0:
            raise ValueError("cooldown must be non-negative")
        self.threshold = threshold
        self.cooldown = cooldown
        self._clock = clock
        self._lock = threading.Lock()
        self._state = STATE_CLOSED
        self._consecutive_failures = 0
        self._opened_at: Optional[float] = None
        self._probing = False
        self.failures_total = 0
        self.successes_total = 0
        self.times_opened = 0

    # -- state machine -------------------------------------------------------

    def _advance(self) -> None:
        """Lazily move open → half-open when the cooldown has elapsed."""
        if self._state == STATE_OPEN and self._opened_at is not None:
            if self._clock() - self._opened_at >= self.cooldown:
                self._state = STATE_HALF_OPEN
                self._probing = False

    @property
    def state(self) -> str:
        with self._lock:
            self._advance()
            return self._state

    def allow(self) -> bool:
        """May this worker take a task right now?

        In half-open state only one probe is admitted at a time; further
        calls are refused until the probe reports back.
        """
        with self._lock:
            self._advance()
            if self._state == STATE_CLOSED:
                return True
            if self._state == STATE_HALF_OPEN and not self._probing:
                self._probing = True
                return True
            return False

    def record_success(self) -> None:
        with self._lock:
            self._advance()
            self.successes_total += 1
            self._consecutive_failures = 0
            self._state = STATE_CLOSED
            self._opened_at = None
            self._probing = False

    def record_failure(self) -> None:
        with self._lock:
            self._advance()
            self.failures_total += 1
            self._consecutive_failures += 1
            if self._state == STATE_HALF_OPEN:
                self._open()
            elif (self._state == STATE_CLOSED
                  and self._consecutive_failures >= self.threshold):
                self._open()

    def _open(self) -> None:
        self._state = STATE_OPEN
        self._opened_at = self._clock()
        self._probing = False
        self.times_opened += 1

    # -- introspection -------------------------------------------------------

    def stats(self) -> dict:
        with self._lock:
            self._advance()
            return {
                "state": self._state,
                "consecutive_failures": self._consecutive_failures,
                "failures_total": self.failures_total,
                "successes_total": self.successes_total,
                "times_opened": self.times_opened,
                "threshold": self.threshold,
                "cooldown": self.cooldown,
            }


@dataclass
class DeadLetter:
    """One permanently failed submission."""

    ad_id: str
    content_hash: str
    attempts: int
    error: str
    recorded_at: float
    #: Gateway tenant the failed scan belonged to (None = direct caller),
    #: so a service operator can see *whose* work is dying.
    tenant: Optional[str] = None


class DeadLetterLog:
    """Bounded, thread-safe record of scans that exhausted every retry."""

    def __init__(self, capacity: int = 1024,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._clock = clock
        self._lock = threading.Lock()
        self._letters: list[DeadLetter] = []
        self.recorded_total = 0
        self.dropped = 0

    def record(self, ad_id: str, content_hash: str, attempts: int,
               error: BaseException,
               tenant: Optional[str] = None) -> DeadLetter:
        letter = DeadLetter(ad_id=ad_id, content_hash=content_hash,
                            attempts=attempts,
                            error=f"{type(error).__name__}: {error}",
                            recorded_at=self._clock(),
                            tenant=tenant)
        with self._lock:
            self.recorded_total += 1
            if len(self._letters) >= self.capacity:
                self._letters.pop(0)
                self.dropped += 1
            self._letters.append(letter)
        return letter

    def letters(self) -> list[DeadLetter]:
        with self._lock:
            return list(self._letters)

    def __len__(self) -> int:
        with self._lock:
            return len(self._letters)

    def stats(self) -> dict:
        with self._lock:
            return {
                "size": len(self._letters),
                "capacity": self.capacity,
                "recorded_total": self.recorded_total,
                "dropped": self.dropped,
            }

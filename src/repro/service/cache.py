"""The verdict cache: content-hash keyed, LRU + TTL, fully counted.

The corpus dedup already shows why this exists: the paper's ~673k unique
creatives came out of tens of millions of impressions, so an online
scanner sees the same creative over and over.  Scanning is the expensive
step (a full honeyclient render); a repeat creative must skip it.  The
cache is keyed by the creative's content hash — the same key the corpus
dedups on — holds the full :class:`~repro.core.oracle.AdVerdict`, evicts
least-recently-used entries beyond ``capacity``, and expires entries
older than ``ttl`` seconds (verdicts go stale: blacklists churn and
campaign infrastructure gets taken down).
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Callable, Optional

from repro.core.oracle import AdVerdict


class VerdictCache:
    """LRU + TTL cache mapping creative content hashes to verdicts.

    Parameters
    ----------
    capacity:
        Maximum number of entries; inserting beyond it evicts the least
        recently used entry.
    ttl:
        Seconds an entry stays valid, or ``None`` for no expiry.
    clock:
        Monotonic-time source, injectable for tests (defaults to
        :func:`time.monotonic`).
    """

    def __init__(
        self,
        capacity: int = 65536,
        ttl: Optional[float] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if ttl is not None and ttl <= 0:
            raise ValueError("ttl must be positive (or None)")
        self.capacity = capacity
        self.ttl = ttl
        self._clock = clock or time.monotonic
        self._entries: "OrderedDict[str, tuple[AdVerdict, float]]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.expirations = 0
        self.insertions = 0

    # -- core operations -----------------------------------------------------

    def get(self, content_hash: str) -> Optional[AdVerdict]:
        """Return the cached verdict, refreshing recency; ``None`` on miss."""
        with self._lock:
            entry = self._entries.get(content_hash)
            if entry is None:
                self.misses += 1
                return None
            verdict, stored_at = entry
            if self._expired(stored_at):
                del self._entries[content_hash]
                self.expirations += 1
                self.misses += 1
                return None
            self._entries.move_to_end(content_hash)
            self.hits += 1
            return verdict

    def put(self, content_hash: str, verdict: AdVerdict) -> None:
        """Insert (or refresh) a verdict, evicting LRU entries as needed."""
        with self._lock:
            if content_hash in self._entries:
                del self._entries[content_hash]
            self._entries[content_hash] = (verdict, self._clock())
            self.insertions += 1
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    def purge_expired(self) -> int:
        """Drop every expired entry; returns how many were dropped."""
        with self._lock:
            stale = [key for key, (_, stored_at) in self._entries.items()
                     if self._expired(stored_at)]
            for key in stale:
                del self._entries[key]
            self.expirations += len(stale)
            return len(stale)

    def _expired(self, stored_at: float) -> bool:
        return self.ttl is not None and self._clock() - stored_at > self.ttl

    # -- introspection -------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, content_hash: str) -> bool:
        with self._lock:
            entry = self._entries.get(content_hash)
            return entry is not None and not self._expired(entry[1])

    def keys(self) -> list[str]:
        """Keys in LRU-to-MRU order (eviction order)."""
        with self._lock:
            return list(self._entries)

    @property
    def hit_rate(self) -> float:
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def stats(self) -> dict:
        with self._lock:
            size = len(self._entries)
        return {
            "size": size,
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
            "evictions": self.evictions,
            "expirations": self.expirations,
            "insertions": self.insertions,
        }

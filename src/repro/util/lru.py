"""Process-wide bounded LRU caches for compiled artifacts.

The render/scan hot path re-derives the same pure artifacts over and over:
template-generated creatives share script source verbatim, every ``new
RegExp`` re-compiles the same pattern, and every oracle check re-derives the
same eTLD+1.  (HTML is not cached; see DESIGN §11.)  Each derivation is a
pure function of its input bytes, so the results are hash-addressable and
safely shareable — provided the cached value is immutable (or is
re-materialised into a fresh mutable value per use; see DESIGN §11).

This module provides the one cache primitive all of those layers share
(and ``ScanService``'s content-hash verdict cache, unregistered):

* :class:`LruCache` — a bounded, thread-safe LRU with hit/miss counters.
* a process-wide registry so the service layer can surface every named
  cache's hit ratio without importing each caching module.
* a global enable/disable switch (:func:`set_caches_enabled`,
  :func:`caches_disabled`) used by the differential determinism tests and
  the cold legs of the benchmarks: with caches off, every ``get`` misses
  silently and every ``put`` is dropped, so the uncached code path runs
  exactly as it did before this layer existed.

Caches are **per process**.  Fork-mode crawl workers inherit whatever was
cached before the fork via copy-on-write and then warm their own copies
independently; no cross-process sharing or invalidation is attempted
(nothing cached here is ever invalidated — the key is a hash of the full
input, so a stale entry cannot exist).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from contextlib import contextmanager
from typing import Any, Dict, Iterator, Optional

_REGISTRY_LOCK = threading.Lock()
_REGISTRY: "OrderedDict[str, LruCache]" = OrderedDict()

_ENABLED = True


class LruCache:
    """A bounded, thread-safe LRU cache with hit/miss accounting.

    Named instances register themselves in the process-wide registry under
    ``name`` so :func:`cache_stats` can enumerate them; creating two caches
    with the same name is a programming error.  An unnamed cache (``name``
    ``None``) stays out of the registry: ``ScanService`` keeps its verdict
    cache that way, one per service.
    """

    def __init__(self, name: Optional[str], capacity: int) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.name = name
        self.capacity = capacity
        self._data: "OrderedDict[Any, Any]" = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        if name is None:
            return
        with _REGISTRY_LOCK:
            if name in _REGISTRY:
                raise ValueError(f"duplicate cache name: {name!r}")
            _REGISTRY[name] = self

    def get(self, key: Any) -> Optional[Any]:
        """Return the cached value, or ``None`` on a miss.

        ``None`` is never a legal cached value here — every cache in this
        codebase stores compiled objects, verdicts or non-empty strings.  When caches
        are globally disabled this returns ``None`` without counting a miss.
        """
        if not _ENABLED:
            return None
        with self._lock:
            try:
                value = self._data[key]
            except KeyError:
                self._misses += 1
                return None
            self._data.move_to_end(key)
            self._hits += 1
            return value

    def put(self, key: Any, value: Any) -> None:
        """Insert ``key`` → ``value``, evicting the LRU entry when full."""
        if not _ENABLED:
            return
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
                self._data[key] = value
                return
            if len(self._data) >= self.capacity:
                self._data.popitem(last=False)
            self._data[key] = value

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def __contains__(self, key: Any) -> bool:
        with self._lock:
            return key in self._data

    def clear(self) -> None:
        """Drop all entries and reset the hit/miss counters."""
        with self._lock:
            self._data.clear()
            self._hits = 0
            self._misses = 0

    def stats(self) -> dict:
        with self._lock:
            hits, misses, size = self._hits, self._misses, len(self._data)
        lookups = hits + misses
        return {
            "hits": hits,
            "misses": misses,
            "size": size,
            "capacity": self.capacity,
            "hit_rate": (hits / lookups) if lookups else 0.0,
        }


# -- process-wide registry ----------------------------------------------------


def all_caches() -> "Dict[str, LruCache]":
    """Every registered cache, keyed by name (registration order)."""
    with _REGISTRY_LOCK:
        return dict(_REGISTRY)


def cache_stats() -> dict:
    """``{name: stats dict}`` for every registered cache."""
    return {name: cache.stats() for name, cache in all_caches().items()}


def clear_all_caches() -> None:
    """Empty every registered cache (benchmarks' cold-start reset)."""
    for cache in all_caches().values():
        cache.clear()


# -- global enable switch -----------------------------------------------------


def caches_enabled() -> bool:
    return _ENABLED


def set_caches_enabled(enabled: bool) -> bool:
    """Set the global switch; returns the previous value."""
    global _ENABLED
    previous = _ENABLED
    _ENABLED = bool(enabled)
    return previous


@contextmanager
def caches_disabled() -> Iterator[None]:
    """Run a block with every compile cache bypassed (differential tests)."""
    previous = set_caches_enabled(False)
    try:
        yield
    finally:
        set_caches_enabled(previous)

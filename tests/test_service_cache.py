"""Tests for the service's verdict cache.

``ScanService.cache`` is an unnamed :class:`~repro.util.lru.LruCache`
keyed by content hash: bounded by ``ServiceConfig.cache_capacity``,
evicting least-recently-used verdicts, and kept out of the process-wide
compile-cache registry.  ``LruCache`` itself is also covered by
``tests/test_compile_caches.py::TestLruCache``.
"""

import pytest

from repro.datasets.world import WorldParams
from repro.service import ScanService, ServiceConfig
from repro.service.service import sighting_record
from repro.util.lru import all_caches, caches_disabled, clear_all_caches

PARAMS = WorldParams(n_top_sites=2, n_bottom_sites=2, n_other_sites=2,
                     n_feed_sites=1, n_benign_campaigns=6,
                     n_malicious_campaigns=2)

CREATIVES = {key: sighting_record(f"<html><p>creative {key}</p></html>")
             for key in "abc"}


def service_config(**overrides) -> ServiceConfig:
    defaults = dict(seed=11, n_workers=1, world_params=PARAMS,
                    batch_max_size=1, batch_max_delay=0.0)
    defaults.update(overrides)
    return ServiceConfig(**defaults)


def submit(service: ScanService, key: str) -> bool:
    """Submit one creative, wait for its verdict; True if served cached."""
    ticket = service.submit(CREATIVES[key])
    service.drain()
    ticket.result(timeout=60)
    return ticket.from_cache


class TestLru:
    def test_hit_and_miss_counters(self):
        with ScanService(service_config(cache_capacity=8)) as service:
            assert not submit(service, "a")
            assert submit(service, "a")
            stats = service.stats()
        assert stats["counters"]["cache_hits"] == 1
        assert stats["counters"]["cache_misses"] == 1
        assert stats["counters"]["scanned"] == 1
        cache = stats["cache"]
        assert cache["hit_rate"] == 0.5
        assert cache["size"] == 1
        assert cache["capacity"] == 8

    def test_eviction_is_least_recently_used(self):
        with ScanService(service_config(cache_capacity=2)) as service:
            for key in "abc":
                assert not submit(service, key)
            # 'a' was evicted by 'c', so it is scanned again ...
            assert not submit(service, "a")
            assert service.metrics.counter("scanned").value == 4
            # ... which evicts 'b' and leaves 'c' (now LRU) cached.
            assert submit(service, "c")
            assert not submit(service, "b")
            assert service.metrics.counter("scanned").value == 5
            assert len(service.cache) == 2

    def test_eviction_order_is_full_lru_sequence(self):
        with ScanService(service_config(cache_capacity=4)) as service:
            cache = service.cache
            for key in "abcd":
                cache.put(key, key)
            cache.get("b")
            cache.get("a")
            # LRU→MRU must now be c, d, b, a — and evict in exactly that order.
            evicted = []
            remaining = set("abcd")
            for key in "efgh":
                cache.put(key, key)
                gone = {k for k in remaining if k not in cache}
                evicted.extend(sorted(gone))
                remaining -= gone
            assert evicted == ["c", "d", "b", "a"]
            assert all(k in cache for k in "efgh")

    def test_put_refreshes_recency(self):
        with ScanService(service_config(cache_capacity=2)) as service:
            cache = service.cache
            cache.put("a", "a")
            cache.put("b", "b")
            cache.put("a", "a")   # re-put: 'b' becomes LRU
            cache.put("c", "c")
            assert "b" not in cache and "a" in cache

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            ScanService(service_config(cache_capacity=0))

    def test_cache_stays_out_of_the_registry(self):
        before = all_caches()
        first = ScanService(service_config())
        second = ScanService(service_config())  # no name collision
        assert all_caches() == before
        with first:
            submit(first, "a")
            clear_all_caches()
            assert len(first.cache) == 1
            assert submit(first, "a")
        second.shutdown()

    def test_caches_disabled_bypasses_the_verdict_cache(self):
        with ScanService(service_config()) as service:
            assert not submit(service, "a")
            with caches_disabled():
                assert not submit(service, "a")
            assert submit(service, "a")
            assert service.metrics.counter("scanned").value == 2


class TestPersistence:
    def test_stats_shape(self):
        with ScanService(service_config(cache_capacity=8)) as service:
            stats = service.stats()["cache"]
        assert {"size", "capacity", "hits", "misses", "hit_rate"} <= set(stats)
        assert stats["size"] == 0 and stats["capacity"] == 8

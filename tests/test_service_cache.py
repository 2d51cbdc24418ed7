"""Tests for the verdict cache (LRU order, TTL expiry, stats)."""

import pytest

from repro.core.oracle import AdVerdict
from repro.oracles.features import BehaviourFeatures
from repro.oracles.wepawet import WepawetReport
from repro.service.cache import VerdictCache


def make_verdict(ad_id: str = "ad-000001") -> AdVerdict:
    report = WepawetReport(
        sample_id=f"wpw-{ad_id}",
        features=BehaviourFeatures(eval_calls=1.0),
        suspicious_redirection=False,
        redirection_reasons=(),
        driveby_heuristic=False,
        heuristic_reasons=(),
        model_detection=False,
        model_score=0.1,
    )
    return AdVerdict(ad_id=ad_id, wepawet=report)


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestLru:
    def test_hit_and_miss_counters(self):
        cache = VerdictCache(capacity=4)
        cache.put("h1", make_verdict())
        assert cache.get("h1") is not None
        assert cache.get("absent") is None
        assert cache.hits == 1 and cache.misses == 1
        assert cache.hit_rate == 0.5

    def test_eviction_is_least_recently_used(self):
        cache = VerdictCache(capacity=3)
        for key in ("a", "b", "c"):
            cache.put(key, make_verdict(key))
        cache.get("a")                      # refresh 'a': now LRU is 'b'
        cache.put("d", make_verdict("d"))   # evicts 'b'
        assert "b" not in cache
        assert all(k in cache for k in ("a", "c", "d"))
        assert cache.evictions == 1

    def test_eviction_order_is_full_lru_sequence(self):
        cache = VerdictCache(capacity=4)
        for key in ("a", "b", "c", "d"):
            cache.put(key, make_verdict(key))
        cache.get("b")
        cache.get("a")
        # LRU→MRU must now be c, d, b, a — and evict in exactly that order.
        assert cache.keys() == ["c", "d", "b", "a"]
        evicted = []
        remaining = {"a", "b", "c", "d"}
        for key in ("e", "f", "g", "h"):
            cache.put(key, make_verdict(key))
            gone = {k for k in remaining if k not in cache}
            evicted.extend(sorted(gone))
            remaining -= gone
        assert evicted == ["c", "d", "b", "a"]
        assert cache.keys() == ["e", "f", "g", "h"]

    def test_put_refreshes_recency(self):
        cache = VerdictCache(capacity=2)
        cache.put("a", make_verdict("a"))
        cache.put("b", make_verdict("b"))
        cache.put("a", make_verdict("a"))   # re-put: 'b' becomes LRU
        cache.put("c", make_verdict("c"))
        assert "b" not in cache and "a" in cache

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            VerdictCache(capacity=0)
        with pytest.raises(ValueError):
            VerdictCache(ttl=-1.0)


class TestTtl:
    def test_entries_expire(self):
        clock = FakeClock()
        cache = VerdictCache(capacity=8, ttl=10.0, clock=clock)
        cache.put("a", make_verdict("a"))
        clock.advance(9.0)
        assert cache.get("a") is not None
        clock.advance(2.0)
        assert cache.get("a") is None
        assert cache.expirations == 1
        # The expired lookup counts as a miss, not a hit.
        assert cache.hits == 1 and cache.misses == 1

    def test_purge_expired(self):
        clock = FakeClock()
        cache = VerdictCache(capacity=8, ttl=5.0, clock=clock)
        cache.put("a", make_verdict("a"))
        clock.advance(3.0)
        cache.put("b", make_verdict("b"))
        clock.advance(3.0)  # 'a' is 6s old, 'b' is 3s old
        assert cache.purge_expired() == 1
        assert "a" not in cache and "b" in cache

    def test_no_ttl_never_expires(self):
        clock = FakeClock()
        cache = VerdictCache(capacity=2, clock=clock)
        cache.put("a", make_verdict("a"))
        clock.advance(1e9)
        assert cache.get("a") is not None


class TestPersistence:
    def test_stats_shape(self):
        cache = VerdictCache(capacity=8)
        stats = cache.stats()
        assert {"size", "capacity", "hits", "misses", "hit_rate",
                "evictions", "expirations", "insertions"} <= set(stats)

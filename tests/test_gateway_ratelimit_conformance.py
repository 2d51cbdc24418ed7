"""Conformance suite for :class:`~repro.gateway.ratelimit.MemorySlidingWindow`.

The suite is layered the way the limiter's guarantees are:

* **Shared semantics** — what the *gateway* relies on from the limiter:
  fresh tenants get their full budget, refusals are stateless and quote
  an honoured ``retry_after`` appointment, silence restores the budget,
  tenants are isolated, ``reset`` works, decisions replay
  deterministically, and concurrent checks admit exactly the budget.
* **Sliding-window-exact** — assertions about the window *log* itself
  (exact in-window counts, oldest-entry expiry quotes, inclusive
  boundary eviction).

The ``limiter`` fixture keeps its parametrized id so the test names stay stable.
"""

import threading

import pytest

from repro.gateway.ratelimit import MemorySlidingWindow


@pytest.fixture(params=[MemorySlidingWindow], ids=lambda cls: cls.__name__)
def limiter(request) -> MemorySlidingWindow:
    return request.param()


class TestSharedAdmission:
    """Semantics the gateway depends on from the limiter."""

    def test_fresh_tenant_gets_its_full_budget(self, limiter):
        # `limit` immediate requests all land; the next one is refused.
        for _ in range(5):
            decision = limiter.check("t", limit=5, window=10.0, now=0.0)
            assert decision.allowed
            assert decision.limit == 5
            assert decision.retry_after == 0.0
        refused = limiter.check("t", 5, 10.0, now=0.0)
        assert not refused.allowed
        assert refused.retry_after > 0.0

    def test_refusal_leaves_state_untouched(self, limiter):
        for i in range(2):
            limiter.check("t", 2, 10.0, now=float(i))
        first = limiter.check("t", 2, 10.0, now=2.0)
        second = limiter.check("t", 2, 10.0, now=2.0)
        assert first == second  # a refused request must not consume budget

    def test_retry_appointment_is_honoured(self, limiter):
        # Spend the whole budget at one instant, then retry at the quoted
        # appointment.
        for _ in range(2):
            limiter.check("t", 2, 10.0, now=0.0)
        refused = limiter.check("t", 2, 10.0, now=0.0)
        assert not refused.allowed
        # Retrying exactly at the quoted instant (the oldest entry's
        # expiry) succeeds.
        assert limiter.check("t", 2, 10.0,
                             now=refused.retry_after).allowed

    def test_burst_then_silence_fully_restores_the_budget(self, limiter):
        for i in range(4):
            limiter.check("t", 4, 5.0, now=0.1 * i)
        assert not limiter.check("t", 4, 5.0, now=1.0).allowed
        assert limiter.check("t", 4, 5.0, now=100.0).allowed


class TestSharedIsolationAndAdmin:
    def test_tenants_do_not_share_budgets(self, limiter):
        for _ in range(3):
            assert limiter.check("alpha", 3, 10.0, now=0.0).allowed
        assert not limiter.check("alpha", 3, 10.0, now=0.0).allowed
        assert limiter.check("beta", 3, 10.0, now=0.0).allowed

    def test_reset_forgets_one_tenant_only(self, limiter):
        for _ in range(2):
            limiter.check("alpha", 2, 10.0, now=0.0)
            limiter.check("beta", 2, 10.0, now=0.0)
        limiter.reset("alpha")
        assert limiter.check("alpha", 2, 10.0, now=0.0).allowed
        assert not limiter.check("beta", 2, 10.0, now=0.0).allowed

    def test_reset_of_unknown_tenant_is_a_no_op(self, limiter):
        limiter.reset("never-seen")  # must not raise

    def test_stats_shape(self, limiter):
        limiter.check("t", 1, 10.0, now=0.0)
        limiter.check("t", 1, 10.0, now=0.0)
        stats = limiter.stats()
        assert stats["tenants_tracked"] == 1
        assert stats["allowed_total"] == 1
        assert stats["throttled_total"] == 1
        assert isinstance(stats["backend"], str)


class TestSharedDeterminism:
    # One fixed request script: (tenant, limit, window, now), times
    # non-decreasing per tenant as a real clock would deliver them.
    SCRIPT = [
        ("a", 3, 10.0, 0.0), ("a", 3, 10.0, 0.5), ("b", 2, 5.0, 0.6),
        ("a", 3, 10.0, 1.0), ("a", 3, 10.0, 1.5), ("b", 2, 5.0, 2.0),
        ("b", 2, 5.0, 2.5), ("a", 3, 10.0, 9.5), ("a", 3, 10.0, 10.1),
        ("b", 2, 5.0, 5.7), ("a", 3, 10.0, 11.2), ("a", 3, 10.0, 11.3),
    ]

    def test_replay_is_deterministic(self, limiter):
        first = [limiter.check(*req) for req in self.SCRIPT]
        limiter.reset("a")
        limiter.reset("b")
        second = [limiter.check(*req) for req in self.SCRIPT]
        assert first == second

    def test_concurrent_checks_admit_exactly_the_budget(self, limiter):
        # 16 threads race 200 checks at one instant; admissions must
        # total exactly the budget — atomicity of the read-modify-write.
        limit, admitted = 25, []
        barrier = threading.Barrier(16)

        def hammer():
            barrier.wait()
            for i in range(200 // 16 + 1):
                if limiter.check("t", limit, 60.0, now=1.0).allowed:
                    admitted.append(1)

        threads = [threading.Thread(target=hammer) for _ in range(16)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(admitted) == limit


class TestSlidingWindowExact:
    """The window-log contract."""

    def test_in_window_counts_every_logged_request(self, limiter):
        for i in range(5):
            decision = limiter.check("t", 5, 10.0, now=float(i))
            assert decision.allowed
            assert decision.in_window == i + 1

    def test_refuses_at_the_limit_with_exact_count(self, limiter):
        for i in range(3):
            assert limiter.check("t", 3, 10.0, now=float(i)).allowed
        decision = limiter.check("t", 3, 10.0, now=3.0)
        assert not decision.allowed
        assert decision.in_window == 3

    def test_retry_after_quotes_the_oldest_expiry(self, limiter):
        # Requests at t=0,1,2 with a 10s window: the oldest expires at
        # t=10, so a refusal at t=3 must quote exactly 7 seconds.
        for i in range(3):
            limiter.check("t", 3, 10.0, now=float(i))
        decision = limiter.check("t", 3, 10.0, now=3.0)
        assert decision.retry_after == pytest.approx(7.0)

    def test_entries_expire_after_the_window(self, limiter):
        for i in range(3):
            limiter.check("t", 3, 10.0, now=float(i))
        assert not limiter.check("t", 3, 10.0, now=3.0).allowed
        # At t=10.5 the t=0 entry has left the window.
        decision = limiter.check("t", 3, 10.0, now=10.5)
        assert decision.allowed
        assert decision.in_window == 3  # t=1, t=2, t=10.5

    def test_boundary_eviction_is_inclusive(self, limiter):
        # An entry exactly `window` old sits ON the cutoff and must be
        # evicted (log[0] <= cutoff): full window = free slot again.
        limiter.check("t", 1, 10.0, now=0.0)
        assert not limiter.check("t", 1, 10.0, now=9.999).allowed
        assert limiter.check("t", 1, 10.0, now=10.0).allowed

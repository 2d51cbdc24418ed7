"""End-to-end tests for the online scanning service.

The load-bearing guarantee: for a fixed seed, :class:`ScanService`
verdicts are bit-identical to a batch :class:`CombinedOracle` pass over
the same corpus (driven through the same hermetic scan discipline),
regardless of worker count or scan order — and a warm-cache replay never
touches the oracle at all.
"""

import pytest

from repro.core.persistence import verdict_fingerprint
from repro.core.study import Study, StudyConfig
from repro.crawler.schedule import CrawlSchedule
from repro.datasets.world import WorldParams, build_world
from repro.service import (
    QueueClosedError,
    ScanService,
    ServiceConfig,
    hermetic_judge,
    stream_crawl,
)

SEED = 7

PARAMS = WorldParams(n_top_sites=6, n_bottom_sites=6, n_other_sites=6,
                     n_feed_sites=2)

STUDY_CONFIG = StudyConfig(seed=SEED, days=1, refreshes_per_visit=1,
                           world_params=PARAMS)


def service_config(**overrides) -> ServiceConfig:
    defaults = dict(seed=SEED, n_workers=2, world_params=PARAMS,
                    batch_max_size=4, batch_max_delay=0.01)
    defaults.update(overrides)
    return ServiceConfig(**defaults)


@pytest.fixture(scope="module")
def corpus():
    return Study(STUDY_CONFIG).crawl().corpus


@pytest.fixture(scope="module")
def batch_fingerprints(corpus):
    """Batch CombinedOracle verdicts under the hermetic scan discipline."""
    world = build_world(SEED, PARAMS)
    oracle = Study(STUDY_CONFIG, world=world).build_oracle()
    return {
        record.ad_id: verdict_fingerprint(
            hermetic_judge(oracle, world, record, SEED))
        for record in corpus.records()
    }


class TestDeterminism:
    @pytest.mark.parametrize("n_workers", [1, 3])
    def test_service_matches_batch_oracle(self, corpus, batch_fingerprints,
                                          n_workers):
        with ScanService(service_config(n_workers=n_workers)) as service:
            tickets = service.submit_corpus(corpus)
            service.drain()
            got = {t.ad_id: verdict_fingerprint(t.result()) for t in tickets}
        assert got == batch_fingerprints

    def test_scan_order_is_irrelevant(self, corpus, batch_fingerprints):
        records = list(reversed(corpus.records()))
        with ScanService(service_config(n_workers=1)) as service:
            tickets = [service.submit(record) for record in records]
            service.drain()
            got = {t.ad_id: verdict_fingerprint(t.result()) for t in tickets}
        assert got == batch_fingerprints

    def test_hermetic_judge_is_reproducible_in_place(self, corpus):
        """Re-judging the same record on the same world gives the same bits."""
        world = build_world(SEED, PARAMS)
        oracle = Study(STUDY_CONFIG, world=world).build_oracle()
        record = corpus.records()[0]
        first = verdict_fingerprint(hermetic_judge(oracle, world, record, SEED))
        # Perturb with other scans, then re-judge.
        for other in corpus.records()[1:4]:
            hermetic_judge(oracle, world, other, SEED)
        again = verdict_fingerprint(hermetic_judge(oracle, world, record, SEED))
        assert again == first


class TestCacheBehaviour:
    def test_warm_replay_performs_zero_scans(self, corpus):
        with ScanService(service_config()) as service:
            service.submit_corpus(corpus)
            service.drain()
            scanned_cold = service.metrics.counter("scanned").value
            assert scanned_cold == corpus.unique_ads

            tickets = service.submit_corpus(corpus)
            service.drain()
            stats = service.stats()
        assert all(t.from_cache for t in tickets)
        assert stats["counters"]["scanned"] == scanned_cold  # zero new scans
        assert stats["counters"]["cache_hits"] == corpus.unique_ads
        assert stats["cache"]["hit_rate"] == pytest.approx(0.5)

    def test_in_flight_duplicates_coalesce_to_one_scan(self, corpus):
        record = corpus.records()[0]
        # A long batch deadline parks the first submission in the batcher,
        # guaranteeing the duplicates arrive while it is still in flight.
        config = service_config(n_workers=1, batch_max_size=100,
                               batch_max_delay=0.3)
        with ScanService(config) as service:
            tickets = [service.submit(record) for _ in range(3)]
            service.drain()
            stats = service.stats()
        fingerprints = {verdict_fingerprint(t.result()) for t in tickets}
        assert len(fingerprints) == 1
        assert stats["counters"]["scanned"] == 1
        assert stats["counters"]["coalesced"] == 2

    def test_cache_survives_restart_via_store(self, corpus, tmp_path):
        config = service_config(store_path=tmp_path / "verdicts")
        with ScanService(config) as service:
            service.submit_corpus(corpus)
            service.drain()

        with ScanService(config) as service:
            tickets = service.submit_corpus(corpus)
            service.drain()
            stats = service.stats()
        assert all(t.from_cache for t in tickets)
        assert stats["counters"]["scanned"] == 0


class TestLifecycle:
    def test_graceful_drain_under_in_flight_load(self, corpus):
        """shutdown(drain=True) resolves every accepted ticket."""
        with ScanService(service_config(n_workers=2)) as service:
            tickets = service.submit_corpus(corpus)
            service.shutdown(drain=True)
            assert all(t.done for t in tickets)
            for ticket in tickets:
                assert ticket.result(timeout=0).ad_id == ticket.ad_id

    def test_non_drain_shutdown_fails_leftover_tickets(self, corpus):
        config = service_config(n_workers=1, batch_max_size=1,
                                batch_max_delay=0.0)
        service = ScanService(config).start()
        tickets = service.submit_corpus(corpus)
        service.shutdown(drain=False)
        # Every ticket terminates: resolved with a verdict or failed closed.
        resolved = failed = 0
        for ticket in tickets:
            assert ticket.done
            try:
                ticket.result(timeout=0)
                resolved += 1
            except QueueClosedError:
                failed += 1
        assert resolved + failed == len(tickets)

    def test_submit_requires_start(self, corpus):
        service = ScanService(service_config())
        with pytest.raises(RuntimeError):
            service.submit(corpus.records()[0])

    def test_submit_after_shutdown_raises(self, corpus):
        service = ScanService(service_config()).start()
        service.shutdown()
        with pytest.raises(QueueClosedError):
            service.submit(corpus.records()[0])

    def test_scan_sync(self, corpus):
        record = corpus.records()[0]
        with ScanService(service_config(n_workers=1)) as service:
            verdict = service.scan_sync(record)
        assert verdict.ad_id == record.ad_id

    def test_stats_shape(self, corpus):
        with ScanService(service_config()) as service:
            service.submit_corpus(corpus)
            service.drain()
            stats = service.stats()
        assert {"counters", "gauges", "histograms", "cache", "queue",
                "batcher", "pool"} <= set(stats)
        assert stats["counters"]["submitted"] == corpus.unique_ads
        assert stats["histograms"]["scan_latency"]["count"] == corpus.unique_ads
        assert stats["histograms"]["batch_size"]["count"] >= 1


class TestStreaming:
    def test_streamed_crawl_classifies_every_unique_ad(self, corpus,
                                                       batch_fingerprints):
        study = Study(STUDY_CONFIG)
        crawler = study.build_crawler()
        schedule = CrawlSchedule([p.url for p in study.world.crawl_sites],
                                 STUDY_CONFIG.days,
                                 STUDY_CONFIG.refreshes_per_visit)
        with ScanService(service_config()) as service:
            streamed, _, tickets = stream_crawl(crawler, schedule, service)
            service.drain()
            verdicts = {ad_id: t.result() for ad_id, t in tickets.items()}
        # Streaming sees the exact same deduplicated corpus ...
        assert streamed.unique_ads == corpus.unique_ads
        assert sorted(r.content_hash for r in streamed.records()) == \
            sorted(r.content_hash for r in corpus.records())
        # ... and every unique ad got exactly one ticket with a verdict.
        assert set(verdicts) == {r.ad_id for r in streamed.records()}
        assert set(batch_fingerprints) == set(verdicts)

    def test_streamed_verdicts_are_deterministic(self):
        def run_once():
            study = Study(STUDY_CONFIG)
            crawler = study.build_crawler()
            schedule = CrawlSchedule([p.url for p in study.world.crawl_sites],
                                     STUDY_CONFIG.days,
                                     STUDY_CONFIG.refreshes_per_visit)
            with ScanService(service_config()) as service:
                _, _, tickets = stream_crawl(crawler, schedule, service)
                service.drain()
                return {ad_id: verdict_fingerprint(t.result())
                        for ad_id, t in tickets.items()}

        assert run_once() == run_once()

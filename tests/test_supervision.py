"""Supervision tests: crawl-worker respawn and scan-service breakers.

Two recovery layers under test:

* :class:`ParallelCrawler` respawns crashed shard workers (bounded by
  ``max_restarts``) and still produces the bit-identical serial corpus —
  a respawned shard reruns hermetic visits, so nothing is lost or doubled;
* :class:`ScanService` keeps answering with one poisoned worker: its
  breaker opens, tasks reroute to healthy workers, permanently failing
  scans land in the dead-letter log, a fully-open pool degrades to
  cache-only service, and a recovered worker is readmitted half-open →
  closed.
"""

import threading
import time

import pytest

from repro.core.persistence import corpus_fingerprint
from repro.core.study import Study, StudyConfig
from repro.crawler.parallel import ParallelCrawler, fork_available
from repro.datasets.world import WorldParams
from repro.service import (
    ScanService,
    ServiceConfig,
    ServiceDegradedError,
)

SEED = 7

PARAMS = WorldParams(n_top_sites=6, n_bottom_sites=6, n_other_sites=6,
                     n_feed_sites=2)

STUDY_CONFIG = StudyConfig(seed=SEED, days=1, refreshes_per_visit=2,
                           world_params=PARAMS)

MODES = ["thread"] + (["process"] if fork_available() else [])


def make_study(**overrides) -> Study:
    config = StudyConfig(**{**STUDY_CONFIG.__dict__, **overrides})
    return Study(config)


@pytest.fixture(scope="module")
def serial():
    study = make_study()
    corpus, stats = study.build_crawler().crawl(study.build_schedule())
    return {"fingerprint": corpus_fingerprint(corpus), "stats": stats}


def crash_once_factory(study: Study, flag_path):
    """A worker factory whose FIRST invocation (ever) crashes.

    The flag file is created atomically, so exactly one worker — in
    either mode, including forked children — takes the crash; the
    respawned replacement (and every other worker) builds normally.
    """

    def factory(isolated: bool):
        try:
            flag_path.touch(exist_ok=False)
        except FileExistsError:
            return study.build_crawl_worker(isolated)
        raise RuntimeError("injected worker crash")

    return factory


class TestCrawlSupervision:
    @pytest.mark.parametrize("mode", MODES)
    def test_crashed_worker_is_respawned(self, serial, tmp_path, mode):
        study = make_study()
        factory = crash_once_factory(study, tmp_path / f"crashed-{mode}")
        crawler = ParallelCrawler(factory, n_workers=2, mode=mode,
                                  max_restarts=2)
        corpus, stats = crawler.crawl(study.build_schedule())
        assert corpus_fingerprint(corpus) == serial["fingerprint"]
        assert stats.worker_restarts == 1
        # Everything except the restart count matches the serial crawl.
        stats.worker_restarts = 0
        assert stats == serial["stats"]

    @pytest.mark.parametrize("mode", MODES)
    def test_restart_budget_exhaustion_raises(self, serial, tmp_path, mode):
        study = make_study()

        def always_crashing(isolated: bool):
            raise RuntimeError("injected worker crash")

        crawler = ParallelCrawler(always_crashing, n_workers=2, mode=mode,
                                  max_restarts=3)
        with pytest.raises(RuntimeError):
            crawler.crawl(study.build_schedule())

    def test_default_is_no_supervision(self, tmp_path):
        study = make_study()
        factory = crash_once_factory(study, tmp_path / "crashed-none")
        crawler = ParallelCrawler(factory, n_workers=2, mode="thread")
        with pytest.raises(RuntimeError):
            crawler.crawl(study.build_schedule())

    def test_rejects_negative_restarts(self):
        with pytest.raises(ValueError):
            ParallelCrawler(lambda isolated: None, n_workers=1,
                            max_restarts=-1)


class _FaultSwitch:
    """A toggleable fault hook targeting one worker index."""

    def __init__(self, worker_index=None) -> None:
        self.worker_index = worker_index
        self.active = threading.Event()
        self.trips = 0

    def __call__(self, index, task) -> None:
        if not self.active.is_set():
            return
        if self.worker_index is None or index == self.worker_index:
            self.trips += 1
            raise RuntimeError("injected oracle failure")


@pytest.fixture(scope="module")
def corpus():
    return make_study().crawl().corpus


def wait_for_scan_stacks(service: ScanService, n_workers: int) -> None:
    """Block until every worker has built its oracle.

    Without this, a fast worker can drain a small corpus before a slower
    one has built its stack, and a fault aimed at the slow one never fires.
    """
    deadline = time.monotonic() + 120.0
    while True:
        workers = service.pool.workers
        if len(workers) >= n_workers and \
                all(worker.oracle is not None for worker in workers):
            return
        assert time.monotonic() < deadline, "scan workers did not come up"
        time.sleep(0.001)


def service_config(**overrides) -> ServiceConfig:
    defaults = dict(seed=SEED, n_workers=2, world_params=PARAMS,
                    batch_max_size=2, batch_max_delay=0.01)
    defaults.update(overrides)
    return ServiceConfig(**defaults)


class TestServiceBreakers:
    def test_one_failing_worker_does_not_stop_service(self, corpus):
        switch = _FaultSwitch(worker_index=0)
        switch.active.set()
        config = service_config(
            fault_hook=switch, breaker_threshold=2, breaker_cooldown=60.0,
            scan_max_attempts=10)
        with ScanService(config) as service:
            wait_for_scan_stacks(service, config.n_workers)
            tickets = service.submit_corpus(corpus)
            service.drain()
            verdicts = [t.result(timeout=30) for t in tickets]
            stats = service.stats()
        assert len(verdicts) == corpus.unique_ads
        # The poisoned worker tripped, its breaker opened, work rerouted.
        assert switch.trips >= 1
        breakers = stats["pool"]["breakers"]
        assert breakers[0]["state"] == "open"
        assert breakers[0]["failures_total"] >= 2
        assert breakers[1]["state"] == "closed"
        assert stats["counters"]["scan_retries"] >= 1
        assert stats["counters"]["dead_lettered"] == 0
        assert stats["queue"]["requeued"] >= 1
        assert not stats["pool"]["degraded"]

    def test_exhausted_attempts_reach_the_dead_letter_log(self, corpus):
        switch = _FaultSwitch()  # every worker fails
        switch.active.set()
        record = corpus.records()[0]
        config = service_config(
            n_workers=1, fault_hook=switch, breaker_threshold=5,
            breaker_cooldown=0.01, scan_max_attempts=3)
        with ScanService(config) as service:
            ticket = service.submit(record)
            with pytest.raises(RuntimeError, match="injected oracle failure"):
                ticket.result(timeout=30)
            stats = service.stats()
            letters = service.dead_letters.letters()
        assert stats["counters"]["dead_lettered"] == 1
        assert len(letters) == 1
        assert letters[0].ad_id == record.ad_id
        assert letters[0].attempts == 3
        assert "injected oracle failure" in letters[0].error

    def test_degraded_mode_serves_cache_and_rejects_fresh_scans(self, corpus):
        switch = _FaultSwitch()
        records = corpus.records()
        cached, failing, fresh = records[0], records[1], records[2]
        config = service_config(
            n_workers=1, fault_hook=switch, breaker_threshold=1,
            breaker_cooldown=60.0, scan_max_attempts=1)
        with ScanService(config) as service:
            # Healthy phase: get one verdict into the cache.
            good = service.scan_sync(cached, timeout=30)
            # Poison the worker; one failure trips its breaker.
            switch.active.set()
            with pytest.raises(RuntimeError):
                service.scan_sync(failing, timeout=30)
            assert service.pool.all_breakers_open
            # Cached verdicts still resolve instantly...
            hit = service.submit(cached)
            assert hit.from_cache
            assert hit.result(timeout=1) is good
            # ...while fresh scans are refused at the edge.
            with pytest.raises(ServiceDegradedError):
                service.submit(fresh)
            stats = service.stats()
        assert stats["counters"]["degraded_rejections"] == 1
        assert stats["pool"]["degraded"]

    def test_recovery_half_open_probe_closes_the_breaker(self, corpus):
        switch = _FaultSwitch()
        records = corpus.records()
        config = service_config(
            n_workers=1, fault_hook=switch, breaker_threshold=1,
            breaker_cooldown=0.05, scan_max_attempts=1)
        with ScanService(config) as service:
            switch.active.set()
            with pytest.raises(RuntimeError):
                service.scan_sync(records[0], timeout=30)
            breaker = service.pool.breakers[0]
            assert breaker.state == "open"
            # The fault clears (the wedged oracle VM came back).
            switch.active.clear()
            deadline = time.monotonic() + 5.0
            while breaker.state == "open" and time.monotonic() < deadline:
                time.sleep(0.01)
            assert breaker.state == "half_open"
            # The next task is the half-open probe; its success closes
            # the breaker and service resumes.
            verdict = service.scan_sync(records[1], timeout=30)
            assert verdict is not None
            assert breaker.state == "closed"
            assert breaker.times_opened == 1
            stats = service.stats()
        assert stats["counters"]["scanned"] >= 1

    def test_breakers_disabled_without_threshold(self, corpus):
        config = service_config(breaker_threshold=None)
        with ScanService(config) as service:
            service.scan_sync(corpus.records()[0], timeout=30)
            stats = service.stats()
        assert stats["pool"]["breakers"] == []
        assert not stats["pool"]["degraded"]

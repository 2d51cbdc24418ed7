"""Tests for the hash-addressed compile-cache layer (DESIGN §11).

Three families of guarantees:

* **cache mechanics** — the shared :class:`~repro.util.lru.LruCache`
  primitive bounds its size, evicts LRU-first, counts hits/misses, and
  goes fully inert when the global switch is off;
* **immutability** — the AST fragments cached bytecode keeps are frozen
  (mutation raises) and runs that mutate their environment never poison
  the shared ``CodeObject``; HTML is not cached, and every parse builds a
  fresh mutable DOM;
* **footprint** — the bytecode cache keeps no parsed ``Program`` alive;
* **behaviour invariance** — the full crawl+scan pipeline produces
  bit-identical corpus fingerprints and per-ad verdict fingerprints with
  caches forced on vs. off, serial and at 4 workers, in both thread and
  fork worker modes.
"""

import gc

import pytest

from repro.adscript import ast_nodes as ast
from repro.adscript.bytecode import compile_source
from repro.adscript.errors import ScriptRuntimeError
from repro.adscript.interpreter import Interpreter
from repro.adscript.parser import parse_program
from repro.adscript.regex import RegexSyntaxError, compile_pattern
from repro.core.persistence import corpus_fingerprint, verdict_fingerprint
from repro.core.study import Study, StudyConfig
from repro.crawler.parallel import fork_available
from repro.datasets.world import Blacklist, WorldParams
from repro.oracles.blacklists import BlacklistTracker
from repro.service import ScanService, ServiceConfig, stream_crawl
from repro.util.lru import (
    LruCache,
    all_caches,
    cache_stats,
    caches_disabled,
    caches_enabled,
    clear_all_caches,
    set_caches_enabled,
)
from repro.web.html import parse_html
from repro.web.url import etld_plus_one, site_domain


# -- the LRU primitive --------------------------------------------------------


class TestLruCache:
    def test_bounding_and_lru_eviction(self):
        cache = LruCache("test_lru_evict", capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh 'a'; 'b' is now LRU
        cache.put("c", 3)  # evicts 'b'
        assert len(cache) == 2
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3

    def test_hit_miss_accounting(self):
        cache = LruCache("test_lru_stats", capacity=4)
        assert cache.get("missing") is None
        cache.put("k", "v")
        assert cache.get("k") == "v"
        stats = cache.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["hit_rate"] == 0.5
        assert stats["size"] == 1
        assert stats["capacity"] == 4

    def test_overwrite_does_not_grow(self):
        cache = LruCache("test_lru_overwrite", capacity=2)
        cache.put("k", 1)
        cache.put("k", 2)
        assert len(cache) == 1
        assert cache.get("k") == 2

    def test_rejects_nonpositive_capacity_and_duplicate_names(self):
        with pytest.raises(ValueError):
            LruCache("test_lru_zero", capacity=0)
        LruCache("test_lru_dup", capacity=1)
        with pytest.raises(ValueError):
            LruCache("test_lru_dup", capacity=1)

    def test_disabled_bypasses_without_counting(self):
        cache = LruCache("test_lru_disabled", capacity=2)
        cache.put("k", "v")
        with caches_disabled():
            assert not caches_enabled()
            assert cache.get("k") is None  # bypassed, not evicted
            cache.put("other", "x")  # dropped
        assert caches_enabled()
        assert cache.get("k") == "v"
        assert "other" not in cache
        stats = cache.stats()
        assert stats["misses"] == 0  # bypassed lookups are not misses

    def test_registry_enumerates_and_clears(self):
        cache = LruCache("test_lru_registry", capacity=2)
        cache.put("k", "v")
        assert all_caches()["test_lru_registry"] is cache
        assert cache_stats()["test_lru_registry"]["size"] == 1
        clear_all_caches()
        assert len(cache) == 0
        assert cache.stats()["hits"] == 0


# -- adscript program cache ---------------------------------------------------


def _live_programs() -> int:
    return sum(1 for obj in gc.get_objects() if isinstance(obj, ast.Program))


class TestProgramCache:
    def test_same_source_shares_one_frozen_program(self):
        src = "var shared = 1 + 2; shared;"
        assert compile_source(src) is compile_source(src)
        assert parse_program(src) is not parse_program(src)  # stays private

    def test_frozen_ast_rejects_mutation(self):
        # Cached bytecode shares its functions' parameter lists and bodies
        # with every interpreter, so those AST fragments are frozen.
        code = compile_source("function f(a) { var x = 1; }")
        (_, meta), = code.hoisted
        with pytest.raises(AttributeError):
            meta.body[0].line = 99
        with pytest.raises(AttributeError):
            meta.body[0].extra = True

    def test_parse_program_stays_mutable(self):
        program = parse_program("var x = 1;")
        program.body[0].line = 99  # no freeze on the private path
        assert program.body[0].line == 99

    def test_mutating_runs_do_not_poison_cached_program(self):
        src = ("var o = {n: 1}; var a = [1, 2];\n"
               "function bump(v) { return v + 41; }\n"
               "a.push(o.n); o.n = bump(o.n); o.n;")
        results = [Interpreter().run(src) for _ in range(3)]
        assert results == [42, 42, 42]
        assert compile_source(src) is compile_source(src)

    def test_eval_routes_through_cache_and_stays_correct(self):
        src = 'var r = eval("3 * 7"); r;'
        assert Interpreter().run(src) == 21
        assert Interpreter().run(src) == 21

    def test_cached_and_uncached_execution_agree(self):
        src = ("var total = 0;\n"
               "for (var i = 0; i < 5; i++) { total += i * i; }\n"
               "total;")
        warm = Interpreter().run(src)
        with caches_disabled():
            cold = Interpreter().run(src)
        assert warm == cold == 30

    def test_errors_are_not_cached(self):
        src = "undefined_function_xyz();"
        for _ in range(2):
            with pytest.raises(ScriptRuntimeError):
                Interpreter().run(src)

    def test_compiled_scripts_keep_no_program_alive(self):
        # Only the bytecode is cached: the parsed Program a miss compiles
        # from is garbage once compile_source returns.
        clear_all_caches()
        gc.collect()
        before = _live_programs()
        codes = [compile_source(f"function f{i}(x) {{ return x + {i}; }}"
                                f" var v{i} = f{i}(1);")
                 for i in range(50)]
        assert all(code is not None for code in codes)
        del codes
        gc.collect()
        assert _live_programs() == before


# -- html parse (not cached) --------------------------------------------------


MARKUP = ("<html><head><title>t</title></head><body>"
          "<div id='slot' class='ad'>hello &amp; goodbye</div>"
          "<script>var x = 1;</script><!-- note --></body></html>")


class TestHtmlParse:
    def test_repeated_parse_yields_independent_doms(self):
        first = parse_html(MARKUP)
        div = first.find("div")
        div.set("processed", "1")
        div.append_text("MUTATED")
        second = parse_html(MARKUP)
        assert second.find("div").get("processed") == ""
        assert "MUTATED" not in second.to_html()
        assert first is not second


# -- regex memo ---------------------------------------------------------------


class TestRegexMemo:
    def test_instances_share_ast_but_keep_private_flags(self):
        first = compile_pattern("a(b|c)+d", "i")
        second = compile_pattern("a(b|c)+d", "g")
        assert first is not second
        assert first._ast is second._ast
        assert first.n_groups == second.n_groups == 1
        assert first.ignore_case and not second.ignore_case
        assert first.test("xABCBDx".lower()) == first.test("xabcbdx")
        assert second.test("xabcbdx") and not second.test("xABCBDx")

    def test_matching_agrees_with_uncached(self):
        pattern, text = r"(\d+)-(\d+)", "order 12-345 shipped"
        warm = compile_pattern(pattern).search(text)
        with caches_disabled():
            cold = compile_pattern(pattern).search(text)
        assert (warm.group(1), warm.group(2)) == (cold.group(1), cold.group(2))

    def test_invalid_patterns_raise_every_time(self):
        for _ in range(2):
            with pytest.raises(RegexSyntaxError):
                compile_pattern("(unclosed")


# -- url memos ----------------------------------------------------------------


class TestUrlMemos:
    @pytest.mark.parametrize("host", [
        "ads.tracker.co.uk", "example.com", "a.b.c.example.net", "localhost",
    ])
    def test_etld_memo_matches_uncached(self, host):
        warm = etld_plus_one(host)
        with caches_disabled():
            cold = etld_plus_one(host)
        assert warm == cold

    def test_site_domain_parses_and_falls_back(self):
        assert site_domain("http://sub.news-site.com/index.html") == \
            "news-site.com"
        assert site_domain("not a url") == "not a url"
        with caches_disabled():
            assert site_domain("http://sub.news-site.com/index.html") == \
                "news-site.com"


# -- blacklist inverted index -------------------------------------------------


def _brute_force_names(feeds, domain):
    domain = domain.lower()
    registered = etld_plus_one(domain)
    return [feed.name for feed in feeds
            if domain in feed.domains or registered in feed.domains]


class TestBlacklistIndex:
    FEEDS = [
        Blacklist("alpha", "malware", frozenset({"evil.com", "bad.net"})),
        Blacklist("bravo", "phishing", frozenset({"drop.evil.com"})),
        Blacklist("charlie", "spam", frozenset({"evil.com", "spam.org"})),
        Blacklist("delta", "malware", frozenset({"drop.evil.com", "bad.net"})),
    ]

    @pytest.mark.parametrize("domain", [
        "evil.com", "drop.evil.com", "DROP.EVIL.COM", "bad.net",
        "sub.bad.net", "spam.org", "clean.example", "evil.com.",
    ])
    def test_index_matches_feed_scan(self, domain):
        tracker = BlacklistTracker(self.FEEDS, threshold=0)
        assert tracker._listing_names(domain) == \
            _brute_force_names(self.FEEDS, domain)

    def test_subdomain_unions_exact_and_rolled_up_listings(self):
        tracker = BlacklistTracker(self.FEEDS, threshold=2)
        # drop.evil.com is listed directly (bravo, delta) and via its
        # registered domain evil.com (alpha, charlie): 4 feeds, feed order.
        names = tracker._listing_names("drop.evil.com")
        assert names == ["alpha", "bravo", "charlie", "delta"]
        assert tracker.is_flagged("drop.evil.com")


# -- pipeline differential: caches on vs off ----------------------------------


SEED = 11

PARAMS = WorldParams(n_top_sites=5, n_bottom_sites=5, n_other_sites=5,
                     n_feed_sites=2,
                     n_benign_campaigns=8, n_malicious_campaigns=3,
                     variants_per_benign=2, variants_per_malicious=1)

STUDY_CONFIG = StudyConfig(seed=SEED, days=1, refreshes_per_visit=2,
                           world_params=PARAMS)

MODES = ["thread"] + (["process"] if fork_available() else [])


def _run_pipeline(crawl_workers, mode, enabled):
    """Full streamed crawl+scan; returns (fingerprint, verdict fps, stats)."""
    previous = set_caches_enabled(enabled)
    try:
        clear_all_caches()
        study = Study(StudyConfig(**STUDY_CONFIG.__dict__))
        if crawl_workers == 1:
            crawler = study.build_crawler()
        else:
            crawler = study.build_parallel_crawler(workers=crawl_workers,
                                                   mode=mode)
        config = ServiceConfig(seed=SEED, n_workers=2, world_params=PARAMS,
                               batch_max_size=4, batch_max_delay=0.01)
        with ScanService(config) as service:
            corpus, _, tickets = stream_crawl(
                crawler, study.build_schedule(), service)
            service.drain()
            verdicts = {ad_id: verdict_fingerprint(ticket.result(timeout=120))
                        for ad_id, ticket in tickets.items()}
            stats = service.stats()
        return corpus_fingerprint(corpus), verdicts, stats
    finally:
        set_caches_enabled(previous)


@pytest.fixture(scope="module")
def uncached_serial_baseline():
    fingerprint, verdicts, _ = _run_pipeline(1, None, enabled=False)
    assert verdicts  # the workload scans something
    return fingerprint, verdicts


class TestCachesAreBehaviorInvariant:
    def test_serial_cached_matches_uncached(self, uncached_serial_baseline):
        fingerprint, verdicts, stats = _run_pipeline(1, None, enabled=True)
        assert (fingerprint, verdicts) == uncached_serial_baseline
        # The workload repeats creatives, so the caches must actually hit —
        # this differential is meaningless against an idle cache.
        compile_caches = stats["compile_caches"]
        # A warm render hits adscript_bytecode: parse and compile are both
        # cached away.
        assert compile_caches["adscript_bytecode"]["hits"] > 0
        assert compile_caches["url_etld"]["hits"] > 0

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("enabled", [True, False])
    def test_four_worker_crawl_matches_uncached_serial(
            self, uncached_serial_baseline, mode, enabled):
        fingerprint, verdicts, _ = _run_pipeline(4, mode, enabled=enabled)
        assert (fingerprint, verdicts) == uncached_serial_baseline

    def test_service_stats_expose_cache_gauges(self, uncached_serial_baseline):
        _, _, stats = _run_pipeline(1, None, enabled=True)
        for name in ("adscript_bytecode",
                     "adscript_regexes",
                     "url_etld", "url_site_domains"):
            assert name in stats["compile_caches"]

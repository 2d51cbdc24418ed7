"""Command-line interface.

Subcommands:

* ``repro-study study``       — run the full pipeline, print the §4 report;
* ``repro-study figures``     — alias printing only the tables/figures;
* ``repro-study countermeasures`` — the §5 defences side by side;
* ``repro-study clickfraud``  — the intro's click-fraud workload + detectors;
* ``repro-study scarecrow``   — the SCARECROW defence experiment;
* ``repro-study serve``       — replay or stream a corpus through the
  online scanning service and print a throughput/cache report;
* ``repro-study store``       — fsck or compact a durable verdict store.

Every subcommand accepts ``--seed`` and the scale flags; all runs are
deterministic for a given seed.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.core.persistence import save_corpus, save_verdicts
from repro.core.report import build_report
from repro.core.study import StudyConfig, run_study
from repro.datasets.world import WorldParams


def _add_scale_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=2014)
    parser.add_argument("--days", type=int, default=4,
                        help="crawl days (paper: 90)")
    parser.add_argument("--refreshes", type=int, default=4,
                        help="page refreshes per visit (paper: 5)")
    parser.add_argument("--sites", type=int, default=25,
                        help="sites per cluster (paper: 10,000+)")
    parser.add_argument("--feed-sites", type=int, default=8)


def _add_crawl_worker_args(parser: argparse.ArgumentParser,
                           flag: str = "--workers") -> None:
    # `serve` already uses --workers for oracle threads, so it passes an
    # alternate flag name; both land in args.crawl_workers.
    parser.add_argument(flag, dest="crawl_workers", type=int, default=1,
                        metavar="N",
                        help="parallel crawl workers (the merged corpus is "
                             "bit-identical at any worker count)")


def _add_chaos_args(parser: argparse.ArgumentParser) -> None:
    from repro.chaos.plan import PROFILES

    parser.add_argument("--chaos-profile", choices=sorted(PROFILES),
                        default="none",
                        help="seeded fault-injection profile for the crawl's "
                             "transport layer")
    parser.add_argument("--chaos-seed", type=int, default=None, metavar="N",
                        help="fault-plan seed (default: the study seed); the "
                             "same seed replays the identical fault sequence")
    parser.add_argument("--retries", type=int, default=0, metavar="N",
                        help="extra page-load attempts after a failed or "
                             "chaos-corrupted visit")
    parser.add_argument("--max-worker-restarts", type=int, default=0,
                        metavar="N",
                        help="crashed parallel-crawl workers respawned before "
                             "the crawl gives up")


def _config_from(args: argparse.Namespace) -> StudyConfig:
    return StudyConfig(
        seed=args.seed,
        days=args.days,
        refreshes_per_visit=args.refreshes,
        crawl_workers=getattr(args, "crawl_workers", 1),
        crawl_worker_mode=getattr(args, "crawl_worker_mode", "auto"),
        chaos_profile=getattr(args, "chaos_profile", "none"),
        chaos_seed=getattr(args, "chaos_seed", None),
        crawl_retries=getattr(args, "retries", 0),
        max_worker_restarts=getattr(args, "max_worker_restarts", 0),
        world_params=WorldParams(
            n_top_sites=args.sites,
            n_bottom_sites=args.sites,
            n_other_sites=args.sites,
            n_feed_sites=args.feed_sites,
        ),
    )


def _cmd_study(args: argparse.Namespace) -> int:
    from repro.core.study import Study

    study = Study(_config_from(args))
    results = study.classify(study.crawl(
        resume_from=args.resume_from,
        checkpoint_path=args.checkpoint,
        checkpoint_every=args.checkpoint_every,
    ))
    report = build_report(results)
    print(report.render_markdown() if args.markdown else report.render())
    if args.save_corpus:
        n = save_corpus(results.corpus, args.save_corpus)
        print(f"\nwrote {n} unique ads to {args.save_corpus}", file=sys.stderr)
    if args.save_verdicts:
        n = save_verdicts(results, args.save_verdicts)
        print(f"wrote {n} verdicts to {args.save_verdicts}", file=sys.stderr)
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    results = run_study(_config_from(args))
    print(build_report(results).render())
    return 0


def _cmd_countermeasures(args: argparse.Namespace) -> int:
    from repro.analysis.networks import analyze_networks
    from repro.core.study import Study
    from repro.countermeasures.adblock import simulate_adblock
    from repro.countermeasures.browser_defense import AdPathDefense
    from repro.countermeasures.penalties import PenaltyPolicy, apply_penalties
    from repro.countermeasures.shared_blacklist import apply_shared_blacklist
    from repro.datasets.world import build_world
    from repro.filterlists.matcher import FilterEngine

    config = _config_from(args)
    baseline = run_study(config)
    base = baseline.n_incidents
    print(f"baseline: {base} incidents "
          f"({baseline.malicious_fraction:.2%} of unique ads)\n")

    world = build_world(config.seed, config.world_params)
    shared = apply_shared_blacklist(world.networks, world.campaigns, 1.0)
    defended = Study(config, world=world).run()
    print(f"shared blacklist: {base} -> {defended.n_incidents} incidents "
          f"({len(shared.rejected_campaigns)} campaigns listed)")

    world = build_world(config.seed, config.world_params)
    outcome = apply_penalties(world.networks, analyze_networks(baseline),
                              PenaltyPolicy())
    punished = Study(config, world=world).run()
    print(f"penalties: {base} -> {punished.n_incidents} incidents "
          f"({len(outcome.banned_networks)} networks banned)")

    engine = FilterEngine.from_text(baseline.world.easylist_text)
    print(simulate_adblock(baseline, engine).render())
    defense = AdPathDefense.train_from_results(baseline)
    print(defense.evaluate(baseline).render())
    return 0


def _cmd_clickfraud(args: argparse.Namespace) -> int:
    from repro.clickfraud.detectors import (
        BloomDuplicateDetector,
        CtrAnomalyDetector,
        SlidingWindowDetector,
    )
    from repro.clickfraud.events import Botnet, ClickStreamBuilder, OrganicAudience
    from repro.clickfraud.evaluation import score_detector

    campaigns = [f"cmp-{i}" for i in range(6)]
    builder = ClickStreamBuilder(seed=args.seed)
    for i in range(4):
        builder.add_audience(OrganicAudience(
            f"honest{i}.com", "net-a", campaigns, n_users=200, ctr=0.015))
    builder.add_botnet(Botnet("fraudster.biz", "net-a", campaigns,
                              n_bots=40, mode=args.mode))
    stream = builder.build(args.steps)
    fraud = sum(e.fraudulent for e in stream)
    print(f"stream: {len(stream)} clicks, {fraud} fraudulent "
          f"(mode: {args.mode})\n")
    detectors = [
        ("sliding-window dedup", SlidingWindowDetector(window=3)),
        ("bloom dedup", BloomDuplicateDetector(window=3, capacity=200_000)),
        ("CTR anomaly", CtrAnomalyDetector(factor=2.5)),
    ]
    for name, detector in detectors:
        score = score_detector(stream, detector.flag_stream(stream))
        print(score.render(name))
    return 0


def _cmd_scarecrow(args: argparse.Namespace) -> int:
    from repro.countermeasures.scarecrow import run_scarecrow_experiment

    print(run_scarecrow_experiment().render())
    return 0


def _cmd_disasm(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.adscript.bytecode import compile_source, disassemble
    from repro.adscript.errors import AdScriptError

    try:
        source = Path(args.script).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"disasm: cannot read {args.script}: {exc}")
        return 1
    try:
        code = compile_source(source)
    except AdScriptError as exc:
        print(f"disasm: {type(exc).__name__}: {exc}")
        return 1
    print(disassemble(code))
    return 0


def _load_gateway(args: argparse.Namespace, service) -> tuple:
    """Build the multi-tenant gateway for ``serve --tenants``.

    Returns ``(gateway, keys)`` where ``keys`` maps tenant id to the
    plaintext API key the CLI submits with: the key from the tenants
    file when given, else the key minted deterministically from the
    study seed (entries carrying only a ``key_hash`` cannot be driven by
    the CLI and are skipped with a note).
    """
    import json as _json
    from pathlib import Path

    from repro.gateway import GatewayConfig, ScanGateway, TenantRegistry, mint_key

    registry = TenantRegistry.from_file(args.tenants, secret_seed=args.seed)
    gateway = ScanGateway(service, registry=registry, config=GatewayConfig(
        require_auth=args.require_auth, secret_seed=args.seed))
    text = Path(args.tenants).read_text(encoding="utf-8").strip()
    entries = (_json.loads(text) if text.startswith("[")
               else [_json.loads(line) for line in text.splitlines() if line.strip()])
    keys = {}
    for entry in entries:
        tenant_id = entry["tenant_id"]
        if entry.get("api_key"):
            keys[tenant_id] = entry["api_key"]
        elif entry.get("key_hash"):
            print(f"gateway: tenant {tenant_id!r} has only a key hash; "
                  f"the CLI cannot submit on its behalf", file=sys.stderr)
        else:
            keys[tenant_id] = mint_key(args.seed, tenant_id)
    return gateway, keys


def _print_gateway_report(gateway) -> None:
    stats = gateway.stats()
    totals = stats["totals"]
    admission = stats["admission"]
    print("\n-- gateway report --")
    print(f"requests:       {totals.get('gateway_requests', 0)} "
          f"({totals.get('gateway_auth_failures', 0)} auth failures)")
    print(f"admitted:       {totals.get('gateway_admitted', 0)} "
          f"(throttled {totals.get('gateway_throttled', 0)}, "
          f"quota-rejected {totals.get('gateway_quota_rejected', 0)}, "
          f"buffer-rejected {totals.get('gateway_admission_rejected', 0)})")
    print(f"admission:      depth high-water {admission['high_water']} "
          f"of {admission['capacity']}")
    for tenant_id, rollup in sorted(stats["tenants"].items()):
        usage = rollup["usage"]
        counters = rollup["counters"]
        latency = rollup["admission_latency"]
        print(f"tenant {tenant_id:<12} submitted {counters.get('submitted', 0)}, "
              f"admitted {counters.get('admitted', 0)}, "
              f"throttled {counters.get('throttled', 0)}, "
              f"quota-rej {usage['quota_rejections']}")
        print(f"  {'':<12} spend {usage['spend']:g} "
              f"({usage['fresh_scans']} fresh, {usage['cached_hits']} cached), "
              f"verdicts {counters.get('malicious', 0)} malicious / "
              f"{counters.get('benign', 0)} benign, "
              f"adm p50 {latency.get('p50', 0.0) * 1000:.1f}ms "
              f"p95 {latency.get('p95', 0.0) * 1000:.1f}ms "
              f"p99 {latency.get('p99', 0.0) * 1000:.1f}ms")


def _run_load_profile(args: argparse.Namespace, service, gateway,
                      tenant_keys: dict) -> None:
    """Drive seeded open-loop traffic at the service (or its gateway)."""
    from repro.loadgen import (
        LoadDriver,
        build_population,
        generate_schedule,
        load_profile,
    )

    profile = load_profile(args.load_profile)
    population = build_population(args.seed, service.config.world_params)
    tenant_ids = sorted(tenant_keys) if tenant_keys else None
    schedule = generate_schedule(profile, args.seed,
                                 n_ranks=len(population), tenants=tenant_ids)
    print(f"load profile:   {profile.name}, {len(schedule)} arrivals over "
          f"{profile.duration:g}s model time "
          f"(~{schedule.offered_rate():.0f}/s offered, schedule fingerprint "
          f"{schedule.fingerprint()[:12]})")
    driver = LoadDriver(schedule, population, time_scale=args.time_scale)
    tickets: list = []
    if gateway is not None:
        report = driver.run_gateway(gateway, tenant_keys, tickets_out=tickets)
        gateway.drain()
    else:
        report = driver.run(service, tickets_out=tickets)
        service.drain()
    rate = (report.submitted / report.wall_seconds
            if report.wall_seconds > 0 else float("inf"))
    print(f"load replay:    {report.offered} offered, "
          f"{report.submitted} submitted, {report.shed} shed in "
          f"{report.wall_seconds:.2f}s wall ({rate:.0f} submitted/s, "
          f"time scale x{report.time_scale:g})")
    if report.refusals:
        refusals = ", ".join(f"{count} x HTTP {status}"
                             for status, count in sorted(report.refusals.items()))
        print(f"refused:        {refusals}")
    malicious = sum(1 for t in tickets if t.result().is_malicious)
    print(f"verdicts:       {malicious} malicious of {len(tickets)}")


def _parse_autoscale(spec: str):
    from repro.service import AutoscalerConfig

    lo_text, sep, hi_text = spec.partition(":")
    try:
        lo, hi = int(lo_text), int(hi_text)
    except ValueError:
        raise SystemExit(f"--autoscale expects MIN:MAX, got {spec!r}")
    if not sep or lo < 1 or hi < lo:
        raise SystemExit(f"--autoscale expects 1 <= MIN <= MAX, got {spec!r}")
    return AutoscalerConfig(min_workers=lo, max_workers=hi)


def _cmd_serve(args: argparse.Namespace) -> int:
    import time

    from repro.core.persistence import load_corpus
    from repro.core.study import Study
    from repro.service import ScanService, ServiceConfig

    config = _config_from(args)
    service_config = ServiceConfig(
        seed=args.seed,
        n_workers=args.workers,
        queue_capacity=args.queue_capacity,
        queue_policy=args.queue_policy,
        batch_max_size=args.batch_size,
        batch_max_delay=args.batch_delay,
        cache_capacity=args.cache_capacity,
        world_params=config.world_params,
        store_path=args.store,
        autoscaler=_parse_autoscale(args.autoscale) if args.autoscale else None,
    )
    with ScanService(service_config) as service:
        if service.store is not None:
            recovery = service.store.recovery
            print(f"store: {len(service.store)} verdicts recovered from "
                  f"{args.store} ({recovery.segments_scanned} segments, "
                  f"{recovery.truncated_tails} torn tails truncated, "
                  f"{recovery.quarantined_records} records quarantined)")
        gateway = None
        tenant_keys: dict = {}
        if args.tenants:
            gateway, tenant_keys = _load_gateway(args, service)
            print(f"gateway: {len(gateway.registry)} tenants from "
                  f"{args.tenants} (auth "
                  f"{'required' if args.require_auth else 'optional'})")
        elif args.require_auth:
            print("--require-auth needs --tenants <file>", file=sys.stderr)
            return 2
        if args.load_profile:
            _run_load_profile(args, service, gateway, tenant_keys)
            corpus = None
        elif args.corpus:
            corpus = load_corpus(args.corpus)
            print(f"loaded {corpus.unique_ads} unique ads "
                  f"({corpus.total_impressions} impressions) from {args.corpus}")
        else:
            study = Study(config)
            if args.stream:
                started = time.perf_counter()
                corpus, _, tickets = study.stream(
                    service,
                    resume_from=args.resume_from,
                    checkpoint_path=args.checkpoint,
                    checkpoint_every=args.checkpoint_every,
                )
                service.drain()
                elapsed = time.perf_counter() - started
                malicious = sum(
                    1 for t in tickets.values() if t.result().is_malicious)
                print(f"streamed crawl: {corpus.unique_ads} unique ads "
                      f"classified during the crawl in {elapsed:.2f}s "
                      f"({malicious} malicious at first sight)")
            else:
                if config.crawl_workers > 1:
                    crawler = study.build_parallel_crawler()
                else:
                    crawler = study.build_crawler()
                corpus, _ = crawler.crawl(study.build_schedule())
                print(f"crawled {corpus.unique_ads} unique ads "
                      f"({corpus.total_impressions} impressions)")

        for replay in (range(1, args.replays + 1) if corpus is not None
                       else ()):
            started = time.perf_counter()
            if gateway is not None:
                # Round-robin the corpus across the driveable tenants, as
                # if each were a customer replaying its share of traffic.
                from repro.gateway import GatewayError

                order = sorted(tenant_keys)
                tickets = []
                refused = 0
                for i, record in enumerate(corpus.records()):
                    key = tenant_keys[order[i % len(order)]]
                    try:
                        tickets.append(gateway.submit_record(key, record))
                    except GatewayError:
                        refused += 1
                gateway.drain()
                elapsed = time.perf_counter() - started
                malicious = sum(1 for t in tickets if t.result().is_malicious)
                hits = sum(1 for t in tickets if t.from_cache)
                rate = len(tickets) / elapsed if elapsed > 0 else float("inf")
                print(f"replay {replay}: {len(tickets)} ads via gateway in "
                      f"{elapsed:.2f}s ({rate:.0f} ads/s), {hits} cache hits, "
                      f"{malicious} malicious, {refused} refused")
                continue
            tickets = service.submit_corpus(corpus)
            service.drain()
            elapsed = time.perf_counter() - started
            malicious = sum(1 for t in tickets if t.result().is_malicious)
            hits = sum(1 for t in tickets if t.from_cache)
            rate = corpus.unique_ads / elapsed if elapsed > 0 else float("inf")
            print(f"replay {replay}: {corpus.unique_ads} ads in {elapsed:.2f}s "
                  f"({rate:.0f} ads/s), {hits} cache hits, "
                  f"{malicious} malicious")

        stats = service.stats()
        counters = stats["counters"]
        latency = stats["histograms"].get("scan_latency", {})
        batch = stats["histograms"].get("batch_size", {})
        print("\n-- service report --")
        pool = stats["pool"]
        if service.autoscaler is not None:
            print(f"workers:        {pool['size']} "
                  f"(peak {pool['peak_size']}, min {pool['min_size']}, "
                  f"bounds {service.autoscaler.config.min_workers}-"
                  f"{service.autoscaler.config.max_workers})")
        else:
            print(f"workers:        {pool['workers']}")
        print(f"submitted:      {counters.get('submitted', 0)}")
        print(f"oracle scans:   {counters.get('scanned', 0)}")
        print(f"cache hits:     {counters.get('cache_hits', 0)} "
              f"(hit rate {stats['cache']['hit_rate']:.1%})")
        for cache_name in sorted(stats.get("compile_caches", {})):
            cc = stats["compile_caches"][cache_name]
            lookups = cc["hits"] + cc["misses"]
            if not lookups:
                continue
            print(f"compile cache:  {cache_name} {cc['hits']}/{lookups} hits "
                  f"(hit rate {cc['hit_rate']:.1%}, "
                  f"size {cc['size']}/{cc['capacity']})")
        print(f"coalesced:      {counters.get('coalesced', 0)}")
        print(f"rejected:       {counters.get('rejected', 0)}")
        print(f"batch size:     mean {batch.get('mean', 0.0):.1f} "
              f"(max {batch.get('max', 0.0):.0f})")
        print(f"scan latency:   p50 {latency.get('p50', 0.0) * 1000:.1f}ms, "
              f"p95 {latency.get('p95', 0.0) * 1000:.1f}ms, "
              f"p99 {latency.get('p99', 0.0) * 1000:.1f}ms")
        if counters.get("first_sight_submissions", 0):
            sight_latency = stats["histograms"].get("first_sight_latency", {})
            print(f"first sights:   {counters['first_sight_submissions']} "
                  f"({counters.get('shard_dedup_hits', 0)} cross-shard "
                  f"dedup hits)")
            print(f"overlapped:     {counters.get('overlapped_scans', 0)} "
                  f"scans finished mid-crawl")
            print(f"sight latency:  "
                  f"p50 {sight_latency.get('p50', 0.0) * 1000:.1f}ms, "
                  f"p95 {sight_latency.get('p95', 0.0) * 1000:.1f}ms, "
                  f"p99 {sight_latency.get('p99', 0.0) * 1000:.1f}ms")
        if service.store is not None:
            store_stats = stats["store"]
            bloom = store_stats["bloom"]
            print(f"store:          {store_stats['records']} verdicts in "
                  f"{store_stats['segments']['sealed']} sealed + "
                  f"{store_stats['segments']['open']} open segments")
            print(f"store hits:     {counters.get('store_hits', 0)} "
                  f"(bloom answered {bloom['negatives']} never-seen probes "
                  f"with zero I/O, hit ratio {bloom['hit_ratio']:.1%})")
            recovery = store_stats["recovery"]
            if recovery.get("fast_open"):
                print(f"store open:     fast "
                      f"({recovery.get('sidecars_used', 0)} sidecars, "
                      f"0 segments replayed)")
        if service.autoscaler is not None:
            scaler = stats["autoscaler"]
            print(f"autoscaler:     {scaler['scale_ups']} scale-ups, "
                  f"{scaler['scale_downs']} scale-downs over "
                  f"{scaler['evaluations']} evaluations")
            timeline = scaler["timeline"]
            shown = timeline[-12:]
            if len(timeline) > len(shown) or scaler["timeline_dropped"]:
                hidden = (len(timeline) - len(shown)
                          + scaler["timeline_dropped"])
                print(f"  ... {hidden} earlier events elided")
            for event in shown:
                print(f"  t+{event['at']:8.3f}s {event['direction']:>4} "
                      f"{event['from']}->{event['to']} "
                      f"({event['reason']}, queue depth "
                      f"{event['queue_depth']}, "
                      f"wait p99 {event['wait_p99'] * 1000:.1f}ms)")
        if gateway is not None:
            _print_gateway_report(gateway)
    return 0


def _cmd_store(args: argparse.Namespace) -> int:
    from repro.store import VerdictStore

    try:
        store = VerdictStore(args.root)
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"store: cannot open {args.root}: {exc}", file=sys.stderr)
        return 2
    try:
        recovery = store.recovery
        print(f"opened {args.root}: {len(store)} live verdicts, "
              f"{recovery.segments_scanned} segments scanned"
              + (f", {recovery.truncated_tails} torn tails truncated"
                 if recovery.truncated_tails else "")
              + (f", {recovery.quarantined_records} records quarantined"
                 if recovery.quarantined_records else "")
              + (", manifest rebuilt" if recovery.manifest_rebuilt else "")
              + (f" (fast open: {recovery.sidecars_used} sidecars)"
                 if recovery.fast_open else ""))
        if args.action == "fsck":
            report = store.fsck()
            print(f"fsck: {report.records} records in "
                  f"{report.sealed_segments} sealed + "
                  f"{report.open_segments} open segments, "
                  f"{report.live_records} live")
            print(f"fsck: sidecars {report.sidecars_ok} ok, "
                  f"{report.sidecars_missing} missing, "
                  f"{report.sidecars_stale} stale, "
                  f"{report.sidecars_corrupt} corrupt")
            for problem in report.problems:
                print(f"  {problem}")
            if report.clean:
                print("fsck: clean")
                return 0
            print(f"fsck: {report.corrupt_records} corrupt records, "
                  f"{report.invalid_seals} invalid seals, "
                  f"{report.torn_tails} torn tails "
                  f"({report.torn_bytes} bytes)")
            return 1
        # compact
        before = store.fingerprint()
        sidecars_before = store.sidecar_writes
        report = store.compact()
        assert store.fingerprint() == before, \
            "compaction changed the live contents"
        print(f"compact: folded {report.segments_folded} segments into "
              f"{report.segments_written} across "
              f"{report.shards_compacted} shards "
              f"({report.records_kept} records kept, "
              f"{report.superseded_dropped} superseded dropped)")
        print(f"compact: {store.sidecar_writes - sidecars_before} sidecars "
              f"regenerated for fast reopen"
              + (f" ({store.sidecar_write_failures} write failures)"
                 if store.sidecar_write_failures else ""))
        return 0
    finally:
        store.close()


def build_parser() -> argparse.ArgumentParser:
    from repro import __version__

    parser = argparse.ArgumentParser(
        prog="repro-study",
        description="Reproduction of 'The Dark Alleys of Madison Avenue' (IMC 2014)",
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    study = sub.add_parser("study", help="run the full pipeline and report")
    _add_scale_args(study)
    _add_crawl_worker_args(study)
    _add_chaos_args(study)
    study.add_argument("--markdown", action="store_true")
    study.add_argument("--save-corpus", metavar="PATH")
    study.add_argument("--save-verdicts", metavar="PATH")
    study.add_argument("--checkpoint", metavar="PATH",
                       help="snapshot crawl progress to this file")
    study.add_argument("--checkpoint-every", type=int, default=25, metavar="N",
                       help="visits between crawl checkpoints")
    study.add_argument("--resume-from", metavar="PATH",
                       help="resume the crawl from a checkpoint file")
    study.set_defaults(fn=_cmd_study)

    figures = sub.add_parser("figures", help="print every table and figure")
    _add_scale_args(figures)
    _add_crawl_worker_args(figures)
    _add_chaos_args(figures)
    figures.set_defaults(fn=_cmd_figures)

    counter = sub.add_parser("countermeasures", help="evaluate the §5 defences")
    _add_scale_args(counter)
    _add_crawl_worker_args(counter)
    counter.set_defaults(fn=_cmd_countermeasures)

    fraud = sub.add_parser("clickfraud", help="click-fraud workload + detectors")
    fraud.add_argument("--seed", type=int, default=1)
    fraud.add_argument("--steps", type=int, default=40)
    fraud.add_argument("--mode", choices=("naive", "distributed", "duplicate_heavy"),
                       default="duplicate_heavy")
    fraud.set_defaults(fn=_cmd_clickfraud)

    scarecrow = sub.add_parser("scarecrow", help="SCARECROW defence experiment")
    scarecrow.set_defaults(fn=_cmd_scarecrow)

    disasm = sub.add_parser(
        "disasm", help="compile an AdScript file and print its bytecode")
    disasm.add_argument("script", metavar="FILE.js",
                        help="AdScript source file to disassemble")
    disasm.set_defaults(fn=_cmd_disasm)

    serve = sub.add_parser(
        "serve", help="run a corpus through the online scanning service")
    _add_scale_args(serve)
    serve.add_argument("--workers", type=int, default=2,
                       help="oracle worker threads")
    _add_crawl_worker_args(serve, flag="--crawl-workers")
    serve.add_argument("--crawl-worker-mode",
                       choices=("auto", "process", "thread"),
                       default="thread",
                       help="parallel crawl worker isolation (default thread: "
                            "safest inside the already-threaded service host; "
                            "process streams sights over worker pipes)")
    _add_chaos_args(serve)
    serve.add_argument("--checkpoint", metavar="PATH",
                       help="snapshot streamed-crawl progress to this file")
    serve.add_argument("--checkpoint-every", type=int, default=25, metavar="N",
                       help="visits between crawl checkpoints")
    serve.add_argument("--resume-from", metavar="PATH",
                       help="resume a streamed crawl from a checkpoint "
                            "(already-ticketed creatives are not re-submitted)")
    serve.add_argument("--corpus", metavar="PATH",
                       help="replay a saved corpus instead of crawling")
    serve.add_argument("--stream", action="store_true",
                       help="classify ads while the crawl is still running")
    serve.add_argument("--replays", type=int, default=2,
                       help="corpus replay passes (pass 2+ shows the warm cache)")
    serve.add_argument("--batch-size", type=int, default=8)
    serve.add_argument("--batch-delay", type=float, default=0.05,
                       help="micro-batch deadline in seconds")
    serve.add_argument("--autoscale", metavar="MIN:MAX",
                       help="run an elastic worker pool between MIN and MAX "
                            "workers (verdicts stay bit-identical to any "
                            "fixed pool)")
    serve.add_argument("--load-profile", metavar="NAME[:FACTOR]",
                       help="drive seeded open-loop traffic instead of a "
                            "corpus replay (steady, burst, diurnal; FACTOR "
                            "scales the rates)")
    serve.add_argument("--time-scale", type=float, default=1.0, metavar="X",
                       help="compress load-profile time onto the wall clock "
                            "by X (default 1.0)")
    serve.add_argument("--queue-capacity", type=int, default=256)
    serve.add_argument("--queue-policy", choices=("block", "reject"),
                       default="block")
    serve.add_argument("--cache-capacity", type=int, default=65536)
    serve.add_argument("--store", metavar="DIR",
                       help="durable verdict store directory: verdicts "
                            "persist as they are scanned and survive "
                            "crashes; reopening warm-starts the service")
    serve.add_argument("--tenants", metavar="PATH",
                       help="tenants file (JSON list or JSONL) enabling the "
                            "multi-tenant gateway; replays route through "
                            "auth → rate limit → quota → fair admission")
    serve.add_argument("--require-auth", action="store_true",
                       help="refuse keyless submissions (401) instead of "
                            "mapping them to the anonymous tenant")
    serve.set_defaults(fn=_cmd_serve)

    store = sub.add_parser(
        "store", help="inspect or maintain a durable verdict store")
    store.add_argument("action", choices=("fsck", "compact"),
                       help="fsck: verify every segment (exit 1 on damage); "
                            "compact: fold sealed segments, dropping "
                            "superseded records")
    store.add_argument("root", metavar="DIR",
                       help="verdict store directory")
    store.set_defaults(fn=_cmd_store)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())

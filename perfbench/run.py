"""End-to-end benchmark of the malvertising scanner (see README.md).

    python3 perfbench/run.py --workload study --seed 2014 --seconds 30 --trace 0

Runs timed repetitions of one workload in fresh processes (``rep.py``)
until ``--seconds`` of measurement are used, and prints every metric by
name with its unit.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones, pooled over the
repetitions and scaled to a nominal host speed (``hostspeed.py``); with
``--trace 1`` one untraced and one traced repetition run, and the
metrics are the per-layer ones plus the tracing overhead.

Outputs are checked on every run: consistency checks always, and the
golden fingerprints in ``golden.json`` at the default seed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 2014
WORKLOADS = ("study", "serve-fresh", "serve-repeat")

#: Wall-clock cap for one run, under the 180 s a run may take.
RUN_CAP_S = 170.0
#: The generator's own bounds.  An open-loop phase whose arrivals went
#: out later than these did not offer the load it claims, so its run is
#: invalid rather than a measurement.  The median catches a generator
#: that cannot keep pace; the 99th percentile allows for the program's
#: own stalls (garbage collection, lock waits), which delay the
#: generator too and are charged to the requests' latency.
GEN_P50_LATE_MS = 5.0
GEN_P99_LATE_MS = 100.0

def run_process(args: argparse.Namespace, work: Path, trace: int,
                seconds: float, deadline: float,
                prepare: bool = False) -> Optional[dict]:
    """Run one ``rep.py`` process to completion and parse its output."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONHASHSEED"] = "0"
    command = [sys.executable, str(HERE / "rep.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(seconds),
               "--trace", str(trace), "--work", str(work)] + \
        (["--prepare"] if prepare else [])
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.run(command, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"benchmark process failed ({proc.returncode}):\n"
                           f"{proc.stderr[-4000:]}")
    if prepare:
        return None
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    for rep in out["reps"]:
        rep["import_s"] = out["import_s"]
        rep["peak_rss_mb"] = out["peak_rss_mb"]
    return out


def collect(args: argparse.Namespace, work: Path) -> list[dict]:
    """Every repetition of the run, in order."""
    deadline = time.monotonic() + RUN_CAP_S
    run_process(args, work, 0, 0.0, deadline, prepare=True)
    if args.trace:
        reps = run_process(args, work, 1, 0.0, deadline)["reps"]
        if len(reps) == 1:  # one repetition per process: untraced apart
            reps = run_process(args, work, 0, 0.0, deadline)["reps"] + reps
        return reps
    reps: list[dict] = []
    started = time.monotonic()
    while True:
        process_start = time.monotonic()
        remaining = args.seconds - (process_start - started)
        out = run_process(args, work, 0, remaining, deadline)
        reps.extend(out["reps"])
        now = time.monotonic()
        last = now - process_start
        if now - started + last > args.seconds or now + 1.5 * last > deadline:
            return reps


def check_outputs(args: argparse.Namespace, reps: list[dict]) -> list[str]:
    """Every consistency check, plus the golden values at the default seed."""
    problems = [error for rep in reps for error in rep["errors"]]
    prints = [rep["fingerprints"] for rep in reps]
    if any(p != prints[0] for p in prints):
        problems.append("repetitions (or traced vs untraced) disagree on "
                        "output fingerprints")
    if args.seed == DEFAULT_SEED:
        golden = json.loads((HERE / "golden.json").read_text())
        expected = dict(golden[args.workload])
        if args.workload != "study":
            expected["shared"] = golden["shared"]
        # Traced serve-fresh runs also fingerprint their light phase.
        for name, value in prints[0].items():
            if expected.get(name) != value:
                problems.append(f"{name} fingerprint {value} != golden "
                                f"{expected.get(name)}")
    for rep in reps:
        gen = rep["gen"]
        if gen["p50_late_ms"] > GEN_P50_LATE_MS or \
                gen["p99_late_ms"] > GEN_P99_LATE_MS:
            problems.append(
                f"invalid: generator lateness p50 {gen['p50_late_ms']:.1f} ms, "
                f"p99 {gen['p99_late_ms']:.1f} ms, over its bounds "
                f"({GEN_P50_LATE_MS}, {GEN_P99_LATE_MS} ms)")
    return problems


def listed_metrics(kind: str) -> list[dict]:
    """The metric names and units ``BENCHMARK.json`` lists under ``kind``."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())[kind]


def end_to_end(reps: list[dict], scaled: bool = True) -> dict:
    """Medians of the pooled samples; latency percentiles over all samples.

    With ``scaled``, each sample is first brought to nominal host speed
    by the host factor of the phase that gave it (``hostspeed.py``):
    times are divided by it, rates multiplied.  Peak memory is not a time
    and is never scaled.
    """
    def factor(rep: dict, phase: str) -> float:
        return rep["host"][phase] if scaled else 1.0

    def repeat_factors(rep: dict) -> list[float]:
        return rep["host"]["repeat"] if scaled else [1.0] * len(rep["repeat_s"])

    latencies = [x / factor(rep, "ops") for rep in reps for x in rep["latencies"]]
    return {
        "setup_s": statistics.median(
            (rep["import_s"] + s) / factor(rep, "setup")
            for rep in reps for s in rep["setup_s"]),
        "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in reps),
        "ops_per_s": statistics.median(
            x * factor(rep, "ops") for rep in reps for x in rep["ops_per_s"]),
        "p50_ms": statistics.median(latencies) * 1000.0,
        "p99_ms": statistics.quantiles(latencies, n=100)[98] * 1000.0,
        "repeat_s": statistics.median(
            x / f for rep in reps for x, f in zip(rep["repeat_s"], repeat_factors(rep))),
    }


def src_loc() -> int:
    return sum(len(path.read_text(encoding="utf-8").splitlines())
               for path in (ROOT / "src").rglob("*.py"))


def per_layer(untraced: dict, traced: dict) -> dict:
    values = dict(traced["layers"])
    for name in ("late", "max_late_ms", "backlog_end"):
        values[f"gen.{name}"] = traced["gen"][name]
    values["trace.overhead_frac"] = traced["busy_s"] / untraced["busy_s"] - 1.0
    values["repo.src_loc"] = src_loc()
    values["load.light.p50_ms"] = untraced["info"].get("light.p50_ms", 0.0)
    values["load.light.p99_ms"] = untraced["info"].get("light.p99_ms", 0.0)
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in listed_metrics("per_layer")}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 1

    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        reps = collect(args, work)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    problems = check_outputs(args, reps)
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    attempted = sum(rep["attempted"] for rep in reps)
    failures: dict = {}
    for rep in reps:
        for kind, count in rep["failures"].items():
            failures[kind] = failures.get(kind, 0) + count
    failed = sum(failures.values())
    if args.trace:
        metrics = per_layer(reps[0], reps[1])
        for request, seconds, layers in reps[1]["slowest"]:
            print(f"slowest request {request}: {seconds * 1000:.1f} ms traced, "
                  f"top layers (ms) {layers}", file=sys.stderr)
    else:
        values = end_to_end(reps)
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in listed_metrics("end_to_end")}
        unscaled = {name: round(value, 6)
                    for name, value in end_to_end(reps, scaled=False).items()}
        print(f"host factor {statistics.median(rep['host']['ops'] for rep in reps):.4f} "
              f"(median of the repetitions' ops phases); unscaled: "
              f"{json.dumps(unscaled)}")
    print(f"workload {args.workload}  seed {args.seed}  repetitions {len(reps)}  "
          f"attempted {attempted}  failed {failed} {failures}")
    print(f"info {json.dumps(reps[0]['info'], sort_keys=True)}")
    for index, rep in enumerate(reps):
        samples = {name: [round(x, 4) for x in rep[name]]
                   for name in ("setup_s", "ops_per_s", "repeat_s")}
        print(f"repetition {index}{' (traced)' if rep['traced'] else ''}: "
              f"{samples} host factors {json.dumps(rep['host'])}")
    for name, metric in metrics.items():
        print(f"{name:32s} {metric['value']:>14.6g} {metric['unit']}")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

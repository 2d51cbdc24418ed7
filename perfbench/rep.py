"""One benchmark process: prepare a workload, run timed repetitions.

``run.py`` starts this and reads the one JSON line it prints.  The
workload's preparation is untimed; set-up samples include importing the
program.  With ``--prepare`` the process only runs the workload's
separate preparation step (if it has one), before the timed processes.
A process runs at most the workload's ``reps_per_process`` repetitions
(one for the study, which needs cold caches) and stops early when
``--seconds`` are used.
With ``--trace 1`` the process runs one untraced repetition (if the
workload repeats) and then one with per-layer spans installed.
Host-speed slices (``hostspeed.py``) run back to back before each
repetition and inside its timed loops; each repetition carries the host
factor of each of its timed phases.

    PYTHONPATH=src python3 perfbench/rep.py --workload study --seed 2014 \
        --seconds 30 --trace 0 --work .perfbench_work/x
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path


def resident_mb() -> float:
    """This process's resident memory now, in MiB (Linux)."""
    with open("/proc/self/statm") as statm:
        pages = int(statm.read().split()[1])
    return pages * resource.getpagesize() / (1024.0 * 1024.0)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--prepare", action="store_true")
    args = parser.parse_args(argv)

    before_probe_mb = resident_mb()
    from hostspeed import Probe  # not the program's set-up
    probe_mb = resident_mb() - before_probe_mb

    started = time.perf_counter()
    import workloads  # imports the program under test
    import_s = time.perf_counter() - started

    kind = workloads.WORKLOADS[args.workload]
    if args.prepare:
        if hasattr(kind, "prepare"):
            kind.prepare(args.seed, args.work)
        return 0
    workload = kind(args.seed, args.work, {"light": bool(args.trace)})

    def timed(index: int) -> dict:
        """One repetition, with a probe that starts with a burst of slices."""
        probe = Probe()
        probe.burst()
        return workload.rep(index, probe)

    out: dict = {"import_s": import_s, "reps": []}
    if args.trace:
        if workload.reps_per_process > 1:
            out["reps"].append(dict(timed(0), traced=False))
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        before = workloads.program_counters()
        rep = timed(len(out["reps"]))
        after = workloads.program_counters()
        counters = {name: after[name] - before.get(name, 0) for name in after}
        counters.update(rep["counters"])
        rep["layers"] = tracing.layer_metrics(tracer, counters)
        rep["slowest"] = tracer.slowest_requests()
        out["reps"].append(dict(rep, traced=True))
    else:
        measuring = time.monotonic()
        while True:
            rep_start = time.monotonic()
            out["reps"].append(dict(timed(len(out["reps"])), traced=False))
            now = time.monotonic()
            if len(out["reps"]) >= workload.reps_per_process or \
                    now - measuring + (now - rep_start) > args.seconds:
                break
    # The probe's tables stay resident all along; they are not the program's.
    out["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0 - probe_mb
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Benchmark for spikefit: three workloads, end-to-end metrics, a traced run.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
`src/`. The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. Earlier lines are a readable
report, and the full record (environment, checks, quality table, every
timing) is written under `.bench_out/results/`.

With `--trace 0` the workload is set up several times (the median is
`setup_s`), run once to warm up, then repeated at least twice and as often
as fits in `--seconds` (the median is `wall_s`). After every operation of
those repetitions a yardstick that does not use spikefit is timed (see
`yardstick.py`); the median repetition over the median yardstick is
`wall_rel`, which follows the program but not the drift of the host.

With `--trace 1` it is set up once and repeated three times, with tracing
on for the set-up and the second repetition; the per-module metrics are
totals over the spans of that set-up and repetition, and the spans are
written next to the results.

`--toy` shrinks every size so the benchmark's own tests run in seconds; toy
figures are not comparable with real ones.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_REPS = 2
IMPORT_PROBE = ("import time; start = time.perf_counter(); import spikefit; "
                "print(time.perf_counter() - start)")

WORKLOAD_NAMES = ("calib-grid-small", "pipeline-wide", "simulate-wide")

# name -> unit of the metrics in the result line with --trace 0; BENCHMARK.json
# gives each a bound by which it may worsen between commits.
END_TO_END = {
    "setup_s": "s",
    "wall_rel": "ratio",
    "peak_rss_mib": "MiB",
    "ops_ok_frac": "frac",
    "snn_accuracy": "frac",
    "output_cosine": "1",
}

# The ten end-to-end numbers of the report, plus wall_rel. Those not in
# END_TO_END are printed and recorded only: wall_s drifts with the host's
# speed by more than any usable bound (wall_rel stands in for it),
# heldout_L_all and calib_regret vary more from seed to seed than any usable
# bound, and ann_accuracy and nwc_step_ms do not apply on every workload.
REPORTED = ("setup_s", "wall_s", "wall_rel", "peak_rss_mib", "ops_failed_frac",
            "ann_accuracy", "snn_accuracy", "heldout_L_all", "calib_regret", "output_cosine",
            "nwc_step_ms")


NOTES = {
    "snn.record_mib": "computed from the sizes of the arrays in the spike record",
    "per_layer": "totals over one traced set-up plus one traced repetition",
}


def per_layer_units(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s") or "_s.L" in name:
        return "s"
    if name == "snn.record_mib":
        return "MiB"
    if name == "checkpoint.bytes":
        return "B"
    if name.startswith("snn.spike_rate"):
        return "1/step"
    if name == "autodiff.tape_ops_per_nwc_step":
        return "ops/step"
    return "count"


def peak_rss_mib() -> float:
    """Largest resident set of this process or any finished child (Linux KiB)."""
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0


def environment(args) -> dict:
    import numpy

    return {
        "seed": args.seed,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ[v] for v in THREAD_VARS},
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "toy": args.toy,
    }


def import_seconds(env: dict) -> float:
    """Time to import spikefit in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                          capture_output=True, text=True, check=True)
    return float(proc.stdout)


def run_untraced(wl, run, seconds: float):
    import_times, setup_times = [], []
    for _ in range(wl.setup_repeats):
        import_times.append(import_seconds(run.env))
        start = time.perf_counter()
        state = wl.setup(run)
        setup_times.append(time.perf_counter() - start)
    # One untimed repetition first: the first pass through the workload pays
    # for allocator growth and cold caches, which later ones do not.
    results, walls = [wl.rep(run, state)], []
    begin = time.perf_counter()
    run.yardstick = wl.yardstick
    # Start another repetition only if it should end within the budget.
    while (len(walls) < MIN_REPS
           or time.perf_counter() - begin + statistics.median(walls) <= seconds):
        ticked = sum(run.yardstick_s)
        start = time.perf_counter()
        results.append(wl.rep(run, state))
        walls.append(time.perf_counter() - start - (sum(run.yardstick_s) - ticked))
    run.yardstick = ()
    rss = peak_rss_mib()
    outcome = wl.finish(run, state, results)
    timings = {"import_times_s": import_times, "setup_times_s": setup_times,
               "rep_walls_s": walls, "yardstick_s": run.yardstick_s}
    measured = {
        "setup_s": statistics.median(i + s for i, s in zip(import_times, setup_times)),
        "wall_s": statistics.median(walls),
        "wall_rel": statistics.median(walls) / statistics.median(run.yardstick_s),
        "peak_rss_mib": rss,
    }
    return outcome, measured, timings, None


def run_traced(wl, run, spikefit, workloads):
    """Traced set-up, untraced warm-up rep, traced rep, untraced rep; the
    tracing overhead compares the last two, which both run warm."""
    from tracing import Tracer, check_self_times, layer_metrics

    tracer = Tracer()
    roots, walls, results = {}, {}, []

    def phase(name: str, traced: bool, fn):
        restore = tracer.install(spikefit) if traced else None
        run.tracer = tracer if traced else None
        start = time.perf_counter()
        root = tracer.open(name) if traced else None
        try:
            return fn()
        finally:
            if traced:
                tracer.close(root)
                roots[name] = root
            walls[name] = time.perf_counter() - start
            if traced:
                restore()
                run.tracer = None

    state = phase("setup", True, lambda: wl.setup(run))
    for name, traced in (("warm-up", False), ("rep", True), ("untraced", False)):
        results.append(phase(name, traced, lambda: wl.rep(run, state)))

    outcome = wl.finish(run, state, results)
    for name, root in roots.items():
        ok, detail = check_self_times(tracer.spans, root[0], walls[name])
        outcome.checks.append(workloads.Check(f"trace_self_times_{name}", ok, detail))
    metrics = layer_metrics(tracer.spans)
    metrics["trace.overhead_s"] = walls["rep"] - walls["untraced"]
    timings = {f"{name}_s": wall for name, wall in walls.items()}
    timings["spans"] = len(tracer.spans)
    return outcome, metrics, timings, tracer


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="tiny sizes, for the smoke tests")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "spikefit", "__init__.py")):
        print(f"error: no spikefit sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    # Pin BLAS threads before numpy is first imported; CLI stages inherit
    # them. At most two, so a larger machine runs the same setting.
    threads = min(len(os.sched_getaffinity(0)), 2)
    for var in THREAD_VARS:
        os.environ[var] = str(threads)
    sys.path.insert(0, SRC)
    import spikefit
    import workloads

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    wl = workloads.WORKLOADS[args.workload](args.toy)
    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = os.path.join(OUT, "work", f"{label}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    run = workloads.Run(work, args.seed, env)
    try:
        if args.trace:
            outcome, measured, timings, tracer = run_traced(wl, run, spikefit, workloads)
        else:
            outcome, measured, timings, tracer = run_untraced(wl, run, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    correct = all(c.ok for c in outcome.checks)
    failed_frac = run.failed / run.attempted
    if args.trace:
        report = None
        metrics = {k: {"value": v, "unit": per_layer_units(k)} for k, v in measured.items()}
    else:
        values = dict(measured, ops_failed_frac=failed_frac, **outcome.quality)
        report = {k: values[k] for k in REPORTED}
        values["ops_ok_frac"] = 1.0 - failed_frac
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}

    record = {
        "workload": args.workload, "trace": args.trace, "seconds": args.seconds,
        "environment": environment(args),
        "attempted": run.attempted, "failed": run.failed, "errors": run.errors,
        "checks": [vars(c) for c in outcome.checks],
        "end_to_end": report,
        "not_applicable": outcome.not_applicable,
        "quality_table": outcome.table,
        "notes": dict(outcome.notes, **NOTES),
        "timings": dict(timings, cli_stage_s=run.cli_times),
        "metrics": metrics,
    }
    results_path = os.path.join(OUT, "results", f"{label}.json")
    with open(results_path, "w") as f:
        json.dump(record, f, indent=2)
    if tracer is not None:
        tracer.dump(os.path.join(OUT, "results", f"{label}-spans.json"))

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("environment " + json.dumps(record["environment"], sort_keys=True))
    for c in outcome.checks:
        print(f"check {'PASS' if c.ok else 'FAIL'} {c.name}: {c.detail}")
    for e in run.errors:
        print(f"failed operation: {e}")
    for row in outcome.table:
        print("quality " + json.dumps(row, sort_keys=True))
    if report is None:
        print(f"traced: {timings}")
    else:
        for k, v in report.items():
            print(f"end-to-end {k} = {v}" if v is not None
                  else f"end-to-end {k}: n/a, {outcome.not_applicable.get(k, 'operation failed')}")
    print(f"results written to {os.path.relpath(results_path, ROOT)}")
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

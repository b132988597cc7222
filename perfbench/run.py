"""Benchmark of cfr: one workload per run, closed loop, checked against exact answers.

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 28 --trace 0

Workloads: pipeline, sweep-dense, fit-scan, green-genus (or `all`, which runs
each in its own process).  The last line of standard output is one JSON
object {"correct", "attempted", "failed", "metrics"}; the lines before it are
a readable report with every metric, its unit and the machine it ran on.
--trace 0 reports end-to-end metrics; --trace 1 runs every round twice,
untraced and then with every cfr layer wrapped, and reports per-layer
metrics plus the tracing overhead.  Spans go to
perfbench/out/spans-<workload>-seed<n>.jsonl.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(BENCH_DIR), "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=28.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
                "import cfr.cli; print(time.perf_counter() - t)")


def import_cfr():
    """Import cfr (and with it numpy) from this checkout's src/."""
    sys.path.insert(0, SRC_DIR)
    import cfr.cli  # noqa: F401  (imports every cfr module)
    if not os.path.abspath(cfr.cli.__file__).startswith(SRC_DIR + os.sep):
        raise ImportError(f"cfr imported from {cfr.cli.__file__}, not from {SRC_DIR}")


def import_seconds():
    """Time `import cfr.cli` in a fresh interpreter, as a user's first import pays it."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, SRC_DIR], check=True,
                         capture_output=True, text=True, timeout=60)
    return float(out.stdout.strip().splitlines()[-1])


def environment(cfr_threads):
    import numpy as np
    env = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "thread_env": {v: os.environ.get(v, "unset") for v in THREAD_VARS},
        "CFR_THREADS": cfr_threads,
        "threads_started_by_benchmark": 0,
    }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        env["blas"] = "unknown"
    return env


def report(label, value, unit, note=""):
    print(f"  {label:<28} {value:>14.6g} {unit:<12} {note}".rstrip())


def run_all(args):
    """Run each workload in a fresh process, one after the other."""
    import_cfr()
    import workloads
    code = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        code = max(code, subprocess.run(cmd, check=False).returncode)
    return code


def end_to_end(name, wl, records, total, builds, imports):
    """Print the readable end-to-end report; return the gated metrics."""
    import harness
    import numpy as np

    times = [r.seconds for r in records]
    tail = harness.tail_percentile(times)
    note = f"n={len(times)}" + (f", p{tail[0]} {tail[1]:.6g} s" if tail else "")
    if name == "pipeline":
        report("pipeline_s", float(np.median(times)), "s", f"median per boundary, {note}")
    else:
        label = {"sweep-dense": "sweep_lines_per_s", "fit-scan": "fit_per_s",
                 "green-genus": "green_values_per_s"}[name]
        report(label, total.throughput, "1/s", f"per {wl.unit}")
        report("op_s", float(np.median(times)), "s", f"median per operation, {note}")
    import_s, build_s = float(np.median(imports)), float(np.median(builds))
    setup_s = import_s + build_s
    report("setup_s", setup_s, "s", f"medians of {len(builds)} spread over the run: "
           f"fresh import {import_s:.4f} s + input build {build_s:.4f} s")
    rss = harness.peak_rss_mb()
    report("peak_rss_mb", rss, "MB")
    fail_ratio = (total.failed + total.declined) / total.attempted
    report("fail_ratio", fail_ratio, "ratio",
           f"{total.failed}/{total.attempted} raised or wrong ({total.wrong} wrong outputs), "
           f"{total.declined}/{total.attempted} wrongly declined")
    c = total.counts
    if c.get("lines"):
        report("skip_ratio", c["skipped"] / c["lines"], "ratio",
               f"{c['skipped']}/{c['lines']} lines skipped, {c.get('wrong_skips', 0)} "
               f"with clearly separated exact roots")
    for k, d in sorted(total.digits.items()):
        report(f"{k}_digits", d, "digits", f"worst error {total.errors[k]:.3e}")
    report("median_digits", total.median_digits, "digits",
           "median over operations of each one's worst digits")
    report("rank_deficient_warnings", total.rank_deficient, "count",
           f"other warnings {total.other_warnings}")
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
        "throughput_per_s": {"value": total.throughput, "unit": "1/s"},
        "pass_ratio": {"value": 1.0 - fail_ratio, "unit": "ratio"},
        "median_digits": {"value": total.median_digits, "unit": "digits"},
    }


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    cfr_threads = "unset"
    if "CFR_THREADS" in os.environ:
        cfr_threads = f"removed (was {os.environ.pop('CFR_THREADS')!r})"
    try:
        import_cfr()
    except ImportError as e:
        sys.stderr.write(f"cannot import cfr from {SRC_DIR}: {e}\n")
        return 2

    import harness
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write(f"unknown workload {args.workload!r}; choose from "
                         f"{', '.join(workloads.WORKLOADS)} or all\n")
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    print(f"# cfr benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print("# env " + json.dumps(environment(cfr_threads), sort_keys=True))

    setup_tracer = tracing.Tracer() if args.trace else None
    if setup_tracer:
        setup_tracer.install(harness.CFR_MODULES)
    try:
        wl, build_s = harness.build(args.workload, args.seed, os.path.join(workdir, "setup0"))
    finally:
        if setup_tracer:
            setup_tracer.uninstall()
    builds, imports = [build_s], []

    def sample_setup():
        other, t = harness.build(args.workload, args.seed,
                                 os.path.join(workdir, f"setup{len(builds)}"))
        other.close()
        builds.append(t)
        imports.append(import_seconds())

    try:
        if args.trace:
            tracer = tracing.Tracer()
            plain, records, rounds = harness.traced_run(wl, args.seconds, tracer)
            untraced_s = harness.summarize(plain, rounds).op_seconds
            s = harness.summarize(records, rounds)
            metrics = harness.layer_metrics(tracer, setup_tracer, s, rounds, untraced_s)
            spans = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
            tracer.write(spans, {"workload": args.workload, "seed": args.seed,
                                 "rounds": rounds})
            records = plain + records
            rounds *= 2
        else:
            imports.append(import_seconds())
            records, rounds = harness.run_workload(wl, seconds=args.seconds,
                                                   midway=sample_setup)
            while len(builds) < harness.SETUP_REPEATS:
                sample_setup()
    finally:
        wl.close()
        try:
            os.rmdir(workdir)
        except OSError:
            pass

    total = harness.summarize(records, rounds)
    print(f"# {total.ops} operations in {rounds} rounds, closed loop, one process; "
          f"work unit: {wl.unit}")
    print("# wait times: not applicable (no queue, lock or worker process in any layer)")
    if args.trace:
        for name, (value, unit) in metrics.items():
            report(name, value, unit)
        if tracer.dropped:
            print(f"# {tracer.dropped} spans dropped beyond {tracing.MAX_SPANS}")
        print(f"# spans written to {os.path.relpath(spans)}")
        out = {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()}
    else:
        out = end_to_end(args.workload, wl, records, total, builds, imports)
    for p in total.problems[:10]:
        print(f"# check: {p}")
    if len(total.problems) > 10:
        print(f"# check: ... {len(total.problems) - 10} more")
    print(json.dumps({"correct": total.wrong == 0, "attempted": total.attempted,
                      "failed": total.failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

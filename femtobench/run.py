#!/usr/bin/env python3
"""femtobench: time to solution of the Mobius DWF solve (see NOTES.md).

Usage, from the root of a source tree:

    python3 femtobench/run.py --workload solve_half --seed 1 --seconds 30 --trace 0

Builds femtobench/ (which compiles the libraries under src/) into
$CARGO_TARGET_DIR (default .bench_build), runs one workload, checks every
solution, prints every metric with its unit, and prints as its last line one
JSON object {"correct", "attempted", "failed", "metrics"}.  --trace 0 gives
the end-to-end metrics of an untraced run; --trace 1 gives the per-layer
metrics of a traced replay.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("solve_half", "service_burst_single", "tuned_solve_half")

END_TO_END = ("solve_s", "solves_per_s", "request_latency_s", "setup_s",
              "peak_rss_mb")

PER_LAYER = (
    "dirac.normal_f.calls", "dirac.normal_f.ms", "dirac.normal_d.calls",
    "dirac.normal_d.ms", "dirac.normal_multi_f.ms_per_rhs", "dirac.share",
    "dirac.dslash.self_s", "dirac.fifth_dim.self_s",
    "dirac.gflops_conventional", "dirac.gbps_computed",
    "dirac.pct_of_bw_bound",
    "solver.iterations", "solver.reliable_updates", "solver.self_s",
    "solver.blas.self_s", "solver.half_other_s", "solver.prep_s",
    "solver.true_residual_max",
    "autotune.sweep_s", "autotune.candidates", "autotune.variant_f",
    "autotune.format_f", "autotune.grain_f",
    "service.batch_mean", "service.batches", "service.queue_wait_s",
    "service.overhead_s",
    "par.launches_per_iter", "par.speedup_1w",
    "machine.triad_gbps_ws", "machine.triad_gbps_dram", "machine.fma_gflops",
    "trace.overhead_pct",
)

# The single-worker baseline replays this workload in a child process.
SINGLE_WORKER_BASELINE = "solve_half"

# Every child process ends well inside the benchmark's 180 s run limit.
CHILD_TIMEOUT_S = 170


def fail(msg):
    print(f"femtobench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(root):
    """Configure once, then (re)build; returns the benchmark binary's path."""
    build_dir = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = build_dir / "femtobench"
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(root / "femtobench"), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return build_dir / "femtobench"


def bench_env(threads=None):
    """The benchmark binary's environment: FEMTO_THREADS as given, else one worker
    per CPU but one, which stays free for this harness and the OS."""
    env = dict(os.environ)
    if threads is not None:
        env["FEMTO_THREADS"] = str(threads)
    else:
        env.setdefault("FEMTO_THREADS", str(max(1, (os.cpu_count() or 1) - 1)))
    return env


def run_bench(binary, args, env):
    """Run the benchmark binary; its last stdout line is its JSON report."""
    proc = subprocess.run([str(binary), *args], stdout=subprocess.PIPE,
                          stderr=sys.stderr, text=True, env=env,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        fail(f"femtobench {' '.join(args)} exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"femtobench {' '.join(args)} printed nothing")
    return json.loads(lines[-1])


def single_worker_baseline(binary, workload, seed, traced):
    """Replay the solve at FEMTO_THREADS=1: speed-up and bitwise identity."""
    solo = run_bench(binary, ["solo", workload, str(seed)], bench_env(1))
    solo_s = solo["metrics"]["solve_s"]["value"]
    multi_s = traced["metrics"]["info.untraced_solve_s"]["value"]
    same = solo["labels"]["fnv"] == traced["labels"]["fnv"]
    traced["metrics"]["par.speedup_1w"] = {"value": solo_s / multi_s,
                                           "unit": "ratio"}
    traced["metrics"]["info.solve_s_1w"] = {"value": solo_s, "unit": "s"}
    traced["checks"].append({
        "name": "bitwise_across_worker_counts", "ok": same,
        "detail": f"fnv {traced['labels']['fnv']} at the default worker "
                  f"count, {solo['labels']['fnv']} at 1 worker"})


def print_report(workload, trace, report):
    print(f"femtobench {workload} ({'traced' if trace else 'untraced'})")
    for name, m in report["metrics"].items():
        print(f"  {name:34s} {m['value']:>16.6g} {m['unit']}")
    for name, value in report["labels"].items():
        print(f"  {name:34s} {value}")
    print(f"  attempted {report['attempted']}, failed {report['failed']}")
    for c in report["checks"]:
        print(f"  check {c['name']}: {'ok' if c['ok'] else 'FAILED'}"
              f" ({c['detail']})")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "CMakeLists.txt").is_file():
        fail(f"no source tree at {root} (src/CMakeLists.txt is missing)")
    binary = build(root)

    seed = str(args.seed % (1 << 64))
    if args.trace:
        report = run_bench(binary, ["traced", args.workload, seed,
                                     str(args.seconds)], bench_env())
        if args.workload == SINGLE_WORKER_BASELINE:
            single_worker_baseline(binary, args.workload, seed, report)
        else:
            report["metrics"]["par.speedup_1w"] = {"value": 0.0,
                                                   "unit": "ratio"}
        wanted = PER_LAYER
    else:
        report = run_bench(binary, ["timed", args.workload, seed,
                                     str(args.seconds)], bench_env())
        wanted = END_TO_END

    print_report(args.workload, args.trace, report)
    missing = [n for n in wanted if n not in report["metrics"]]
    if missing:
        fail(f"femtobench did not report {', '.join(missing)}")
    result = {
        # A solve that failed (not converged, or true residual over the
        # bound) is counted in "failed" and also makes the outputs wrong.
        "correct": report["failed"] == 0
                   and all(c["ok"] for c in report["checks"]),
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {n: report["metrics"][n] for n in wanted},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()

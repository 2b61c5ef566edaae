#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload paper4 --seed 7 --seconds 30 --trace 0

Run from the root of a source checkout. Builds perfbench_driver from
the checkout's sources (into $CARGO_TARGET_DIR, default .bench_build)
and runs the workload's sweep the way mpos_bench runs it, each time in
a fresh driver process (the driver clears every MPOS_* switch first).

--trace 0: set-up samples first (SETUP_REPEATS processes per seed,
each building every job of the sweep and holding them), then sweeps,
round after round while the next round is predicted to end within
--seconds. The end-to-end metrics take each seed's median sample.
--trace 1: one traced driver process; the per-layer metrics.

Prints, before the result:

    host: {...}        the host manifest (nproc, CPU, RAM, compiler, build)
    digest: ...        a hash of every simulated statistic and every
                       analysis's printed text, per seed
    spans: PATH        traced only: the coarse spans, written as JSON

and, as the last line, one JSON object with the keys correct,
attempted, failed and metrics (see perfbench/README.md). --short runs
every job at 1/40 of its length, for the smoke test.
"""

import argparse
import json
import os
import platform
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
WORKLOADS = ("paper4", "wide16", "wide16_msi_mcs")
BUILD_JOBS = min(4, os.cpu_count() or 1)
# Every driver process must end by then, counted from after the build.
RUN_BUDGET_S = 170
SETUP_REPEATS = 3
# The 16-CPU workloads run four seeds, SEED_STRIDE apart: at 16 CPUs
# some seeds put Multpgm into a regime that takes about 1.5x the host
# time, and bus transactions per cycle vary by about 20% between seeds.
WIDE_SEEDS = 4
SEED_STRIDE = 1000003


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no simulator sources under {ROOT / 'src'}")
    out = build_dir()
    # Keep the compiler's temporary files inside the checkout too.
    tmp = out / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    if not (out / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", str(out), "--target", "perfbench_driver",
           "-j", str(BUILD_JOBS)]
    if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode:
        fail("build failed")
    return out / "perfbench_driver"


def host_manifest(out):
    cpu = ""
    for line in Path("/proc/cpuinfo").read_text().splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    ram_kb = 0
    for line in Path("/proc/meminfo").read_text().splitlines():
        if line.startswith("MemTotal:"):
            ram_kb = int(line.split()[1])
    cache = (out / "CMakeCache.txt").read_text()
    build_type = re.search(r"^CMAKE_BUILD_TYPE:\w+=(.*)$", cache, re.M)
    compiler = ""
    for f in out.glob("CMakeFiles/*/CMakeCXXCompiler.cmake"):
        text = f.read_text()
        fields = [re.search(f'CMAKE_CXX_COMPILER_{key} "([^"]*)"', text)
                  for key in ("ID", "VERSION")]
        compiler = " ".join(m.group(1) if m else "?" for m in fields)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "ram_gb": round(ram_kb / 1024 / 1024, 1),
        "compiler": compiler,
        "build_type": build_type.group(1) if build_type else "",
        "kernel": platform.release(),
    }


def seeds_for(workload, seed):
    if workload == "paper4":
        return [seed]
    return [seed + i * SEED_STRIDE for i in range(WIDE_SEEDS)]


def run_driver(exe, args, mode, seeds, deadline):
    """Run one driver process; returns its report."""
    cmd = [str(exe), "--workload", args.workload, "--mode", mode,
           "--scratch", str(build_dir())]
    for seed in seeds:
        cmd += ["--seed", str(seed)]
    if args.short:
        cmd.append("--short")
    left = deadline - time.monotonic()
    if left <= 0:
        fail(f"out of time before the {mode} run")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=left)
    except subprocess.TimeoutExpired:
        fail(f"{mode} run did not finish within {RUN_BUDGET_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        fail(f"{mode} run exited {proc.returncode}")
    return json.loads(lines[-1])


def untraced(exe, args, deadline):
    """Set-up samples, then sweeps; returns (reports, metrics, digests)."""
    seeds = seeds_for(args.workload, args.seed)
    start = time.monotonic()
    setups = {s: [] for s in seeds}
    sweeps = {s: [] for s in seeds}
    for _ in range(SETUP_REPEATS):
        for s in seeds:
            setups[s].append(run_driver(exe, args, "setup", [s], deadline))
    while True:
        round_start = time.monotonic()
        for s in seeds:
            sweeps[s].append(run_driver(exe, args, "sweep", [s], deadline))
        now = time.monotonic()
        if now - start + (now - round_start) > args.seconds:
            break

    reports = [r for s in seeds for r in setups[s] + sweeps[s]]
    for s in seeds:
        if len({r["digest"] for r in sweeps[s]}) > 1:
            reports[0]["errors"].append(
                f"seed {s}: simulated statistics differ between sweeps")
    first = [sweeps[s][0] for s in seeds]
    job_cpu_s = sum(median([r["job_cpu_s"] for r in sweeps[s]])
                    for s in seeds)
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    err_n = sum(r["paper_err_n"] for r in first)

    def metric(value, unit):
        return {"value": value, "unit": unit}

    metrics = {
        "wall_s": metric(sum(median([r["wall_s"] for r in sweeps[s]])
                             for s in seeds), "s"),
        "setup_s": metric(sum(median([r["setup_s"] for r in setups[s]])
                              for s in seeds), "s"),
        "sim_mcycles_per_s": metric(
            sum(r["cpu_cycles"] for r in first) / job_cpu_s / 1e6,
            "Mcycles/s"),
        "bus_events_per_s": metric(
            sum(r["bus_tx"] for r in first) / job_cpu_s, "events/s"),
        "peak_rss_mb": metric(max(median([r["peak_rss_mb"]
                                          for r in sweeps[s]])
                                  for s in seeds), "MB"),
        "job_ok_ratio": metric((attempted - failed) / attempted, "ratio"),
        "paper_err_pts": metric(
            sum(r["paper_err_sum"] for r in first) / err_n
            if err_n else 0, "pct-points"),
    }
    return reports, metrics, [r["digest"] for r in first]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--short", action="store_true")
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be a non-negative integer")

    exe = build()
    print("host: " + json.dumps(host_manifest(build_dir())), flush=True)
    deadline = time.monotonic() + RUN_BUDGET_S
    if args.trace:
        report = run_driver(exe, args, "traced",
                            seeds_for(args.workload, args.seed), deadline)
        reports, metrics = [report], report["metrics"]
        digests = report["digests"]
        path = build_dir() / f"spans-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps(report["spans"]) + "\n")
    else:
        reports, metrics, digests = untraced(exe, args, deadline)
    print(f"digest: {args.workload} seed {args.seed} {'+'.join(digests)}")
    if args.trace:
        print(f"spans: {path}")
    errors = [e for r in reports for e in r["errors"]]
    for err in errors:
        print(f"perfbench: check failed: {err}", file=sys.stderr)
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    correct = not errors and failed == 0 and attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()

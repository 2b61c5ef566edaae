#!/usr/bin/env python3
"""Record benchmark results, with a same-session baseline.

    python3 perfbench/record.py --out result.json [--baseline DIR]
                                [--workloads paper4,wide16] [--seeds 1-10]
                                [--seconds 30]

Runs perfbench/run.py (untraced) once per workload and seed in this
checkout and, with --baseline, in a second checkout DIR (typically
the parent commit), alternating which side runs first. Writes every
value plus each side's median and quartiles per metric and workload,
and the host manifest that run.py prints, to --out; prints a summary
table. Wall times are only ever compared within one such record:
numbers taken on another host or in another session are not a
baseline.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(root, workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    # Each checkout builds into its own .bench_build.
    env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
    p = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                       env=env)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.exit(f"{root}: {workload} seed {seed} failed (exit "
                 f"{p.returncode})\n{p.stderr[-2000:]}")
    host = next(json.loads(l[len("host: "):]) for l in lines
                if l.startswith("host: "))
    return host, json.loads(lines[-1])


def summarize(values):
    med = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (med, med, med))
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "iqr_over_median": (q3 - q1) / med if med else 0.0}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True)
    ap.add_argument("--baseline", help="second checkout to measure")
    ap.add_argument("--workloads")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    seconds = args.seconds or spec["run_seconds"]
    seeds = parse_seeds(args.seeds)
    sides = {"change": ROOT}
    if args.baseline:
        sides["baseline"] = Path(args.baseline).resolve()

    raw = {side: {w: {} for w in workloads} for side in sides}
    host = None
    for w in workloads:
        for i, seed in enumerate(seeds):
            order = list(sides) if i % 2 == 0 else list(sides)[::-1]
            for side in order:
                host, result = run_once(sides[side], w, seed, seconds)
                for name, m in result["metrics"].items():
                    raw[side][w].setdefault(name, []).append(m["value"])
                print(f"{side} {w} seed {seed}: " + ", ".join(
                    f"{k}={m['value']:.4g}"
                    for k, m in result["metrics"].items()), flush=True)

    bounds = {m["name"]: m for m in spec["end_to_end"]}
    record = {"host": host, "seconds": seconds, "seeds": seeds,
              "sides": {s: str(p) for s, p in sides.items()},
              "results": {s: {w: {n: summarize(v) for n, v in ms.items()}
                              for w, ms in by_w.items()}
                          for s, by_w in raw.items()}}
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")

    print(f"\nhost: {json.dumps(host)}")
    for w in workloads:
        for name, m in bounds.items():
            line = f"{w:16s} {name:18s}"
            for side in sides:
                s = record["results"][side][w][name]
                line += (f"  {side} median {s['median']:.5g} "
                         f"iqr/median {s['iqr_over_median']:.3f}")
            if "baseline" in sides:
                b = record["results"]["baseline"][w][name]["median"]
                c = record["results"]["change"][w][name]["median"]
                worse = (c - b) / b if m["better"] == "lower" else (b - c) / b
                line += f"  worse by {worse:+.3f} (bound {m['bound']})"
            print(line)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""The benchmark's own smoke test.

    python3 perfbench/smoke_test.py

Runs every workload named in BENCHMARK.json at 1/40 length (--short):
twice untraced and once traced, all with seed 7. Fails unless each
run passes its output check, prints exactly the metrics BENCHMARK.json
names for its mode with the units it names, and prints the same
simulated-statistics digest as the other two runs. The traced run
repeating the untraced digest shows the timing decorator does not
change the simulation. Takes about a minute, most of it the first
build.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 7


def run(workload, trace):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(SEED), "--seconds", "1",
           "--trace", str(trace), "--short"]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.exit(f"FAIL {workload} trace={trace}: exit {p.returncode}\n"
                 f"{p.stderr[-2000:]}")
    digest = next((l.split()[-1] for l in lines if l.startswith("digest:")),
                  None)
    return json.loads(lines[-1]), digest


def check_metrics(result, spec, what):
    want = {m["name"]: m["unit"] for m in spec}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        sys.exit(f"FAIL {what}: missing {missing} extra {extra} "
                 f"wrong units {wrong}")
    for k, v in result["metrics"].items():
        if not isinstance(v["value"], (int, float)):
            sys.exit(f"FAIL {what}: {k} is not a number")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in spec["workloads"]:
        name = w["name"]
        digests = []
        for trace in (0, 0, 1):
            result, digest = run(name, trace)
            what = f"{name} trace={trace}"
            if not result["correct"] or result["failed"]:
                sys.exit(f"FAIL {what}: output check failed")
            check_metrics(result,
                          spec["per_layer" if trace else "end_to_end"], what)
            digests.append(digest)
        if len(set(digests)) != 1 or None in digests:
            sys.exit(f"FAIL {name}: digests differ: {digests}")
        print(f"ok {name}: digest {digests[0]}, "
              f"{len(spec['end_to_end'])} end-to-end and "
              f"{len(spec['per_layer'])} per-layer metrics")
    print("perfbench smoke test passed")


if __name__ == "__main__":
    main()

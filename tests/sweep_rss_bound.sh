#!/usr/bin/env bash
# Sweep memory bound: the lock-primitive scaling smoke sweep (up to
# 64 CPUs, every finished machine held until the sweep ends) must keep
# its peak resident set, as mpos_bench reports it in the JSON
# "peak_rss_mb" field (VmHWM), at or below 1 GB. Per-line simulator
# state sized by physical memory instead of by the lines touched
# pushes this sweep past 16 GB.
#
# Usage: sweep_rss_bound.sh <mpos_bench binary>

set -u

bench="${1:?usage: sweep_rss_bound.sh <mpos_bench>}"
bound_mb=1024

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

if ! "$bench" --smoke --only scaling_lockproto --json "$tmp/report.json" \
        > "$tmp/stdout.log" 2> "$tmp/stderr.log"; then
    echo "FAIL: mpos_bench --smoke --only scaling_lockproto exited non-zero"
    tail -n 40 "$tmp/stderr.log"
    exit 1
fi

rss="$(sed -n 's/^ *"peak_rss_mb": \([0-9.]*\).*/\1/p' "$tmp/report.json")"
if [ -z "$rss" ]; then
    echo "FAIL: report.json carries no peak_rss_mb"
    exit 1
fi
if ! awk -v r="$rss" -v b="$bound_mb" 'BEGIN { exit !(r > 0 && r <= b) }'
then
    echo "FAIL: sweep peak RSS ${rss} MB exceeds the ${bound_mb} MB bound"
    exit 1
fi
echo "sweep peak RSS ${rss} MB (bound ${bound_mb} MB)"

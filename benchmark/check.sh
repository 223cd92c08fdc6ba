#!/usr/bin/env bash
# Self-check of the benchmark; README.md beside this file explains it.
#
#   benchmark/check.sh [--seconds S] [--spread [SEEDS]]
#
# 1. BENCHMARK.json is well formed and is exactly what the code declares.
# 2. Two sets of runs of the same code on seed 11 — every workload three
#    times with tracing off and once with tracing on, the sets taking
#    turns run by run — print every declared metric and no other, pass
#    every output check, repeat every count and input fingerprint exactly,
#    and agree on every end-to-end metric (the median of a set's three
#    runs) within half its bound. They stay in out/set1, out/set2.
# 3. The same holds for the checks and fingerprints on seed 12 (short
#    runs, results not kept).
# 4. With --spread: every workload on SEEDS seeds (default 10, from 101),
#    tracing off, as the driver runs them; the spread of every end-to-end
#    metric over the seeds must stay within its bound, and a metric whose
#    spread is over a third of its bound is listed as unresolved.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
spec="$here/../BENCHMARK.json"
seconds=$(python3 -c "import json,sys; print(json.load(open(sys.argv[1]))['run_seconds'])" "$spec")
seeds=0
while (($#)); do
    case "$1" in
    --seconds)
        seconds="${2:?--seconds needs a value}"
        shift
        ;;
    --spread)
        seeds=10
        if [[ "${2:-}" =~ ^[0-9]+$ ]]; then
            seeds=$2
            shift
        fi
        ;;
    *)
        echo "usage: check.sh [--seconds S] [--spread [SEEDS]]" >&2
        exit 2
        ;;
    esac
    shift
done

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
"${CARGO_TARGET_DIR:-$here/target}/release/wirebench" --describe | python3 "$here/check.py" declared "$spec"
workloads=$(python3 "$here/check.py" workloads "$spec")

# run_sets A B SEED SECONDS ROUNDS: every workload, ROUNDS times with
# tracing off (into A/r1, B/r1, A/r2, …) and once with tracing on (into A
# and B). The two sets take turns run by run, so that a slow spell of the
# host falls on both.
run_sets() {
    rm -rf "$1" "$2"
    for workload in $workloads; do
        for ((round = 1; round <= $5; round++)); do
            for dir in "$1" "$2"; do
                "$here/run.sh" --workload "$workload" --seed "$3" --seconds "$4" --trace 0 --out "$dir/r$round" |
                    tail -n 1 | python3 "$here/check.py" line "$spec" 0
            done
        done
        for dir in "$1" "$2"; do
            "$here/run.sh" --workload "$workload" --seed "$3" --seconds "$4" --trace 1 --out "$dir" |
                tail -n 1 | python3 "$here/check.py" line "$spec" 1
        done
    done
}

run_sets "$here/out/set1" "$here/out/set2" 11 "$seconds" 3
python3 "$here/check.py" compare "$spec" "$here/out/set1" "$here/out/set2" bounds
run_sets "$here/out/seed12a" "$here/out/seed12b" 12 2 1
python3 "$here/check.py" compare "$spec" "$here/out/seed12a" "$here/out/seed12b" counts
rm -rf "$here/out/seed12a" "$here/out/seed12b"

if ((seeds)); then
    rm -rf "$here/out/spread"
    for workload in $workloads; do
        for ((seed = 101; seed < 101 + seeds; seed++)); do
            "$here/run.sh" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 \
                --out "$here/out/spread/$seed" | tail -n 1 | python3 "$here/check.py" line "$spec" 0
        done
    done
    python3 "$here/check.py" spread "$spec" "$here/out/spread"
    rm -rf "$here/out/spread"
fi
echo "benchmark self-check passed"

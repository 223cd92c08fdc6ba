#!/usr/bin/env bash
# Runs two built `wirebench` binaries in alternation and prints the
# end-to-end figures of each pair, then their medians.
#
#   scripts/bench_pairs.sh PARENT_BIN CHANGE_BIN WORKLOAD N [SEED]
#
# Each binary runs N times on WORKLOAD (seed 11 unless SEED is given,
# tracing off), the parent first in odd pairs and the change first in
# even ones, each run writing its result files into a temporary
# directory that is removed on exit. More wirebench options (say
# `--seconds 5`) go in BENCH_PAIRS_ARGS. Prints `tx_per_s`,
# `cpu_us_per_tx`, `peak_rss_mb` and `setup_s` per pair, then each side's
# median and quartiles and in how many pairs the change read better. Exits
# non-zero if a run prints no result or either side reports
# `correct: false`.
#
# Build each side with
#   cargo build --release --offline --manifest-path benchmark/Cargo.toml
# in its own checkout; the binary is benchmark/target/release/wirebench.
set -euo pipefail

if (($# < 4 || $# > 5)); then
    echo "usage: $0 PARENT_BIN CHANGE_BIN WORKLOAD N [SEED]" >&2
    exit 2
fi
parent=$1 change=$2 workload=$3 n=$4 seed=${5:-11}
for bin in "$parent" "$change"; do
    [[ -x "$bin" ]] || { echo "$0: not an executable: $bin" >&2; exit 2; }
done
[[ "$n" =~ ^[1-9][0-9]*$ ]] || { echo "$0: N must be a positive integer" >&2; exit 2; }

out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT
read -r -a extra <<<"${BENCH_PAIRS_ARGS:-}"

# Runs one side once and appends its result line to $out/<side>.jsonl
# (an empty line if the run printed none; it then counts as not correct).
run() {
    local side=$1 bin=$2 line
    line="$("$bin" --workload "$workload" --seed "$seed" --trace 0 \
        --out "$out/$side" "${extra[@]}" 2>/dev/null | tail -n 1)" || true
    printf '%s\n' "$line" >>"$out/$side.jsonl"
}

for ((i = 1; i <= n; i++)); do
    if ((i % 2)); then
        run parent "$parent"
        run change "$change"
    else
        run change "$change"
        run parent "$parent"
    fi
    echo "pair $i of $n done" >&2
done

python3 - "$out/parent.jsonl" "$out/change.jsonl" "$workload" "$seed" <<'PY'
import json
import statistics
import sys

METRICS = [
    ("tx_per_s", "higher"),
    ("cpu_us_per_tx", "lower"),
    ("peak_rss_mb", "lower"),
    ("setup_s", "lower"),
]


def load(path):
    runs = []
    for line in open(path):
        try:
            runs.append(json.loads(line))
        except json.JSONDecodeError:
            runs.append({"correct": False, "metrics": {}})
    return runs


parent, change = load(sys.argv[1]), load(sys.argv[2])
print(f"{sys.argv[3]}, seed {sys.argv[4]}: {len(parent)} alternating pairs (parent -> change)")
print("pair " + "".join(f"{name:>30}" for name, _ in METRICS))


def value(run, name):
    return run.get("metrics", {}).get(name, {}).get("value", float("nan"))


for i, (p, c) in enumerate(zip(parent, change), 1):
    cells = "".join(f"{value(p, m):>14.2f} -> {value(c, m):<12.2f}" for m, _ in METRICS)
    print(f"{i:>4} {cells}")


def quartiles(runs, m):
    values = sorted(value(r, m) for r in runs)
    if len(values) < 2:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


for label, at in (("q1", 0), ("med", 1), ("q3", 2)):
    print(f"{label:>4} " + "".join(
        f"{quartiles(parent, m)[at]:>14.2f} -> {quartiles(change, m)[at]:<12.2f}"
        for m, _ in METRICS))
for m, better in METRICS:
    wins = sum(
        (value(c, m) > value(p, m)) if better == "higher" else (value(c, m) < value(p, m))
        for p, c in zip(parent, change)
    )
    print(f"  {m}: change better in {wins} of {len(parent)} pairs")
bad = [(side, i) for side, runs in (("parent", parent), ("change", change))
       for i, r in enumerate(runs, 1) if r.get("correct") is not True]
if bad:
    print("runs not correct: " + ", ".join(f"{side} run {i}" for side, i in bad))
    sys.exit(1)
PY

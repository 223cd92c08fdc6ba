#!/usr/bin/env bash
# The benchmark's one command; README.md beside this file says what it measures.
#
#   benchmark/run.sh [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]]
#
# Builds the benchmark package, then runs one workload (or, with no
# --workload, all five in turn). The last line each run prints is its
# result as one JSON object; the exit status is non-zero if an output
# check failed.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

trace=0
workload=""
rest=()
while (($#)); do
    case "$1" in
    --trace)
        if [[ "${2:-}" =~ ^[01]$ ]]; then
            trace=$2
            shift
        else
            trace=1
        fi
        ;;
    --workload)
        workload="${2:?--workload needs a name}"
        shift
        ;;
    *) rest+=("$1") ;;
    esac
    shift
done

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
target="${CARGO_TARGET_DIR:-$here/target}"
# Tracing off runs on the system allocator; tracing on, behind a counting one.
bin="$target/release/wirebench"
((trace)) && bin="$target/release/wirebench-traced"
WIREBENCH_RUSTC="$(rustc --version)"
WIREBENCH_COMMIT="$(git -C "$here" rev-parse --short HEAD 2>/dev/null || echo unknown)"
export WIREBENCH_RUSTC WIREBENCH_COMMIT

if [[ -n "$workload" ]]; then
    exec "$bin" --workload "$workload" --trace "$trace" --out "$here/out" "${rest[@]}"
fi
status=0
for workload in pcap_bulk pcap_lossy stream_benign stream_infected wire_proxy; do
    "$bin" --workload "$workload" --trace "$trace" --out "$here/out" "${rest[@]}" || status=$?
done
exit "$status"

"""Checks behind check.sh: the shape of BENCHMARK.json, the last line a run
prints, the agreement of two sets of runs, and the spread over seeds."""

import glob
import json
import re
import statistics
import sys

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
KEYS = ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
# Layer metrics that are counts of work done: they must repeat exactly
# for one seed (rates and times need not).
EXACT = re.compile(
    r"^(nettrace\.ingest\..*|nettrace\.streams_(gathered|damaged)_share"
    r"|core\.(alerts|conversations)|wirefront\.conns_accepted)$"
)
# Two runs of the same code may differ by this share of a metric's bound
# before the self-check fails: a metric that only just fits its bound
# cannot show a regression of that size.
MARGIN = 0.5
# A spread over seeds above this share of the bound leaves the metric
# unresolved at that bound.
RESOLVED = 1 / 3


def fail(message):
    sys.exit(f"check failed: {message}")


def load(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def validate(spec):
    """The limits the driver puts on BENCHMARK.json."""
    if list(spec) != KEYS:
        fail(f"BENCHMARK.json keys are {list(spec)}, want exactly {KEYS}")
    if not 2 <= len(spec["workloads"]) <= 8:
        fail("2 to 8 workloads")
    if not 1 <= len(spec["end_to_end"]) <= 16:
        fail("1 to 16 end-to-end metrics")
    if not 1 <= len(spec["per_layer"]) <= 128:
        fail("1 to 128 per-layer metrics")
    if not (isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60):
        fail("run_seconds is a whole number from 1 to 60")
    names = []
    for w in spec["workloads"]:
        if sorted(w) != ["name", "why"] or "\n" in w["why"] or len(w["why"]) > 200:
            fail(f"workload {w}")
        names.append(w["name"])
    for m in spec["end_to_end"]:
        if sorted(m) != ["better", "bound", "name", "unit"] or not 0 < m["bound"] <= 0.25:
            fail(f"end-to-end metric {m}")
    for m in spec["per_layer"]:
        if sorted(m) != ["better", "name", "unit"]:
            fail(f"per-layer metric {m}")
    for m in spec["end_to_end"] + spec["per_layer"]:
        if m["better"] not in ("higher", "lower") or not UNIT.match(m["unit"]):
            fail(f"metric {m}")
        names.append(m["name"])
    for name in names:
        if not NAME.match(name):
            fail(f"name {name!r}")
    if len(set(names)) != len(names):
        fail("a name is used twice")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        fail("setup_s (s, lower) must be an end-to-end metric")


def check_line(spec, trace, line):
    """The last line of a run: exactly the declared metrics, and correct."""
    if sorted(line) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"result keys {sorted(line)}")
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: cell["unit"] for name, cell in line["metrics"].items()}
    if got != want:
        odd = sorted(set(got.items()) ^ set(want.items()))
        fail(f"printed metrics differ from the declared ones: {odd}")
    if not (line["correct"] and line["failed"] == 0 and line["attempted"] >= 1):
        fail(f"run not correct: {line['failed']} of {line['attempted']} failed")
    if not trace and any(cell["value"] <= 0 for cell in line["metrics"].values()):
        fail("an end-to-end metric is not positive")


def compare(spec, dir_a, dir_b, bounds):
    """Two sets of runs of one seed: inputs and counts repeat exactly;
    with `bounds`, the end-to-end figures (the median over each set's
    rounds) agree within MARGIN of each metric's bound."""
    worst = 0.0
    for w in (w["name"] for w in spec["workloads"]):
        rounds_a, rounds_b = (
            [load(f) for f in sorted(glob.glob(f"{d}/r*/result-{w}.json"))] for d in (dir_a, dir_b)
        )
        la, lb = (load(f"{d}/layers-{w}.json") for d in (dir_a, dir_b))
        if not rounds_a or len(rounds_a) != len(rounds_b):
            fail(f"{w}: {len(rounds_a)} and {len(rounds_b)} end-to-end runs to compare")
        for run in rounds_a + rounds_b + [lb]:
            if run["input"] != la["input"]:
                fail(f"{w}: input fingerprint differs: {run['input']} / {la['input']}")
        for name, cell in la["per_layer"].items():
            other = lb["per_layer"][name]["value"]
            if EXACT.match(name) and cell["value"] != other:
                fail(f"{w}: {name} is a count and read {cell['value']} then {other}")
        if not bounds:
            continue
        for m in spec["end_to_end"]:
            va, vb = (
                statistics.median(r["end_to_end"][m["name"]]["reported"] for r in rounds)
                for rounds in (rounds_a, rounds_b)
            )
            worse = (va - vb) / va if m["better"] == "higher" else (vb - va) / va
            worst = max(worst, abs(worse) / m["bound"])
            print(f"{w:16s} {m['name']:14s} {va:14.4f} {vb:14.4f} {worse:+8.2%} (bound {m['bound']:.0%})")
            if abs(worse) > MARGIN * m["bound"]:
                fail(
                    f"{w}: {m['name']} read {va} then {vb}: the same code differs by "
                    f"more than {MARGIN:.0%} of the {m['bound']:.0%} bound"
                )
    if bounds:
        print(f"largest difference is {worst:.0%} of its bound")


def spread(spec, directory):
    """Runs of one workload on several seeds, as the driver takes them:
    the interquartile range of each end-to-end metric as a share of its
    median must stay within the bound, and within RESOLVED of it for the
    metric to count as resolved at that bound."""
    unresolved = []
    for w in (w["name"] for w in spec["workloads"]):
        runs = [load(f) for f in sorted(glob.glob(f"{directory}/*/result-{w}.json"))]
        if len(runs) < 4:
            fail(f"{w}: {len(runs)} runs in {directory}, need at least 4")
        for m in spec["end_to_end"]:
            values = [r["end_to_end"][m["name"]]["reported"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            share = (q3 - q1) / median
            note = ""
            if m["name"] != "setup_s" and share > m["bound"]:
                fail(f"{w}: {m['name']} spreads by {share:.1%} over {len(runs)} seeds, bound {m['bound']:.0%}")
            if share > RESOLVED * m["bound"]:
                note = "  unresolved at this bound"
                unresolved.append(f"{w}/{m['name']}")
            print(f"{w:16s} {m['name']:14s} median {median:14.4f} spread {share:6.1%} of bound {m['bound']:.0%}{note}")
    print("unresolved: " + (", ".join(unresolved) or "none"))


def main():
    mode, spec = sys.argv[1], load(sys.argv[2])
    validate(spec)
    if mode == "declared":
        if json.load(sys.stdin) != spec:
            fail("BENCHMARK.json is not what `wirebench --describe` prints")
    elif mode == "workloads":
        print(" ".join(w["name"] for w in spec["workloads"]))
    elif mode == "line":
        check_line(spec, sys.argv[3] == "1", json.loads(sys.stdin.read()))
    elif mode == "compare":
        compare(spec, sys.argv[3], sys.argv[4], sys.argv[5] == "bounds")
    elif mode == "spread":
        spread(spec, sys.argv[3])
    else:
        fail(f"unknown mode {mode}")


if __name__ == "__main__":
    main()

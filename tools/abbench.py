"""A/B benchmark of two source trees: alternating pairs of `bench/run.py` runs.

Usage:

    python tools/abbench.py PARENT CHANGE --workload W [--workload W ...]
        --pairs N --seconds S --out BENCH_<n>.json [--seed S0]

PARENT and CHANGE are the roots of two checkouts.  For each workload, pair k
runs `python3 bench/run.py --workload W --seed S0+k --seconds S` once in each
tree, with that tree as working directory, so that each side imports its own
`src`.  The parent runs first in even pairs and the change in odd ones, so a
drift of the host during the session falls on both sides alike; both runs of
a pair take the same seed.

For each workload and end-to-end metric the output records both medians, both
interquartile ranges, the wins of each side over the pairs (a tie counts for
neither; lower is better unless the change's BENCHMARK.json says otherwise),
the exact two-sided sign-test p-value over the pairs that are not ties,
whether that p-value is below 0.05, and whether the change's gain meets the
claim rule: over at least ten pairs it wins at least nine in ten, and its
median beats the parent's by more than the parent's interquartile range.
Each run keeps its exit code, its `correct`, `attempted` and `failed` fields
and the host provenance of its `detail:` line.  A run without a result line
is kept with its exit code and the end of its standard error, and its pair
is left out of the statistics.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

ALPHA = 0.05            # a sign-test p-value below this is a significant move
CLAIM_PAIRS = 10        # a gain is claimed over at least this many pairs,
CLAIM_SHARE = 0.9       # of which the change wins at least this share


def sign_test(wins, losses):
    """Exact two-sided sign-test p-value of wins against losses, ties left
    out: the chance of a split at least this uneven from fair coins."""
    n = wins + losses
    if not n:
        return 1.0
    tail = sum(math.comb(n, i) for i in range(min(wins, losses) + 1))
    return min(1.0, 2.0 * tail / 2 ** n)


def iqr(values):
    """Distance between the quartiles (0 for fewer than two values)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def summarize(pairs, better="lower"):
    """The comparison of one metric over pairs of (parent, change) values."""
    sign = 1.0 if better == "lower" else -1.0
    parent, change = [p for p, _ in pairs], [c for _, c in pairs]
    wins = sum(sign * (p - c) > 0 for p, c in pairs)
    losses = sum(sign * (c - p) > 0 for p, c in pairs)
    med_p, med_c = statistics.median(parent), statistics.median(change)
    spread = iqr(parent)
    return {
        "better": better, "pairs": len(pairs),
        "parent_median": med_p, "change_median": med_c,
        "parent_iqr": spread, "change_iqr": iqr(change),
        "relative_change": (med_c - med_p) / med_p if med_p else None,
        "change_wins": wins, "parent_wins": losses, "ties": len(pairs) - wins - losses,
        "sign_test_p": sign_test(wins, losses),
        "significant": sign_test(wins, losses) < ALPHA,
        "gain_claimed": len(pairs) >= CLAIM_PAIRS
        and wins >= math.ceil(CLAIM_SHARE * len(pairs)) and sign * (med_p - med_c) > spread,
    }


def run_bench(root, workload, seed, seconds):
    """One run of bench/run.py in the tree at root: its exit code, result
    line and the provenance of its detail line."""
    proc = subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    record = {"exit": proc.returncode}
    detail = next((line for line in lines if line.startswith("detail: ")), None)
    if detail is not None:
        record["provenance"] = json.loads(detail[len("detail: "):]).get("provenance")
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        record["stderr_tail"] = proc.stderr[-2000:]
        return record
    record.update(correct=result.get("correct"), attempted=result.get("attempted"),
                  failed=result.get("failed"),
                  metrics={k: v["value"] for k, v in result.get("metrics", {}).items()})
    return record


def directions(root):
    """metric -> "lower" or "higher" from root/BENCHMARK.json, if present."""
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
    except (OSError, ValueError):
        return {}
    return {m["name"]: m.get("better", "lower") for m in spec.get("end_to_end", [])}


def compare(parent, change, workloads, pairs, seconds, seed=1, log=sys.stderr):
    """Run the pairs and return the report as a dict."""
    better = directions(change)
    report = {"pairs": pairs, "seconds": seconds, "first_seed": seed, "workloads": {}}
    for workload in workloads:
        runs = []
        for k in range(pairs):
            sides = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            pair = {}
            for side in sides:
                root = parent if side == "parent" else change
                pair[side] = dict(run_bench(root, workload, seed + k, seconds),
                                  side=side, pair=k, seed=seed + k, first=sides[0] == side)
                print(f"{workload} pair {k} {side}: exit {pair[side]['exit']}, "
                      f"{pair[side].get('metrics', {}).get('wall_s')}", file=log)
            runs += [pair["parent"], pair["change"]]
        complete = [(runs[2 * k], runs[2 * k + 1]) for k in range(pairs)
                    if "metrics" in runs[2 * k] and "metrics" in runs[2 * k + 1]]
        names = sorted({m for p, c in complete for m in p["metrics"] if m in c["metrics"]})
        report["workloads"][workload] = {
            "all_correct": all(r.get("correct") is True for r in runs),
            "metrics": {m: summarize([(p["metrics"][m], c["metrics"][m]) for p, c in complete],
                                     better.get(m, "lower")) for m in names},
            "runs": runs,
        }
    return report


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("parent", help="root of the parent checkout")
    p.add_argument("change", help="root of the changed checkout")
    p.add_argument("--workload", action="append", required=True,
                   help="a workload of bench/run.py; repeat for several")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=12.0)
    p.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    p.add_argument("--out", required=True, help="JSON file for the report")
    args = p.parse_args(argv)
    report = compare(args.parent, args.change, args.workload, args.pairs, args.seconds,
                     seed=args.seed)
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for workload, got in report["workloads"].items():
        for name, m in got["metrics"].items():
            print(f"{workload} {name}: {m['parent_median']:.6g} -> {m['change_median']:.6g} "
                  f"(parent IQR {m['parent_iqr']:.3g}; change wins {m['change_wins']}"
                  f"/{m['pairs']}, p = {m['sign_test_p']:.3g}"
                  f"{'; gain' if m['gain_claimed'] else ''})")
        if not got["all_correct"]:
            print(f"{workload}: a run was not correct", file=sys.stderr)
    return 0 if all(w["all_correct"] for w in report["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())

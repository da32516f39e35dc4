"""A/B benchmark of two source trees: alternating pairs of `bench/run.py` runs.

Usage:

    python tools/abbench.py PARENT CHANGE [--workload W ...] [--probe P ...]
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

A scale probe (--probe, one of PROBES) is one `wha` command on a built-in
input too large for a bench workload's loop, such as the Pauli tower at
depth 3.  The change's tree writes the input record once (re-expressed in
a seeded Haar-random basis for the probes of HAAR_SEEDS, with
`bench/workloads.py`'s basis change), and pair k runs
the command once in each tree, in the same alternating order, in a fresh
process with one BLAS thread, optionally under an address-space limit
(RLIMIT_AS).  Each run records its exit code, its wall time, its peak
resident set size (ru_maxrss from os.wait4), the SHA-256 of its standard
output, the total time of its calls of `_linalg.pivoted_columns`, the
total time of its calls of the nonzero-list kernel (`_contract.contract`
and `_contract.difference`), the total time of its dense slices
(`_contract._dense_group` and `_contract._dense_table`), and the time
after its start at which it first calls the crossed product's `build` at
each level, keyed by that level's dimension.  The report gives the same
comparison of wall time, peak resident set size, pivoted_columns time,
list-kernel time and dense-slice time as for the workloads, and whether
every run printed the same bytes.
"""

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time

ALPHA = 0.05            # a sign-test p-value below this is a significant move
CLAIM_PAIRS = 10        # a gain is claimed over at least this many pairs,
CLAIM_SHARE = 0.9       # of which the change wins at least this share

# name: (`wha example` arguments of the input record, the command with
# "{input}" for the record's path, address-space limit in GiB or None)
PROBES = {
    "pauli-depth3": (["action", "--name", "m2-pauli"],
                     ["tower", "--seed", "{input}", "--depth", "3"], None),
    "pauli-depth4": (["action", "--name", "m2-pauli"],
                     ["tower", "--seed", "{input}", "--depth", "4"], 4),
    "dual-s3-depth2": (["action", "--name", "dual-s3"],
                       ["tower", "--seed", "{input}", "--depth", "2"], None),
    "crossed-dual-s3": (["action", "--name", "dual-s3"], ["crossed", "{input}"], None),
    "pauli-haar-depth2": (["action", "--name", "m2-pauli"],
                          ["tower", "--seed", "{input}", "--depth", "2"], None),
}
# probe: seed of the Haar-random basis its input record is re-expressed in
HAAR_SEEDS = {"pauli-haar-depth2": 0}
PROBE_METRICS = ("wall_s", "maxrss_mb", "pivoted_columns_s", "list_kernel_s",
                 "dense_slices_s")
THREADS = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}

# the child of a probe: `wha` with pivoted_columns, the list kernel and the
# dense slices timed and the first call of the crossed product's build at each level
# marked; the marks are the last line of its standard error
PROBE_MAIN = """
import json, sys, time
start = time.perf_counter()
from weakhopf import _contract, _linalg, cli, crossed
marks = {"pivoted_columns_s": 0.0, "list_kernel_s": 0.0, "dense_slices_s": 0.0,
         "build_at_s": {}}
def timed(inner, mark):
    def call(*args, **kwargs):
        t = time.perf_counter()
        try:
            return inner(*args, **kwargs)
        finally:
            marks[mark] += time.perf_counter() - t
    return call
def build(chain, tables, _inner=crossed.build):
    marks["build_at_s"].setdefault(str(tables["proj"].shape[0]), time.perf_counter() - start)
    return _inner(chain, tables)
_linalg.pivoted_columns = timed(_linalg.pivoted_columns, "pivoted_columns_s")
_contract.contract = timed(_contract.contract, "list_kernel_s")
_contract.difference = timed(_contract.difference, "list_kernel_s")
_contract._dense_group = timed(_contract._dense_group, "dense_slices_s")
_contract._dense_table = timed(_contract._dense_table, "dense_slices_s")
crossed.build = build
try:
    code = cli.main(sys.argv[1:])
finally:
    print("probe: " + json.dumps(marks), file=sys.stderr)
sys.exit(code)
"""


# the child that re-expresses a module record (argv: natural record, output
# path, seed) in a Haar-random basis, run in a tree with that tree's bench/
REBASE_MAIN = """
import json, sys
import numpy as np
sys.path.insert(0, "bench")
import workloads
from weakhopf import serialize
natural, out, seed = sys.argv[1:]
with open(natural) as fh:
    MA = serialize.module_algebra_from_record(json.load(fh))
rng = np.random.default_rng(int(seed))
workloads.write_record(out, workloads.change_module(
    workloads.module_tables(MA), workloads.haar_unitary(rng, MA.hopf.dim),
    workloads.haar_unitary(rng, MA.target.dim)))
"""


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


def probe_env(root):
    return dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(root), "src"), **THREADS)


def write_probe_inputs(root, work, probes):
    """{probe: path of its input record}, each record written once by the
    `wha example` of the tree at root, and re-expressed by REBASE_MAIN in
    that tree for a probe of HAAR_SEEDS."""
    paths = {}
    for name in probes:
        example = PROBES[name][0]
        stem = os.path.join(work, "-".join(example[1:]))
        path = stem + ".json"
        if not os.path.exists(path):
            subprocess.run([sys.executable, "-m", "weakhopf.cli", "--out", path, "example",
                            *example], env=probe_env(root), check=True)
        if name in HAAR_SEEDS:
            natural, path = path, f"{stem}-haar{HAAR_SEEDS[name]}.json"
            if not os.path.exists(path):
                subprocess.run([sys.executable, "-c", REBASE_MAIN, natural, path,
                                str(HAAR_SEEDS[name])], cwd=root, env=probe_env(root),
                               check=True)
        paths[name] = path
    return paths


def run_probe(root, name, path):
    """One run of probe name on the input record at path, in the tree at
    root: exit code, wall time, ru_maxrss, the hash of its output and its
    marks (see PROBE_MAIN)."""
    _, argv, cap_gib = PROBES[name]
    argv = [path if x == "{input}" else x for x in argv]

    def limit():
        if cap_gib is not None:
            resource.setrlimit(resource.RLIMIT_AS, (cap_gib << 30, cap_gib << 30))

    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile("w+") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", PROBE_MAIN, *argv], cwd=root,
                                env=probe_env(root), stdout=out, stderr=err,
                                preexec_fn=limit)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        stdout, stderr = out.read(), err.read().splitlines()
    record = {"exit": code, "wall_s": wall, "maxrss_mb": usage.ru_maxrss / 1024.0,
              "stdout_sha256": hashlib.sha256(stdout).hexdigest()}
    if stderr and stderr[-1].startswith("probe: "):
        record.update(json.loads(stderr.pop()[len("probe: "):]))
    if code:
        record["stderr_tail"] = "\n".join(stderr)[-2000:]
    return record


def paired_runs(parent, change, pairs, label, run, log):
    """The runs run(root, k) of pairs k = 0 .. pairs - 1, as [parent,
    change] of each pair, each with its side, pair and whether it ran
    first: the parent runs first in even pairs and the change in odd ones."""
    runs = []
    for k in range(pairs):
        sides = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        pair = {}
        for side in sides:
            pair[side] = got = dict(run(parent if side == "parent" else change, k),
                                    side=side, pair=k, first=sides[0] == side)
            wall = got.get("wall_s", got.get("metrics", {}).get("wall_s"))
            print(f"{label} pair {k} {side}: exit {got['exit']}, {wall}", file=log)
        runs += [pair["parent"], pair["change"]]
    return runs


def compare_probes(parent, change, probes, pairs, log=sys.stderr):
    """Run the probes' pairs and return their part of the report."""
    report = {}
    with tempfile.TemporaryDirectory() as work:
        paths = write_probe_inputs(change, work, probes)
        for name in probes:
            runs = paired_runs(parent, change, pairs, name,
                               lambda root, k: run_probe(root, name, paths[name]), log)
            metrics = {m: summarize([(runs[2 * k][m], runs[2 * k + 1][m]) for k in range(pairs)])
                       for m in PROBE_METRICS if all(m in r for r in runs)}
            report[name] = {"argv": PROBES[name][1], "rlimit_as_gib": PROBES[name][2],
                            "same_stdout": len({r["stdout_sha256"] for r in runs}) == 1,
                            "metrics": metrics, "runs": runs}
    return report


def directions(root):
    """metric -> "lower" or "higher" from root/BENCHMARK.json, if present."""
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
    except (OSError, ValueError):
        return {}
    return {m["name"]: m.get("better", "lower") for m in spec.get("end_to_end", [])}


def compare(parent, change, workloads, pairs, seconds, seed=1, probes=(), log=sys.stderr):
    """Run the pairs and return the report as a dict."""
    better = directions(change)
    report = {"pairs": pairs, "seconds": seconds, "first_seed": seed, "workloads": {}}
    if probes:
        report["probes"] = compare_probes(parent, change, probes, pairs, log=log)
    for workload in workloads:
        runs = paired_runs(parent, change, pairs, workload,
                           lambda root, k: dict(run_bench(root, workload, seed + k, seconds),
                                                seed=seed + k), log)
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
    p.add_argument("--workload", action="append", default=[],
                   help="a workload of bench/run.py; repeat for several")
    p.add_argument("--probe", action="append", default=[], choices=sorted(PROBES),
                   help="a scale probe; repeat for several")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=12.0)
    p.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    p.add_argument("--out", required=True, help="JSON file for the report")
    args = p.parse_args(argv)
    if not (args.workload or args.probe):
        p.error("give at least one --workload or --probe")
    report = compare(args.parent, args.change, args.workload, args.pairs, args.seconds,
                     seed=args.seed, probes=args.probe)
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
    for name, got in report.get("probes", {}).items():
        for metric, m in got["metrics"].items():
            print(f"{name} {metric}: {m['parent_median']:.6g} -> {m['change_median']:.6g} "
                  f"(change wins {m['change_wins']}/{m['pairs']})")
        print(f"{name}: exits {sorted({r['exit'] for r in got['runs']})}, "
              f"same output {got['same_stdout']}")
    return 0 if all(w["all_correct"] for w in report["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of the weakhopf library and its `wha` command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --record-oracle [--workload NAME]

Run from the root of a checkout; the library is imported from ./src.  One
process is one run: a closed loop with a single client that repeats the
workload's fixed op list ("pass") until the next pass would overrun
--seconds (at least one pass).  The last line of standard output is a JSON
object with the end-to-end metrics (--trace 0) or the per-layer metrics
from one traced pass (--trace 1).  Every op's outcome is checked against
bench/oracle.json; --record-oracle rewrites that file from the natural-basis
inputs at the current commit.

BLAS and OpenMP are pinned to one thread before numpy is imported.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402

import numpy as np  # noqa: E402

import spans  # noqa: E402
from workloads import Workload, outcome  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
ORACLE = os.path.join(HERE, "oracle.json")

WORKLOADS = ("tower-pauli", "mid-s3", "family-small")
# set-up runs at least SETUP_MIN times and until SETUP_BUDGET_S is spent
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 9, 4.0
MODULES = list(spans.LAYERS) + ["weakhopf", "weakhopf.examples", "weakhopf.config"]
LAYER_ORDER = list(spans.LAYERS.values())


class HarnessError(Exception):
    """The benchmark itself cannot produce a valid result."""


# ---------------------------------------------------------------------------
# set-up

def import_library():
    """Import weakhopf afresh (dropping any earlier copy) and return its
    modules by name."""
    for name in [m for m in sys.modules if m == "weakhopf" or m.startswith("weakhopf.")]:
        del sys.modules[name]
    return {name: importlib.import_module(name) for name in MODULES}


def set_up(workload, seed, workdir, natural=False):
    """Import, build the instances and write the first pass's input files."""
    t0 = time.perf_counter()
    wh = import_library()
    wl = Workload(workload, wh, workdir, seed, natural=natural)
    ops = wl.prepare(0)
    return time.perf_counter() - t0, wh, wl, ops


# ---------------------------------------------------------------------------
# ops

def execute(op, wh, state, expected, rec=None):
    """Run one op; return (latency_s, problem or None).  Any exception the
    op raises, MemoryError included, is a failed op, never a crash."""
    op.clear()
    t0 = time.perf_counter()
    try:
        if rec is None:
            value = op.run(wh, state)
        else:
            value = rec.span(f"op:{op.name}", "op", op.run, wh, state)
    except Exception as exc:  # noqa: BLE001 - every library failure is counted
        return time.perf_counter() - t0, f"{op.name}: {type(exc).__name__}: {exc}"[:300]
    dt = time.perf_counter() - t0
    got = outcome(op, value, state["tol"])
    if got != expected:
        return dt, f"{op.name}: outcome {got} differs from oracle {expected}"[:600]
    return dt, None


# ---------------------------------------------------------------------------
# traced run

def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _n4_mb(size):
    return 16.0 * size / spans.MB


PROBES = {
    # 16 B x the largest four-index table each verifier builds, computed
    # from the dims passed in (not measured)
    "algebra.make_star_algebra": lambda r, a, k, res: r.keep_max(
        "algebra.n4_mb_computed", _n4_mb(np.shape(_arg(a, k, 0, "mult"))[0] ** 4)),
    "hopf.verify_weak_hopf": lambda r, a, k, res: r.keep_max(
        "hopf.n4_mb_computed", _n4_mb(_arg(a, k, 0, "W").dim ** 4)),
    "modules.make_module_algebra": lambda r, a, k, res: r.keep_max(
        "modules.n4_mb_computed", _n4_mb(max(
            res.hopf.dim ** 2 * res.target.dim ** 2,
            res.hopf.dim * res.target.dim ** 3))),
    "crossed.CrossedProduct.__init__": lambda r, a, k, res: (
        r.keep_max("crossed.pre_dim_max", a[0].base.target.dim * a[0].base.hopf.dim),
        r.bump("crossed.relation_rank_sum", int(a[0].relation_rank))),
    "tower.build_tower": lambda r, a, k, res: r.keep_max(
        "tower.top_dim", max(res.dims())),
}

COUNTERS = ["algebra.product_coords_calls", "linalg.svd_calls", "linalg.max_elems",
            "algebra.n4_mb_computed", "modules.n4_mb_computed", "hopf.n4_mb_computed",
            "crossed.pre_dim_max", "crossed.relation_rank_sum", "tower.top_dim"]


def traced_pass(wh, ops, oracle, state, trace_path):
    """Run one pass under the span recorder; return (failures, metrics)."""
    rec = spans.Recorder(PROBES)
    svd = np.linalg.svd

    def counted_svd(a, *args, **kwargs):
        rec.bump("linalg.svd_calls")
        rec.keep_max("linalg.max_elems", int(np.size(a)))
        return svd(a, *args, **kwargs)

    tracemalloc.start()
    rec.install(wh)
    rec.patch(np.linalg, "svd", counted_svd)
    try:
        failures = [p for p in (execute(op, wh, state, oracle.get(op.name), rec)[1]
                                for op in ops) if p]
    finally:
        rec.uninstall()
        tracemalloc.stop()

    totals = rec.layer_totals()
    metrics = {}
    for layer in LAYER_ORDER:
        calls, self_s, peak = totals.get(layer, (0, 0.0, 0.0))
        metrics[f"{layer}.calls"] = (calls, "count")
        metrics[f"{layer}.self_s"] = (self_s, "s")
        metrics[f"{layer}.peak_mb"] = (peak, "MB")
    counts = dict(rec.counters)
    counts["algebra.product_coords_calls"] = sum(
        sp.name == "algebra.StarAlgebra.product_coords" for sp in rec.spans)
    for key in COUNTERS:
        unit = "MB" if key.endswith("_mb_computed") else "count"
        metrics[key] = (counts.get(key, 0), unit)
    op_s = sum(sp.end - sp.start for sp in rec.spans if sp.layer == "op")
    layer_s = sum(totals[layer][1] for layer in totals if layer != "op")
    metrics["trace.overhead_s"] = (rec.overhead_s, "s")
    metrics["trace.op_s"] = (op_s, "s")
    metrics["trace.layer_cover"] = (layer_s / op_s if op_s else 0.0, "ratio")
    metrics["trace.spans"] = (len(rec.spans), "count")
    os.makedirs(os.path.dirname(trace_path), exist_ok=True)
    with open(trace_path, "w") as fh:
        json.dump({"spans": rec.dump(), "counters": counts}, fh)
    return failures, metrics


# ---------------------------------------------------------------------------
# reporting

def provenance():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas,
            "threads": {v: os.environ[v] for v in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}


def emit(attempted, failures, metrics, detail):
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    detail = dict(detail, attempted=attempted, failed=len(failures),
                  failed_ratio=len(failures) / attempted, failures=failures[:20],
                  provenance=provenance())
    print("detail: " + json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))


# ---------------------------------------------------------------------------
# entry points

def run(args, oracle):
    workdir = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        setups = []
        while len(setups) < SETUP_MIN or (
                sum(setups) < SETUP_BUDGET_S and len(setups) < SETUP_MAX):
            dt, wh, wl, ops = set_up(args.workload, args.seed, workdir)
            setups.append(dt)
        problems = wl.check_generated()
        if args.trace:
            problems += [f"recorder: {p}" for p in spans.selftest()]
        if problems:
            raise HarnessError("self-test failed: " + "; ".join(problems))
        state = {"tol": wh["weakhopf.config"].tolerance()}
        expect = oracle.get(args.workload)
        if expect is None:
            raise HarnessError(f"oracle has no entries for {args.workload}")
        missing = [op.name for op in ops if op.name not in expect]
        if missing:
            raise HarnessError(f"oracle has no entry for {missing}")

        if args.trace:
            trace_path = os.path.join(WORK, "traces", f"{args.workload}-seed{args.seed}.json")
            gc.collect()
            failures, metrics = traced_pass(wh, ops, expect, state, trace_path)
            emit(len(ops), failures, metrics,
                 {"workload": args.workload, "seed": args.seed,
                  "trace": os.path.relpath(trace_path, ROOT)})
            return

        latencies, passes, failures = [], [], []
        start = time.perf_counter()
        k = 0
        while True:
            if k:
                ops = wl.prepare(k)
                problems = wl.check_generated()
                if problems:
                    raise HarnessError("self-test failed: " + "; ".join(problems))
            gc.collect()
            total = 0.0
            for op in ops:
                dt, problem = execute(op, wh, state, expect[op.name])
                latencies.append(dt)
                total += dt
                if problem:
                    failures.append(problem)
            passes.append(total)
            k += 1
            elapsed = time.perf_counter() - start
            if elapsed * (k + 1) / k > args.seconds:
                break
        p50, p90 = np.percentile(latencies, [50, 90])
        metrics = {
            "wall_s": (statistics.median(passes), "s"),
            "op_p50_s": (float(p50), "s"),
            "op_p90_s": (float(p90), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "setup_s": (statistics.median(setups), "s"),
        }
        lat = np.asarray(latencies)
        emit(len(latencies), failures, metrics, {
            "workload": args.workload, "seed": args.seed, "passes": k,
            "setup_runs_s": setups, "op_samples": len(latencies),
            # a percentile is resolved when >= 10 samples lie beyond it
            "beyond_p50": int((lat > p50).sum()), "beyond_p90": int((lat > p90).sum()),
        })
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def record_oracle(names):
    """Rewrite the oracle entries of the named workloads from one
    natural-basis pass each."""
    oracle = {}
    if os.path.exists(ORACLE):
        with open(ORACLE) as fh:
            oracle = json.load(fh)
    for name in names:
        workdir = os.path.join(WORK, f"oracle-{name}-{os.getpid()}")
        os.makedirs(workdir)
        try:
            _, wh, _, ops = set_up(name, 0, workdir, natural=True)
            state = {"tol": wh["weakhopf.config"].tolerance()}
            entries = {}
            for op in ops:
                op.clear()
                t0 = time.perf_counter()
                value = op.run(wh, state)
                entries[op.name] = outcome(op, value, state["tol"])
                print(f"{name} {op.name} {time.perf_counter() - t0:.3f}s "
                      f"{entries[op.name]}", file=sys.stderr)
            oracle[name] = entries
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    with open(ORACLE, "w") as fh:
        json.dump(oracle, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-oracle", action="store_true")
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "weakhopf", "__init__.py")):
        print(f"no weakhopf sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.record_oracle:
        record_oracle([args.workload] if args.workload else WORKLOADS)
        return 0
    if args.workload is None:
        p.error("--workload is required")
    try:
        with open(ORACLE) as fh:
            oracle = json.load(fh)
        run(args, oracle)
    except (HarnessError, OSError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run the `wha` equivalence set against one source tree, or compare two runs.

The set is 165 commands:

* 48 weak Hopf records (the group-type algebras z2, z3, z4, z2xz2, s3,
  z2/0,1, z3/0,1,2, z4/0,2, z2xz2/0,1, s3/0,1,2, s3/all and the twisted
  Pauli instance, each with its dual and with a broken copy of both whose
  counit has 0.5 added to its first entry), each under `wha verify`,
  `wha report` and `wha integrals`;
* `wha crossed` and `wha tower --depth 2` on the actions m2-z2,
  m2-collapsed and dual-z3;
* `wha crossed` and `wha tower` on m2-pauli (depth 2), dual-s3 (depth 0)
  and dual-z2/0,1 (depth 2), each also in a seeded monomial unitary basis
  (a permutation times phases), and on m2-pauli with a conjugated action
  act'_u = P act_u P^-1, which fails the product law;
* `wha tower --depth 2` on the natural dual-s3, whose dim-216 top level is
  the largest depth-2 certificate of the set.

Usage:

    python tools/equivalence.py run --src PATH/src --work DIR --out RUN.json
    python tools/equivalence.py compare PARENT.json CHANGE.json

`run` writes the input records with the library under --src into --work
(in a child process, `inputs`, so that the runner stays small: a child's
ru_maxrss counts the pages it shares with the runner until it execs), then
runs every command there as `python -m weakhopf.cli` with that tree on
PYTHONPATH and one BLAS thread, and writes each command's exit code,
stdout, stderr, the floats of its JSON report and its peak resident set
size (ru_maxrss, from os.wait4) to --out.  `compare` prints every
difference that is not a float move (exit codes, stderr, report keys,
strings, integers, booleans), the largest float move, how many outputs of
each command are byte-identical, and the five largest moves of peak
memory, which are never counted as differences; it exits 1 when any
non-float difference is found.
"""

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile

THREADS = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                            "MKL_NUM_THREADS")}

# name -> (group, normal subgroup) for the group-type records
HOPF = {
    "z2": ("z2", None), "z3": ("z3", None), "z4": ("z4", None),
    "z2xz2": ("z2xz2", None), "s3": ("s3", None),
    "z2/0,1": ("z2", [0, 1]), "z3/0,1,2": ("z3", [0, 1, 2]),
    "z4/0,2": ("z4", [0, 2]), "z2xz2/0,1": ("z2xz2", [0, 1]),
    "s3/0,1,2": ("s3", [0, 1, 2]), "s3/all": ("s3", list(range(6))),
    "pauli": None,
}
MODULES = ["m2-z2", "m2-collapsed", "dual-z3"]
EXTRA_MODULES = {"m2-pauli": 2, "dual-s3": 0, "dual-z2/0,1": 2}
BROKEN_COUNIT_SHIFT = 0.5
SEED = 0


def _file(name):
    return name.replace("/", "_") + ".json"


def write_inputs(work):
    """Write every input record into work; returns the command list as
    (name, argv) pairs, argv without the interpreter."""
    import numpy as np

    from weakhopf import examples as ex
    from weakhopf import serialize as ser
    from weakhopf.algebra import StarAlgebra
    from weakhopf.hopf import WeakHopfAlgebra

    def dump(name, rec):
        with open(os.path.join(work, _file(name)), "w") as fh:
            json.dump(rec, fh)
        return _file(name)

    def rebased_algebra(A, P):
        Q = P.conj().T
        mult = np.einsum("ia,jb,ijk,ck->abc", P, P, A.mult, Q, optimize=True)
        star = np.einsum("ia,ik,ck->ac", P.conj(), A.star, Q, optimize=True)
        return StarAlgebra(mult, Q @ A.unit, star, labels=A.labels)

    def rebased_module(MA, rng):
        PW, PM = (monomial(rng, d) for d in (MA.hopf.dim, MA.target.dim))
        W, Q = MA.hopf, PW.conj().T
        cop = np.einsum("ia,iuv,bu,cv->abc", PW, W.cop, Q, Q, optimize=True)
        hopf = WeakHopfAlgebra(rebased_algebra(W.alg, PW), cop, PW.T @ W.counit,
                               Q @ W.antipode @ PW)
        act = np.einsum("ia,pb,ipq,cq->abc", PW, PM, MA.act, PM.conj().T, optimize=True)
        return hopf, rebased_algebra(MA.target, PM), act

    def monomial(rng, n):
        P = np.zeros((n, n), dtype=complex)
        P[rng.permutation(n), np.arange(n)] = np.exp(2j * np.pi * rng.random(n))
        return P

    def module_record(hopf, target, act):
        return {"hopf": ser.weak_hopf_record(hopf),
                "target": ser.star_algebra_record(target),
                "action": ser.array_to_pairs(act)}

    commands = []
    for name, spec in HOPF.items():
        if spec is None:
            W = ex.m2_pauli_action()[0]
        else:
            W = ex.group_weak_hopf(ex.named_group(spec[0]), spec[1])
        for label, V in ((name, W), (name + "^", W.dual())):
            rec = ser.weak_hopf_record(V)
            broken = json.loads(json.dumps(rec))
            broken["counit"][0][0] += BROKEN_COUNIT_SHIFT
            for tag, r in ((label, rec), (label + "~broken", broken)):
                path = dump(tag, r)
                commands += [(f"{cmd} {tag}", [cmd, path])
                             for cmd in ("verify", "report", "integrals")]
    for name in MODULES:
        path = dump(name, ser.module_algebra_record(ex.named_action(name)))
        commands += [(f"crossed {name}", ["crossed", path]),
                     (f"tower {name}", ["tower", "--seed", path, "--depth", "2"])]
    rng = np.random.default_rng(SEED)
    for name, depth in EXTRA_MODULES.items():
        MA = ex.named_action(name)
        for tag, rec in ((name, ser.module_algebra_record(MA)),
                         (name + "~monomial", module_record(*rebased_module(MA, rng)))):
            path = dump(tag, rec)
            commands += [(f"crossed {tag}", ["crossed", path]),
                         (f"tower {tag}", ["tower", "--seed", path, "--depth", str(depth)])]
    MA = ex.named_action("m2-pauli")
    m = MA.target.dim
    P = np.eye(m) + 0.05 * (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
    moved = P @ MA.act @ np.linalg.inv(P)
    path = dump("m2-pauli~conjugated", module_record(MA.hopf, MA.target, moved))
    commands += [("crossed m2-pauli~conjugated", ["crossed", path]),
                 ("tower m2-pauli~conjugated", ["tower", "--seed", path, "--depth", "2"])]
    commands.append(("tower dual-s3 --depth 2",
                     ["tower", "--seed", _file("dual-s3"), "--depth", "2"]))
    return commands


def floats(obj, path=""):
    """The float leaves of a parsed JSON report, by path."""
    if isinstance(obj, dict):
        return {k: v for key in sorted(obj) for k, v in floats(obj[key], f"{path}/{key}").items()}
    if isinstance(obj, list):
        return {k: v for i, x in enumerate(obj) for k, v in floats(x, f"{path}[{i}]").items()}
    return {path: obj} if isinstance(obj, float) else {}


def skeleton(obj):
    """The parsed report with every float replaced by one marker."""
    if isinstance(obj, dict):
        return {k: skeleton(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [skeleton(x) for x in obj]
    return "<float>" if isinstance(obj, float) else obj


def parse(stdout):
    try:
        return json.loads(stdout)
    except ValueError:
        return None


def execute(argv, cwd, env):
    """(exit code, stdout, stderr, peak resident set size in MB) of one
    command; the child is reaped by os.wait4, which reports its own
    ru_maxrss (kilobytes on Linux)."""
    with tempfile.TemporaryFile("w+") as out, tempfile.TemporaryFile("w+") as err:
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err, text=True)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return code, out.read(), err.read(), usage.ru_maxrss / 1024.0


def inputs(args):
    """Write the input records with the library under --src into --work and
    print the command list as JSON."""
    sys.path.insert(0, os.path.abspath(args.src))
    json.dump(write_inputs(os.path.abspath(args.work)), sys.stdout)
    return 0


def run(args):
    src = os.path.abspath(args.src)
    work = os.path.abspath(args.work)
    os.makedirs(work, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=src, **THREADS)
    env.pop("WHA_TOL", None)
    # a child writes the records, so that this process never loads numpy:
    # a command's ru_maxrss counts the pages it shares with this process
    # until it execs
    listing = subprocess.run([sys.executable, os.path.abspath(__file__), "inputs",
                              "--src", src, "--work", work],
                             env=env, stdout=subprocess.PIPE, text=True, check=True)
    commands = json.loads(listing.stdout)
    results = []
    for name, argv in commands:
        code, stdout, stderr, maxrss = execute([sys.executable, "-m", "weakhopf.cli", *argv],
                                               work, env)
        report = parse(stdout)
        results.append({"name": name, "argv": argv, "exit": code,
                        "stdout": stdout, "stderr": stderr, "maxrss_mb": maxrss,
                        "floats": floats(report) if report is not None else {}})
        print(f"{code} {name}", file=sys.stderr)
    with open(args.out, "w") as fh:
        json.dump({"src": src, "commands": results}, fh, indent=1)
    return 0


def move(a, b):
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    return abs(a - b) if math.isfinite(a) and math.isfinite(b) else math.inf


def compare(args):
    with open(args.parent) as fh:
        parent = {c["name"]: c for c in json.load(fh)["commands"]}
    with open(args.change) as fh:
        change = {c["name"]: c for c in json.load(fh)["commands"]}
    problems = [f"only in one run: {name}" for name in sorted(set(parent) ^ set(change))]
    worst, where = 0.0, None
    identical, total, memory = {}, {}, []
    for name in (n for n in parent if n in change):
        a, b = parent[name], change[name]
        kind = name.split()[0]
        if "maxrss_mb" in a and "maxrss_mb" in b:
            memory.append((b["maxrss_mb"] - a["maxrss_mb"], name, a["maxrss_mb"],
                           b["maxrss_mb"]))
        total[kind] = total.get(kind, 0) + 1
        identical[kind] = identical.get(kind, 0) + (a["stdout"] == b["stdout"])
        for field in ("exit", "stderr"):
            if a[field] != b[field]:
                problems.append(f"{name}: {field} {a[field]!r} -> {b[field]!r}")
        ra, rb = parse(a["stdout"]), parse(b["stdout"])
        if ra is None or rb is None:
            if a["stdout"] != b["stdout"]:
                problems.append(f"{name}: stdout differs and is not JSON")
            continue
        if skeleton(ra) != skeleton(rb):
            problems.append(f"{name}: report differs outside its floats")
            continue
        for path, x in a["floats"].items():
            m = move(x, b["floats"][path])
            if math.isinf(m):
                problems.append(f"{name}: {path} {x!r} -> {b['floats'][path]!r}")
            elif m > worst:
                worst, where = m, f"{name}: {path} {x!r} -> {b['floats'][path]!r}"
    for line in problems:
        print(line)
    print(f"commands compared: {sum(total.values())}; non-float differences: {len(problems)}")
    print(f"largest float move: {worst!r}" + (f" ({where})" if where else ""))
    for kind in sorted(total):
        print(f"byte-identical stdout, {kind}: {identical[kind]} of {total[kind]}")
    for delta, name, before, after in sorted(memory, key=lambda m: -abs(m[0]))[:5]:
        print(f"peak memory, {name}: {before:.1f} -> {after:.1f} MB ({delta:+.1f})")
    return 1 if problems else 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = p.add_subparsers(dest="mode", required=True)
    q = sub.add_parser("run", help="run the set against one source tree")
    q.add_argument("--src", required=True, help="the tree's src directory")
    q.add_argument("--work", required=True, help="directory for the input records")
    q.add_argument("--out", required=True, help="JSON file for the results")
    q.set_defaults(func=run)
    q = sub.add_parser("inputs", help="write the input records and list the commands")
    q.add_argument("--src", required=True, help="the tree's src directory")
    q.add_argument("--work", required=True, help="directory for the input records")
    q.set_defaults(func=inputs)
    q = sub.add_parser("compare", help="compare two runs")
    q.add_argument("parent")
    q.add_argument("change")
    q.set_defaults(func=compare)
    args = p.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

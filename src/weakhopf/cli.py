"""Command-line front end: ingest JSON records, run verification
pipelines, emit machine-readable reports.

Exit codes: 0 = all checks pass, 1 = mathematical failure, 2 = malformed
input, 3 = out of memory.  WHA_TOL overrides the default tolerance; --tol
overrides both.
"""

import argparse
import functools
import gc
import json
import sys

import numpy as np

from . import _linalg as la
from . import examples as ex
from . import serialize as ser
from ._checks import outside
from .config import DEFAULT_DIM_BUDGET, SLACK_COMPOSITE, tolerance
from .errors import FormatError, WeakHopfError
from .hopf import AXIOM_NAMES, WeakHopfAlgebra, is_pure, verify_weak_hopf
from .integrals import LeftIntegral, classify, haar, left_integral_space, \
    right_integral_space


def _load_json(path, parse=json.loads):
    """parse of the UTF-8 text of the file at path; FormatError if the
    file cannot be read or decoded, or is not JSON."""
    try:
        with open(path, encoding="utf-8") as fh:
            return parse(fh.read())
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc


def _load_record(path, reader):
    """(reader(record, check=False), the content hash of the record) for
    the JSON record at path, read in one pass by `serialize.read_record`.
    The record is read into arrays here, so that what was parsed is freed
    when this returns, before any check runs on the tables read from it."""
    rec, digest = _load_json(path, ser.read_record)
    return reader(rec, check=False), digest


def _read_algebra(rec, check):
    """A weak Hopf algebra record, or else a bare star-algebra record."""
    if "coproduct" in rec:
        return ser.weak_hopf_from_record(rec, check=check)
    return ser.star_algebra_from_record(rec, check=check)


def _emit(report, args):
    if args.format == "text":
        lines = _text_lines(report)
        out = "\n".join(lines) + "\n"
    else:
        out = ser.dump_canonical(report) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(out)
    else:
        sys.stdout.write(out)


def _text_lines(obj, prefix=""):
    lines = []
    if isinstance(obj, dict):
        for k in sorted(obj):
            v = obj[k]
            if isinstance(v, (dict, list)):
                lines.append(f"{prefix}{k}:")
                lines.extend(_text_lines(v, prefix + "  "))
            else:
                lines.append(f"{prefix}{k} = {v}")
    elif isinstance(obj, list):
        for v in obj:
            if isinstance(v, (dict, list)):
                lines.extend(_text_lines(v, prefix + "  "))
            else:
                lines.append(f"{prefix}- {v}")
    else:
        lines.append(f"{prefix}{obj}")
    return lines


def _coords_json(vec):
    return ser.array_to_pairs(np.asarray(vec))


def cmd_verify(args):
    read, digest = _load_record(args.input, _read_algebra)
    tol = tolerance(args.tol)
    if isinstance(read, WeakHopfAlgebra):
        rep = verify_weak_hopf(read, tol=tol)
        report = {
            "kind": "weak_hopf",
            "tolerance": tol,
            "input_hash": digest,
            "residuals": {k: float(v) for k, v in rep.residuals.items()},
            "antipode_invertible": rep.antipode_invertible,
            "relaxed_system_passed": rep.relaxed_passed(tol=tol),
            "passed": rep.passed(tol=tol),
            "failures": rep.failures(tol=tol),
        }
        _emit(report, args)
        return 0 if report["passed"] else 1
    # bare star algebra
    try:
        ser.checked(read, tol=tol)
    except WeakHopfError as exc:
        _emit({"kind": "star_algebra", "tolerance": tol, "input_hash": digest,
               "passed": False, "error": str(exc)}, args)
        return 1
    _emit({"kind": "star_algebra", "tolerance": tol, "input_hash": digest, "passed": True},
          args)
    return 0


def cmd_example(args):
    tol = tolerance(args.tol)
    if args.what == "group":
        G = ex.named_group(args.group)
        H = [int(x) for x in args.subgroup.split(",")] if args.subgroup else None
        W = ex.group_weak_hopf(G, H, tol=tol)
        _emit(ser.weak_hopf_record(W), args)
    elif args.what == "twisted":
        if args.name != "pauli":
            raise FormatError("the twisted family ships with --name pauli")
        W, _ = ex.m2_pauli_action(tol=tol)
        _emit(ser.weak_hopf_record(W), args)
    elif args.what == "action":
        MA = ex.named_action(args.name, tol=tol)
        _emit(ser.module_algebra_record(MA), args)
    else:
        raise FormatError(f"unknown example kind {args.what!r}")
    return 0


def cmd_integrals(args):
    W, digest = _load_record(args.input, ser.weak_hopf_from_record)
    tol = tolerance(args.tol)
    W = ser.checked(W, tol=tol)
    hd = haar(W, tol=tol)
    report = {
        "tolerance": tol,
        "input_hash": digest,
        "left_space_dim": left_integral_space(W, tol=tol).dim,
        "right_space_dim": right_integral_space(W, tol=tol).dim,
        "haar": _coords_json(hd.h.coords),
        "dual_haar": _coords_json(hd.hhat.coords),
        "g_l": _coords_json(hd.g_l.coords),
        "g_r": _coords_json(hd.g_r.coords),
        "g": _coords_json(hd.g.coords),
        "modular_residuals": {k: float(v)
                              for k, v in hd.modular_report(tol=tol).items()},
    }
    if args.integral:
        coords = ser.pairs_to_array(_load_json(args.integral), (W.dim,))
        l = LeftIntegral(W, coords, tol=tol)
        report["classification"] = classify(l, tol=tol)
    _emit(report, args)
    return 1 if outside(list(report["modular_residuals"].values()), tol).any() else 0


def cmd_crossed(args):
    from .crossed import commutant_suite, crossed_product, tlj_elements
    from .integrals import random_positive_integral

    MA, digest = _load_record(args.input, ser.module_algebra_from_record)
    tol = tolerance(args.tol)
    MA = ser.checked(MA, tol=tol)
    X = crossed_product(MA, tol=tol)
    report = {
        "tolerance": tol,
        "input_hash": digest,
        "pre_dim": MA.target.dim * MA.hopf.dim,
        "dim": X.dim,
        "relation_rank": X.relation_rank,
        "m_embedding_kernel_dim": MA.target.dim - la.rank(X.embed_m, tol=tol),
        "a_embedding_kernel_dim": MA.image_data(tol=tol).ideal.dim,
    }
    suite = commutant_suite(X, tol=tol)
    report["commutants"] = {k: (int(v) if isinstance(v, (int, np.integer))
                                else bool(v)) for k, v in suite.items()}
    rng = np.random.default_rng(0)
    l = random_positive_integral(MA.hopf, rng, tol=tol)
    _, _, tlj = tlj_elements(X, l, tol=tol)
    report["tlj_residuals"] = {k: float(v) for k, v in tlj.items()}
    _emit(report, args)
    bad = outside(list(report["tlj_residuals"].values()), SLACK_COMPOSITE * tol)
    return 1 if bad.any() else 0


def cmd_tower(args):
    from .tower import build_tower, commutant_table, depth2_check

    MA, digest = _load_record(args.seed, ser.module_algebra_from_record)
    tol = tolerance(args.tol)
    MA = ser.checked(MA, tol=tol)
    T = build_tower(MA, args.depth, tol=tol, budget=args.budget)
    table = commutant_table(T, tol=tol)
    report = {
        "tolerance": tol,
        "input_hash": digest,
        "depth": args.depth,
        "dims": table["dims"],
        "n_commutant_dims": table["n_commutant_dims"],
        "center_dims": table["center_dims"],
        "joint_center_dims": table["joint_center_dims"],
        "regular": bool(table["regular"]),
        "depth2": bool(depth2_check(T, tol=tol)),
    }
    if "regular_table" in table:
        report["regular_table"] = {k: bool(v)
                                   for k, v in table["regular_table"].items()}
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(ser.dump_canonical(report) + "\n")
    _emit(report, args)
    return 0 if report["depth2"] else 1


def cmd_report(args):
    W, digest = _load_record(args.input, ser.weak_hopf_from_record)
    tol = tolerance(args.tol)
    rep = verify_weak_hopf(W, tol=tol)
    report = {
        "tolerance": tol,
        "input_hash": digest,
        "axioms": {k: float(rep.residuals[k]) for k in AXIOM_NAMES},
        "derived": {k: float(v) for k, v in rep.residuals.items()
                    if k not in AXIOM_NAMES},
        "passed": rep.passed(tol=tol),
    }
    if report["passed"]:
        hd = haar(W, tol=tol)
        report["boundary_dims"] = {
            "A_L": W.boundary("L", tol=tol).dim,
            "A_R": W.boundary("R", tol=tol).dim,
        }
        report["pure"] = is_pure(W, tol=tol)
        report["modular_residuals"] = {
            k: float(v) for k, v in hd.modular_report(tol=tol).items()}
        dual_rep = verify_weak_hopf(W.dual(), tol=tol)
        report["dual_passed"] = dual_rep.passed(tol=tol)
        modular_ok = not outside(list(report["modular_residuals"].values()), tol).any()
        report["passed"] = report["passed"] and report["dual_passed"] and modular_ok
    _emit(report, args)
    return 0 if report["passed"] else 1


@functools.cache
def build_parser():
    """The argument parser, built once per process; each subcommand runs
    the cmd_<name> of this module that main looks up at call time."""
    p = argparse.ArgumentParser(prog="wha",
                                description="weak Hopf algebra computations")
    p.add_argument("--tol", type=float, default=None,
                   help="numerical tolerance (default 1e-9 or WHA_TOL)")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.add_argument("--out", default=None, help="write the report here")
    p.add_argument("--budget", type=int, default=DEFAULT_DIM_BUDGET,
                   help="refuse towers beyond this many dimensions")
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("verify", help="verify a (weak Hopf) algebra record")
    q.add_argument("input")

    q = sub.add_parser("example", help="emit a built-in instance")
    q.add_argument("what", choices=("group", "twisted", "action"))
    q.add_argument("--group", default="z2", help="z2|z3|z4|z2xz2|s3")
    q.add_argument("--subgroup", default=None,
                   help="comma-separated element indices of the normal subgroup")
    q.add_argument("--name", default="pauli",
                   help="twisted: pauli; action: m2-z2|m2-pauli|m2-collapsed|"
                        "dual-<group>[/<subgroup>]")

    q = sub.add_parser("integrals", help="integral spaces, Haar and modular data")
    q.add_argument("input")
    q.add_argument("--integral", default=None,
                   help="JSON coordinate file of a left integral to classify")

    q = sub.add_parser("crossed", help="crossed product of a module record")
    q.add_argument("input")

    q = sub.add_parser("tower", help="iterated crossed products")
    q.add_argument("--seed", required=True)
    q.add_argument("--depth", type=int, default=2)
    q.add_argument("--report", default=None)

    q = sub.add_parser("report", help="full identity suite for an algebra")
    q.add_argument("input")
    return p


def main(argv=None):
    # the collector is paused for the whole command: its passes over the
    # parsed records and the tables find nothing to free there.  The few
    # cycles a command leaves (an algebra's links to its dual and its
    # memos) are all in the youngest generation, and one pass over it at
    # the end frees them, if the caller had the collector on.
    enabled = gc.isenabled()
    gc.disable()
    try:
        args = build_parser().parse_args(argv)
        return globals()[f"cmd_{args.command}"](args)
    except FormatError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except WeakHopfError as exc:
        print(f"mathematical failure: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"out of memory: {str(exc) or 'an allocation failed'}", file=sys.stderr)
        return 3
    finally:
        if enabled:
            gc.enable()
            gc.collect(0)


if __name__ == "__main__":
    sys.exit(main())

"""JSON records for algebras, weak Hopf algebras, module algebras, groups
and cocycles.  Complex scalars are [re, im] pairs; no string-encoded
numerics."""

import hashlib
import json

import numpy as np

from .algebra import StarAlgebra, make_star_algebra
from .errors import FormatError
from .examples import Cocycle, FiniteGroup
from .hopf import WeakHopfAlgebra, make_weak_hopf
from .modules import make_module_algebra

__all__ = [
    "complex_to_pair",
    "pairs_to_array",
    "array_to_pairs",
    "star_algebra_record",
    "star_algebra_from_record",
    "weak_hopf_record",
    "weak_hopf_from_record",
    "module_algebra_record",
    "module_algebra_from_record",
    "group_record",
    "group_from_record",
    "cocycle_record",
    "cocycle_from_record",
    "content_hash",
    "dump_canonical",
]


def complex_to_pair(z):
    z = complex(z)
    return [z.real, z.imag]


def array_to_pairs(a):
    a = np.asarray(a, dtype=complex)
    if a.ndim == 0:
        return complex_to_pair(a[()])
    return [array_to_pairs(x) for x in a]


def pairs_to_array(data, shape=None):
    arr = np.asarray(data, dtype=float)
    if arr.shape[-1] != 2:
        raise FormatError("complex entries must be [re, im] pairs")
    if not np.isfinite(arr).all():
        raise FormatError("complex entries must be finite")
    out = arr[..., 0] + 1j * arr[..., 1]
    if shape is not None and out.shape != shape:
        raise FormatError(f"expected shape {shape}, got {out.shape}")
    return out


def star_algebra_record(A):
    return {
        "dim": A.dim,
        "labels": list(A.labels),
        "mult": array_to_pairs(A.mult),
        "unit": array_to_pairs(A.unit),
        "star": array_to_pairs(A.star),
    }


def star_algebra_from_record(rec, tol=None, check=True):
    try:
        n = int(rec["dim"])
        mult = pairs_to_array(rec["mult"], (n, n, n))
        unit = pairs_to_array(rec["unit"], (n,))
        star = pairs_to_array(rec["star"], (n, n))
        labels = rec.get("labels")
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"bad star-algebra record: {exc}") from exc
    if check:
        return make_star_algebra(mult, unit, star, labels=labels, tol=tol)
    return StarAlgebra(mult, unit, star, labels=labels)


def weak_hopf_record(W):
    rec = star_algebra_record(W.alg)
    n = W.dim
    rec["coproduct"] = array_to_pairs(W.cop.reshape(n, n * n))
    rec["counit"] = array_to_pairs(W.counit)
    rec["antipode"] = array_to_pairs(W.antipode)
    return rec


def weak_hopf_from_record(rec, tol=None, check=True):
    alg = star_algebra_from_record(rec, tol=tol, check=check)
    n = alg.dim
    try:
        cop = pairs_to_array(rec["coproduct"], (n, n * n)).reshape(n, n, n)
        counit = pairs_to_array(rec["counit"], (n,))
        antipode = pairs_to_array(rec["antipode"], (n, n))
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"bad weak-Hopf record: {exc}") from exc
    if check:
        return make_weak_hopf(alg, cop, counit, antipode, tol=tol)
    return WeakHopfAlgebra(alg, cop, counit, antipode)


def module_algebra_record(MA):
    return {
        "hopf": weak_hopf_record(MA.hopf),
        "target": star_algebra_record(MA.target),
        "action": array_to_pairs(MA.act),
    }


def module_algebra_from_record(rec, tol=None, check=True):
    try:
        W = weak_hopf_from_record(rec["hopf"], tol=tol, check=check)
        M = star_algebra_from_record(rec["target"], tol=tol, check=check)
        act = pairs_to_array(rec["action"], (W.dim, M.dim, M.dim))
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"bad module-algebra record: {exc}") from exc
    if check:
        return make_module_algebra(W, M, act, tol=tol)
    from .modules import ModuleAlgebra
    return ModuleAlgebra(W, M, act)


def group_record(G):
    return {"order": G.order, "mult": [list(row) for row in G.table],
            "names": list(G.names)}


def group_from_record(rec):
    try:
        return FiniteGroup(rec["mult"], names=rec.get("names"))
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"bad group record: {exc}") from exc


def cocycle_record(c):
    return {"z": array_to_pairs(c.z), "c": array_to_pairs(c.c),
            "subgroup": list(c.H)}


def cocycle_from_record(rec, G):
    try:
        H = [int(h) for h in rec["subgroup"]]
        z = pairs_to_array(rec["z"])
        c = pairs_to_array(rec["c"])
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"bad cocycle record: {exc}") from exc
    return Cocycle(G, H, z, c)


def dump_canonical(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def content_hash(obj):
    return hashlib.sha256(dump_canonical(obj).encode()).hexdigest()

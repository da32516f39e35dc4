"""JSON records for algebras, weak Hopf algebras and module algebras.
Complex scalars are [re, im] pairs; no string-encoded numerics."""

import hashlib
import itertools
import json

import numpy as np

from .algebra import StarAlgebra, make_star_algebra
from .errors import FormatError
from .hopf import WeakHopfAlgebra, make_weak_hopf
from .modules import ModuleAlgebra, make_module_algebra

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
    "checked",
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
    """The complex array of a nested list of [re, im] pairs.  Raises
    FormatError unless every leaf is a number (an integer or a float; not a
    string, a boolean or None), every list of one level has the same
    length, and every entry is a finite pair of the given shape.  The list
    is read one level at a time, the lengths of each level's lists and then
    the types of the leaves taken as sets: a number, boolean or None among
    the lists of a level has no length, and a string there is flattened
    into strings, so neither passes."""
    level, dims = [data], []
    while level and type(level[0]) is list:
        try:
            lengths = set(map(len, level))
        except TypeError as exc:
            raise FormatError(f"complex entries must be numeric [re, im] pairs: {exc}") from exc
        if len(lengths) > 1:
            raise FormatError(f"complex entries must be numeric [re, im] pairs: "
                              f"a ragged list of lengths {sorted(lengths)}")
        dims.append(lengths.pop())
        level = list(itertools.chain.from_iterable(level))
    if not set(map(type, level)) <= {int, float}:
        raise FormatError("complex entries must be numeric [re, im] pairs")
    try:
        arr = np.fromiter(level, float, len(level)).reshape(dims)
    except OverflowError as exc:
        raise FormatError(f"complex entries must be numeric [re, im] pairs: {exc}") from exc
    if arr.ndim == 0 or arr.shape[-1] != 2:
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
    A = StarAlgebra(mult, unit, star, labels=labels)
    return checked(A, tol=tol) if check else A


def weak_hopf_record(W):
    rec = star_algebra_record(W.alg)
    n = W.dim
    rec["coproduct"] = array_to_pairs(W.cop.reshape(n, n * n))
    rec["counit"] = array_to_pairs(W.counit)
    rec["antipode"] = array_to_pairs(W.antipode)
    return rec


def weak_hopf_from_record(rec, tol=None, check=True):
    alg = star_algebra_from_record(rec, tol=tol, check=False)
    n = alg.dim
    try:
        cop = pairs_to_array(rec["coproduct"], (n, n * n)).reshape(n, n, n)
        counit = pairs_to_array(rec["counit"], (n,))
        antipode = pairs_to_array(rec["antipode"], (n, n))
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"bad weak-Hopf record: {exc}") from exc
    W = WeakHopfAlgebra(alg, cop, counit, antipode)
    return checked(W, tol=tol) if check else W


def module_algebra_record(MA):
    return {
        "hopf": weak_hopf_record(MA.hopf),
        "target": star_algebra_record(MA.target),
        "action": array_to_pairs(MA.act),
    }


def module_algebra_from_record(rec, tol=None, check=True):
    try:
        W = weak_hopf_from_record(rec["hopf"], tol=tol, check=False)
        M = star_algebra_from_record(rec["target"], tol=tol, check=False)
        act = pairs_to_array(rec["action"], (W.dim, M.dim, M.dim))
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"bad module-algebra record: {exc}") from exc
    MA = ModuleAlgebra(W, M, act)
    return checked(MA, tol=tol) if check else MA


def checked(obj, tol=None):
    """A star algebra, weak Hopf algebra or module algebra that a record
    reader gave with check=False, built again from its tables through the
    checks that check=True runs, in the same order: the algebra, then the
    weak Hopf axioms, then the target and the action.  A reader with
    check=True reads the whole record before the first check."""
    if isinstance(obj, ModuleAlgebra):
        return make_module_algebra(checked(obj.hopf, tol=tol), checked(obj.target, tol=tol),
                                   obj.act, tol=tol)
    if isinstance(obj, WeakHopfAlgebra):
        return make_weak_hopf(checked(obj.alg, tol=tol), obj.cop, obj.counit, obj.antipode,
                              tol=tol)
    return make_star_algebra(obj.mult, obj.unit, obj.star, labels=obj.labels, tol=tol)


def dump_canonical(obj):
    # records and reports are trees, so the reference-cycle check has
    # nothing to find
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), check_circular=False)


def content_hash(obj):
    return hashlib.sha256(dump_canonical(obj).encode()).hexdigest()

"""JSON records for algebras, weak Hopf algebras and module algebras.
Complex scalars are [re, im] pairs; no string-encoded numerics.

The canonical form of a record is `dump_canonical`: sorted keys, no
whitespace, floats as `repr`.  `read_record` reads a record in one pass and
keeps the text of each table that is already in that form, so that
neither the tables nor the hash go through Python lists of floats."""

import hashlib
import itertools
import json
import math
from json.decoder import WHITESPACE, scanstring
from json.encoder import encode_basestring_ascii

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
    "read_record",
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
    """The complex array of a nested list of [re, im] pairs, or of the float
    array `read_record` gives for one.  Raises FormatError unless every leaf
    is a number (an integer or a float; not a string, a boolean or None),
    every list of one level has the same length, and every entry is a
    finite pair of the given shape.  The list is read one level at a time,
    the lengths of each level's lists and then the types of the leaves
    taken as sets: a number, boolean or None among the lists of a level has
    no length, and a string there is flattened into strings, so neither
    passes.  A float array has passed the first two checks already."""
    if isinstance(data, np.ndarray) and data.dtype == float:
        return _complex_pairs(data, shape)
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
    return _complex_pairs(arr, shape)


def _complex_pairs(arr, shape):
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
    """The SHA-256 of `dump_canonical(obj)`, a report's `input_hash`.  For
    every text that `json` accepts, `read_record(text)` gives the digest
    `content_hash(json.loads(text))` without encoding the record again."""
    return hashlib.sha256(dump_canonical(obj).encode()).hexdigest()


_DECODER = json.JSONDecoder()
# the keys of the tables that the record readers read with `pairs_to_array`,
# each of at most four levels: (n, n, n, 2)
_TABLE_KEYS = frozenset({"mult", "unit", "star", "coproduct", "counit", "antipode", "action"})
_TABLE_DEPTH = 4
_SPLIT_ARRAY = str.maketrans("[],", "   ")
# a table's text is read in chunks of whole rows of about this many
# characters, so that its tokens are never all alive at once
_CHUNK = 1 << 16
# a table with at most half as many distinct tokens as tokens among the
# first _SAMPLE converts and checks each distinct token once
_SAMPLE = 256


def read_record(text):
    """(record, digest) of the JSON text of a record.  The record is
    `json.loads(text)`, except that each table (a value at one of
    `_TABLE_KEYS`) in canonical numeric form (`_canonical_array`) is the
    float array of its nested lists, which `pairs_to_array` reads as it
    reads the lists.  For every text that `json` accepts, the digest equals
    `content_hash(json.loads(text))`; other text raises what `json.loads`
    raises.

    An object written without whitespace between its tokens is walked
    with the json module's scanner.  The digest is taken over the object
    re-assembled in sorted key order, with each canonical table as its own
    text and every other value decoded and dumped by `dump_canonical`.  Any
    other text goes through `json.loads` and `content_hash` whole."""
    try:
        rec, pieces, end = _read_object(text, WHITESPACE.match(text).end())
        if WHITESPACE.match(text, end).end() != len(text):
            raise ValueError("trailing data")
    except (ValueError, IndexError, RecursionError):
        rec = json.loads(text)
        return rec, content_hash(rec)
    digest = hashlib.sha256()
    for piece in pieces:
        digest.update((text[piece] if type(piece) is slice else piece).encode())
    return rec, digest.hexdigest()


def _expect(text, pos, chars):
    if text[pos] not in chars:
        raise ValueError(f"expected one of {chars!r} at {pos}")
    return pos + 1


def _read_object(text, pos):
    """(object, its canonical text as a list of strings and of slices of
    text, end) of the object at text[pos], written without whitespace
    between its tokens."""
    pos = _expect(text, pos, "{")
    if text[pos] == "}":
        return {}, ["{}"], pos + 1
    obj, canon, end = {}, {}, False
    while not end:
        key, pos = scanstring(text, _expect(text, pos, '"'))
        obj[key], canon[key], pos = _read_value(text, _expect(text, pos, ":"), key)
        end = text[pos] == "}"
        pos = _expect(text, pos, ",}")
    pieces = ["{"]
    for key in sorted(canon):
        pieces += [encode_basestring_ascii(key), ":", *canon[key], ","]
    pieces[-1] = "}"
    return obj, pieces, pos


def _read_value(text, pos, key):
    """(value, its canonical pieces, end) of the value at text[pos] of the
    given key."""
    if text[pos] == "{":
        return _read_object(text, pos)
    if text[pos] == "[" and key in _TABLE_KEYS:
        arr, end = _canonical_array(text, pos)
        if arr is not None:
            return arr, [slice(pos, end)], end
    value, end = _DECODER.raw_decode(text, pos)
    return value, [dump_canonical(value)], end


def _canonical_array(text, pos):
    """(the float array, end) of the array at text[pos] if it is in
    canonical numeric form, else (None, None).  That form is what
    `dump_canonical` writes for a regular nested list of finite floats of
    at most _TABLE_DEPTH levels: the compact rendering of a regular nested
    array (`_template`) with a token in each entry, where each token is
    `repr(float(token))`.  The array ends at its first run of depth closing
    brackets, and is read in chunks of whole rows, cut before its
    first-level separators."""
    depth = 0
    while depth <= _TABLE_DEPTH and text[pos + depth] == "[":
        depth += 1
    if depth > _TABLE_DEPTH:
        return None, None
    sep = "]" * (depth - 1) + "," + "[" * (depth - 1)
    end = text.find("]" * depth, pos) + depth
    inner = _inner_shape(text, pos, depth)
    if end < depth or inner is None:
        return None, None
    row, size = _template(inner), math.prod(inner)
    values, parts, start = None, [], pos + 1
    while start < end - 1:
        cut = text.find(sep, start + _CHUNK, end) if depth > 1 else -1
        stop = end - 1 if cut < 0 else cut + depth - 1
        chunk = text[start:stop]
        tokens = chunk.translate(_SPLIT_ARRAY).split()
        rows, left = divmod(len(tokens), size)
        # repr gives "inf" and "nan" for the floats that no JSON number is
        if left or not rows or "n" in chunk or ",".join([row] * rows) % tuple(tokens) != chunk:
            return None, None
        if values is None:
            sample = tokens[:_SAMPLE]
            values = {} if 2 * len(set(sample)) <= len(sample) else False
        part = _floats(tokens, values)
        if part is None:
            return None, None
        parts.append(part)
        start = stop + 1
    if not parts:
        return None, None
    return np.concatenate(parts).reshape(-1, *inner), end


def _floats(tokens, values):
    """The floats of tokens as an array, or None unless each token is
    `repr(float(token))`.  Each distinct token is converted and checked
    once, and kept in values, when values is a dict; otherwise the tokens
    are converted in order."""
    try:
        if values is False:
            floats = list(map(float, tokens))
            return np.array(floats) if list(map(repr, floats)) == tokens else None
        for t in set(tokens).difference(values):
            values[t] = float(t)
            if repr(values[t]) != t:
                return None
    except ValueError:
        return None
    return np.fromiter(map(values.__getitem__, tokens), float, len(tokens))


def _inner_shape(text, pos, depth):
    """The shape of one first-level entry of the regular nested array at
    text[pos], read off the first list of each deeper level k: that list
    starts at pos + k, ends with the first run of depth - k closing
    brackets, and separates its entries by depth - k - 1 closing brackets,
    a comma and as many opening ones."""
    shape = []
    for k in range(depth - 1, 0, -1):
        inner = depth - k - 1
        end = text.find("]" * (inner + 1), pos) + inner + 1
        if end <= pos + k:
            return None
        shape.insert(0, text.count("]" * inner + "," + "[" * inner, pos + k, end) + 1)
    return tuple(shape)


def _template(shape):
    """The compact rendering of a regular nested array of the given shape,
    with "%s" in each entry."""
    entry = "%s"
    for n in reversed(shape):
        entry = "[" + ",".join([entry] * n) + "]"
    return entry

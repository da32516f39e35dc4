"""serialize.read_record against the json module: for every text, the same
digest and bit-identical tables as json.loads and content_hash, or the
same error; and the one-pass read of a large record without either."""

import functools
import json
import random
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weakhopf import cli
from weakhopf import examples as ex
from weakhopf import serialize as ser
from weakhopf.algebra import StarAlgebra
from weakhopf.hopf import WeakHopfAlgebra
from weakhopf.modules import ModuleAlgebra

SPECIAL_TOKENS = ["-0.0", "1e-05", "1e+16", "5e-324", "1.7976931348623157e+308", "1",
                  "0.10000000000000001", "NaN", "nan", "inf", "-inf", "Infinity"]
# a token inside an array: after an opening bracket or a comma, before a
# closing bracket or a comma
ARRAY_TOKEN = re.compile(r"(?<=[\[,])[^\[\],\"{}:]+(?=[\],])")
MUTATION_CHARS = '[],0123456789.e+- "{}:'


def _rebased_algebra(A, P):
    Q = P.conj().T
    return StarAlgebra(np.einsum("ia,jb,ijk,ck->abc", P, P, A.mult, Q, optimize=True),
                       Q @ A.unit, np.einsum("ia,ik,ck->ac", P.conj(), A.star, Q, optimize=True))


def _rebased(W, P):
    """W on the basis f_a = sum_i P[i, a] e_i, for a unitary P."""
    Q = P.conj().T
    return WeakHopfAlgebra(_rebased_algebra(W.alg, P),
                           np.einsum("ia,iuv,bu,cv->abc", P, W.cop, Q, Q, optimize=True),
                           P.T @ W.counit, Q @ W.antipode @ P)


def _basis(kind, n, rng):
    if kind == "natural":
        return np.eye(n, dtype=complex)
    if kind == "monomial":
        P = np.zeros((n, n), dtype=complex)
        P[rng.permutation(n), np.arange(n)] = np.exp(2j * np.pi * rng.random(n))
        return P
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


@functools.cache
def _record(name, kind):
    """The record of a small weak Hopf algebra or module algebra in the
    natural, a monomial or a Haar-random basis."""
    rng = np.random.default_rng(7)
    if name == "m2-z2":
        MA = ex.named_action(name)
        P, U = _basis(kind, MA.hopf.dim, rng), _basis(kind, MA.target.dim, rng)
        act = np.einsum("ub,pa,upq,cq->bac", P, U, MA.act, U.conj().T, optimize=True)
        return ser.module_algebra_record(
            ModuleAlgebra(_rebased(MA.hopf, P), _rebased_algebra(MA.target, U), act))
    group, sub = {"z2": ("z2", None), "z2/0,1": ("z2", [0, 1])}[name]
    W = ex.group_weak_hopf(ex.named_group(group), sub)
    return ser.weak_hopf_record(_rebased(W, _basis(kind, W.dim, rng)))


def _shuffled(obj, rnd):
    if not isinstance(obj, dict):
        return obj
    keys = list(obj)
    rnd.shuffle(keys)
    return {k: _shuffled(obj[k], rnd) for k in keys}


@st.composite
def record_texts(draw):
    """(record text, name): a record in some basis, with or without labels,
    in shuffled key order, written compactly or pretty-printed, and then
    perhaps with one array token replaced by a special token or with one
    character replaced, inserted or deleted."""
    name = draw(st.sampled_from(["z2", "z2/0,1", "m2-z2"]))
    rec = json.loads(json.dumps(_record(name, draw(st.sampled_from(
        ["natural", "monomial", "haar"])))))
    labels = draw(st.sampled_from([None, "plain", "tricky"]))
    if labels:
        alg = rec["target"] if name == "m2-z2" else rec
        alg["labels"] = [f"e{i}" if labels == "plain" else f"é]]{i},[" for i in
                         range(alg["dim"])]
    rec = _shuffled(rec, random.Random(draw(st.integers(0, 2 ** 16))))
    layout = draw(st.sampled_from(["compact", "canonical", "spaced", "indented"]))
    text = {"compact": lambda: json.dumps(rec, separators=(",", ":")),
            "canonical": lambda: ser.dump_canonical(rec),
            "spaced": lambda: json.dumps(rec),
            "indented": lambda: json.dumps(rec, indent=1) + "\n"}[layout]()
    edit = draw(st.sampled_from(["none", "token", "char"]))
    if edit == "token":
        spans = [m.span() for m in ARRAY_TOKEN.finditer(text)]
        i, j = spans[draw(st.integers(0, len(spans) - 1))]
        text = text[:i] + draw(st.sampled_from(SPECIAL_TOKENS)) + text[j:]
    elif edit == "char":
        i = draw(st.integers(0, len(text) - 1))
        c = draw(st.sampled_from(MUTATION_CHARS))
        text = draw(st.sampled_from([text[:i] + c + text[i + 1:], text[:i] + c + text[i:],
                                     text[:i] + text[i + 1:]]))
    return text, name


def _json_route(text):
    rec = json.loads(text)
    return rec, ser.content_hash(rec)


def _same_values(got, ref):
    """got, as read_record gives it, holds ref's values, each float array
    bit for bit those of json's nested lists of floats."""
    if isinstance(got, dict):
        assert isinstance(ref, dict) and list(sorted(got)) == list(sorted(ref))
        for key in got:
            _same_values(got[key], ref[key])
    elif isinstance(got, np.ndarray):
        assert got.dtype == float
        assert ser.dump_canonical(got.tolist()) == ser.dump_canonical(ref)
        ref = np.array(ref, dtype=float)
        assert ref.shape == got.shape and ref.tobytes() == got.tobytes()
    else:
        assert type(got) is type(ref) and ser.dump_canonical(got) == ser.dump_canonical(ref)


def _tables(rec, name):
    """What a command's reader takes from rec: the bytes of every table and
    the labels, or the error it raises."""
    try:
        if name == "m2-z2":
            MA = ser.module_algebra_from_record(rec, check=False)
            W, algebras, extra = MA.hopf, (MA.hopf.alg, MA.target), [MA.act]
        else:
            W = ser.weak_hopf_from_record(rec, check=False)
            algebras, extra = (W.alg,), []
    except Exception as exc:            # noqa: BLE001 - the error is the outcome
        return type(exc).__name__, str(exc)
    arrays = [W.cop, W.counit, W.antipode, *extra]
    for A in algebras:
        arrays += [A.mult, A.unit, A.star]
    return [(a.shape, a.tobytes()) for a in arrays], [A.labels for A in algebras]


@settings(max_examples=250, deadline=None)
@given(record_texts(), st.sampled_from([1, 40, 1 << 16]))
def test_read_record_agrees_with_json(case, chunk):
    text, name = case
    with mock.patch.object(ser, "_CHUNK", chunk):
        try:
            ref, digest = _json_route(text)
        except ValueError as exc:
            with pytest.raises(type(exc)) as got:
                ser.read_record(text)
            assert str(got.value) == str(exc)
            return
        rec, got = ser.read_record(text)
    assert got == digest
    _same_values(rec, ref)
    assert _tables(rec, name) == _tables(ref, name)


def test_special_tokens_keep_their_canonical_forms():
    # -0.0 keeps its sign, and the canonical exponent forms are read as
    # they are; 1 and 0.10000000000000001 are not canonical and go
    # through json, as NaN and Infinity do
    text = ser.dump_canonical({"mult": [[-0.0, 1e-05], [1e+16, 5e-324],
                                        [1.7976931348623157e+308, 0.5]]})
    rec, digest = ser.read_record(text)
    assert isinstance(rec["mult"], np.ndarray) and np.signbit(rec["mult"][0, 0])
    assert digest == ser.content_hash(json.loads(text))
    for token in ("1", "0.10000000000000001", "NaN", "Infinity"):
        other = text.replace("0.5", token)
        rec, digest = ser.read_record(other)
        assert isinstance(rec["mult"], list) and digest == ser.content_hash(json.loads(other))


@pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
def test_a_repr_that_is_no_json_number_is_refused_as_by_json(token):
    # repr(float(token)) == token, but json refuses the text
    text = ser.dump_canonical({"mult": [[0.5, 0.25]]}).replace("0.25", token)
    with pytest.raises(json.JSONDecodeError) as ref:
        json.loads(text)
    with pytest.raises(json.JSONDecodeError) as got:
        ser.read_record(text)
    assert str(got.value) == str(ref.value)


def test_only_tables_are_read_as_arrays():
    # a canonical numeric array at any other key is json's list, so that a
    # reader sees what it saw before
    text = ser.dump_canonical({"dim": [2.0], "hopf": [[1.0, 0.0]], "labels": [0.5, 1.5],
                               "target": {"unit": [[1.0, 0.0]]}})
    rec, digest = ser.read_record(text)
    assert rec == json.loads(text) | {"target": rec["target"]}
    assert isinstance(rec["target"]["unit"], np.ndarray)
    assert digest == ser.content_hash(json.loads(text))


@pytest.mark.parametrize("mutate", [
    lambda t: t.replace("]],[[", "]]2,[[", 1),          # a token after a closing bracket
    lambda t: t.replace("]]]],", "]]]]1,", 1),           # trailing data in a table
    lambda t: t.replace(",", ",,", 1),                    # an empty entry
    lambda t: t.replace("[[", "[ [", 1),                  # whitespace in a table
    lambda t: t.replace("0.0", "0.00", 1),                # a non-canonical token
    lambda t: t.replace("0.0", "-0", 1),                  # an integer
    lambda t: t.replace("0.0", "NaN", 1),                 # not finite
    lambda t: t.replace("]]],", "],", 1),                 # a ragged table
    lambda t: t + "x",                                    # trailing data
], ids=["token-after-bracket", "trailing-in-table", "empty-entry", "whitespace",
        "non-canonical", "integer", "nan", "ragged", "trailing"])
def test_a_malformed_record_exits_as_through_json(tmp_path, capsys, monkeypatch, cz2, mutate):
    path = tmp_path / "w.json"
    path.write_text(mutate(ser.dump_canonical(ser.weak_hopf_record(cz2))))
    outcomes = []
    for read in (ser.read_record, _json_route):
        monkeypatch.setattr(ser, "read_record", read)
        outcomes.append((cli.main(["verify", str(path)]), capsys.readouterr()))
    assert outcomes[0] == outcomes[1]


@pytest.fixture(scope="module")
def s3_all_records(tmp_path_factory):
    """The natural s3/all record as `wha example` writes it, and a monomial
    copy written with unsorted keys and no whitespace."""
    work = tmp_path_factory.mktemp("s3-all")
    natural, monomial = work / "natural.json", work / "monomial.json"
    assert cli.main(["--out", str(natural), "example", "group", "--group", "s3",
                     "--subgroup", "0,1,2,3,4,5"]) == 0
    W = ser.weak_hopf_from_record(json.loads(natural.read_text()), check=False)
    W = _rebased(W, _basis("monomial", W.dim, np.random.default_rng(3)))
    monomial.write_text(json.dumps(ser.weak_hopf_record(W), separators=(",", ":")))
    return {"natural": natural, "monomial": monomial}


@pytest.mark.parametrize("basis", ["natural", "monomial"])
def test_s3_all_is_read_in_one_pass(s3_all_records, monkeypatch, basis):
    # without json.loads or content_hash, at most half the traced peak of
    # reading it through them
    path = s3_all_records[basis]
    text = path.read_text()

    def json_route():
        rec, digest = _json_route(text)
        return ser.weak_hopf_from_record(rec, check=False), digest

    def traced(read):
        tracemalloc.start()
        try:
            got = read()
            return got, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    (W0, digest), peak0 = traced(json_route)
    calls = []
    for module, name in ((json, "loads"), (json, "load"), (ser, "content_hash")):
        monkeypatch.setattr(module, name, lambda *a, name=name: calls.append(name))
    (W, got), peak = traced(lambda: cli._load_record(str(path), ser.weak_hopf_from_record))
    assert calls == [] and got == digest
    assert all(a.tobytes() == b.tobytes() for a, b in
               [(W.alg.mult, W0.alg.mult), (W.cop, W0.cop), (W.antipode, W0.antipode)])
    assert peak <= peak0 / 2

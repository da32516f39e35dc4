import argparse
import gc
import json
import os
import subprocess
import sys
import weakref

import numpy as np
import pytest

import weakhopf
from weakhopf import examples as ex
from weakhopf import serialize as ser
from weakhopf import cli
from weakhopf.cli import main
from weakhopf.algebra import StarAlgebra
from weakhopf.errors import FormatError
from weakhopf.hopf import WeakHopfAlgebra
from weakhopf.modules import ModuleAlgebra


def run(args, capsys):
    rc = main(args)
    out = capsys.readouterr().out
    return rc, out


def test_star_algebra_round_trip(wz2z2):
    rec = ser.star_algebra_record(wz2z2.alg)
    A2 = ser.star_algebra_from_record(rec)
    assert np.abs(A2.mult - wz2z2.alg.mult).max() == 0.0
    assert A2.labels == wz2z2.alg.labels


def test_weak_hopf_round_trip(pauli):
    rec = ser.weak_hopf_record(pauli[0])
    W2 = ser.weak_hopf_from_record(rec)
    assert np.abs(W2.cop - pauli[0].cop).max() == 0.0
    assert np.abs(W2.antipode - pauli[0].antipode).max() == 0.0


def test_module_algebra_round_trip(m2_action):
    rec = ser.module_algebra_record(m2_action[1])
    MA2 = ser.module_algebra_from_record(rec)
    assert np.abs(MA2.act - m2_action[1].act).max() == 0.0


def test_byte_stable_reports(tmp_path, capsys):
    rc, out1 = run(["example", "group", "--group", "z2", "--subgroup", "0,1"],
                   capsys)
    assert rc == 0
    rc, out2 = run(["example", "group", "--group", "z2", "--subgroup", "0,1"],
                   capsys)
    assert out1 == out2
    path = tmp_path / "w.json"
    path.write_text(out1)
    rc, rep1 = run(["verify", str(path)], capsys)
    assert rc == 0
    rc, rep2 = run(["verify", str(path)], capsys)
    assert rep1 == rep2
    parsed = json.loads(rep1)
    assert parsed["passed"] and "input_hash" in parsed


def test_content_hash_of_a_built_in_record_is_pinned():
    # the input_hash of every report hashes these canonical bytes
    rec = json.loads(json.dumps(ser.module_algebra_record(ex.named_action("dual-s3"))))
    assert (ser.content_hash(rec)
            == "050c59d515182181ef1629b29658b806332594c062bebc7e9a6d1901d0000ee6")


def test_verify_round_trip_of_emitted_records(tmp_path, capsys):
    for args in (["example", "group", "--group", "s3", "--subgroup", "0,1,2"],
                 ["example", "twisted", "--name", "pauli"]):
        rc, out = run(args, capsys)
        assert rc == 0
        path = tmp_path / "x.json"
        path.write_text(out)
        rc, rep = run(["verify", str(path)], capsys)
        assert rc == 0
        assert json.loads(rep)["passed"]


def test_verify_broken_counit_names_axiom(tmp_path, capsys, cz2):
    rec = ser.weak_hopf_record(cz2)
    rec["counit"] = [[0.0, 0.0], [0.0, 0.0]]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(rec))
    rc, out = run(["verify", str(path)], capsys)
    assert rc == 1
    rep = json.loads(out)
    assert "IIa" in rep["failures"]


@pytest.mark.parametrize("field", ["counit", "mult"])
def test_non_finite_entry_exits_2(tmp_path, capsys, cz2, field):
    rec = ser.weak_hopf_record(cz2)
    entry = rec[field]
    while isinstance(entry[0], list):
        entry = entry[0]
    entry[0] = float("nan")
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(rec))
    rc, _ = run(["verify", str(path)], capsys)
    assert rc == 2
    with pytest.raises(FormatError, match="finite"):
        ser.pairs_to_array([[0.0, float("inf")]])


@pytest.mark.parametrize("leaves", ["strings", "booleans", "mixed"])
def test_non_numeric_table_exits_2(tmp_path, capsys, cz2, leaves):
    # [re, im] pairs of strings or of booleans, alone or among numbers, are
    # not numbers, even where numpy could cast them to floats
    rec = ser.weak_hopf_record(cz2)
    if leaves == "strings":
        rec["mult"] = np.asarray(rec["mult"]).astype(str).tolist()
    elif leaves == "booleans":
        rec["counit"] = [[bool(x) for x in pair] for pair in rec["counit"]]
    else:
        rec["counit"][0] = [bool(x) for x in rec["counit"][0]]
    path = tmp_path / "text.json"
    path.write_text(json.dumps(rec))
    rc, _ = run(["verify", str(path)], capsys)
    assert rc == 2
    with pytest.raises(FormatError, match="numeric"):
        ser.pairs_to_array([["1.5", "0"], [True, False]])
    with pytest.raises(FormatError, match="numeric"):
        ser.pairs_to_array([[True, False]])
    with pytest.raises(FormatError, match="numeric"):
        ser.pairs_to_array([[1.5, 0], [True, False]])


def test_malformed_json_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    rc, _ = run(["verify", str(path)], capsys)
    assert rc == 2
    path2 = tmp_path / "short.json"
    path2.write_text(json.dumps({"dim": 2, "mult": [[[0, 0]]]}))
    rc, _ = run(["verify", str(path2)], capsys)
    assert rc == 2


@pytest.mark.parametrize("command, entry", [
    ("verify", 5),                        # a scalar for a whole table
    ("integrals", 5),                     # a scalar for the integral
    ("integrals", [[1, 0], [1]]),         # a ragged list of pairs
])
def test_malformed_entries_exit_2(tmp_path, capsys, cz2, command, entry):
    rec = ser.weak_hopf_record(cz2)
    argv = [command, str(tmp_path / "w.json")]
    if command == "verify":
        rec["mult"] = entry
    else:
        (tmp_path / "l.json").write_text(json.dumps(entry))
        argv += ["--integral", str(tmp_path / "l.json")]
    (tmp_path / "w.json").write_text(json.dumps(rec))
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and "Traceback" not in err


def test_integrals_command(tmp_path, capsys, wz2z2):
    path = tmp_path / "w.json"
    path.write_text(json.dumps(ser.weak_hopf_record(wz2z2)))
    lpath = tmp_path / "l.json"
    _, basis, _ = ex.group_integrals(wz2z2)
    lpath.write_text(json.dumps(ser.array_to_pairs(basis[0].coords)))
    rc, out = run(["integrals", str(path), "--integral", str(lpath)], capsys)
    assert rc == 0
    rep = json.loads(out)
    assert rep["left_space_dim"] == 2
    assert rep["classification"]["normalized"]
    assert max(rep["modular_residuals"].values()) < 1e-9


def test_crossed_command(tmp_path, capsys, m2_action):
    path = tmp_path / "ma.json"
    path.write_text(json.dumps(ser.module_algebra_record(m2_action[1])))
    rc, out = run(["crossed", str(path)], capsys)
    assert rc == 0
    rep = json.loads(out)
    assert rep["dim"] == 8 and rep["relation_rank"] == 8
    assert rep["m_embedding_kernel_dim"] == 0
    assert max(rep["tlj_residuals"].values()) < 1e-8
    assert rep["commutants"]["regular"]


def test_tower_command(tmp_path, capsys, m2_action):
    path = tmp_path / "ma.json"
    path.write_text(json.dumps(ser.module_algebra_record(m2_action[1])))
    rpt = tmp_path / "report.json"
    rc, out = run(["tower", "--seed", str(path), "--depth", "2",
                   "--report", str(rpt)], capsys)
    assert rc == 0
    rep = json.loads(out)
    assert rep["dims"] == [2, 4, 8, 16]
    assert rep["depth2"] and rep["regular"]
    assert json.loads(rpt.read_text()) == rep


def test_report_command(tmp_path, capsys, wz2z2):
    path = tmp_path / "w.json"
    path.write_text(json.dumps(ser.weak_hopf_record(wz2z2)))
    rc, out = run(["report", str(path)], capsys)
    assert rc == 0
    rep = json.loads(out)
    assert rep["passed"] and rep["dual_passed"]
    assert rep["boundary_dims"] == {"A_L": 2, "A_R": 2}
    assert rep["pure"] is False


def test_text_format(tmp_path, capsys, cz2):
    path = tmp_path / "w.json"
    path.write_text(json.dumps(ser.weak_hopf_record(cz2)))
    rc, out = run(["--format", "text", "verify", str(path)], capsys)
    assert rc == 0
    assert "passed = True" in out


def test_tolerance_flag_and_env(tmp_path, capsys, cz2, monkeypatch):
    path = tmp_path / "w.json"
    path.write_text(json.dumps(ser.weak_hopf_record(cz2)))
    rc, out = run(["--tol", "1e-6", "verify", str(path)], capsys)
    assert json.loads(out)["tolerance"] == 1e-6
    monkeypatch.setenv("WHA_TOL", "1e-7")
    rc, out = run(["verify", str(path)], capsys)
    assert json.loads(out)["tolerance"] == 1e-7
    rc, out = run(["--tol", "1e-5", "verify", str(path)], capsys)
    assert json.loads(out)["tolerance"] == 1e-5


def _haar_rebased(W, rng):
    """W on the basis f_a = sum_i P[i, a] e_i for a Haar-random unitary P."""
    n = W.dim
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    P = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    Q, A = P.conj().T, W.alg
    alg = StarAlgebra(np.einsum("ia,jb,ijk,ck->abc", P, P, A.mult, Q, optimize=True),
                      Q @ A.unit, np.einsum("ia,ik,ck->ac", P.conj(), A.star, Q, optimize=True))
    return WeakHopfAlgebra(alg, np.einsum("ia,iuv,bu,cv->abc", P, W.cop, Q, Q, optimize=True),
                           P.T @ W.counit, Q @ W.antipode @ P)


@pytest.mark.parametrize("command", ["integrals", "report"])
def test_the_tol_flag_overrides_the_environment_in_every_check(command, tmp_path, capsys,
                                                               monkeypatch):
    # C[Z3] x S3 in a Haar-random basis: its modular elements invert with
    # residuals near 2e-15, which a tolerance of 1e-20 would refuse
    W = _haar_rebased(ex.group_weak_hopf(ex.named_group("s3"), [0, 1, 2]),
                      np.random.default_rng(1))
    path = tmp_path / "w.json"
    path.write_text(json.dumps(ser.weak_hopf_record(W)))
    rc, ref = run(["--tol", "1e-9", command, str(path)], capsys)
    assert rc == 0
    monkeypatch.setenv("WHA_TOL", "1e-20")
    assert run(["--tol", "1e-9", command, str(path)], capsys) == (0, ref)


def test_action_example_emission(capsys):
    rc, out = run(["example", "action", "--name", "m2-collapsed"], capsys)
    assert rc == 0
    rec = json.loads(out)
    MA = ser.module_algebra_from_record(rec)
    assert not MA.image_data().standard


@pytest.mark.parametrize("message", ["Unable to allocate 17.0 GiB", ""])
def test_out_of_memory_exits_3(tmp_path, capsys, monkeypatch, m2_action, message):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(ser.module_algebra_record(m2_action[1])))

    def exhausted(args):
        raise MemoryError(message) if message else MemoryError

    monkeypatch.setattr(cli, "cmd_tower", exhausted)
    assert main(["tower", "--seed", str(path), "--depth", "3"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"out of memory: {message or 'an allocation failed'}\n"


def test_parser_is_built_once_per_process(monkeypatch, capsys):
    built, add_subparsers = [], argparse.ArgumentParser.add_subparsers

    def spy(self, **kwargs):
        built.append(self.prog)
        return add_subparsers(self, **kwargs)

    cli.build_parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "add_subparsers", spy)
    try:
        outs = [run(["example", "group", "--group", "z2"], capsys) for _ in range(3)]
    finally:
        cli.build_parser.cache_clear()
    assert outs[0][0] == 0 and outs.count(outs[0]) == 3
    assert built == ["wha"]


@pytest.mark.parametrize("enabled", [True, False])
def test_records_are_parsed_with_the_collector_paused(tmp_path, capsys, monkeypatch, cz2,
                                                     enabled):
    # and the whole command runs with it paused; the caller's collector
    # state comes back, after a malformed file too, and a caller that had
    # it on gets one pass over the youngest generation at the end
    good, bad = tmp_path / "w.json", tmp_path / "bad.json"
    good.write_text(json.dumps(ser.weak_hopf_record(cz2)))
    bad.write_text("{not json")
    during, passes, load, verify = [], [], json.load, cli.verify_weak_hopf

    def spy(fh):
        during.append(gc.isenabled())
        return load(fh)

    def spy_verify(*args, **kwargs):
        during.append(gc.isenabled())
        return verify(*args, **kwargs)

    def on_pass(phase, info):
        if phase == "start":
            passes.append(info["generation"])

    monkeypatch.setattr(json, "load", spy)
    monkeypatch.setattr(cli, "verify_weak_hopf", spy_verify)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    gc.callbacks.append(on_pass)
    try:
        assert run(["verify", str(good)], capsys)[0] == 0
        assert gc.isenabled() is enabled
        assert run(["verify", str(bad)], capsys)[0] == 2
        assert gc.isenabled() is enabled
    finally:
        gc.callbacks.remove(on_pass)
        (gc.enable if was else gc.disable)()
    assert during == [False, False, False]
    assert passes == ([0, 0] if enabled else [])


@pytest.mark.parametrize("command", ["report", "crossed"])
def test_a_commands_algebras_are_freed_when_it_returns(tmp_path, capsys, monkeypatch, cz2,
                                                       command):
    # an algebra and its dual link to each other, and a crossed product
    # to its module algebra, so they are freed by the collector: the pass
    # at the end of the command frees them before main returns
    if command == "report":
        record, reader = ser.weak_hopf_record(cz2), "weak_hopf_from_record"
    else:
        record, reader = ser.module_algebra_record(ex.named_action("dual-z3")), \
            "module_algebra_from_record"
    path = tmp_path / "in.json"
    path.write_text(json.dumps(record))
    read, refs = getattr(ser, reader), []

    def spy(*args, **kwargs):
        got = read(*args, **kwargs)
        refs.append(weakref.ref(got))
        return got

    monkeypatch.setattr(ser, reader, spy)
    was = gc.isenabled()
    gc.enable()
    try:
        assert run([command, str(path)], capsys)[0] == 0
        alive = [r() is not None for r in refs]
    finally:
        (gc.enable if was else gc.disable)()
    assert alive == [False]


class _Record(dict):
    """A parsed record that a weak reference can watch."""


@pytest.mark.parametrize("command, record", [
    ("verify", "weak_hopf"), ("verify", "star_algebra"), ("report", "weak_hopf"),
    ("integrals", "weak_hopf"), ("crossed", "module"), ("tower", "module")])
def test_the_parsed_record_is_freed_before_the_checks(tmp_path, capsys, monkeypatch, cz2,
                                                      command, record):
    # each command hashes its record and reads it into arrays at load, so
    # the nested lists are gone when the first check runs
    rec = {"weak_hopf": lambda: ser.weak_hopf_record(cz2),
           "star_algebra": lambda: ser.star_algebra_record(cz2.alg),
           "module": lambda: ser.module_algebra_record(ex.named_action("m2-z2"))}[record]()
    path = tmp_path / "in.json"
    path.write_text(json.dumps(rec))
    parsed, alive, load = [], [], json.load

    def spy_load(fh):
        got = _Record(load(fh))
        parsed.append(weakref.ref(got))
        return got

    def watch(fn):
        def call(*args, **kwargs):
            alive.append(parsed[0]() is not None)
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(json, "load", spy_load)
    monkeypatch.setattr(ser, "checked", watch(ser.checked))
    monkeypatch.setattr(cli, "verify_weak_hopf", watch(cli.verify_weak_hopf))
    argv = [command, str(path)] if command != "tower" else \
        ["tower", "--seed", str(path), "--depth", "1"]
    rc, out = run(argv, capsys)
    assert rc == 0 and json.loads(out)["input_hash"] == ser.content_hash(rec)
    assert alive and not any(alive)


def _haar_module_record(MA, rng):
    """The record of MA with A and M each on a Haar-random unitary basis."""
    def unitary(n):
        q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        return q * (np.diagonal(r) / np.abs(np.diagonal(r)))

    def rebased(A, U):
        V = U.conj().T
        return StarAlgebra(np.einsum("ia,jb,ijk,ck->abc", U, U, A.mult, V, optimize=True),
                           V @ A.unit,
                           np.einsum("ia,ik,ck->ac", U.conj(), A.star, V, optimize=True))

    W, M = MA.hopf, MA.target
    P, U = unitary(W.dim), unitary(M.dim)
    Q = P.conj().T
    Wp = WeakHopfAlgebra(rebased(W.alg, P),
                         np.einsum("ia,iuv,bu,cv->abc", P, W.cop, Q, Q, optimize=True),
                         P.T @ W.counit, Q @ W.antipode @ P)
    act = np.einsum("ub,pa,upq,cq->bac", P, U, MA.act, U.conj().T, optimize=True)
    return ser.module_algebra_record(ModuleAlgebra(Wp, rebased(M, U), act))


@pytest.mark.parametrize("basis", ["natural", "haar"])
def test_crossed_and_tower_do_not_import_numpy_ma(tmp_path, basis):
    # np.unique without optional outputs imports numpy.ma (tens of ms per
    # process); a fresh process shows whether anything called it
    MA = ex.named_action("m2-z2")
    rec = (ser.module_algebra_record(MA) if basis == "natural"
           else _haar_module_record(MA, np.random.default_rng(7)))
    path = tmp_path / "m.json"
    path.write_text(json.dumps(rec))
    src = os.path.dirname(os.path.dirname(weakhopf.__file__))
    script = ("import sys\nfrom weakhopf.cli import main\n"
              "rc = main(sys.argv[1:])\nprint(rc, 'numpy.ma' in sys.modules)\n")
    for argv in (["crossed", str(path)], ["tower", "--seed", str(path), "--depth", "2"]):
        done = subprocess.run([sys.executable, "-c", script, "--out", os.devnull, *argv],
                              capture_output=True, text=True, check=True,
                              env=dict(os.environ, PYTHONPATH=src))
        assert done.stdout.split() == ["0", "False"], (argv, done.stderr)

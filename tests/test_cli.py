import json

import numpy as np
import pytest

from weakhopf import examples as ex
from weakhopf import serialize as ser
from weakhopf.cli import main
from weakhopf.errors import FormatError


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


def test_group_and_cocycle_round_trip(pauli):
    G = ex.klein_four()
    rec = ser.group_record(G)
    G2 = ser.group_from_record(rec)
    assert G2.table == G.table
    c = pauli[0].group_data["cocycle"]
    crec = ser.cocycle_record(c)
    c2 = ser.cocycle_from_record(crec, G)
    assert np.abs(c2.z - c.z).max() == 0.0


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


def test_malformed_json_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    rc, _ = run(["verify", str(path)], capsys)
    assert rc == 2
    path2 = tmp_path / "short.json"
    path2.write_text(json.dumps({"dim": 2, "mult": [[[0, 0]]]}))
    rc, _ = run(["verify", str(path2)], capsys)
    assert rc == 2


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


def test_action_example_emission(capsys):
    rc, out = run(["example", "action", "--name", "m2-collapsed"], capsys)
    assert rc == 0
    rec = json.loads(out)
    MA = ser.module_algebra_from_record(rec)
    assert not MA.image_data().standard

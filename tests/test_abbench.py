"""tools/abbench.py: the statistics of an A/B comparison, and a self-test
that compares one tree with itself."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("abbench", ROOT / "tools" / "abbench.py")
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)


def test_sign_test_is_exact_and_two_sided():
    assert ab.sign_test(10, 0) == ab.sign_test(0, 10) == 2 / 1024
    assert ab.sign_test(9, 1) == pytest.approx(2 * 11 / 1024)
    assert ab.sign_test(5, 5) == ab.sign_test(0, 0) == 1.0
    assert ab.sign_test(1, 0) == 1.0


def test_ties_count_for_neither_side_and_the_claim_needs_ten_pairs():
    pairs = [(1.0, 0.8)] * 9 + [(1.0, 1.0)]
    got = ab.summarize(pairs)
    assert (got["change_wins"], got["parent_wins"], got["ties"]) == (9, 0, 1)
    assert got["sign_test_p"] == 2 / 512 and got["significant"]
    assert got["gain_claimed"] and got["relative_change"] == pytest.approx(-0.2)
    assert not ab.summarize(pairs[:9])["gain_claimed"]          # nine pairs
    # a higher-is-better metric turns the wins around
    assert ab.summarize(pairs, better="higher")["parent_wins"] == 9
    # medians apart by less than the parent's spread claim no gain
    spread = [(1.0 + 0.1 * (k % 2), 0.99) for k in range(10)]
    assert ab.iqr([p for p, _ in spread]) == pytest.approx(0.1)
    assert not ab.summarize(spread)["gain_claimed"]


def test_one_tree_against_itself_shows_no_significant_move(tmp_path):
    out = tmp_path / "self.json"
    assert ab.main([str(ROOT), str(ROOT), "--workload", "tower-pauli", "--pairs", "2",
                    "--seconds", "1", "--out", str(out)]) == 0
    got = json.loads(out.read_text())["workloads"]["tower-pauli"]
    assert got["all_correct"] and len(got["runs"]) == 4
    assert [(r["side"], r["first"]) for r in got["runs"]] == [
        ("parent", True), ("change", False), ("parent", False), ("change", True)]
    assert all(r["failed"] == 0 and r["provenance"]["nproc"] for r in got["runs"])
    assert set(got["metrics"]) >= {"wall_s", "op_p50_s", "op_p90_s", "peak_rss_mb", "setup_s"}
    assert not any(m["significant"] or m["gain_claimed"] for m in got["metrics"].values())


def test_a_probe_records_each_run_of_one_command(tmp_path):
    # the cheapest probe: `wha crossed` on dual-s3, whose report builds
    # crossed products of dimensions 36 and 216
    out = tmp_path / "probe.json"
    assert ab.main([str(ROOT), str(ROOT), "--probe", "crossed-dual-s3", "--pairs", "2",
                    "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["workloads"] == {}
    got = report["probes"]["crossed-dual-s3"]
    assert got["same_stdout"] and got["rlimit_as_gib"] is None
    assert [(r["side"], r["first"]) for r in got["runs"]] == [
        ("parent", True), ("change", False), ("parent", False), ("change", True)]
    for r in got["runs"]:
        assert r["exit"] == 0 and r["wall_s"] > 0 and r["maxrss_mb"] > 0
        assert set(r["build_at_s"]) == {"36", "216"} and r["pivoted_columns_s"] > 0
        assert 0 < r["list_kernel_s"] < r["wall_s"]
        assert 0 <= r["dense_slices_s"] < r["wall_s"]
    assert set(got["metrics"]) == {"wall_s", "maxrss_mb", "pivoted_columns_s", "list_kernel_s",
                                   "dense_slices_s"}
    assert got["metrics"]["wall_s"]["pairs"] == 2


def test_a_run_needs_a_workload_or_a_probe(tmp_path):
    with pytest.raises(SystemExit):
        ab.main([str(ROOT), str(ROOT), "--out", str(tmp_path / "none.json")])

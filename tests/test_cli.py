import json
import subprocess
import sys

import pytest

import markovshift.cli
import markovshift.groups
from markovshift import VerificationError
from markovshift.cli import main

from _support import count_calls

FULL2 = "2\n1 1\n1 1\n"
FULL3 = "3\n1 1 1\n1 1 1\n1 1 1\n"
GOLDEN = "2\n1 1\n1 0\n"
PERMUTATION = "2\n0 1\n1 0\n"
SIGN_FN = "window 1\n1 1\n2 -1\n"


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "markovshift", *args],
        capture_output=True,
        text=True,
    )


@pytest.fixture
def corpus(tmp_path):
    paths = {}
    for name, text in [
        ("full2", FULL2),
        ("full3", FULL3),
        ("golden", GOLDEN),
        ("perm", PERMUTATION),
    ]:
        p = tmp_path / f"{name}.txt"
        p.write_text(text)
        paths[name] = str(p)
    fn = tmp_path / "fn.txt"
    fn.write_text(SIGN_FN)
    paths["fn"] = str(fn)
    return paths


class TestValidateCommand:
    def test_classifiable(self, corpus):
        out = run_cli("validate", corpus["full2"])
        assert out.returncode == 0
        assert "classifiable" in out.stdout

    def test_condition_I_failure(self, corpus):
        out = run_cli("validate", corpus["perm"])
        assert out.returncode == 1
        assert "condition_I" in out.stdout

    def test_zero_column(self, corpus, tmp_path):
        p = tmp_path / "zc.txt"
        p.write_text("2\n0 1\n0 1\n")
        out = run_cli("validate", str(p), "--json")
        assert out.returncode == 1
        report = json.loads(out.stdout)
        assert [i["code"] for i in report["issues"]] == ["zero_column"]

    def test_parse_error_exit_2(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("2\n1 1\n")
        out = run_cli("validate", str(p))
        assert out.returncode == 2
        assert "error" in out.stdout

    def test_matrix_file_not_utf8_exit_2(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_bytes(b"2\n1 1\n1 \xff\n")
        out = run_cli("invariant", str(p), "--json")
        assert out.returncode == 2
        assert out.stderr == ""
        report = json.loads(out.stdout)
        assert report["error"]["kind"] == "parse_error"
        assert str(p) in report["error"]["message"]


class TestInvariantCommand:
    def test_full_three_shift(self, corpus):
        out = run_cli("invariant", corpus["full3"], "--json")
        assert out.returncode == 0
        report = json.loads(out.stdout)
        assert report["invariant"]["group"] == "Z/2"
        assert report["invariant"]["point_torsion"] == [1]
        assert report["invariant"]["determinant"] == -2
        assert report["invariant"]["sign"] == -1
        assert report["k_theory"]["k1_rank"] == 0
        assert report["full_group_abelianization"] == "Z/2"
        assert report["inputs"]["matrix"]["rows"] == [[1, 1, 1]] * 3
        assert report["convention"] == {"bowen_franks_presentation": "transpose"}

    def test_one_smith_form(self, corpus, monkeypatch, capsys):
        calls = count_calls(monkeypatch, markovshift.groups, "smith_normal_form")
        assert main(["invariant", corpus["full3"], "--json"]) == 0
        assert len(calls) == 1
        assert json.loads(capsys.readouterr().out)["k_theory"]["k1_rank"] == 0

    def test_golden_mean(self, corpus):
        report = json.loads(run_cli("invariant", corpus["golden"], "--json").stdout)
        assert report["invariant"]["group"] == "0"
        assert report["invariant"]["determinant"] == -1

    def test_invalid_input(self, corpus):
        out = run_cli("invariant", corpus["perm"])
        assert out.returncode == 2


class TestEquivalenceCommands:
    def test_coe_equivalent_pair(self, corpus):
        out = run_cli("coe", corpus["full2"], corpus["golden"])
        assert out.returncode == 0
        assert "equivalent" in out.stdout

    def test_coe_distinguishes(self, corpus):
        out = run_cli("coe", corpus["full2"], corpus["full3"], "--json")
        assert out.returncode == 1
        report = json.loads(out.stdout)
        assert report["equivalent"] is False
        assert report["certificate"]["checks"]["groups_isomorphic"] is False

    def test_identical_files(self, corpus):
        assert run_cli("coe", corpus["full3"], corpus["full3"]).returncode == 0

    def test_flow(self, corpus):
        assert run_cli("flow", corpus["full2"], corpus["golden"]).returncode == 0
        assert run_cli("flow", corpus["full2"], corpus["full3"]).returncode == 1

    def test_mixed_point_decided_without_a_bound(self, corpus, tmp_path):
        # realize Z + Z/4 with a content-2 point; no flag bounds the decision
        target = tmp_path / "mixed.txt"
        out = run_cli(
            "realize",
            "--free-rank", "1",
            "--torsion", "4",
            "--point", "2,1",
            "--sign", "0",
            "-o", str(target),
        )
        assert out.returncode == 0
        decided = run_cli("coe", str(target), str(target))
        assert decided.returncode == 0
        removed = run_cli("coe", str(target), str(target), "--pointed-bound", "1")
        assert removed.returncode == 2
        assert "--pointed-bound" in removed.stderr


class TestRealizeCommand:
    def test_trivial_triple(self, corpus, tmp_path):
        target = tmp_path / "out.txt"
        out = run_cli("realize", "--sign", "-1", "-o", str(target), "--json")
        assert out.returncode == 0
        report = json.loads(out.stdout)
        assert report["verification"]["matched"] is True
        assert report["verification"]["invariant"]["determinant"] == -1
        coe = run_cli("coe", str(target), corpus["full2"])
        assert coe.returncode == 0

    def test_z3_zero_plus(self, tmp_path):
        target = tmp_path / "z3.txt"
        out = run_cli("realize", "--torsion", "3", "--sign", "1", "-o", str(target), "--json")
        assert out.returncode == 0
        report = json.loads(out.stdout)
        assert report["plan"]["base_matrix"] == [[2, 1], [1, 5]]
        check = run_cli("invariant", str(target), "--json")
        inv = json.loads(check.stdout)["invariant"]
        assert inv["group"] == "Z/3" and inv["sign"] == 1 and inv["point_torsion"] == [0]

    def test_z_plus_large_torsion_verifies(self):
        # |T| = 729: the pointed check of the realized matrix is exact
        out = run_cli(
            "realize",
            "--free-rank", "1",
            "--torsion", "3,3,3,3,3,3",
            "--point", "1,1,0,0,0,0,0",
            "--sign", "0",
            "--json",
        )
        assert out.returncode == 0
        report = json.loads(out.stdout)
        assert report["verification"]["matched"] is True
        assert report["verification"]["invariant"]["group"] == "Z + Z/3 + Z/3 + Z/3 + Z/3 + Z/3 + Z/3"

    def test_infinite_needs_sign_zero(self):
        out = run_cli("realize", "--free-rank", "1", "--sign", "1")
        assert out.returncode == 2

    def test_bad_torsion_chain(self):
        out = run_cli("realize", "--torsion", "2,3", "--sign", "1")
        assert out.returncode == 2
        assert "divisibility" in out.stdout

    def test_point_round_trips_from_invariant_output(self, corpus, tmp_path):
        inv = json.loads(run_cli("invariant", corpus["full3"], "--json").stdout)["invariant"]
        coords = inv["point_free"] + inv["point_torsion"]
        target = tmp_path / "again.txt"
        out = run_cli(
            "realize",
            "--free-rank", str(inv["free_rank"]),
            "--torsion", ",".join(str(m) for m in inv["torsion_factors"]),
            "--point", ",".join(str(c) for c in coords),
            "--sign", str(inv["sign"]),
            "-o", str(target),
        )
        assert out.returncode == 0
        assert run_cli("coe", str(target), corpus["full3"]).returncode == 0


class TestPositivityCommand:
    def test_negative_with_witness(self, corpus):
        out = run_cli("positivity", corpus["full2"], corpus["fn"], "--json")
        assert out.returncode == 1
        report = json.loads(out.stdout)
        assert report["positive"] is False
        assert report["witness"] == "2"

    def test_positive_constant(self, corpus, tmp_path):
        fn = tmp_path / "one.txt"
        fn.write_text("window 1\n1 1\n2 1\n")
        assert run_cli("positivity", corpus["full2"], str(fn)).returncode == 0

    def test_coboundary_is_positive(self, corpus, tmp_path):
        fn = tmp_path / "cob.txt"
        fn.write_text("window 2\n11 0\n12 1\n21 -1\n22 0\n")
        assert run_cli("positivity", corpus["full2"], str(fn)).returncode == 0

    def test_function_file_not_utf8_exit_2(self, corpus, tmp_path):
        fn = tmp_path / "fn_bad.txt"
        fn.write_bytes(b"window 1\n1 1\n2 \xff\n")
        out = run_cli("positivity", corpus["full2"], str(fn), "--json")
        assert out.returncode == 2
        assert out.stderr == ""
        report = json.loads(out.stdout)
        assert report["error"]["kind"] == "parse_error"
        assert str(fn) in report["error"]["message"]

    def test_domain_mismatch_exit_2(self, corpus, tmp_path):
        fn = tmp_path / "short.txt"
        fn.write_text("window 1\n1 1\n")
        assert run_cli("positivity", corpus["full2"], str(fn)).returncode == 2


class TestPeriodicCommand:
    def test_golden_mean(self, corpus):
        out = run_cli("periodic", corpus["golden"], "2", "--json")
        assert out.returncode == 0
        report = json.loads(out.stdout)
        assert report["periods"][0]["orbit_representatives"] == ["1"]
        assert report["periods"][0]["points_fixed_by_power"] == 1
        assert report["periods"][1]["orbit_representatives"] == ["12"]
        assert report["periods"][1]["points_fixed_by_power"] == 3
        assert all(p["crosscheck_ok"] for p in report["periods"])

    def test_full_two_shift_period_three(self, corpus):
        report = json.loads(run_cli("periodic", corpus["full2"], "3", "--json").stdout)
        last = report["periods"][2]
        assert last["points_fixed_by_power"] == 8
        assert last["orbits_with_period_dividing"] == 4
        assert last["orbit_representatives"] == ["112", "122"]

    def test_full_two_shift_period_one(self, corpus):
        report = json.loads(run_cli("periodic", corpus["full2"], "1", "--json").stdout)
        assert report["periods"][0]["orbit_representatives"] == ["1", "2"]


class TestErrorReports:
    def test_missing_file_exit_4(self, corpus, tmp_path):
        missing = str(tmp_path / "missing.txt")
        out = run_cli("coe", missing, corpus["full2"], "--json")
        assert out.returncode == 4
        assert out.stderr == ""
        report = json.loads(out.stdout)
        assert report["command"] == "coe"
        assert report["error"]["kind"] == "io_error"
        assert missing in report["error"]["message"]

    def test_missing_file_text_report(self, tmp_path):
        out = run_cli("invariant", str(tmp_path / "missing.txt"))
        assert out.returncode == 4
        assert out.stderr == ""
        assert out.stdout.startswith("error (io_error):")

    def test_verification_failure_exit_4(self, monkeypatch, capsys):
        def failing(*args, **kwargs):
            raise VerificationError("realized matrix has the wrong group or sign")

        monkeypatch.setattr(markovshift.cli, "realize", failing)
        assert main(["realize", "--torsion", "4", "--point", "1", "--sign", "-1", "--json"]) == 4
        report = json.loads(capsys.readouterr().out)
        assert report == {
            "command": "realize",
            "error": {"kind": "internal_error", "message": "realized matrix has the wrong group or sign"},
        }

    def test_unexpected_exception_exit_4(self, monkeypatch, capsys):
        def failing(*args, **kwargs):
            raise RuntimeError("unexpected state")

        monkeypatch.setattr(markovshift.cli, "realize", failing)
        assert main(["realize", "--torsion", "4", "--point", "1", "--sign", "-1", "--json"]) == 4
        captured = capsys.readouterr()
        assert json.loads(captured.out) == {
            "command": "realize",
            "error": {"kind": "internal_error", "message": "RuntimeError: unexpected state"},
        }
        assert captured.err.startswith("Traceback")

    def test_keyboard_interrupt_not_caught(self, monkeypatch):
        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(markovshift.cli, "realize", interrupted)
        with pytest.raises(KeyboardInterrupt):
            main(["realize", "--torsion", "4", "--point", "1", "--sign", "-1", "--json"])


class TestGlobalFlags:
    def test_timing_is_opt_in(self, corpus):
        plain = json.loads(run_cli("invariant", corpus["full3"], "--json").stdout)
        timed = json.loads(run_cli("invariant", corpus["full3"], "--json", "--timing").stdout)
        assert "timing_ms" not in plain
        assert "timing_ms" in timed


class TestDeterminism:
    def test_json_reports_byte_identical(self, corpus):
        invocations = [
            ("validate", corpus["full2"], "--json"),
            ("invariant", corpus["full3"], "--json"),
            ("coe", corpus["full2"], corpus["golden"], "--json"),
            ("flow", corpus["full2"], corpus["full3"], "--json"),
            ("positivity", corpus["full2"], corpus["fn"], "--json"),
            ("periodic", corpus["golden"], "4", "--json"),
            ("realize", "--torsion", "4", "--point", "1", "--sign", "-1", "--json"),
        ]
        for args in invocations:
            outputs = {run_cli(*args).stdout for _ in range(3)}
            assert len(outputs) == 1, f"nondeterministic output for {args}"

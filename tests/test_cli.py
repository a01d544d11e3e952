import json
import os
import random
import subprocess
import sys
import time

import pytest

import markovshift.cli
import markovshift.groups
from markovshift import (
    FgAbelianGroup,
    IntMatrix,
    PointedGroup,
    VerificationError,
    ZeroOneMatrix,
    base_matrix,
    edge_shift,
    pointed_is_isomorphic,
    tail_extension,
)
from markovshift.cli import main
from markovshift.fileio import write_matrix_file

from _support import count_calls, int_matrix, random_zero_one

FULL2 = "2\n1 1\n1 1\n"
FULL3 = "3\n1 1 1\n1 1 1\n1 1 1\n"
GOLDEN = "2\n1 1\n1 0\n"
PERMUTATION = "2\n0 1\n1 0\n"
SIGN_FN = "window 1\n1 1\n2 -1\n"


def run_cli(*args, timeout=None):
    return subprocess.run(
        [sys.executable, "-m", "markovshift", *args],
        capture_output=True,
        text=True,
        timeout=timeout,
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

    @pytest.mark.parametrize(
        "text, message",
        [
            ("# nothing\n", "file contains no matrix"),
            ("two\n1 1\n1 1\n", "line 1: expected the matrix size, got 'two'"),
            ("0\n", "line 1: matrix size must be positive, got 0"),
            ("3\n1 1 1\n1 1 1\n", "expected 3 rows, found 2"),
            ("2\n1 1\n1 1\n5\n", "line 4: unexpected content after the matrix"),
            ("2\n1 1\n1 x\n", "line 3: row is not a list of integers: '1 x'"),
            ("2\n1 1 -1\n1 1\n", "line 2: expected 2 entries, found 3"),
            ("2\n1 1\n-1 1\n", "line 3: matrix entries must be nonnegative"),
        ],
    )
    def test_parse_errors_pinned(self, tmp_path, capsys, text, message):
        p = tmp_path / "bad.txt"
        p.write_text(text)
        for command in ("validate", "invariant"):
            assert main([command, str(p), "--json"]) == 2
            report = json.loads(capsys.readouterr().out)
            assert report == {"command": command, "error": {"kind": "parse_error", "message": message}}

    @pytest.mark.parametrize(
        "text, issues",
        [
            (
                "3\n0 0 0\n1 0 1\n0 0 0\n",
                [
                    ("zero_row", "row 1 is identically zero"),
                    ("zero_row", "row 3 is identically zero"),
                    ("zero_column", "column 2 is identically zero"),
                ],
            ),
            (
                "3\n1 0 0\n1 0 0\n1 0 0\n",
                [
                    ("zero_column", "column 2 is identically zero"),
                    ("zero_column", "column 3 is identically zero"),
                ],
            ),
            (
                "1\n0\n",
                [
                    ("zero_row", "row 1 is identically zero"),
                    ("zero_column", "column 1 is identically zero"),
                    ("too_small", "a 0/1 transition matrix needs at least 2 states"),
                ],
            ),
            ("1\n1\n", [("too_small", "a 0/1 transition matrix needs at least 2 states")]),
            ("2\n1 1\n0 1\n", [("reducible", "the transition graph is not strongly connected")]),
            (
                PERMUTATION,
                [("condition_I", "permutation matrix: the shift space is finite, so every point is isolated")],
            ),
        ],
    )
    def test_issues_pinned(self, corpus, tmp_path, capsys, text, issues):
        # validate answers 1 with the issues; every command that reads a
        # matrix refuses with 2, coe and flow with the file as A and as B
        p = tmp_path / "bad.txt"
        p.write_text(text)
        assert main(["validate", str(p), "--json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert [(i["code"], i["message"]) for i in report["issues"]] == issues
        details = "; ".join(message for _, message in issues)
        good = corpus["full2"]
        for args in (
            ["invariant", p],
            ["coe", p, good],
            ["coe", good, p],
            ["flow", p, good],
            ["flow", good, p],
            ["positivity", p, corpus["fn"]],
            ["periodic", p, "3"],
        ):
            assert main([*map(str, args), "--json"]) == 2, args
            assert json.loads(capsys.readouterr().out)["error"] == {
                "kind": "invalid_input",
                "message": f"{p}: matrix is not classifiable: {details}",
            }, args

    def test_entries_above_one_refused_where_0_1_is_needed(self, corpus, tmp_path, capsys):
        p = tmp_path / "nonneg.txt"
        p.write_text("2\n2 1\n1 0\n")
        assert main(["validate", str(p), "--json"]) == 0
        capsys.readouterr()
        for args in (["periodic", str(p), "3"], ["positivity", str(p), corpus["fn"]]):
            assert main([*args, "--json"]) == 2, args
            assert json.loads(capsys.readouterr().out)["error"] == {
                "kind": "invalid_input",
                "message": f"{p}: this command needs a 0/1 transition matrix",
            }, args

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
        # the full 3-shift merges to [[3]]: id - B^t = [[-2]] has no unit pivot
        assert main(["invariant", corpus["full3"], "--json"]) == 0
        assert calls == [int_matrix([[-2]])]
        assert json.loads(capsys.readouterr().out)["k_theory"]["k1_rank"] == 0
        # the golden mean's pivots are all units: no Smith form at all
        calls.clear()
        assert main(["invariant", corpus["golden"], "--json"]) == 0
        assert calls == []
        assert json.loads(capsys.readouterr().out)["invariant"]["group"] == "0"

    def test_golden_mean(self, corpus):
        report = json.loads(run_cli("invariant", corpus["golden"], "--json").stdout)
        assert report["invariant"]["group"] == "0"
        assert report["invariant"]["determinant"] == -1

    def test_invalid_input(self, corpus):
        out = run_cli("invariant", corpus["perm"])
        assert out.returncode == 2

    def test_large_file_read(self, tmp_path):
        # the 1,023-state edge shift of the diagonal base for Z/1009: parsing
        # and the input checks are whole-row passes (about 0.35 s in all)
        matrix = edge_shift(tail_extension(base_matrix((0, 1009, 1)), (0, 1, 0)))
        assert matrix.size == 1023
        target = tmp_path / "big.txt"
        write_matrix_file(target, matrix)
        out = run_cli("invariant", str(target), timeout=10)
        assert out.returncode == 0
        assert "group: Z/1009" in out.stdout.splitlines()

    def test_large_file_periodic_counts(self, tmp_path):
        # the same file's point counts come from its 4-state total column
        # amalgamation; squaring the 1,023-state matrix itself takes 20-35 s
        matrix = edge_shift(tail_extension(base_matrix((0, 1009, 1)), (0, 1, 0)))
        target = tmp_path / "big.txt"
        write_matrix_file(target, matrix)
        out = run_cli("periodic", str(target), "3", "--json", timeout=10)
        assert out.returncode == 0
        periods = json.loads(out.stdout)["periods"]
        assert [p["points_fixed_by_power"] for p in periods] == [5, 2037, 56]
        assert all(p["crosscheck_ok"] for p in periods)


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

    def test_text_report_names_the_plan(self):
        # Z/3 at +1 ties and keeps the diagonal plan; Z/109 at -1 takes the cyclic base
        diagonal = run_cli("realize", "--torsion", "3", "--sign", "1")
        assert diagonal.returncode == 0
        assert "diagonal parameters: [0, 3]" in diagonal.stdout
        assert "cyclic base" not in diagonal.stdout
        cyclic = run_cli("realize", "--torsion", "109", "--point", "108", "--sign", "-1")
        assert cyclic.returncode == 0
        assert "cyclic base: [[2, 11], [10, 2]]" in cyclic.stdout
        assert "diagonal parameters" not in cyclic.stdout
        assert "final matrix size: 21" in cyclic.stdout

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

    @pytest.mark.parametrize(
        "args, group, point, states",
        [
            # Z/1009 takes the cyclic 2x2 base: 64 states in its out-splitting,
            # against 82 in the edge shift and 1,017 on the diagonal base
            (["--torsion", "1009", "--point", "1008", "--sign", "-1"], "Z/1009", ((), (1008,)), 70),
            # a group with free rank takes the diagonal base, whose tails have a
            # closed form: 54 states in its out-splitting, against 126 in the edge shift
            (
                ["--free-rank", "2", "--torsion", "2,12,360", "--point", "3,-6,1,5,77", "--sign", "0"],
                "Z^2 + Z/2 + Z/12 + Z/360",
                ((3, -6), (1, 5, 77)),
                60,
            ),
        ],
        ids=["cyclic", "diagonal"],
    )
    def test_plan_round_trips_through_a_file(self, tmp_path, args, group, point, states):
        # realize -o, then invariant on the file, both within 30 s together
        target = tmp_path / "realized.txt"
        deadline = time.monotonic() + 30
        assert run_cli("realize", *args, "-o", str(target), timeout=30).returncode == 0
        read = run_cli("invariant", str(target), "--json", timeout=deadline - time.monotonic())
        assert read.returncode == 0
        report = json.loads(read.stdout)
        assert report["inputs"]["matrix"]["size"] <= states
        inv = report["invariant"]
        assert inv["group"] == group
        g = FgAbelianGroup(inv["free_rank"], tuple(inv["torsion_factors"]))
        got = g.element(inv["point_free"], inv["point_torsion"])
        assert pointed_is_isomorphic(PointedGroup(g, got), PointedGroup(g, g.element(*point)))

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

    def test_a_wide_empty_table_is_refused_without_listing_words(self, corpus, tmp_path):
        # the 2^40 admissible 40-words would not fit in memory
        fn = tmp_path / "wide.txt"
        fn.write_text("window 40\n")
        out = run_cli("positivity", corpus["full2"], str(fn), "--json", timeout=10)
        assert out.returncode == 2
        error = json.loads(out.stdout)["error"]
        assert error["kind"] == "invalid_input"
        first = [(1,) * 40, (1,) * 39 + (2,), (1,) * 38 + (2, 1)]
        assert f"missing 1099511627776 admissible words, e.g. {first}" in error["message"]


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

    def test_fixed_points_match_count_period_points(self, tmp_path, capsys):
        # the command counts with count_period_points on the total column
        # amalgamation, which squares; the test carries A^q forward and reads
        # its trace off the diagonal
        rng = random.Random(12)
        matrices = [ZeroOneMatrix.from_rows([[1, 1], [1, 0]]), ZeroOneMatrix.from_rows([[1, 1], [1, 1]])]
        matrices += [random_zero_one(rng, n, density=0.4) for n in (3, 3, 4, 4)]
        for k, a in enumerate(matrices):
            path = tmp_path / f"m{k}.txt"
            write_matrix_file(str(path), a)
            assert main(["periodic", str(path), "12", "--json"]) == 0
            periods = json.loads(capsys.readouterr().out)["periods"]
            fixed = [p["points_fixed_by_power"] for p in periods]
            power = step = IntMatrix(a.entries)
            traces = []
            for _ in range(12):
                traces.append(sum(power.diagonal()))
                power = power @ step
            assert fixed == traces


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

    @pytest.mark.parametrize(
        "args, message",
        [
            (["realize", "--free-rank", "-1", "--sign", "0"], "free rank must be nonnegative"),
            (
                ["realize", "--torsion", "2,3", "--sign", "1"],
                "torsion factors must form a divisibility chain; 2 does not divide 3",
            ),
            (["realize", "--torsion", "1", "--sign", "1"], "torsion factor 1 is not allowed; factors must be >= 2"),
            (
                ["realize", "--torsion", "1.5", "--sign", "1"],
                "--torsion must be a comma-separated list of integers, got '1.5'",
            ),
            (
                ["realize", "--free-rank", "1", "--sign", "1"],
                "an infinite group forces determinant 0, so sign must be 0",
            ),
            (["realize", "--torsion", "3", "--sign", "0"], "a finite group needs sign -1 or 1"),
            (
                ["realize", "--torsion", "3", "--point", "1,2", "--sign", "1"],
                "--point needs 1 coordinates (free then torsion), got 2",
            ),
            (["periodic", "golden", "0"], "period bound must be at least 1"),
        ],
    )
    def test_invalid_input_reports_pinned(self, corpus, capsys, args, message):
        args = [corpus.get(a, a) for a in args]
        assert main([*args, "--json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == json.dumps(
            {"command": args[0], "error": {"kind": "invalid_input", "message": message}}, indent=2
        ) + "\n"
        assert captured.err == ""

    @pytest.mark.parametrize(
        "args, command, message",
        [
            (["frob"], None, "argument subcommand: invalid choice: 'frob'"),
            (["realize", "--torsion", "3"], "realize", "the following arguments are required: --sign"),
            (["realize", "--sign", "5"], "realize", "argument --sign: invalid choice: 5"),
        ],
        ids=["unknown_command", "missing_argument", "invalid_choice"],
    )
    def test_argument_refusals_are_reported(self, capsys, args, command, message):
        # argparse's usage and message stay on stderr; the report goes to stdout
        assert main([*args, "--json"]) == 2
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert report["command"] == command
        assert report["error"]["kind"] == "invalid_input"
        assert report["error"]["message"].startswith(message)
        assert set(report) == {"command", "error"}
        assert captured.err.startswith("usage: markovshift")
        assert f"error: {report['error']['message']}\n" in captured.err

    def test_argument_refusal_text_report(self):
        out = run_cli("realize", "--sign", "5")
        assert out.returncode == 2
        assert out.stdout.startswith("error (invalid_input): argument --sign: invalid choice: 5")
        assert out.stderr.startswith("usage: markovshift realize")

    def test_help_is_not_a_refusal(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["realize", "--help", "--json"])
        assert exit_info.value.code == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("usage: markovshift realize")
        assert captured.err == ""

    def test_verification_failure_exit_4(self, monkeypatch, capsys):
        def failing(*args, **kwargs):
            raise VerificationError("realized matrix has the wrong group or sign")

        monkeypatch.setattr(markovshift.cli, "realize", failing)
        assert main(["realize", "--torsion", "4", "--point", "1", "--sign", "-1", "--json"]) == 4
        captured = capsys.readouterr()
        assert json.loads(captured.out) == {
            "command": "realize",
            "error": {"kind": "internal_error", "message": "realized matrix has the wrong group or sign"},
        }
        assert captured.err == ""

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


def decimal_value(digits: str) -> int:
    """The int a decimal string of any length stands for, read 4,000 digits at a time.

    Python 3.11's int() refuses more than 4,300 digits.
    """
    sign, digits = (-1, digits[1:]) if digits.startswith("-") else (1, digits)
    value = 0
    for start in range(0, len(digits), 4000):
        chunk = digits[start : start + 4000]
        value = value * 10 ** len(chunk) + int(chunk)
    return sign * value


def diagonal_file(path, size: int, diagonal: int) -> str:
    """A matrix file with the given diagonal entry, of at most 4,300 digits, and 1 elsewhere."""
    rows = [" ".join(str(diagonal) if i == j else "1" for j in range(size)) for i in range(size)]
    path.write_text(f"{size}\n" + "\n".join(rows) + "\n")
    return str(path)


class TestLargeIntegers:
    """Reports hold integers of any size; a matrix file's entries keep Python's digit limit."""

    def test_a_determinant_of_4500_digits_is_reported(self, tmp_path):
        # id - A = (2 - d) id - J, whose eigenvalues are 2 - d twice and -1 - d
        d = 10**1500
        path = diagonal_file(tmp_path / "big.txt", 3, d)
        out = run_cli("invariant", path, "--json", timeout=30)
        assert (out.returncode, out.stderr) == (0, "")
        invariant = json.loads(out.stdout, parse_int=decimal_value)["invariant"]
        assert invariant["determinant"] == -((d - 2) ** 2) * (d + 1)

    def test_a_matrix_with_a_huge_determinant_is_coe_to_itself(self, tmp_path):
        path = diagonal_file(tmp_path / "big.txt", 3, 10**1500)
        out = run_cli("coe", path, path, timeout=30)
        assert (out.returncode, out.stderr) == (0, "")
        assert out.stdout.splitlines()[0] == "continuous orbit equivalence: equivalent"

    def test_a_cyclic_group_of_4400_digits_is_named(self, tmp_path):
        # id - A = [[1 - d, -1], [-1, 1 - d]] has a unit entry, so its group is Z/|det| = Z/d(d - 2)
        d = 10**2200
        path = diagonal_file(tmp_path / "big.txt", 2, d)
        out = run_cli("invariant", path, timeout=30)
        assert (out.returncode, out.stderr) == (0, "")
        group = out.stdout.splitlines()[0]
        assert group.startswith("group: Z/")
        assert decimal_value(group.removeprefix("group: Z/")) == d * (d - 2)

    def test_an_entry_of_4301_digits_is_a_parse_error(self, tmp_path):
        path = tmp_path / "digits.txt"
        path.write_text("2\n" + "1" * 4301 + " 1\n1 1\n")
        out = run_cli("invariant", str(path), "--json", timeout=30)
        assert (out.returncode, out.stderr) == (2, "")
        assert json.loads(out.stdout)["error"]["kind"] == "parse_error"

    def test_the_digit_limit_is_restored_after_the_report(self, tmp_path, capsys):
        limit = sys.get_int_max_str_digits()
        path = diagonal_file(tmp_path / "big.txt", 2, 10**2200)
        assert main(["invariant", path]) == 0
        assert capsys.readouterr().out.startswith("group: Z/")
        assert sys.get_int_max_str_digits() == limit


class TestStartUp:
    def test_cli_import_is_lean(self):
        """Every command pays the package import; it loads none of these.

        ``-S`` skips site, whose ``.pth`` files may load some of them first.
        """
        heavy = ("dataclasses", "inspect", "ast", "typing", "pathlib")
        probe = f"import markovshift.cli, sys; print(sorted(set({heavy!r}) & set(sys.modules)))"
        src = os.path.dirname(os.path.dirname(markovshift.cli.__file__))
        out = subprocess.run(
            [sys.executable, "-S", "-c", probe],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=src),
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout == "[]\n"


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

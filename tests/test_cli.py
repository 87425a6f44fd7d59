"""Command line driver: output shapes, determinism, exit codes."""

import contextlib
import json
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from pideg.cli import degree_dict, degree_digits, main
from pideg.degrees import PiDegree
from pideg.intlinalg import skew_normal_form
from pideg.pipedreams import partition_toric_permutation, toric_permutation
from pideg.sweep import DIAGRAM_PROPERTIES
from tests.conftest import FIG_TEXT

README = Path(__file__).resolve().parent.parent / "README.md"
ALL_PROPERTIES = "powers-of-2,kernel-cycles,cycle-sums,extended-laws,mod-p,pi-closed"


@pytest.fixture()
def fig_file(tmp_path):
    path = tmp_path / "board.txt"
    path.write_text(FIG_TEXT)
    return str(path)


def run(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDiagramCommand:
    def test_table_output(self, capsys, fig_file):
        code, out, err = run(capsys, "diagram", fig_file, "--ell", "5")
        assert code == 0 and err == ""
        assert "toric permutation: (1 7)(2 6 3 8 4)" in out
        assert "invariant factors: 1 1 1 2" in out
        assert "PI degree at ell=5: 5^4 = 625" in out

    def test_json_round_trip(self, capsys, fig_file):
        code, out, _ = run(
            capsys, "diagram", fig_file, "--ell", "5", "--extended", "--json"
        )
        assert code == 0
        report = json.loads(out)
        assert report["invariant_factors"] == ["1", "1", "1", "2"]
        assert report["kernel_dim"] == 1
        assert report["pi_degrees"][0]["value"] == "625"
        assert report["extended"]["kernel_jump"] == -1
        assert json.loads(json.dumps(report)) == report

    def test_cycles_and_kernel(self, capsys, fig_file):
        code, out, _ = run(
            capsys, "diagram", fig_file, "--cycles", "--kernel", "--json"
        )
        report = json.loads(out)
        assert report["even_cycles"] == [
            {
                "cycle": [1, 7],
                "cycle_sum": 2,
                "kernel_vector": [0, 0, 0, 0, 0, 1, -1, 1, 1],
            }
        ]

    def test_ell_two_is_allowed_here(self, capsys, fig_file):
        code, out, _ = run(capsys, "diagram", fig_file, "--ell", "2", "--json")
        assert code == 0
        assert json.loads(out)["pi_degrees"][0]["value"] == "8"

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "diagram", str(tmp_path / "nope.txt"))
        assert code == 1 and err.startswith("error:")

    def test_bad_board(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text(".#\n.\n")
        code, _, err = run(capsys, "diagram", str(path))
        assert code == 1 and "error:" in err


class TestClosedFormCommands:
    def test_partition(self, capsys):
        code, out, _ = run(capsys, "partition", "5,3,2", "--ell", "5", "--verify")
        assert code == 0
        assert "5^4 = 625" in out
        assert "cross check against the generic route: passed" in out

    @pytest.mark.parametrize("verify, traces", [((), 0), (("--verify",), 1)])
    def test_partition_traces_only_to_verify(self, capsys, monkeypatch, verify, traces):
        # The report and the degrees read the closed-form toric permutation;
        # --verify traces the pipes once and compares.
        traced = spy(monkeypatch, toric_permutation)
        code, out, _ = run(capsys, "partition", "5,3,2", "--ell", "5", "--ell", "7", *verify)
        assert code == 0 and "toric permutation: " in out
        assert len(traced) == traces

    @pytest.mark.parametrize("verify", [(), ("--verify",)])
    def test_partition_builds_tau_once(self, capsys, monkeypatch, verify):
        # The report and every --ell read the same closed-form permutation.
        built = spy(monkeypatch, partition_toric_permutation)
        code, _, _ = run(capsys, "partition", "5,3,2", "--ell", "5", "--ell", "7", *verify)
        assert code == 0
        assert len(built) == 1

    @pytest.mark.parametrize(
        "argv, matrices",
        [
            (("partition", "6,5,4,3,2,1", "--ell", "3", "--ell", "5", "--ell", "7", "--verify"), 1),
            (("detring", "5", "2", "--ell", "3", "--ell", "4", "--ell", "5", "--verify"), 1),
            (("schubert", "1,3,4,7", "8", "--ell", "3", "--ell", "5", "--ell", "7", "--verify"), 2),
            (("schubert", "1,3,4,7", "8", "--ell", "4", "--ell", "6", "--ell", "8"), 2),
        ],
        ids=["partition", "detring", "schubert-verify", "schubert-fallback"],
    )
    def test_one_normal_form_per_board(self, capsys, monkeypatch, argv, matrices):
        # Every --ell reads the same generic factors: the board's matrix, and
        # for schubert the bordered matrix of its extended form, are each
        # reduced once per command.
        reduced = spy(monkeypatch, skew_normal_form)
        code, _, _ = run(capsys, *argv)
        assert code == 0
        assert len(reduced) == len({args[0].rows for args in reduced}) == matrices

    def test_partition_rejects_ell_two(self, capsys):
        code, _, err = run(capsys, "partition", "5,3,2", "--ell", "2")
        assert code == 1 and "error:" in err

    def test_partition_rejects_even_ell(self, capsys):
        code, _, err = run(capsys, "partition", "5,3,2", "--ell", "4")
        assert code == 1 and "error:" in err

    def test_detring(self, capsys):
        code, out, _ = run(capsys, "detring", "3", "1", "--ell", "4", "--verify")
        assert code == 0 and "4^2 = 16" in out

    def test_schubert(self, capsys):
        code, out, _ = run(capsys, "schubert", "1,3,4,7", "8", "--ell", "5", "--json")
        assert code == 0
        report = json.loads(out)
        assert report["partition"] == [4, 3, 3, 1]
        assert report["pi_degrees"][0]["value"] == "15625"
        assert report["pi_degrees"][0]["route"] == "closed"

    def test_grassmannian(self, capsys):
        code, out, _ = run(capsys, "grassmannian", "2", "6", "--ell", "5")
        assert code == 0 and "5^4 = 625" in out

    def test_odd_composite_ell_is_still_closed(self, capsys):
        # 9 and 15 are odd with smallest prime 3, above the bound 2 of a
        # 2x2 box, so the closed form applies.
        for ell in ("9", "15"):
            code, out, _ = run(capsys, "grassmannian", "2", "4", "--ell", ell, "--json")
            assert code == 0
            assert json.loads(out)["pi_degrees"][0]["route"] == "closed"

    def test_even_ell_falls_back_to_the_generic_route(self, capsys):
        # Even ell >= 3 passes the gate; the closed form then declines and
        # the driver reports the generic route instead.
        code, out, _ = run(capsys, "grassmannian", "2", "4", "--ell", "4", "--json")
        assert code == 0
        report = json.loads(out)
        assert report["pi_degrees"][0]["route"] == "generic (hypothesis not met)"

    @pytest.mark.parametrize(
        "argv",
        [("grassmannian", "2", "6"), ("schubert", "1,3,4,7", "8")],
        ids=["grassmannian", "schubert"],
    )
    def test_verify_reports_only_what_it_compared(self, capsys, argv):
        # At an even ell the generic route answers, so nothing is compared;
        # one closed entry is enough for a comparison.
        code, out, _ = run(capsys, *argv, "--ell", "6", "--verify")
        assert code == 0
        assert out.endswith(
            "cross check against the generic route: nothing to compare (generic route answered)\n"
        )
        code, out, _ = run(capsys, *argv, "--ell", "6", "--verify", "--json")
        assert code == 0 and json.loads(out)["cross_checked"] is False
        code, out, _ = run(capsys, *argv, "--ell", "5", "--ell", "6", "--verify")
        assert code == 0 and out.endswith("cross check against the generic route: passed\n")
        code, out, _ = run(capsys, *argv, "--ell", "5", "--ell", "6", "--verify", "--json")
        assert code == 0 and json.loads(out)["cross_checked"] is True

    def test_fallback_reason_is_in_the_json(self, capsys):
        reason = "need odd ell with smallest prime factor above 2, got 6"
        code, out, _ = run(capsys, "grassmannian", "2", "6", "--ell", "5", "--ell", "6", "--json")
        assert code == 0
        closed, fallback = json.loads(out)["pi_degrees"]
        assert "reason" not in closed
        assert (fallback["route"], fallback["reason"]) == ("generic (hypothesis not met)", reason)
        code, out, _ = run(capsys, "grassmannian", "2", "6", "--ell", "6")
        assert code == 0 and f"PI degree at ell=6: 6^4/4 = 324 [generic route; {reason}]" in out

    @pytest.mark.parametrize("command", ["schubert", "grassmannian"])
    def test_ell_help_admits_even_ell(self, capsys, command):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        out = " ".join(capsys.readouterr().out.split())
        assert "--ell ELL ell >= 3, repeatable" in out and "odd" not in out

    @pytest.mark.parametrize(
        "argv",
        [("grassmannian", "3", "6"), ("schubert", "1,3,4,7", "8")],
        ids=["grassmannian", "schubert"],
    )
    def test_large_prime_ell_is_closed_and_fast(self, capsys, argv):
        # Only the parity of ell decides the hypothesis, so a prime ell of
        # 19 digits is never factored.
        start = time.perf_counter()
        code, out, _ = run(capsys, *argv, "--ell", str(10**18 + 3), "--json")
        assert code == 0
        assert json.loads(out)["pi_degrees"][0]["route"] == "closed"
        assert time.perf_counter() - start < 1

    @pytest.mark.parametrize(
        "argv, routes",
        [
            (("diagram", "BOARD", "--extended", "--ell", "4"), {"generic"}),
            (("partition", "5,3,2", "--ell", "5"), {"closed"}),
            (("detring", "4", "2", "--ell", "4"), {"closed"}),
            (("schubert", "1,3,4,7", "8", "--ell", "4"), {"closed", "generic (hypothesis not met)"}),
            (("grassmannian", "2", "4", "--ell", "4"), {"closed", "generic (hypothesis not met)"}),
        ],
        ids=["diagram", "partition", "detring", "schubert", "grassmannian"],
    )
    def test_every_json_degree_names_its_route(self, capsys, fig_file, argv, routes):
        argv = [fig_file if a == "BOARD" else a for a in argv]
        code, out, _ = run(capsys, *argv, "--ell", "3", "--json")
        assert code == 0
        report = json.loads(out)
        entries = report["pi_degrees"] + (report.get("extended") or {}).get("pi_degrees", [])
        assert len(entries) == (4 if "--extended" in argv else 2)
        assert {entry["route"] for entry in entries} == routes


class TestRepCommand:
    def test_verify_and_certify(self, capsys):
        code, out, _ = run(
            capsys,
            "rep", "--detring", "3,1", "--ell", "3", "--verify", "--irreducible",
        )
        assert code == 0
        assert "representation dimension: 9" in out
        assert "relations: all verified" in out
        assert "irreducible over F_7: yes" in out

    def test_json(self, capsys, fig_file):
        code, out, _ = run(
            capsys, "rep", "--diagram", fig_file, "--ell", "5", "--verify", "--json"
        )
        assert code == 0
        report = json.loads(out)
        assert report["dimension"] == 625 and report["relations_hold"] is True

    def test_requires_one_source(self, capsys, fig_file):
        code, _, err = run(capsys, "rep", "--ell", "3")
        assert code == 1 and "error:" in err
        code, _, err = run(
            capsys,
            "rep", "--diagram", fig_file, "--detring", "3,1", "--ell", "3",
        )
        assert code == 1 and "error:" in err

    def test_matrix_source(self, capsys, tmp_path):
        path = tmp_path / "mat.json"
        path.write_text("[[0, 1], [-1, 0]]")
        code, out, _ = run(capsys, "rep", "--matrix", str(path), "--ell", "7", "--json")
        assert code == 0
        assert json.loads(out)["dimension"] == 7

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[[0, 1.5], [-1.5, 0]]", "entry (0, 1) is 1.5, not an integer"),
            ("[[0, true], [-1, 0]]", "entry (0, 1) is true, not an integer"),
            ('[[0, "1"], ["-1", 0]]', 'entry (0, 1) is "1", not an integer'),
            ('{"0": [0, 1], "1": [-1, 0]}', "must hold a JSON list of rows"),
            ("[0, 1]", "must hold a JSON list of rows"),
            ("[[0, 1], [-1, 0]", "cannot read a matrix"),
        ],
    )
    def test_matrix_source_rejects_non_integer_input(self, capsys, tmp_path, text, message):
        # Nothing is truncated or coerced: 1.5 is not 1 and true is not 1.
        path = tmp_path / "mat.json"
        path.write_text(text)
        code, out, err = run(capsys, "rep", "--matrix", str(path), "--ell", "7")
        assert code == 1 and out == "" and err.startswith("error:")
        assert message in err

    def test_rejects_ell_two(self, capsys, fig_file):
        code, _, err = run(capsys, "rep", "--diagram", fig_file, "--ell", "2")
        assert code == 1 and err == "error: rep needs ell >= 3, got 2\n"

    def test_irreducible_at_dimension_81(self, capsys):
        start = time.perf_counter()
        code, out, _ = run(capsys, "rep", "--detring", "5,1", "--ell", "3", "--irreducible")
        assert code == 0
        assert "representation dimension: 81" in out
        assert "irreducible over F_7: yes" in out
        assert time.perf_counter() - start < 30

    @pytest.mark.parametrize(
        "detring, ell, dim, checks",
        [
            ("12,1", "3", 3**11, ("--verify", "--irreducible")),
            ("8,4", "3", 3**22, ("--verify", "--irreducible")),
            ("3,1", "1000003", 1_000_003**2, ()),
        ],
    )
    def test_dimension_above_the_image_cap_is_answered(self, capsys, detring, ell, dim, checks):
        # No image is built, so the record, the relations and the certificate
        # answer at any dimension, in well under a second.
        start = time.perf_counter()
        code, out, err = run(capsys, "rep", "--detring", detring, "--ell", ell, *checks)
        assert code == 0 and err == ""
        assert f"representation dimension: {dim}\n" in out
        if checks:
            assert "relations: all verified" in out
            assert "irreducible over F_7: yes" in out
        assert time.perf_counter() - start < 1

    def test_legs_above_the_cap_are_refused(self, capsys):
        # Checks build the ell x ell legs, which are capped like any image.
        code, out, err = run(capsys, "rep", "--detring", "3,1", "--ell", "1000003", "--verify")
        assert code == 1 and out == ""
        assert err.startswith("error: clock and shift of size 1000003 exceed")

    def test_irreducible_above_dimension_729_is_answered(self, capsys, tmp_path):
        path = tmp_path / "mat.json"
        path.write_text("[[0, 1], [-1, 0]]")
        code, out, _ = run(capsys, "rep", "--matrix", str(path), "--ell", "739", "--irreducible")
        assert code == 0
        assert "representation dimension: 739\n" in out
        assert re.search(r"irreducible over F_\d+: yes", out)


class TestDigitBudget:
    def test_value_suppressed_beyond_budget(self, capsys, monkeypatch, fig_file):
        monkeypatch.setenv("PIDEG_DIGIT_BUDGET", "2")
        code, out, _ = run(capsys, "diagram", fig_file, "--ell", "5", "--json")
        assert code == 0
        entry = json.loads(out)["pi_degrees"][0]
        assert entry["value"] is None and entry["digits"] == 3
        assert entry["exponent"] == 4

    def test_suppressed_value_in_the_tables(self, capsys, monkeypatch, fig_file):
        # The diagram table and the closed-form tables share one wording.
        monkeypatch.setenv("PIDEG_DIGIT_BUDGET", "2")
        code, out, _ = run(capsys, "diagram", fig_file, "--ell", "5", "--extended")
        assert code == 0
        assert "\nPI degree at ell=5: 5^4 (3 digits, value suppressed)\n" in out
        assert "\n  PI degree at ell=5: 5^5 (4 digits, value suppressed)\n" in out
        code, out, _ = run(capsys, "partition", "5,3,2", "--ell", "5")
        assert code == 0
        assert "\nPI degree at ell=5: 5^4 (3 digits, value suppressed)\n" in out

    def test_default_budget_keeps_values(self, capsys, fig_file):
        code, out, _ = run(capsys, "diagram", fig_file, "--ell", "5", "--json")
        assert json.loads(out)["pi_degrees"][0]["value"] == "625"

    def test_bad_budget(self, capsys, monkeypatch, fig_file):
        monkeypatch.setenv("PIDEG_DIGIT_BUDGET", "many")
        code, _, err = run(capsys, "diagram", fig_file, "--ell", "5")
        assert code == 1 and "error:" in err

    # Both values have more digits than Python's default int -> str limit.
    HUGE = [
        pytest.param(("detring", "100", "50", "--ell", "1001"), (1001, 3725), id="detring"),
        pytest.param(("grassmannian", "60", "130", "--ell", "1009"), (1009, 2100), id="grassmannian"),
    ]

    @pytest.mark.parametrize("argv, power", HUGE)
    def test_huge_value_is_suppressed_with_exact_digits(self, capsys, argv, power):
        code, out, err = run(capsys, *argv, "--json")
        assert code == 0 and err == ""
        entry = json.loads(out)["pi_degrees"][0]
        assert entry["value"] is None
        with unlimited_str_digits():
            assert entry["digits"] == len(str(power[0] ** power[1]))

    @pytest.mark.parametrize("argv, power", HUGE)
    def test_huge_value_within_a_raised_budget(self, capsys, monkeypatch, argv, power):
        monkeypatch.setenv("PIDEG_DIGIT_BUDGET", "100000")
        code, out, _ = run(capsys, *argv, "--json")
        assert code == 0
        with unlimited_str_digits():
            assert json.loads(out)["pi_degrees"][0]["value"] == str(power[0] ** power[1])

    # Powers just below (999), at (10, 2^a 5^a) and just above (1001) powers
    # of ten put log10 of the value near an integer, where the estimate
    # from the exponent form must hand over to the exact count.
    NEAR_POWERS_OF_TEN = [
        10, 100, 1000, 999, 1001, 2, 5, 20, 40, 50, 80, 250, 2**5 * 5**3, 2**7 * 5**7,
    ]

    @pytest.mark.parametrize("ell", NEAR_POWERS_OF_TEN)
    def test_digits_from_the_exponent_form(self, ell):
        with unlimited_str_digits():
            for exponent in range(0, 80):
                for divisor in {1, ell, 2**exponent, ell**exponent}:
                    if pow(ell, exponent, divisor):
                        continue
                    pi = PiDegree(ell=ell, exponent=exponent, divisor=divisor)
                    assert degree_digits(pi) == len(str(pi.value)), (ell, exponent, divisor)

    def test_huge_grassmannian_counts_digits_without_the_value(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, "grassmannian", "6000", "12000", "--ell", "3")
        assert time.perf_counter() - start < 1.0
        assert (code, err) == (0, "")
        assert out == (
            "Grassmannian of 6000-planes in 12000-space\n"
            "PI degree at ell=3: 3^17997001 (8586752 digits, value suppressed)\n"
        )
        code, out, _ = run(capsys, "grassmannian", "6000", "12000", "--ell", "3", "--json")
        entry = json.loads(out)["pi_degrees"][0]
        assert code == 0 and entry["digits"] == 8586752 and entry["value"] is None

    @pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
    @pytest.mark.parametrize("ell", ["3", "4"])
    def test_huge_detring_builds_no_board_and_writes_no_huge_divisor(self, capsys, ell, as_json):
        start = time.perf_counter()
        code, out, err = run(capsys, "detring", "2000", "1000", "--ell", ell, *["--json"][:as_json])
        assert time.perf_counter() - start < 1.0
        assert (code, err) == (0, "")
        if as_json:
            report = json.loads(out)
            assert report["white_count"] == 3_000_000
            entry = report["pi_degrees"][0]
            assert entry["value"] is None and entry["exponent"] == 1499500
            if ell == "3":
                assert entry["divisor"] == "1" and "divisor_digits" not in entry
            else:
                assert entry["divisor"] is None and entry["divisor_digits"] == 450793
        else:
            assert "determinantal board: n = 2000, t = 1000, 3000000 white squares\n" in out
            assert out.endswith({
                "3": "PI degree at ell=3: 3^1499500 (715444 digits, value suppressed)\n",
                "4": "PI degree at ell=4: 4^1499500/(450793-digit divisor) "
                     "(451997 digits, value suppressed)\n",
            }[ell])

    @pytest.mark.parametrize("ell", NEAR_POWERS_OF_TEN)
    def test_divisor_written_within_the_budget_only(self, ell):
        # A divisor near a power of ten has its digits counted exactly.
        with unlimited_str_digits():
            for exponent in range(0, 40):
                for divisor in {ell, 2**exponent, ell**exponent}:
                    if pow(ell, exponent, divisor):
                        continue
                    pi = PiDegree(ell=ell, exponent=exponent, divisor=divisor)
                    digits = len(str(divisor))
                    for budget in (digits - 1, digits):
                        entry = degree_dict(pi, budget)
                        if budget < digits:
                            assert (entry["divisor"], entry["divisor_digits"]) == (None, digits)
                        else:
                            assert entry["divisor"] == str(divisor) and "divisor_digits" not in entry


@contextlib.contextmanager
def unlimited_str_digits():
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


class TestSweepCommand:
    def test_summary_is_deterministic(self, capsys, tmp_path):
        args = (
            "sweep", "exhaustive 2x2",
            "--properties", "powers-of-2,kernel-cycles,cycle-sums",
            "--out", str(tmp_path / "f"),
        )
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        assert "result: PASS" in out1

    def test_random_corpus_respects_seed(self, capsys, tmp_path):
        base = (
            "sweep", "random 3x3 x20", "--properties", "powers-of-2",
            "--out", str(tmp_path / "f"), "--json",
        )
        _, out1, _ = run(capsys, *base, "--seed", "7")
        _, out2, _ = run(capsys, *base, "--seed", "7")
        _, out3, _ = run(capsys, *base, "--seed", "8")
        assert out1 == out2
        assert json.loads(out1)["result"] == "PASS"
        assert json.loads(out3)["seed"] == 8

    def test_mutation_corpus(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "sweep", "mutation 3x3 x10", "--out", str(tmp_path / "f")
        )
        assert code == 0 and "property skew-reject: PASS" in out

    def test_failures_dump_counterexamples_and_fail_exit(
        self, capsys, tmp_path, monkeypatch
    ):
        def always_fails(d):
            return ["forced failure for testing"]

        monkeypatch.setitem(DIAGRAM_PROPERTIES, "always-fails", always_fails)
        out_dir = tmp_path / "dumps"
        code, out, _ = run(
            capsys,
            "sweep", "exhaustive 1x2", "--properties", "always-fails",
            "--out", str(out_dir),
        )
        assert code == 1
        assert "result: FAIL" in out
        dumps = sorted(out_dir.iterdir())
        assert len(dumps) == 4
        assert "forced failure for testing" in dumps[0].read_text()

    def test_dumps_stop_at_twenty_in_property_order(self, capsys, tmp_path, monkeypatch):
        # 64 boards and two properties failing on each: the dumps are the
        # first 20 failures of the first property, not the first 10 boards.
        for name in ("fails-first", "fails-second"):
            monkeypatch.setitem(DIAGRAM_PROPERTIES, name, lambda facts: ["forced"])
        out_dir = tmp_path / "dumps"
        code, out, _ = run(
            capsys,
            "sweep", "exhaustive 2x3", "--properties", "fails-first,fails-second",
            "--out", str(out_dir), "--json",
        )
        assert code == 1
        report = json.loads(out)
        assert [p["failures"] for p in report["properties"]] == [64, 64]
        assert [p["first_failure"] for p in report["properties"]] == ["item 0: forced"] * 2
        assert sorted(path.name for path in out_dir.iterdir()) == sorted(
            f"counterexample-fails-first-{index}.txt" for index in range(20)
        )
        assert (out_dir / "counterexample-fails-first-5.txt").read_text() == (
            ".#.\n###\n# property: fails-first\n# forced\n"
        )

    def test_unknown_property(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            "sweep", "exhaustive 1x2", "--properties", "no-such-thing",
            "--out", str(tmp_path / "f"),
        )
        assert code == 1 and "error:" in err

    def test_bad_corpus_spec(self, capsys, tmp_path):
        for spec in ("bogus", "exhaustive 5x5", "random 3x3", "mutation 2x3 x5"):
            code, _, err = run(
                capsys, "sweep", spec, "--out", str(tmp_path / "f")
            )
            assert code == 1 and "error:" in err

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("exhaustive 5x4", "exhaustive corpus too large or empty: 'exhaustive 5x4'"),
            ("random 3x3 x0", "bad random corpus: 'random 3x3 x0'"),
            ("exhaustive 2xb", "cannot parse corpus spec 'exhaustive 2xb'"),
            ("bogus", "cannot parse corpus spec 'bogus'"),
        ],
    )
    def test_bad_corpus_spec_says_what_is_wrong(self, capsys, tmp_path, spec, message):
        code, out, err = run(capsys, "sweep", spec, "--out", str(tmp_path / "f"))
        assert (code, out, err) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("properties", ["", ","])
    def test_an_empty_property_list_is_refused(self, capsys, tmp_path, properties):
        code, out, err = run(
            capsys,
            "sweep", "exhaustive 1x2", "--properties", properties,
            "--out", str(tmp_path / "f"),
        )
        assert (code, out, err) == (1, "", "error: no properties given\n")


def spy(monkeypatch, original) -> list:
    """Count calls of a package function through every module that binds it."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "pideg" or name.startswith("pideg."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    return calls


class TestSweepMemo:
    """A sweep builds one record per board and computes each fact once."""

    def test_all_properties_cost_two_normal_forms_per_board(self, capsys, tmp_path, monkeypatch):
        calls = spy(monkeypatch, skew_normal_form)
        code, out, _ = run(
            capsys, "sweep", "exhaustive 2x3", "--properties", ALL_PROPERTIES,
            "--out", str(tmp_path / "f"),
        )
        assert code == 0 and "result: PASS" in out
        assert len(calls) == 2 * 64

    @pytest.mark.parametrize(
        "prop, normal_forms_per_board, traces_per_board",
        [("powers-of-2", 1, 0), ("cycle-sums", 0, 1)],
    )
    def test_one_property_reads_only_its_facts(
        self, capsys, tmp_path, monkeypatch, prop, normal_forms_per_board, traces_per_board
    ):
        normal_forms = spy(monkeypatch, skew_normal_form)
        traces = spy(monkeypatch, toric_permutation)
        code, _, _ = run(
            capsys, "sweep", "exhaustive 2x3", "--properties", prop,
            "--out", str(tmp_path / "f"),
        )
        assert code == 0
        assert len(normal_forms) == normal_forms_per_board * 64
        assert len(traces) == traces_per_board * 64


def readme_python_blocks() -> list[str]:
    return re.findall(r"```python\n(.*?)```", README.read_text(), re.S)


def readme_transcripts() -> list[tuple[str, str]]:
    """(command, output) of each '$ pideg ...' transcript in README.md."""
    blocks = re.findall(r"```sh\n\$ pideg (.*?)\n(.*?)```", README.read_text(), re.S)
    return [(command, output) for command, output in blocks]


class TestReadme:
    def test_transcripts_are_found(self):
        assert [command.split()[0] for command, _ in readme_transcripts()] == ["diagram", "rep"]

    @pytest.mark.parametrize("command, output", readme_transcripts())
    def test_transcript_output_is_exact(self, capsys, monkeypatch, tmp_path, command, output):
        (tmp_path / "board.txt").write_text(FIG_TEXT)
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, *shlex.split(command))
        assert code == 0 and err == ""
        assert out == output

    def test_module_runs_as_the_command(self, tmp_path):
        (tmp_path / "board.txt").write_text(FIG_TEXT)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        command, output = readme_transcripts()[0]

        def pideg(*argv):
            return subprocess.run(
                [sys.executable, "-m", "pideg", *argv],
                capture_output=True, text=True, cwd=tmp_path, env=env, timeout=120,
            )

        done = pideg(*shlex.split(command))
        assert (done.returncode, done.stdout, done.stderr) == (0, output, "")
        bad = pideg("diagram", "board.txt", "--ell", "1")
        assert bad.returncode == 1 and bad.stderr.startswith("error: ")

    def test_library_example_runs(self):
        blocks = readme_python_blocks()
        assert len(blocks) == 1
        exec(blocks[0], {})

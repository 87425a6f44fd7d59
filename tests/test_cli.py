"""Command line driver: output shapes, determinism, exit codes."""

import argparse
import contextlib
import json
import os
import random
import re
import shlex
import shutil
import subprocess
import sys
import time
import weakref
from dataclasses import replace
from math import gcd
from pathlib import Path

import pytest

from pideg import cli
from pideg.cli import COMMANDS, degree_dict, degree_digits, main
from bench.workloads import GENERATORS, REP_DETRING
from pideg.degrees import PiDegree, determinantal_toric_cycles, pi_degree_determinantal
from pideg.diagrams import determinantal_diagram, young_diagram
from pideg.errors import InternalVerificationFailed
from pideg.intlinalg import matrix_from_diagram, ranks_mod, skew_normal_form
from pideg.pipedreams import Permutation, partition_toric_permutation, toric_permutation
from pideg import diagrams, intlinalg, reps, sweep
from pideg.reps import MAX_REP_DIM
from pideg.sweep import DIAGRAM_PROPERTIES, SWEEP_PRIMES
from tests.conftest import FIG_TEXT
from tests.oracles import full_parser

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
        "argv, build, traces",
        [
            (("partition", "5,3,2", "--ell", "5", "--ell", "7"), young_diagram, 1),
            (("detring", "5", "2", "--ell", "3", "--ell", "5"), determinantal_diagram, 1),
            (("schubert", "1,3,4,7", "8", "--ell", "3", "--ell", "5"), young_diagram, 0),
            (("grassmannian", "4", "8", "--ell", "3", "--ell", "5", "--ell", "7"), young_diagram, 0),
        ],
        ids=["partition", "detring", "schubert", "grassmannian"],
    )
    def test_verify_builds_and_traces_each_board_once(
        self, capsys, monkeypatch, argv, build, traces
    ):
        # The trace comparison reads the board that the generic route
        # reduces; the Schubert closed form reads no traced permutation.
        built, traced = spy(monkeypatch, build), spy(monkeypatch, toric_permutation)
        code, out, _ = run(capsys, *argv, "--verify")
        assert code == 0 and "cross check against the generic route: passed" in out
        assert (len(built), len(traced)) == (1, traces)

    @pytest.mark.parametrize(
        "argv",
        [("schubert", "1,2,3,4", "8", "--ell", "3"), ("grassmannian", "4", "8", "--ell", "3")],
        ids=["schubert", "grassmannian"],
    )
    def test_closed_route_builds_no_board(self, capsys, monkeypatch, argv):
        built = spy(monkeypatch, young_diagram)
        code, out, _ = run(capsys, *argv)
        assert code == 0 and "PI degree at ell=3: 3^" in out
        assert built == []

    @pytest.mark.parametrize("argv", [
        ("partition", "3,1", "--box=-1x5", "--ell", "3"),
        ("rep", "--partition", "3,1", "--box=-1x5", "--ell", "3"),
        ("rep", "--partition", "3,1", "--box=-4x-4", "--ell", "3"),
    ], ids=["partition", "rep", "rep-both-sides"])
    def test_negative_box_side_is_refused(self, capsys, argv):
        # A negative side is not the tight box.
        box = argv[argv.index("--ell") - 1].removeprefix("--box=")
        assert run(capsys, *argv) == (1, "", f"error: box sides must be nonnegative, got {box}\n")

    @pytest.mark.parametrize("box", ["3x0", "0x3"])
    def test_verify_on_a_box_with_a_zero_side(self, capsys, box):
        # Rows of width 0 trace to the identity on their labels; a board
        # without rows is compared with the identity on its columns.
        code, out, _ = run(capsys, "partition", "-", "--box", box, "--ell", "3", "--verify")
        assert code == 0 and "cross check against the generic route: passed" in out

    def test_verify_catches_a_wrong_closed_permutation(self, capsys, monkeypatch):
        # The inverse has the same cycle type, so only the trace can tell.
        def inverse(shape):
            tau = partition_toric_permutation(shape)
            return Permutation(tuple(tau.image.index(x) + 1 for x in range(1, tau.k + 1)))

        patch_everywhere(monkeypatch, partition_toric_permutation, inverse)
        with pytest.raises(InternalVerificationFailed) as caught:
            run(capsys, "partition", "5,3,2", "--ell", "5", "--verify")
        assert str(caught.value) == "closed-form toric permutation differs from the traced one"

    def test_verify_catches_wrong_closed_cycles(self, capsys, monkeypatch):
        # Each cycle reversed: the same lengths, the wrong order.
        def reversed_cycles(n, t):
            closed = determinantal_toric_cycles(n, t)
            return replace(closed, cycles=tuple(c[:1] + c[:0:-1] for c in closed.cycles))

        patch_everywhere(monkeypatch, determinantal_toric_cycles, reversed_cycles)
        with pytest.raises(InternalVerificationFailed) as caught:
            run(capsys, "detring", "5", "2", "--ell", "3", "--verify")
        assert str(caught.value) == "closed-form cycles differ from traced cycles"

    @pytest.mark.parametrize(
        "argv, matrices",
        [
            (("partition", "6,5,4,3,2,1", "--ell", "3", "--ell", "5", "--ell", "7", "--verify"), 1),
            (("detring", "5", "2", "--ell", "3", "--ell", "4", "--ell", "5", "--verify"), 1),
            (("schubert", "1,3,4,7", "8", "--ell", "3", "--ell", "5", "--ell", "7", "--verify"), 2),
            (("schubert", "1,3,4,7", "8", "--ell", "4", "--ell", "6", "--ell", "8"), 2),
            (("grassmannian", "4", "8", "--ell", "3", "--ell", "5", "--ell", "7", "--verify"), 2),
            (("grassmannian", "4", "8", "--ell", "4", "--ell", "6", "--ell", "10"), 2),
        ],
        ids=[
            "partition", "detring", "schubert-verify", "schubert-fallback",
            "grassmannian-verify", "grassmannian-fallback",
        ],
    )
    def test_one_normal_form_per_board(self, capsys, monkeypatch, argv, matrices):
        # Every --ell reads the same generic factors: the board's matrix, and
        # for schubert and grassmannian the bordered matrix of its extended
        # form, are each reduced once per command.
        reduced = spy(monkeypatch, skew_normal_form)
        code, _, _ = run(capsys, *argv)
        assert code == 0
        assert len(reduced) == len({args[0].rows for args in reduced}) == matrices

    @pytest.mark.parametrize("ell, value", [(2, "2^4/2 = 8"), (4, "4^4/2 = 128")], ids=["2", "4"])
    def test_partition_falls_back_at_even_ell(self, capsys, ell, value):
        # The shape (5,3,2) has invariant factors 1 1 1 2, so ell**s would be wrong.
        code, out, err = run(capsys, "partition", "5,3,2", "--ell", str(ell), "--verify")
        assert code == 0 and err == ""
        assert f"PI degree at ell={ell}: {value} [generic route; need odd ell, got {ell}]\n" in out
        assert out.endswith("nothing to compare (generic route answered)\n")

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

    def test_schubert_falls_back_where_the_cycle_sums_share_a_factor_with_ell(self, capsys):
        # The cycle sums of the shape (5,4,4) have gcd 6, so ell = 3 falls
        # back to the generic route; ell = 5 stays closed.
        code, out, _ = run(capsys, "schubert", "1,3,4", "8", "--ell", "3", "--ell", "5", "--json")
        assert code == 0
        fallback, closed = json.loads(out)["pi_degrees"]
        assert (fallback["value"], fallback["route"]) == ("729", "generic (hypothesis not met)")
        assert fallback["reason"] == "need gcd(g, ell) = 1 for the gcd g of the even cycle sums, got gcd(6, 3) = 3"
        assert (closed["ell"], closed["exponent"], closed["divisor"], closed["route"]) == (5, 7, "1", "closed")
        assert "reason" not in closed

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("schubert", "1,x", "5"), "cannot parse index set '1,x'"),
            (("partition", "5,x"), "cannot parse partition '5,x'"),
        ],
        ids=["schubert", "partition"],
    )
    def test_a_bad_list_is_named_in_the_error(self, capsys, argv, message):
        code, out, err = run(capsys, *argv, "--ell", "3")
        assert (code, out, err) == (1, "", f"error: {message}\n")

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
        reason = "need odd ell, got 6"
        code, out, _ = run(capsys, "grassmannian", "2", "6", "--ell", "5", "--ell", "6", "--json")
        assert code == 0
        closed, fallback = json.loads(out)["pi_degrees"]
        assert "reason" not in closed
        assert (fallback["route"], fallback["reason"]) == ("generic (hypothesis not met)", reason)
        code, out, _ = run(capsys, "grassmannian", "2", "6", "--ell", "6")
        assert code == 0 and f"PI degree at ell=6: 6^4/4 = 324 [generic route; {reason}]" in out

    @pytest.mark.parametrize("command", ["partition", "detring", "schubert", "grassmannian"])
    def test_ell_help_admits_even_ell(self, capsys, command):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        out = " ".join(capsys.readouterr().out.split())
        assert "--ell ELL ell >= 2, repeatable" in out and "odd" not in out

    @pytest.mark.parametrize(
        "argv, degree, check",
        [
            (("detring", "3", "1"), "2^2 = 4", "passed"),
            (("schubert", "1,3", "4"), "2^1 = 2 [generic route; need odd ell, got 2]", "nothing to compare"),
            (("grassmannian", "2", "4"), "2^2/2 = 2 [generic route; need odd ell, got 2]", "nothing to compare"),
        ],
        ids=["detring", "schubert", "grassmannian"],
    )
    def test_answers_at_ell_two(self, capsys, argv, degree, check):
        code, out, err = run(capsys, *argv, "--ell", "2", "--verify")
        assert code == 0 and err == ""
        assert f"PI degree at ell=2: {degree}\ncross check against the generic route: {check}" in out

    @pytest.mark.parametrize("ell", ["1", "0", "-3"])
    @pytest.mark.parametrize(
        "argv",
        [
            ("diagram", "BOARD"),
            ("partition", "5,3,2", "--ell", "3", "--verify"),
            ("detring", "4", "2", "--ell", "3", "--verify"),
            ("schubert", "1,3,4,7", "8", "--ell", "4", "--verify"),
            ("grassmannian", "2", "4", "--ell", "4", "--verify"),
            ("rep", "--detring", "3,1"),
            ("rep", "--partition", "5,3,2", "--verify", "--irreducible"),
            ("rep", "--matrix", "BOARD"),
            ("rep",),
        ],
        ids=["diagram", "partition", "detring", "schubert", "grassmannian", "rep",
             "rep-partition", "rep-matrix", "rep-no-source"],
    )
    def test_one_ell_rule_for_every_command(self, capsys, monkeypatch, fig_file, argv, ell):
        # Every command refuses before it reads a file or builds any board,
        # even for an ell before the bad one that a fallback or --verify
        # would build it for; a bad ell wins over a bad source.
        built = [spy(monkeypatch, f)
                 for f in (cli._read_text, young_diagram, determinantal_diagram, skew_normal_form)]
        argv = [fig_file if a == "BOARD" else a for a in argv]
        code, out, err = run(capsys, *argv, "--ell", ell)
        assert (code, out, err) == (1, "", f"error: ell must be at least 2, got {ell}\n")
        assert built == [[], [], [], []]

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

    def test_irreducible_takes_no_prime(self, capsys):
        # The certificate holds over every F_p with ell | p - 1; the report
        # names the least such p, 7 at ell = 3, as it did when p was an option.
        argv = ("rep", "--detring", "3,1", "--ell", "3", "--verify", "--irreducible")
        assert run(capsys, *argv) == (0, (
            "matrix size: 5\nell: 3\nrepresentation dimension: 9\ninvariant factors: 1 1\n"
            "kernel dimension: 1\nrelations: all verified\nirreducible over F_7: yes\n"
        ), "")
        assert run(capsys, *argv, "--json") == (0, json.dumps({
            "dimension": 9, "ell": 3, "invariant_factors": ["1", "1"],
            "irreducible_mod_p": {"irreducible": True, "p": 7}, "kernel_dim": 1,
            "matrix_size": 5, "relations_hold": True, "violation": None,
        }, indent=2) + "\n", "")
        code, out, err = exit_of(capsys, main, (*argv, "13"))
        assert (code, out) == (2, "") and err.endswith("error: unrecognized arguments: 13\n")

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

    @pytest.mark.parametrize(
        "text, message",
        [("[[1]]", "diagonal entry (0, 0) = 1 is not 0"),
         ("[[0, 1], [-1, -2]]", "diagonal entry (1, 1) = -2 is not 0")],
    )
    def test_matrix_source_names_a_nonzero_diagonal_entry(self, capsys, tmp_path, text, message):
        path = tmp_path / "mat.json"
        path.write_text(text)
        code, out, err = run(capsys, "rep", "--matrix", str(path), "--ell", "3")
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_box_needs_a_partition(self, capsys):
        code, out, err = run(capsys, "rep", "--detring", "4,2", "--box", "3x3", "--ell", "3")
        assert (code, out, err) == (1, "", "error: --box needs --partition\n")

    def test_answers_at_ell_two(self, capsys, fig_file):
        # Invariant factors 1 1 1 2: three legs of size 2 and one of size 1.
        code, out, err = run(capsys, "rep", "--diagram", fig_file, "--ell", "2",
                             "--verify", "--irreducible")
        assert code == 0 and err == ""
        assert "representation dimension: 8\n" in out
        assert "relations: all verified" in out and "irreducible over F_3: yes" in out
        code, out, err = run(capsys, "rep", "--diagram", fig_file, "--ell", "1")
        assert (code, out, err) == (1, "", "error: ell must be at least 2, got 1\n")

    @pytest.mark.parametrize("ell", (4, 6, 8, 12))
    @pytest.mark.parametrize(
        "n, t", sorted({(n, t) for n, t, _ in REP_DETRING} | {(6, 3), (8, 4)})
    )
    def test_determinantal_boards_at_even_ell(self, capsys, n, t, ell):
        # Every invariant factor of these boards is a power of 2, so at even
        # ell some legs are smaller than ell; the dimension is the PI degree.
        code, out, err = run(capsys, "rep", "--detring", f"{n},{t}", "--ell", str(ell),
                             "--verify", "--irreducible", "--json")
        assert code == 0 and err == ""
        report = json.loads(out)
        assert report["dimension"] == pi_degree_determinantal(n, t, ell).value
        assert report["relations_hold"] is True
        assert report["irreducible_mod_p"]["irreducible"] is True

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

    @pytest.mark.parametrize(
        "ell, code, text",
        [
            (2 * MAX_REP_DIM, 0, "representation dimension: 59049\n"),
            (2 * MAX_REP_DIM + 2, 1, "error: clock and shift of size 59050 exceed the largest built, 59049\n"),
        ],
        ids=["largest-leg", "above-the-cap"],
    )
    def test_legs_are_bounded_by_their_size_not_by_ell(self, capsys, tmp_path, ell, code, text):
        # The one invariant factor 2 halves the even ell: one leg of size ell / 2.
        path = tmp_path / "mat.json"
        path.write_text("[[0, 2], [-2, 0]]")
        exit_code, out, err = run(capsys, "rep", "--matrix", str(path), "--ell", str(ell), "--verify")
        assert exit_code == code and text in (err if code else out)

    def test_irreducibility_factors_the_leg_sizes_not_ell(self, capsys, monkeypatch, tmp_path):
        # ell = 2p for the Mersenne prime p = 2**61 - 1, whose block has
        # h = p: one leg of size 2. Factoring ell would trial-divide p.
        p = 2**61 - 1
        original = reps.smallest_prime_factor

        def refuse_p(x):
            assert x % p, f"asked to factor a multiple of p: {x}"
            return original(x)

        monkeypatch.setattr(reps, "smallest_prime_factor", refuse_p)
        path = tmp_path / "mat.json"
        path.write_text(f"[[0, {p}], [{-p}, 0]]")
        start = time.perf_counter()
        code, out, err = run(capsys, "rep", "--matrix", str(path), "--ell", str(2 * p),
                             "--verify", "--irreducible")
        assert code == 0 and err == ""
        assert "representation dimension: 2\n" in out and "relations: all verified" in out
        assert re.search(r"irreducible over F_\d+: yes", out)
        assert time.perf_counter() - start < 1

    def test_no_field_is_named_above_the_proved_primality_bound(self, capsys, tmp_path):
        # One leg of size 5; the least p with ell | p - 1 is above the bound
        # below which is_prime is proved, so no F_p is named.
        h = 2 * 10**24
        path = tmp_path / "mat.json"
        path.write_text(f"[[0, {h}], [{-h}, 0]]")
        assert run(capsys, "rep", "--matrix", str(path), "--ell", str(10**25), "--irreducible") == (
            1, "", "error: primality is proved only below 3317044064679887385961981\n"
        )
        code, out, _ = run(capsys, "rep", "--matrix", str(path), "--ell", str(10**25), "--verify")
        assert code == 0 and "representation dimension: 5\n" in out

    def test_each_certificate_is_made_once(self, capsys, monkeypatch, tmp_path, fig_file):
        # With --verify --irreducible, the pairing runs once, in construction,
        # and clock_shift and the leg check once per distinct h mod ell.
        names = ("_pairing_violation", "clock_shift", "_checked_leg")
        calls = dict.fromkeys(names, 0)

        def spy(name):
            original = getattr(reps, name)

            def spied(*args):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(reps, name, spied)

        for name in names:
            spy(name)
        argvs = [op.argv for op in GENERATORS["rep"](1, tmp_path)]
        argvs.append(("rep", "--diagram", fig_file, "--ell", "3", "--json"))  # h = 1 1 1 2
        distinct = set()
        for argv in argvs:
            calls.update(dict.fromkeys(names, 0))
            argv = [*argv, *sorted({"--verify", "--irreducible"} - set(argv))]
            code, out, err = run(capsys, *argv)
            report = json.loads(out)
            legs = len({int(h) % report["ell"] for h in report["invariant_factors"]})
            assert (code, err, report["relations_hold"]) == (0, "", True)
            assert calls == {"_pairing_violation": 1, "clock_shift": legs, "_checked_leg": legs}, argv
            distinct.add(legs)
        assert distinct == {1, 2}

    def test_verify_checks_the_legs(self, monkeypatch):
        # A shift that is the clock again commutes with it: --verify reads
        # the legs, and a bad one is the package's fault.
        clock_shift = reps.clock_shift
        monkeypatch.setattr(reps, "clock_shift", lambda ell, h: (clock_shift(ell, h)[0],) * 2)
        with pytest.raises(InternalVerificationFailed, match="block 0: clock and shift do not commute"):
            main(["rep", "--detring", "4,2", "--ell", "3", "--verify"])

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

    def test_huge_grassmannian_builds_no_board(self, capsys, monkeypatch):
        # The Grassmannian is its rectangle's Schubert cell, answered from tau.
        def refuse(*args, **kwargs):
            raise AssertionError("the closed route built a board fact")

        for original in (young_diagram, matrix_from_diagram, skew_normal_form):
            patch_everywhere(monkeypatch, original, refuse)
        start = time.perf_counter()
        code, out, err = run(capsys, "grassmannian", "6000", "12000", "--ell", "3")
        assert time.perf_counter() - start < 1.0
        assert (code, err) == (0, "") and "3^17997001" in out

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

    def test_rep_dimension_follows_the_budget(self, capsys, monkeypatch, fig_file):
        # 625 has 3 digits: written whole at a budget of 3, in exponent form at 2.
        argv = ("rep", "--diagram", fig_file, "--ell", "5")
        monkeypatch.setenv("PIDEG_DIGIT_BUDGET", "3")
        assert "\nrepresentation dimension: 625\n" in run(capsys, *argv)[1]
        assert json.loads(run(capsys, *argv, "--json")[1])["dimension"] == 625
        monkeypatch.setenv("PIDEG_DIGIT_BUDGET", "2")
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert "\nrepresentation dimension: 5^4 (3 digits, value suppressed)\n" in out
        report = json.loads(run(capsys, *argv, "--json")[1])
        assert (report["dimension"], report["dimension_digits"]) == (None, 3)
        assert report["dimension_exponent_form"] == "5^4"

    # 10^400 at detring 20,1: a dimension of 7601 digits, past the default
    # budget and past Python's int -> str limit, under any budget.
    HUGE_ELL = "1" + "0" * 400

    @pytest.mark.parametrize("budget", [None, "100000"], ids=["default", "raised"])
    def test_huge_rep_dimension(self, capsys, monkeypatch, budget):
        if budget:
            monkeypatch.setenv("PIDEG_DIGIT_BUDGET", budget)
        argv = ("rep", "--detring", "20,1", "--ell", self.HUGE_ELL)
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert f"\nrepresentation dimension: {self.HUGE_ELL}^19 (7601 digits, value suppressed)\n" in out
        code, out, err = run(capsys, *argv, "--json")
        assert (code, err) == (0, "")
        report = json.loads(out)
        assert report["dimension"] is None and report["dimension_digits"] == 7601
        assert report["dimension_exponent_form"] == f"{self.HUGE_ELL}^19"
        assert report["invariant_factors"] == ["1"] * 19

    @pytest.mark.parametrize("budget", [None, "100000"], ids=["default", "raised"])
    def test_huge_rep_invariant_factor(self, capsys, monkeypatch, tmp_path, budget):
        # A 4 x 4 matrix with a unit entry and 4000-digit entries elsewhere:
        # its second factor is the Pfaffian, of about 8000 digits.
        if budget:
            monkeypatch.setenv("PIDEG_DIGIT_BUDGET", budget)
        rng = random.Random(24)
        big = [rng.randrange(10**3999, 10**4000) for _ in range(5)]
        a = {(0, 1): 1, (0, 2): big[0], (0, 3): big[1], (1, 2): big[2], (1, 3): big[3], (2, 3): big[4]}
        rows = [[0] * 4 for _ in range(4)]
        for (i, j), x in a.items():
            rows[i][j], rows[j][i] = x, -x
        path = tmp_path / "mat.json"
        path.write_text(json.dumps(rows))
        pfaffian = abs(a[0, 1] * a[2, 3] - a[0, 2] * a[1, 3] + a[0, 3] * a[1, 2])
        dim = 3 * (3 // gcd(pfaffian, 3))
        argv = ("rep", "--matrix", str(path), "--ell", "3", "--verify")
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        with unlimited_str_digits():
            factors = ["1", str(pfaffian)]
        assert len(factors[1]) > 7990
        assert f"\nrepresentation dimension: {dim}\ninvariant factors: 1 {factors[1]}\n" in out
        code, out, err = run(capsys, *argv, "--json")
        assert (code, err) == (0, "")
        report = json.loads(out)
        assert (report["dimension"], report["invariant_factors"]) == (dim, factors)
        assert report["relations_hold"] is True

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

    def test_items_are_built_one_at_a_time(self, capsys, tmp_path, monkeypatch):
        # Each board is built when the loop reaches it, and once checked
        # only the boards of recorded failures stay alive: here the first
        # 20 of the 30 boards that fail, every third of 90.
        refs, alive = [], []
        boards = sweep.random_diagrams

        def built_one_at_a_time(*args):
            for d in boards(*args):
                refs.append(weakref.ref(d))
                yield d

        def every_third(facts):
            alive.append(sum(ref() is not None for ref in refs[:-1]))
            return ["forced"] if len(refs) % 3 == 0 else []

        monkeypatch.setattr(sweep, "random_diagrams", built_one_at_a_time)
        monkeypatch.setitem(DIAGRAM_PROPERTIES, "every-third", every_third)
        out_dir = tmp_path / "dumps"
        code, out, _ = run(capsys, "sweep", "random 3x3 x90", "--seed", "7",
                           "--properties", "every-third", "--out", str(out_dir), "--json")
        assert code == 1 and json.loads(out)["properties"][0]["failures"] == 30
        assert alive == [min(k // 3, 20) for k in range(90)]
        expected = list(boards(3, 3, 90, 7))
        for k in range(2, 60, 3):
            text = (out_dir / f"counterexample-every-third-{k}.txt").read_text()
            assert text == expected[k].to_text() + "\n# property: every-third\n# forced\n"
        assert len(list(out_dir.iterdir())) == 20

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
            ("mutation 2x3 x5", "bad mutation corpus: 'mutation 2x3 x5'"),
            ("random -1x2 x3", "bad random corpus: 'random -1x2 x3'"),
            ("exhaustive 2x2 x3", "cannot parse corpus spec 'exhaustive 2x2 x3'"),
            ("random 2x2 3", "cannot parse corpus spec 'random 2x2 3'"),
            ("random 2x2 x", "cannot parse corpus spec 'random 2x2 x'"),
            ("", "cannot parse corpus spec ''"),
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

    @pytest.mark.parametrize("spec", ["exhaustive 4x4", "random 6x6 x1000"])
    @pytest.mark.parametrize("properties, message", [
        ("bogus", "unknown properties for a diagram corpus: bogus; available: "
         + ", ".join(sorted(DIAGRAM_PROPERTIES))),
        ("", "no properties given"),
    ])
    def test_bad_properties_are_refused_before_any_board_is_built(
        self, capsys, monkeypatch, tmp_path, spec, properties, message
    ):
        built = [spy(monkeypatch, f) for f in (sweep.exhaustive_diagrams, sweep.random_diagrams)]
        code, out, err = run(capsys, "sweep", spec, "--properties", properties,
                             "--out", str(tmp_path / "f"))
        assert (code, out, err) == (1, "", f"error: {message}\n")
        assert built == [[], []]


def patch_everywhere(monkeypatch, original, replacement) -> None:
    """Bind replacement wherever a package module binds the function original."""
    for name, module in list(sys.modules.items()):
        if name == "pideg" or name.startswith("pideg."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, replacement)


def spy(monkeypatch, original) -> list:
    """Count calls of a package function through every module that binds it."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    patch_everywhere(monkeypatch, original, counted)
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

    def test_mod_p_makes_one_elimination_per_board(self, capsys, tmp_path, monkeypatch):
        # Every sweep prime reads its rank from one elimination mod their product.
        eliminations = spy(monkeypatch, ranks_mod)
        code, out, _ = run(
            capsys, "sweep", "exhaustive 2x3", "--properties", "mod-p",
            "--out", str(tmp_path / "f"),
        )
        assert code == 0 and "result: PASS" in out
        assert [primes for _, primes in eliminations] == [SWEEP_PRIMES] * 64

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


# Help after a second subcommand name is the first one's: argparse hands
# every word after it to the subcommand it names.
HELP_ARGVS = [("--help",), ("-h",)] + [(name, "--help") for name in COMMANDS] + [
    ("diagram", "rep", "--help"),
    ("rep", "diagram", "--help"),
]
USAGE_ARGVS = [
    (),
    ("bogus",),
    ("--json",),
    ("-h", "rep"),
    ("rep", "--ell", "x"),
    ("rep", "--detring", "4,2", "--ell", "3", "extra"),
    ("detring", "3"),
    ("grassmannian", "3", "6", "--ell", "3", "--bogus"),
    # A missing positional, printed by each subcommand's own parser.
    ("diagram", "--ell", "3"),
    ("partition", "--ell", "3"),
    ("schubert", "1,3"),
    ("sweep", "--seed", "1"),
]


def argv_id(argv) -> str:
    return " ".join(argv) or "no-arguments"


def exit_of(capsys, parse, argv) -> tuple[int, str, str]:
    """Exit status, stdout and stderr of a parse that ends the program."""
    with pytest.raises(SystemExit) as exited:
        parse(list(argv))
    captured = capsys.readouterr()
    return exited.value.code, captured.out, captured.err


class TestBoardSizeBound:
    """A board past the size bound of diagrams.check_board_size, whatever
    its source, is refused before its matrix is built; a shape or (n, t)
    past the cells bound before its board is built; and a closed route
    past the labels bound before it lists them."""

    @pytest.mark.parametrize(
        "argv, code",
        [
            (("rep", "--partition", "99999999", "--ell", "3"), 1),
            (("grassmannian", "60", "120", "--ell", "4"), 1),
            (("grassmannian", "30", "60", "--ell", "4"), 0),
            (("diagram", "{row}"), 1),
            (("partition", "1000000", "--ell", "3"), 1),
            (("detring", "500001", "5", "--ell", "3"), 1),
            (("schubert", "1", "1000001", "--ell", "3"), 1),
            (("grassmannian", "1", "1000001", "--ell", "3"), 1),
            (("sweep", "random 2000x2000 x1", "--out", "{out}"), 1),
            (("sweep", "mutation 3000x3000 x1", "--out", "{out}"), 1),
        ],
        ids=["rep-partition-99999999", "grassmannian-60-120", "grassmannian-30-60", "diagram-row-600",
             "partition-1000000", "detring-500001-5", "schubert-1-1000001", "grassmannian-1-1000001",
             "sweep-random-2000x2000", "sweep-mutation-3000x3000"],
    )
    def test_boards_past_the_size_bound_are_refused_at_once(self, tmp_path, argv, code):
        # A few characters name a board whose form over Z would run for
        # minutes or exhaust memory; it is refused before it is built. The
        # form over Z of the all-white row of 600 squares, read from a file,
        # would take about 12 s. A sweep corpus is refused before its first
        # item is built.
        row = tmp_path / "row.txt"
        row.write_text("." * 600 + "\n")
        argv = [word.format(row=row, out=tmp_path / "out") for word in argv]
        src = str(Path(__file__).resolve().parent.parent / "src")
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-m", "pideg", *argv],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, timeout=120,
        )
        assert done.returncode == code
        if code:
            assert done.stdout == "" and done.stderr.count("\n") == 1
            assert done.stderr.startswith("error: a ") and "exceeds the largest built" in done.stderr
            assert time.perf_counter() - start < 1
        else:
            assert done.stderr == "" and "PI degree at ell=4: " in done.stdout

    @pytest.mark.parametrize(
        "argv",
        [("diagram", "{board}"), ("rep", "--diagram", "{board}", "--ell", "3"),
         ("sweep", "random 6x6 x2", "--out", "{out}")],
        ids=["diagram", "rep-diagram", "sweep"],
    )
    def test_every_board_source_meets_the_cost_bound(self, capsys, monkeypatch, tmp_path, fig_file, argv):
        monkeypatch.setattr(diagrams, "MAX_BOARD_COST", 1)
        argv = [word.format(board=fig_file, out=tmp_path / "out") for word in argv]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: a ") and err.count("\n") == 1 and "matrix nonzeros exceeds" in err

    @pytest.mark.parametrize(
        "command, allowed, refused, labels",
        [
            ("partition", ("11",), ("12",), 13),
            ("detring", ("6", "2"), ("7", "2"), 14),
            ("schubert", ("1", "12"), ("1", "13"), 13),
            ("grassmannian", ("1", "12"), ("1", "13"), 13),
        ],
        ids=["partition", "detring", "schubert", "grassmannian"],
    )
    def test_closed_routes_list_at_most_the_labels_bound(self, capsys, monkeypatch, command, allowed, refused, labels):
        # The allowed input lists 12 labels, the bound; the refused one the next count its route can list.
        monkeypatch.setattr(diagrams, "MAX_BOARD_CELLS", 12)
        code, out, err = run(capsys, command, *allowed, "--ell", "3")
        assert (code, err) == (0, "") and "PI degree at ell=3: " in out
        code, out, err = run(capsys, command, *refused, "--ell", "3")
        assert (code, out) == (1, "")
        assert err == f"error: a permutation of {labels} labels exceeds the largest built: 12 labels\n"


def dense_skew_json(n: int, bound: int) -> str:
    """A dense n x n skew matrix, entries above the diagonal uniform in
    [-bound, bound] (seed 1), as JSON."""
    rng = random.Random(1)
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rng.randint(-bound, bound)
            rows[j][i] = -rows[i][j]
    return json.dumps(rows)


class TestMatrixCostBound:
    """A matrix that rep --matrix reads whole is refused past
    intlinalg.MAX_MATRIX_COST before its form over Z."""

    def test_a_dense_150x150_matrix_is_refused_at_once(self, tmp_path):
        # Its form over Z would run for a minute or more.
        path = tmp_path / "dense150.json"
        path.write_text(dense_skew_json(150, 5))
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-m", "pideg", "rep", "--matrix", str(path), "--ell", "3"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert (done.returncode, done.stdout) == (1, "")
        assert done.stderr.startswith("error: a 150x150 matrix with ") and done.stderr.count("\n") == 1
        assert "exceeds the largest reduced" in done.stderr
        assert time.perf_counter() - start < 1

    @pytest.mark.parametrize(
        "rows, size",
        [(lambda: json.loads(dense_skew_json(60, 5)), 60),
         (lambda: matrix_from_diagram(diagrams.diagram_from_text(("." * 16 + "\n") * 16)).to_lists(), 256)],
        ids=["dense-60x60", "all-white-16x16-board"],
    )
    def test_matrices_under_the_bound_are_answered(self, capsys, tmp_path, rows, size):
        path = tmp_path / "mat.json"
        path.write_text(json.dumps(rows()))
        code, out, err = run(capsys, "rep", "--matrix", str(path), "--ell", "3", "--json")
        assert (code, err) == (0, "")
        assert json.loads(out)["matrix_size"] == size

    def test_the_bound_is_the_largest_reduced(self, capsys, monkeypatch, tmp_path):
        # 2 nonzeros, 1 per row, of 2 bits with the sign: a cost of 4.
        path = tmp_path / "mat.json"
        path.write_text("[[0, 1], [-1, 0]]")
        monkeypatch.setattr(intlinalg, "MAX_MATRIX_COST", 4)
        code, out, err = run(capsys, "rep", "--matrix", str(path), "--ell", "3")
        assert (code, err) == (0, "") and "representation dimension: 3" in out
        monkeypatch.setattr(intlinalg, "MAX_MATRIX_COST", 3)
        assert run(capsys, "rep", "--matrix", str(path), "--ell", "3") == (
            1, "", "error: a 2x2 matrix with 2 nonzeros of up to 2 bits, sign included, exceeds "
            "the largest reduced: 3 nonzeros x nonzeros per row x bits\n",
        )


class TestUnreadableInput:
    """Every command that reads a file ends a file it cannot read with
    exit status 1 and one stderr line, never a traceback."""

    @pytest.fixture()
    def bad_paths(self, tmp_path):
        (tmp_path / "utf16.txt").write_bytes(b"\xff\xfe.\x00#\x00\n\x00")
        (tmp_path / "nested.json").write_text("[" * 100_000)
        (tmp_path / "folder").mkdir()
        return {name: str(tmp_path / name)
                for name in ("utf16.txt", "nested.json", "folder", "missing")}

    READERS = (("diagram", "{}"), ("rep", "--diagram", "{}", "--ell", "3"),
               ("rep", "--matrix", "{}", "--ell", "3"))

    @pytest.mark.parametrize("command", READERS, ids=lambda c: "-".join(c[:2]))
    @pytest.mark.parametrize("name", ("utf16.txt", "nested.json", "folder", "missing"))
    def test_one_error_line(self, capsys, bad_paths, command, name):
        argv = [word.format(bad_paths[name]) for word in command]
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err

    def test_not_utf8_names_the_file(self, capsys, bad_paths):
        path = bad_paths["utf16.txt"]
        code, _, err = run(capsys, "diagram", path)
        assert code == 1 and err.startswith(f"error: {path} is not UTF-8 text: ")

    def test_module_reports_one_error_line(self, bad_paths):
        src = str(Path(__file__).resolve().parent.parent / "src")
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        nested = bad_paths["nested.json"]
        done = subprocess.run(
            [sys.executable, "-m", "pideg", "rep", "--matrix", nested, "--ell", "3"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, timeout=120,
        )
        assert done.returncode == 1 and done.stdout == ""
        assert done.stderr.startswith(f"error: cannot read a matrix from {nested}: ")
        assert done.stderr.count("\n") == 1 and "Traceback" not in done.stderr


class TestParser:
    """The parser that main builds for one subcommand prints what the full
    parser of every subcommand prints, and costs only that subcommand: only
    the subcommand the command line names gets -h and its arguments, and the
    others are registered by name and help line only."""

    @pytest.fixture(autouse=True)
    def fixed_width(self, monkeypatch):
        # argparse wraps help to the terminal's width; pin it for both sides.
        monkeypatch.setenv("COLUMNS", "80")

    @pytest.mark.parametrize("argv", HELP_ARGVS + USAGE_ARGVS, ids=argv_id)
    def test_same_bytes_as_the_full_parser(self, capsys, argv):
        expected = exit_of(capsys, lambda words: full_parser().parse_args(words), argv)
        assert exit_of(capsys, main, argv) == expected
        assert expected[0] == (0 if {"-h", "--help"} & set(argv) else 2)

    @pytest.mark.parametrize("argv", HELP_ARGVS + [()], ids=argv_id)
    def test_module_reads_sys_argv(self, capsys, argv):
        expected = exit_of(capsys, lambda words: full_parser().parse_args(words), argv)
        src = str(Path(__file__).resolve().parent.parent / "src")
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        done = subprocess.run(
            [sys.executable, "-m", "pideg", *argv],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, timeout=120,
        )
        assert (done.returncode, done.stdout, done.stderr) == expected

    @pytest.mark.parametrize("columns", ["40", "200"])  # and the fixture's 80
    @pytest.mark.parametrize("argv", HELP_ARGVS + USAGE_ARGVS, ids=argv_id)
    def test_same_bytes_as_the_full_parser_at_40_and_200_columns(self, capsys, monkeypatch, argv, columns):
        monkeypatch.setenv("COLUMNS", columns)
        expected = exit_of(capsys, lambda words: full_parser().parse_args(words), argv)
        assert exit_of(capsys, main, argv) == expected

    @pytest.mark.parametrize("argv", [("-h",), ("rep", "-h")], ids=argv_id)
    def test_help_through_a_pipe_without_columns(self, monkeypatch, argv):
        # With COLUMNS unset and stdout a pipe, get_terminal_size falls back
        # to its default width on both sides.
        monkeypatch.delenv("COLUMNS", raising=False)
        monkeypatch.delenv("LINES", raising=False)
        root = Path(__file__).resolve().parent.parent
        paths = (str(root / "src"), str(root), os.environ.get("PYTHONPATH"))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}

        def python(*args):
            done = subprocess.run(
                [sys.executable, *args], capture_output=True, text=True, cwd=root, env=env, timeout=120,
            )
            return done.returncode, done.stdout, done.stderr

        oracle = "import sys; from tests.oracles import full_parser; full_parser().parse_args(sys.argv[1:])"
        expected = python("-c", oracle, *argv)
        assert expected[0] == 0 and expected[1].startswith("usage: pideg")
        assert python("-m", "pideg", *argv) == expected

    def test_one_parser_for_pideg_one_for_the_subcommand_and_one_width(self, capsys, monkeypatch, tmp_path):
        # ArgumentParser is built for pideg and for the subcommand argv
        # names, and for pideg alone when argv names none; the terminal
        # width is read once per call, not once per formatter.
        parsers, widths = [], []
        parser_init = argparse.ArgumentParser.__init__
        terminal_size = shutil.get_terminal_size

        def counted_parser(parser, *args, **kwargs):
            parsers.append(kwargs.get("prog"))
            return parser_init(parser, *args, **kwargs)

        def counted_size(*args, **kwargs):
            widths.append(args)
            return terminal_size(*args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted_parser)
        monkeypatch.setattr(shutil, "get_terminal_size", counted_size)
        monkeypatch.setattr(cli, "COMMANDS", {
            name: (help_line, lambda args: 0, arguments)
            for name, (help_line, _, arguments) in COMMANDS.items()
        })
        argvs = [op.argv for name in ("rep", "diagram", "sweep") for op in GENERATORS[name](1, tmp_path)]
        assert len(argvs) > 100
        for argv in argvs:
            parsers.clear()
            widths.clear()
            assert main(list(argv)) == 0
            assert parsers == ["pideg", f"pideg {argv[0]}"] and len(widths) == 1, argv
        for argv in [(), ("-h",), ("bogus",)]:
            parsers.clear()
            widths.clear()
            with pytest.raises(SystemExit):
                main(list(argv))
            assert parsers == ["pideg"] and len(widths) == 1, argv
        capsys.readouterr()

    def test_only_the_named_subcommand_gets_its_arguments(self, capsys, monkeypatch):
        added = []
        formatters = []
        add_argument = argparse.ArgumentParser.add_argument
        formatter_init = argparse.HelpFormatter.__init__

        def counted(parser, *args, **kwargs):
            added.append(args)
            return add_argument(parser, *args, **kwargs)

        def counted_formatter(formatter, *args, **kwargs):
            formatters.append(formatter)
            return formatter_init(formatter, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counted)
        monkeypatch.setattr(argparse.HelpFormatter, "__init__", counted_formatter)
        code, out, _ = run(capsys, "rep", "--detring", "4,2", "--ell", "3")
        assert code == 0 and "representation dimension: 243" in out
        # One -h for the top-level parser and one for the named subcommand;
        # the other six are registered by name and help line only, and add
        # no argument, not even -h.
        assert added.count(("-h", "--help")) == 2
        assert len(formatters) == 12
        assert [args for args in added if args != ("-h", "--help")] == [
            ("--diagram",), ("--matrix",), ("--detring",), ("--partition",), ("--box",),
            ("--ell",), ("--verify",), ("--irreducible",), ("--json",),
        ]

    def test_namespace_is_the_full_parsers(self, monkeypatch, tmp_path):
        # Every seed-1 diagram, sweep and rep workload command line and every
        # README command parses to what the full parser gives, apart from
        # the handler that the full parser sets as a default.
        commands = readme_commands()
        assert len(commands) == 10
        argvs = [op.argv for name in ("diagram", "sweep", "rep")
                 for op in GENERATORS[name](1, tmp_path)]
        argvs += commands
        seen = []
        monkeypatch.setattr(cli, "COMMANDS", {
            name: (help_line, seen.append, arguments)
            for name, (help_line, _, arguments) in COMMANDS.items()
        })
        for argv in argvs:
            seen.clear()
            main(list(argv))
            expected = vars(full_parser().parse_args(argv))
            del expected["func"]
            assert [vars(args) for args in seen] == [expected], argv


def readme_commands() -> list[list[str]]:
    """The arguments of every pideg command line in a README sh block,
    comments dropped."""
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), re.S)
    return [
        shlex.split(line, comments=True)
        for block in blocks
        for line in re.findall(r"^(?:\$ )?pideg (.*)$", block, re.M)
    ]


def readme_python_blocks() -> list[str]:
    return re.findall(r"```python\n(.*?)```", README.read_text(), re.S)


def readme_transcripts() -> list[tuple[str, str]]:
    """(command, output) of each '$ pideg ...' transcript in README.md."""
    blocks = re.findall(r"```sh\n\$ pideg (.*?)\n(.*?)```", README.read_text(), re.S)
    return [(command, output) for command, output in blocks]


class TestReadme:
    def test_transcripts_are_found(self):
        assert [command.split()[0] for command, _ in readme_transcripts()] == ["diagram", "schubert", "rep"]

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

"""PI degrees: generic route, closed forms, extended algebras."""

from itertools import combinations

import pytest

from pideg import (
    BadEll,
    BadRange,
    DiagramFacts,
    EvenEll,
    FormulaMismatch,
    Partition,
    PiDegree,
    PluckerIndex,
    determinantal_diagram,
    determinantal_invariant_exponent,
    determinantal_toric_cycles,
    diagram_from_text,
    extend,
    matrix_from_diagram,
    mu2,
    partition_from_plucker,
    pi_degree_determinantal,
    pi_degree_extended_diagram,
    pi_degree_from_factors,
    pi_degree_grassmannian,
    pi_degree_partition,
    pi_degree_qas,
    pi_degree_schubert,
    rectangle_kernel_dim,
    skew_normal_form,
    smallest_prime_factor,
    toric_permutation,
    young_diagram,
)
from pideg.sweep import exhaustive_diagrams
from tests.conftest import (
    EG_EXT_INVARIANT_FACTORS,
    EG_EXT_PI_AT_5,
    EG_EXT_PI_AT_9,
    EG_TEXT,
    FIG_PI_AT_5,
    FIG_TEXT,
    FIG_YOUNG_PI_AT_5,
)
from tests.oracles import (
    all_white, brute_pi_degree, one_perp, rational_nullity, smith_pi_degree,
)


class TestSmallHelpers:
    def test_mu2(self):
        assert [mu2(x) for x in (1, 2, 3, 4, 6, 8, 12)] == [0, 1, 0, 2, 1, 3, 2]

    def test_mu2_rejects_nonpositive(self):
        with pytest.raises(BadRange):
            mu2(0)

    def test_smallest_prime_factor(self):
        assert smallest_prime_factor(2) == 2
        assert smallest_prime_factor(9) == 3
        assert smallest_prime_factor(35) == 5
        assert smallest_prime_factor(97) == 97


class TestPiDegreeValue:
    def test_value_and_str(self):
        pi = PiDegree(ell=6, exponent=4, divisor=2)
        assert pi.value == 648
        assert str(pi) == "6^4/2"
        assert str(PiDegree(ell=5, exponent=4)) == "5^4"

    def test_divisor_must_divide(self):
        with pytest.raises(BadRange):
            PiDegree(ell=5, exponent=2, divisor=3)

    def test_factor_product_is_checked(self):
        from pideg import InternalVerificationFailed

        with pytest.raises(InternalVerificationFailed):
            PiDegree(ell=5, exponent=2, factors=(5, 4))


class TestGenericRoute:
    def test_reference_board(self, fig_diagram):
        M = matrix_from_diagram(fig_diagram)
        assert pi_degree_qas(M, 5).value == FIG_PI_AT_5
        assert pi_degree_qas(M, 2).value == 8
        assert pi_degree_qas(M, 3).value == 81
        assert pi_degree_qas(M, 4).value == 128

    def test_from_factors(self):
        pi = pi_degree_from_factors((1, 1, 1, 2), 6)
        assert pi.value == 648
        assert pi.factors == (6, 6, 6, 3)

    def test_ell_too_small(self):
        with pytest.raises(BadEll):
            pi_degree_from_factors((1,), 1)

    def test_empty_matrix_gives_trivial_degree(self):
        from pideg import SkewIntMatrix

        assert pi_degree_qas(SkewIntMatrix(()), 7).value == 1

    def test_matches_group_order_counting(self):
        # Direct counting over Z/ell on every 2x2 board.
        for d in exhaustive_diagrams(2, 2):
            M = matrix_from_diagram(d)
            for ell in (2, 3, 4, 5, 6):
                assert pi_degree_qas(M, ell).value == brute_pi_degree(
                    M.to_lists(), ell
                )

    def test_matches_classical_smith_route(self):
        for d in exhaustive_diagrams(2, 3):
            M = matrix_from_diagram(d)
            for ell in (2, 3, 4, 5, 6, 9):
                assert pi_degree_qas(M, ell).value == smith_pi_degree(
                    M.to_lists(), ell
                )


class TestPartitionClosedForm:
    def test_reference_shape(self):
        pi = pi_degree_partition(Partition((5, 3, 2)), 5, cross_check=True)
        assert pi.value == FIG_YOUNG_PI_AT_5

    def test_even_ell_rejected(self):
        with pytest.raises(EvenEll):
            pi_degree_partition(Partition((2, 1)), 4)

    def test_tiny_ell_rejected(self):
        with pytest.raises(BadEll):
            pi_degree_partition(Partition((2, 1)), 2)

    def test_empty_shape(self):
        assert pi_degree_partition(Partition(()), 7).value == 1

    def test_cross_checked_small_shapes(self):
        shapes = [(1,), (2,), (2, 1), (3, 1), (2, 2), (3, 2, 1), (4, 4, 2)]
        for parts in shapes:
            for ell in (3, 5, 9):
                pi_degree_partition(Partition(parts), ell, cross_check=True)


class TestDeterminantalClosedForm:
    def test_invariant_exponent(self):
        assert determinantal_invariant_exponent(3, 1) == 2
        assert determinantal_invariant_exponent(4, 2) == 5
        with pytest.raises(BadRange):
            determinantal_invariant_exponent(3, 3)

    def test_frozen_values(self):
        assert pi_degree_determinantal(3, 1, 4).value == 16
        assert pi_degree_determinantal(4, 2, 3).value == 243
        assert pi_degree_determinantal(3, 1, 3).value == 9

    def test_even_ell_divisor(self):
        pi = pi_degree_determinantal(4, 2, 4)
        assert pi.divisor == 4 and pi.value == 256

    def test_ell_two_rejected(self):
        with pytest.raises(BadEll):
            pi_degree_determinantal(3, 1, 2)

    def test_against_classical_smith_route(self):
        for n in range(2, 6):
            for t in range(1, n):
                rows = matrix_from_diagram(determinantal_diagram(n, t)).to_lists()
                for ell in (3, 4, 5, 6):
                    assert pi_degree_determinantal(n, t, ell).value == (
                        smith_pi_degree(rows, ell)
                    )

    def test_closed_form_cycles_match_traced(self):
        for n in range(2, 7):
            for t in range(1, n):
                closed = determinantal_toric_cycles(n, t)
                traced = toric_permutation(determinantal_diagram(n, t)).cycles
                assert closed == traced
                assert closed.odd_cycle_count == t

    def test_cycle_lengths_are_even(self):
        for n in range(2, 8):
            for t in range(1, n):
                for cycle in determinantal_toric_cycles(n, t).cycles:
                    assert len(cycle) % 2 == 0


class TestExtendedClosedForm:
    def test_border_adds_one_factor_here(self, fig_diagram):
        # This board's kernel vector has nonzero sum and 5 has no small
        # prime factor, so the border contributes a clean extra ell.
        assert pi_degree_extended_diagram(fig_diagram, 5, cross_check=True).value == 3125

    def test_small_prime_case(self, eg_diagram):
        assert pi_degree_extended_diagram(eg_diagram, 5, cross_check=True).value == (
            EG_EXT_PI_AT_5
        )
        assert pi_degree_extended_diagram(eg_diagram, 9, cross_check=True).value == (
            EG_EXT_PI_AT_9
        )

    def test_even_ell_rejected(self, fig_diagram):
        with pytest.raises(EvenEll):
            pi_degree_extended_diagram(fig_diagram, 4)

    def test_all_cases_against_generic(self):
        # Exhaust 3x3 boards at several odd levels; cross_check compares
        # the case analysis with the generic route on the bordered matrix.
        for d in exhaustive_diagrams(3, 3):
            for ell in (3, 5, 9, 15, 10**18 + 3):
                pi_degree_extended_diagram(d, ell, cross_check=True)


class TestSchubertClosedForm:
    def test_frozen_value(self):
        pi = pi_degree_schubert(PluckerIndex((1, 3, 4, 7), 8), 5, cross_check=True)
        assert pi.value == 15625

    def test_even_ell_hypothesis(self):
        # Outside the hypothesis the generic route on the extended matrix of
        # the cell's Young shape answers, and the degree names that route.
        idx = PluckerIndex((1, 3), 4)
        shape = partition_from_plucker(idx)
        generic = pi_degree_qas(extend(matrix_from_diagram(young_diagram(shape))), 6)
        pi = pi_degree_schubert(idx, 6, cross_check=True)
        assert (pi.route, pi.reason) == (
            "generic (hypothesis not met)",
            "need odd ell with smallest prime factor above 2, got 6",
        )
        assert (pi.exponent, pi.divisor, pi.factors) == (
            generic.exponent, generic.divisor, generic.factors
        )
        assert generic.route == "generic"
        assert pi_degree_schubert(idx, 5).route == "closed"

    def test_ell_two_rejected(self):
        with pytest.raises(BadEll):
            pi_degree_schubert(PluckerIndex((1, 3), 4), 2)

    def test_single_row_box(self):
        # A one-row box has hypothesis bound 1, so ell = 3 qualifies.
        pi_degree_schubert(PluckerIndex((2,), 4), 3, cross_check=True)

    def test_cross_checked_all_cells_in_small_ambients(self):
        for n in range(2, 7):
            for m in range(1, n):
                for gamma in combinations(range(1, n + 1), m):
                    for ell in (3, 5):
                        pi_degree_schubert(
                            PluckerIndex(gamma, n), ell, cross_check=True
                        )


    def test_kernel_sum_test_against_the_oracle(self):
        # The closed form reads whether the kernel sums to zero from the
        # even toric cycles; the exponent is s exactly when it does.
        for n in range(2, 9):
            for m in range(1, n):
                for gamma in combinations(range(1, n + 1), m):
                    shape = partition_from_plucker(PluckerIndex(gamma, n))
                    rows = matrix_from_diagram(young_diagram(shape)).rows
                    s = (len(rows) - rational_nullity(rows)) // 2
                    pi = pi_degree_schubert(PluckerIndex(gamma, n), 5)
                    assert pi.exponent == (s if one_perp(rows) else s + 1)


class TestGrassmannianClosedForm:
    def test_frozen_values(self):
        assert pi_degree_grassmannian(2, 4, 5).value == 25
        assert pi_degree_grassmannian(2, 6, 5).value == 625
        assert pi_degree_grassmannian(4, 8, 5).exponent == 7

    def test_kernel_dimension_rule(self):
        # gcd(a, b) kernel directions exactly when the sides share their
        # 2-adic valuation, none otherwise.
        assert rectangle_kernel_dim(2, 2) == 2
        assert rectangle_kernel_dim(2, 4) == 0
        assert rectangle_kernel_dim(3, 2) == 0
        assert rectangle_kernel_dim(3, 5) == 1
        assert rectangle_kernel_dim(3, 3) == 3
        assert rectangle_kernel_dim(4, 4) == 4
        assert rectangle_kernel_dim(6, 2) == 2

    def test_kernel_dimension_against_normal_form(self):
        for a in range(1, 6):
            for b in range(1, 6):
                snf = skew_normal_form(matrix_from_diagram(all_white(a, b)))
                assert rectangle_kernel_dim(a, b) == snf.kernel_dim

    def test_bad_shape(self):
        with pytest.raises(BadRange):
            pi_degree_grassmannian(3, 3, 5)

    def test_even_ell_hypothesis(self):
        # The Grassmannian falls back like its Schubert cell, the full
        # rectangle, whose box bounds the hypothesis.
        for m, n, ell in ((2, 4, 6), (1, 3, 4), (3, 6, 4)):
            shape = Partition((n - m,) * m, box_m=m, box_n=n - m)
            generic = pi_degree_qas(extend(matrix_from_diagram(young_diagram(shape))), ell)
            pi = pi_degree_grassmannian(m, n, ell)
            assert (pi.route, pi.reason) == (
                "generic (hypothesis not met)",
                f"need odd ell with smallest prime factor above {min(m, n - m, 2)}, got {ell}",
            )
            assert pi.value == generic.value and pi.factors == generic.factors

    def test_cross_checked_small(self):
        for m in range(1, 5):
            for n in range(m + 1, 7):
                for ell in (3, 5, 7):
                    pi_degree_grassmannian(m, n, ell, cross_check=True)


class TestCrossChecksCatchWrongClosedForms:
    """A closed value made wrong on purpose fails its cross-check, with the
    message naming the input, the closed value and the other route's."""

    @staticmethod
    def _off_by_one(monkeypatch, name):
        from pideg import degrees

        original = getattr(degrees, name)
        monkeypatch.setattr(degrees, name, lambda *args: original(*args) + 1)

    def test_partition(self, monkeypatch):
        self._off_by_one(monkeypatch, "_half_rank")
        message = "shape (5,3,2), ell = 5: closed 3125, generic 625"
        with pytest.raises(FormulaMismatch) as caught:
            pi_degree_partition(Partition((5, 3, 2)), 5, cross_check=True)
        assert str(caught.value) == message

    def test_determinantal(self, monkeypatch):
        self._off_by_one(monkeypatch, "determinantal_invariant_exponent")
        with pytest.raises(FormulaMismatch) as caught:
            pi_degree_determinantal(4, 2, 5, cross_check=True)
        assert str(caught.value) == "determinantal (n, t) = (4, 2), ell = 5: closed 15625, generic 3125"

    def test_schubert(self, monkeypatch):
        self._off_by_one(monkeypatch, "_half_rank")
        with pytest.raises(FormulaMismatch) as caught:
            pi_degree_schubert(PluckerIndex((1, 3, 4, 7), 8), 5, cross_check=True)
        assert str(caught.value) == "Schubert gamma = (1, 3, 4, 7), ell = 5: closed 78125, generic 15625"

    def test_grassmannian(self, monkeypatch):
        # Two more kernel directions: the parity holds, and the exponent
        # falls by one against the cell's Schubert route.
        from pideg import degrees

        kernel_dim = degrees.rectangle_kernel_dim
        monkeypatch.setattr(degrees, "rectangle_kernel_dim", lambda a, b: kernel_dim(a, b) + 2)
        with pytest.raises(FormulaMismatch) as caught:
            pi_degree_grassmannian(2, 4, 5, cross_check=True)
        assert str(caught.value) == "Grassmannian (2, 4), ell = 5: closed 5, Schubert route 25"


class TestDiagramAnalysis:
    def test_reference_board(self, fig_diagram):
        facts = DiagramFacts(fig_diagram)
        h, h_ext = facts.snf.invariant_factors, facts.extended_snf.invariant_factors
        assert h == (1, 1, 1, 2)
        assert facts.snf.kernel_dim == 1
        assert not facts.one_perp
        assert [pi_degree_from_factors(h, ell).value for ell in (5, 3)] == [625, 81]
        assert h_ext == (1, 1, 1, 2, 2)
        assert facts.extended_snf.kernel_dim == 0
        assert [pi_degree_from_factors(h_ext, ell).value for ell in (5, 3)] == [3125, 243]

    def test_without_extension(self, eg_diagram):
        # A fact nobody reads is never computed.
        facts = DiagramFacts(eg_diagram)
        assert facts.snf.invariant_factors == (1, 1)
        assert "extended_snf" not in vars(facts) and "tau" not in vars(facts)

    @pytest.mark.parametrize(
        "board, h_ext, kernel_dim",
        [
            ("#", (), 1),
            (".", (1,), 0),
            (EG_TEXT, EG_EXT_INVARIANT_FACTORS, 0),
            ("....\n" * 4, (1, 1, 1, 2, 2, 2, 2), 3),
        ],
        ids=["all-black", "one-white", "eg", "all-white-4x4"],
    )
    def test_extended_form_on_edge_boards(self, board, h_ext, kernel_dim):
        # The extended form is read from the normal form of M; it must
        # agree with reducing the bordered matrix directly.
        facts = DiagramFacts(diagram_from_text(board))
        direct = skew_normal_form(extend(facts.matrix))
        assert facts.extended_snf.invariant_factors == direct.invariant_factors == h_ext
        assert facts.extended_snf.kernel_dim == direct.kernel_dim == kernel_dim

    def test_extended_report_never_borders_the_matrix(self, tmp_path, capsys, monkeypatch):
        import json

        from pideg import cli, intlinalg

        def refuse(M):
            raise AssertionError("the bordered matrix was built")

        # Only intlinalg calls extend; the package root just re-exports it.
        monkeypatch.setattr(intlinalg, "extend", refuse)
        board = tmp_path / "board.txt"
        board.write_text(FIG_TEXT)
        assert cli.main(["diagram", str(board), "--ell", "5", "--extended", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["extended"]["invariant_factors"] == ["1", "1", "1", "2", "2"]
        assert report["extended"]["kernel_dim"] == 0

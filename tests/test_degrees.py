"""PI degrees: generic route, closed forms, extended algebras."""

from itertools import combinations
from math import gcd

import pytest

from pideg import (
    BadEll,
    BadRange,
    DiagramFacts,
    FormulaMismatch,
    Partition,
    PiDegree,
    PluckerIndex,
    determinantal_diagram,
    determinantal_invariant_exponent,
    determinantal_toric_cycles,
    diagram_from_text,
    matrix_from_diagram,
    partition_from_plucker,
    partition_toric_permutation,
    pi_degree_determinantal,
    pi_degree_from_factors,
    pi_degree_grassmannian,
    pi_degree_partition,
    pi_degree_qas,
    pi_degree_schubert,
    skew_normal_form,
    smallest_prime_factor,
    toric_permutation,
    young_diagram,
)
from pideg.degrees import GENERIC_FALLBACK
from pideg.intlinalg import cycle_sum
from pideg.sweep import exhaustive_diagrams
from tests.conftest import (
    EG_EXT_INVARIANT_FACTORS,
    EG_EXT_PI_AT_5,
    EG_EXT_PI_AT_9,
    EG_TEXT,
    FIG_PI_AT_5,
    FIG_TEXT,
    FIG_YOUNG_PI_AT_5,
    extend,
)
from tests.oracles import (
    all_white, brute_pi_degree, grassmannian_exponent, mu2, one_perp, rational_nullity,
    rectangle_kernel_dim, smith_pi_degree,
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

    def test_an_ell_that_is_no_integer_is_refused(self):
        from pideg import SkewIntMatrix

        M = SkewIntMatrix(((0, 1), (-1, 0)))
        with pytest.raises(BadEll, match=r"^ell must be an integer, got 3\.0$"):
            pi_degree_qas(M, 3.0)
        with pytest.raises(BadEll, match=r"^ell must be an integer, got 2\.5$"):
            pi_degree_partition(Partition((2, 1)), 2.5)
        with pytest.raises(BadEll, match=r"^ell must be an integer, got 3\.0$"):
            pi_degree_from_factors((1,), 3.0)

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

    def test_even_ell_falls_back(self):
        # At even ell the generic route on the shape's board answers.
        shape = Partition((2, 1))
        pi = pi_degree_partition(shape, 4, cross_check=True)
        assert (pi.route, pi.reason, str(pi), pi.value) == (
            GENERIC_FALLBACK, "need odd ell, got 4", "4^1", 4
        )

    def test_tiny_ell_rejected(self):
        for ell in (1, 0, -3):
            with pytest.raises(BadEll, match=f"^ell must be at least 2, got {ell}$"):
                pi_degree_partition(Partition((2, 1)), ell)

    def test_every_shape_in_a_4x4_box_falls_back_at_even_ell(self):
        # 242 shapes, each in each box up to 4x4 that holds it. Where some
        # invariant factor is even, ell**s would be wrong at even ell.
        shapes = [partition_from_plucker(idx) for idx in _cells(8)
                  if idx.m <= 4 and idx.n - idx.m <= 4]
        assert len(shapes) == 242
        even_factor = set()
        for shape in shapes:
            facts = DiagramFacts(young_diagram(shape))
            for ell in (2, 4, 6):
                pi = pi_degree_partition(shape, ell, cross_check=True, facts=facts)
                assert (pi.route, pi.reason) == (GENERIC_FALLBACK, f"need odd ell, got {ell}")
                assert pi.value == facts.pi_degree(ell).value, (shape, ell)
            if any(h % 2 == 0 for h in facts.snf.invariant_factors):
                even_factor.add(shape)
        assert len(even_factor) == 94

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

    def test_ell_two_is_closed(self):
        # The even formula holds at ell = 2 too: 2**s_t / 2**(s_t - n + 1).
        pi = pi_degree_determinantal(4, 2, 2, cross_check=True)
        assert (pi.route, pi.value) == ("closed", 2**3)
        with pytest.raises(BadEll, match="^ell must be at least 2, got 1$"):
            pi_degree_determinantal(4, 2, 1)

    def test_even_ells_closed_on_every_board_up_to_n_9(self):
        # 36 boards at 6 even ells; the cross check raises on any mismatch.
        for n in range(2, 10):
            for t in range(1, n):
                facts = DiagramFacts(determinantal_diagram(n, t))
                for ell in (2, 4, 6, 8, 10, 12):
                    pi = pi_degree_determinantal(n, t, ell, cross_check=True, facts=facts)
                    assert pi.route == "closed"

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


def extended_closed_form(d, ell: int) -> PiDegree:
    """The case analysis of the extended algebra's PI degree at odd ell.

    With s the number of invariant factors of M(D): if every kernel vector
    sums to zero the border adds a kernel direction and the degree stays
    ell**s; otherwise the border eats one kernel direction, and the extra
    block contributes a full ell when no integer in 2..min(m, n) divides
    ell, else ell / gcd(h_extra, ell) with h_extra the extra invariant
    factor of the extended matrix. Asserted equal to the generic route.
    """
    facts = DiagramFacts(d)
    s = len(facts.snf.invariant_factors)
    if facts.one_perp:
        closed = PiDegree(ell=ell, exponent=s)
    elif all(ell % f for f in range(2, min(d.m, d.n) + 1)):
        closed = PiDegree(ell=ell, exponent=s + 1)
    else:
        h_ext = facts.extended_snf.invariant_factors
        assert len(h_ext) == s + 1
        closed = PiDegree(ell=ell, exponent=s + 1, divisor=gcd(h_ext[s], ell))
    assert closed.value == facts.extended_pi_degree(ell).value
    return closed


class TestExtendedClosedForm:
    def test_border_adds_one_factor_here(self, fig_diagram):
        # This board's kernel vector has nonzero sum and 5 has no small
        # prime factor, so the border contributes a clean extra ell.
        assert extended_closed_form(fig_diagram, 5).value == 3125

    def test_small_prime_case(self, eg_diagram):
        assert extended_closed_form(eg_diagram, 5).value == EG_EXT_PI_AT_5
        assert extended_closed_form(eg_diagram, 9).value == EG_EXT_PI_AT_9

    def test_all_cases_against_generic(self):
        # Exhaust 3x3 boards at several odd levels; the helper compares the
        # case analysis with the generic route on the bordered matrix.
        for d in exhaustive_diagrams(3, 3):
            for ell in (3, 5, 9, 15, 10**18 + 3):
                extended_closed_form(d, ell)


def _cells(max_ambient: int):
    """Every Schubert cell PluckerIndex(gamma, n) with 2 <= n <= max_ambient."""
    for n in range(2, max_ambient + 1):
        for m in range(1, n):
            for gamma in combinations(range(1, n + 1), m):
                yield PluckerIndex(gamma, n)


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
        assert (pi.route, pi.reason) == ("generic (hypothesis not met)", "need odd ell, got 6")
        assert (pi.exponent, pi.divisor, pi.factors) == (
            generic.exponent, generic.divisor, generic.factors
        )
        assert generic.route == "generic"
        assert pi_degree_schubert(idx, 5).route == "closed"

    def test_ell_two_falls_back(self):
        # Every cell with n <= 7 answers at ell = 2 by the generic route on
        # its extended matrix.
        for idx in _cells(7):
            M = matrix_from_diagram(young_diagram(partition_from_plucker(idx)))
            pi = pi_degree_schubert(idx, 2, cross_check=True)
            assert (pi.route, pi.reason) == (GENERIC_FALLBACK, "need odd ell, got 2")
            assert pi.value == pi_degree_qas(extend(M), 2).value, idx
        with pytest.raises(BadEll, match="^ell must be at least 2, got 1$"):
            pi_degree_schubert(PluckerIndex((1, 3), 4), 1)

    def test_single_row_box(self):
        # A one-row box is closed at odd ell like any other.
        pi_degree_schubert(PluckerIndex((2,), 4), 3, cross_check=True)

    def test_cross_checked_all_cells_in_small_ambients(self):
        # One board reduction per cell serves all its ells; a cell whose
        # cycle sums share a factor with ell answers by the generic route.
        for idx in _cells(10):
            facts = DiagramFacts(young_diagram(partition_from_plucker(idx)))
            for ell in (3, 5, 9, 15):
                pi_degree_schubert(idx, ell, cross_check=True, facts=facts)

    def test_cycle_sums_vanish_exactly_when_the_kernel_is_sum_zero(self):
        # g, read from tau alone, is zero exactly when every kernel vector of
        # the shape's matrix sums to zero, read from the vectors themselves.
        for idx in _cells(9):
            shape = partition_from_plucker(idx)
            tau = partition_toric_permutation(shape)
            g = 0
            for cycle in tau.cycles.cycles:
                if len(cycle) % 2 == 0:
                    g = gcd(g, cycle_sum(cycle, tau, shape.box_m))
            assert (g == 0) == DiagramFacts(young_diagram(shape)).one_perp, idx

    def test_a_shared_factor_falls_back_at_odd_ell(self):
        # The cycle sums of the shape (5,4,4) have gcd 6: the bordered
        # matrix has factors ..., 2, 2, 6, 6, so 3 divides one extended
        # factor, and ell = 3 and 9 answer by the generic route.
        idx = PluckerIndex((1, 3, 4), 8)
        pi = pi_degree_schubert(idx, 3, cross_check=True)
        assert (pi.value, pi.route, pi.reason) == (
            729,
            "generic (hypothesis not met)",
            "need gcd(g, ell) = 1 for the gcd g of the even cycle sums, got gcd(6, 3) = 3",
        )
        assert pi_degree_schubert(idx, 9).value == 9**6 * 3
        assert str(pi_degree_schubert(idx, 5, cross_check=True)) == "5^7"

    def test_kernel_sum_test_against_the_oracle(self):
        # The closed form reads whether the kernel sums to zero from the
        # even toric cycles; the exponent is s exactly when it does.
        for idx in _cells(8):
            rows = matrix_from_diagram(young_diagram(partition_from_plucker(idx))).rows
            s = (len(rows) - rational_nullity(rows)) // 2
            pi = pi_degree_schubert(idx, 5)
            assert pi.exponent == (s if one_perp(rows) else s + 1)

    def test_closed_route_reads_only_tau(self, monkeypatch):
        # The closed route builds no board, matrix, kernel vector or normal
        # form, so cells far too large for them answer at once.
        from pideg import degrees

        def refuse(*args, **kwargs):
            raise AssertionError("the closed route built a board fact")

        for name in ("young_diagram", "matrix_from_diagram", "cycle_kernel_vectors", "skew_normal_form"):
            monkeypatch.setattr(degrees, name, refuse)
        rectangle = PluckerIndex(tuple(range(1, 61)), 120)
        for ell in (3, 61):
            assert pi_degree_schubert(rectangle, ell) == pi_degree_grassmannian(60, 120, ell)
        staircase = PluckerIndex(tuple(range(1, 200, 2)), 200)
        assert pi_degree_schubert(staircase, 101).route == "closed"


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
        # The Grassmannian falls back at even ell like its Schubert cell,
        # the full rectangle.
        for m, n, ell in ((2, 4, 6), (1, 3, 4), (3, 6, 4)):
            shape = Partition((n - m,) * m, box_m=m, box_n=n - m)
            generic = pi_degree_qas(extend(matrix_from_diagram(young_diagram(shape))), ell)
            pi = pi_degree_grassmannian(m, n, ell)
            assert (pi.route, pi.reason) == ("generic (hypothesis not met)", f"need odd ell, got {ell}")
            assert pi.value == generic.value and pi.factors == generic.factors

    def test_cross_checked_small(self):
        for m in range(1, 10):
            for n in range(m + 1, 11):
                for ell in (3, 5, 7, 9, 15):
                    pi_degree_grassmannian(m, n, ell, cross_check=True)

    def test_both_routes_match_the_explicit_formula(self):
        # The Grassmannian is its rectangle's Schubert cell; at every odd ell
        # both answer closed, with the paper's exponent.
        for m in range(1, 16):
            for n in range(m + 1, 31):
                cell = PluckerIndex(tuple(range(1, m + 1)), n)
                for ell in (3, 5, 9, 15, 21):
                    formula = PiDegree(ell=ell, exponent=grassmannian_exponent(m, n))
                    assert pi_degree_grassmannian(m, n, ell) == formula, (m, n, ell)
                    assert pi_degree_schubert(cell, ell) == formula, (m, n, ell)

    def test_every_even_cycle_of_a_rectangle_sums_to_two(self):
        # So the gcd g of the cycle sums is 0 or 2, and no odd ell falls back.
        for a in range(1, 61):
            for b in range(1, 61):
                tau = partition_toric_permutation(Partition((b,) * a))
                sums = {cycle_sum(c, tau, a) for c in tau.cycles.cycles if len(c) % 2 == 0}
                assert sums <= {2}, (a, b, sums)
                assert bool(sums) == (rectangle_kernel_dim(a, b) > 0), (a, b)


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
        # The Grassmannian is checked as its rectangle's Schubert cell.
        self._off_by_one(monkeypatch, "_half_rank")
        with pytest.raises(FormulaMismatch) as caught:
            pi_degree_grassmannian(2, 4, 5, cross_check=True)
        assert str(caught.value) == "Schubert gamma = (1, 2), ell = 5: closed 125, generic 25"


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

        from pideg import cli
        from tests.test_cli import spy

        # The report reduces M and the form bordered by E 1, never the
        # bordered matrix extend(M) itself.
        M = matrix_from_diagram(diagram_from_text(FIG_TEXT))
        calls = spy(monkeypatch, skew_normal_form)
        board = tmp_path / "board.txt"
        board.write_text(FIG_TEXT)
        assert cli.main(["diagram", str(board), "--ell", "5", "--extended", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["extended"]["invariant_factors"] == ["1", "1", "1", "2", "2"]
        assert report["extended"]["kernel_dim"] == 0
        reduced = [args[0].rows for args in calls]
        assert len(reduced) == 2 and M.rows in reduced and extend(M).rows not in reduced

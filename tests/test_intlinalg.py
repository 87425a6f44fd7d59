"""Exact integer linear algebra: normal forms, kernels, cycle vectors."""

import random
import re
from itertools import islice, product
from math import gcd, prod
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pideg import (
    BadRange,
    DiagramFacts,
    FormulaMismatch,
    InternalVerificationFailed,
    SkewIntMatrix,
    SkewSymmetryViolated,
    checked_cycle_sum,
    cycle_kernel_vectors,
    degrees,
    diagram_from_text,
    extend,
    intlinalg,
    is_prime,
    matrix_from_diagram,
    pi_degree_from_factors,
    pi_degree_qas,
    residues,
    skew_normal_form,
    toric_permutation,
)
from pideg.intlinalg import RANK_PRIME, extended_normal_form, rank_mod_p
from tests.conftest import (
    FIG_CYCLE_SUM,
    FIG_INVARIANT_FACTORS,
    FIG_KERNEL_DIM,
    FIG_KERNEL_VECTOR,
    FIG_MATRIX,
    FIG_TEXT,
    criterion_10_matrices,
    wide_boards,
)
from tests.oracles import (
    all_white,
    congruence_certificate_holds,
    dense_pair_add,
    dense_transforms,
    determinant,
    extended_transforms,
    four_way_matrix_rows,
    kernel_basis_mod_p,
    kernel_basis_rational,
    one_perp,
    rational_nullity,
    residue_reduce,
    textbook_smith,
)


def random_skew(rng: random.Random, n: int, bound: int = 5) -> SkewIntMatrix:
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            a[i][j] = rng.randrange(-bound, bound + 1)
            a[j][i] = -a[i][j]
    return SkewIntMatrix(tuple(tuple(row) for row in a))


skew_matrices = st.integers(0, 7).flatmap(
    lambda n: st.lists(
        st.integers(-6, 6), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2
    ).map(lambda entries: _skew_from_upper(n, entries))
)


def _skew_from_upper(n: int, entries: list[int]) -> SkewIntMatrix:
    a = [[0] * n for _ in range(n)]
    it = iter(entries)
    for i in range(n):
        for j in range(i + 1, n):
            a[i][j] = next(it)
            a[j][i] = -a[i][j]
    return SkewIntMatrix(tuple(tuple(row) for row in a))


class TestSkewIntMatrix:
    def test_rejects_non_square(self):
        with pytest.raises(SkewSymmetryViolated):
            SkewIntMatrix(((0, 1),))

    def test_rejects_symmetric(self):
        with pytest.raises(SkewSymmetryViolated):
            SkewIntMatrix(((0, 1), (1, 0)))

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(SkewSymmetryViolated):
            SkewIntMatrix(((1,),))

    def test_rejects_non_integral_entries(self):
        for bad in (1.5, "1", None, float("inf")):
            with pytest.raises(BadRange):
                SkewIntMatrix(((0, bad), (-1, 0)))

    def test_indexing(self):
        M = SkewIntMatrix(((0, 2), (-2, 0)))
        assert M[0, 1] == 2 and M[1, 0] == -2 and M.n == 2

    def test_matrices_the_package_builds_pass_the_validation(self, monkeypatch):
        # matrix_from_diagram, extend and the bordered block form reduced by
        # extended_normal_form skip the validation; the public constructor
        # keeps it, and accepts each of them unchanged.
        from pideg.sweep import exhaustive_diagrams

        certify = intlinalg._certify
        reduced = []

        def spy(M, S, E, F):
            reduced.append(M)
            return certify(M, S, E, F)

        monkeypatch.setattr(intlinalg, "_certify", spy)
        for d in exhaustive_diagrams(2, 3) + exhaustive_diagrams(3, 3):
            M = matrix_from_diagram(d)
            extended_normal_form(skew_normal_form(M))
            built = [M, extend(M)] + reduced
            reduced.clear()
            for A in built:
                assert all(type(x) is int for row in A.rows for x in row)
                assert SkewIntMatrix(A.rows) == A
        with pytest.raises(SkewSymmetryViolated):
            SkewIntMatrix(((0, 1, 1), (-1, 0, 1), (1, -1, 0)))


class TestMatrixFromDiagram:
    def test_reference_board(self, fig_diagram):
        assert matrix_from_diagram(fig_diagram).rows == FIG_MATRIX

    def test_single_white_row(self):
        # Squares in one row: each sees every square to its right as +1,
        # so the matrix is upper triangular of ones above the diagonal.
        M = matrix_from_diagram(diagram_from_text("...."))
        for i in range(4):
            for j in range(4):
                assert M[i, j] == (0 if i == j else (1 if j > i else -1))

    def test_empty_board(self):
        assert matrix_from_diagram(diagram_from_text("#")).n == 0

    def test_one_triangle_matches_the_four_cases_on_every_small_board(self, exhaustive_boards):
        for boards in exhaustive_boards.values():
            for d in boards:
                assert matrix_from_diagram(d).rows == four_way_matrix_rows(d)

    @settings(deadline=None, max_examples=200)
    @given(wide_boards)
    def test_one_triangle_matches_the_four_cases(self, d):
        assert matrix_from_diagram(d).rows == four_way_matrix_rows(d)


class TestExtend:
    def test_shape_and_border(self, fig_diagram):
        M = matrix_from_diagram(fig_diagram)
        E = extend(M)
        assert E.n == M.n + 1
        assert all(E[i, M.n] == 1 for i in range(M.n))
        assert all(E[M.n, j] == -1 for j in range(M.n))
        assert E[M.n, M.n] == 0

    def test_orientation_flip_is_congruent(self, fig_diagram):
        M = matrix_from_diagram(fig_diagram)
        E = extend(M)
        # The mirror border: negate the last row and column.
        sign = [1] * M.n + [-1]
        mirror = SkewIntMatrix(
            tuple(tuple(sign[i] * sign[j] * E[i, j] for j in range(E.n)) for i in range(E.n))
        )
        assert mirror[0, M.n] == -1
        plus, minus = skew_normal_form(E), skew_normal_form(mirror)
        assert plus.invariant_factors == minus.invariant_factors
        assert plus.kernel_dim == minus.kernel_dim


class TestDeterminant:
    def test_known_values(self):
        assert determinant([[2, 1], [1, 2]]) == 3
        assert determinant([[1, 2], [2, 4]]) == 0
        assert determinant([]) == 1

    def test_random_against_sympy(self):
        import sympy

        rng = random.Random(11)
        for _ in range(25):
            n = rng.randrange(1, 6)
            mat = [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(n)]
            assert determinant(mat) == int(sympy.Matrix(mat).det())


class TestPrimality:
    def test_small_numbers(self):
        import sympy

        for x in range(-3, 500):
            assert is_prime(x) == sympy.isprime(x)

    def test_carmichael_number(self):
        assert not is_prime(561)
        assert not is_prime(41041)

    def test_large_prime(self):
        assert is_prime(2**61 - 1)
        assert is_prime(RANK_PRIME)


# _certify receives the rows of E^T and of F as dicts from column index to
# nonzero entry, so entry (r, c) of E is Et[c][r].


def _swap_columns(rows, a, b):
    for row in rows:
        x, y = row.pop(a, 0), row.pop(b, 0)
        if x:
            row[b] = x
        if y:
            row[a] = y


def _bump_e(S, Et, F):
    Et[0][0] = Et[0].get(0, 0) + 1


def _bump_f(S, Et, F):
    F[2][3] = F[2].get(3, 0) - 1


def _drop_f_entry(S, Et, F):
    F[-1].popitem()


def _bump_f_kernel_column(S, Et, F):
    # F S reads no column of F past the blocks, so only E F = I catches
    # this, and off its diagonal: E is zero at (n - 1, r).
    n = len(F)
    r = next(r for r, col in enumerate(Et) if n - 1 not in col)
    F[r][n - 1] = F[r].get(n - 1, 0) + 1


def _swap_e_and_f(S, Et, F):
    # Rows 0 and 1 of E and columns 0 and 1 of F: E and F stay inverse to
    # each other; only E M E^T = S catches it.
    _swap_columns(Et, 0, 1)
    _swap_columns(F, 0, 1)


def _double_last_factor(S, Et, F):
    # Shape and divisibility chain stay valid: (1, 1, 1, 2) -> (1, 1, 1, 4).
    S[6][7], S[7][6] = 4, -4


def _break_block(S, Et, F):
    S[2][5] += 1


def _break_gcd_chain(S, Et, F):
    # The first factor of the reference board's form becomes 5, which
    # divides ell = 5 and so N; the next factor is prime to N.
    S[0][1], S[1][0] = 5, -5


def _replays(M: SkewIntMatrix, normal_form=skew_normal_form):
    """normal_form(M) with the log, size and result of every replay of
    intlinalg._transforms it ran."""
    replays = []
    replay = intlinalg._transforms

    def spy(log, n):
        steps = list(log)
        result = replay(log, n)
        replays.append((steps, n, result))
        return result

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(intlinalg, "_transforms", spy)
        return normal_form(M), replays


def _assert_replay_matches_the_dense_oracle(M: SkewIntMatrix) -> None:
    """The sparse replay equals tests/oracles.dense_transforms on the logs
    of M's normal form and of its extended form, and skew_normal_form
    returns that E and F."""
    snf, replays = _replays(M)
    ext, bordered = _replays(snf, extended_normal_form)
    for log, n, (Et, F) in replays + bordered:
        E_dense, F_dense = dense_transforms(log, n)
        assert [[col.get(r, 0) for col in Et] for r in range(n)] == E_dense
        assert [[row.get(c, 0) for c in range(n)] for row in F] == F_dense
        assert all(x for row in Et + F for x in row.values())
    E_dense, F_dense = dense_transforms(*replays[0][:2])
    assert snf.transform == tuple(map(tuple, E_dense))
    assert snf.inverse_transform == tuple(map(tuple, F_dense))
    for form in (snf, ext):
        for matrix in (form.transform, form.inverse_transform):
            assert type(matrix) is tuple
            assert all(type(row) is tuple for row in matrix)
            assert all(type(x) is int for row in matrix for x in row)


class TestSkewNormalForm:
    def test_reference_board(self, fig_diagram):
        snf = skew_normal_form(matrix_from_diagram(fig_diagram))
        assert snf.invariant_factors == FIG_INVARIANT_FACTORS
        assert snf.kernel_dim == FIG_KERNEL_DIM

    def test_transform_is_unimodular(self, fig_diagram):
        snf = skew_normal_form(matrix_from_diagram(fig_diagram))
        assert determinant(snf.transform) in (1, -1)

    def test_empty_matrix(self):
        snf = skew_normal_form(SkewIntMatrix(()))
        assert snf.invariant_factors == () and snf.kernel_dim == 0

    def test_zero_matrix(self):
        snf = skew_normal_form(SkewIntMatrix(((0, 0), (0, 0))))
        assert snf.invariant_factors == () and snf.kernel_dim == 2

    def test_paired_duplication_matches_smith(self):
        # The Smith factors of a skew matrix are the skew invariants, each
        # twice: h1, h1, h2, h2, ...
        rng = random.Random(19)
        for _ in range(80):
            M = random_skew(rng, rng.randrange(0, 9))
            snf = skew_normal_form(M)
            smith = textbook_smith(M.to_lists())
            assert smith == [h for h in snf.invariant_factors for _ in (0, 1)]

    @settings(deadline=None, max_examples=60)
    @given(skew_matrices)
    def test_any_skew_matrix(self, M):
        snf = skew_normal_form(M)
        assert 2 * len(snf.invariant_factors) + snf.kernel_dim == M.n
        for a, b in zip(snf.invariant_factors, snf.invariant_factors[1:]):
            assert b % a == 0

    def test_inverse_transform_round_trip(self, fig_diagram):
        import sympy

        snf = skew_normal_form(matrix_from_diagram(fig_diagram))
        inv = snf.inverse_transform
        n = len(inv)
        prod = [
            [sum(snf.transform[i][k] * inv[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]
        assert prod == [[int(i == j) for j in range(n)] for i in range(n)]
        assert sympy.Matrix(snf.transform).inv() == sympy.Matrix(inv)

    def test_inverse_transform_matches_sympy(self):
        import sympy

        from pideg.sweep import exhaustive_diagrams

        matrices = [matrix_from_diagram(d) for d in exhaustive_diagrams(3, 3)]
        for M in matrices + criterion_10_matrices():
            snf = skew_normal_form(M)
            if M.n:
                assert sympy.Matrix(snf.transform).inv() == sympy.Matrix(snf.inverse_transform)
            else:
                assert snf.transform == snf.inverse_transform == ()

    @pytest.mark.parametrize(
        "tamper",
        [_bump_e, _bump_f, _drop_f_entry, _bump_f_kernel_column, _swap_e_and_f, _double_last_factor],
    )
    def test_certificate_rejects_tampering(self, fig_diagram, monkeypatch, tamper):
        certify = intlinalg._certify

        def tampered(M, S, E, F):
            tamper(S, E, F)
            return certify(M, S, E, F)

        monkeypatch.setattr(intlinalg, "_certify", tampered)
        with pytest.raises(InternalVerificationFailed):
            skew_normal_form(matrix_from_diagram(fig_diagram))


    @pytest.mark.parametrize("cell", [(8, 0), (2, 5), (7, 6)])
    def test_block_shape_reports_its_first_bad_cell(self, fig_diagram, monkeypatch, cell):
        certify = intlinalg._certify

        def tampered(M, S, Et, F):
            # A second bad cell at the end of the row: the first one is named.
            i, j = cell
            S[i][j] += 1
            S[i][-1] += 1
            return certify(M, S, Et, F)

        monkeypatch.setattr(intlinalg, "_certify", tampered)
        message = rf"block shape broken at \({cell[0]}, {cell[1]}\)"
        with pytest.raises(InternalVerificationFailed, match=message):
            skew_normal_form(matrix_from_diagram(fig_diagram))


class TestSparseReplay:
    """_transforms against the dense replay of tests/oracles.py, entry for entry."""

    def test_exhaustive_boards(self):
        from pideg.sweep import exhaustive_diagrams

        distinct = {}
        for d in exhaustive_diagrams(3, 3) + exhaustive_diagrams(3, 4):
            M = matrix_from_diagram(d)
            distinct.setdefault(M.rows, M)
        for M in distinct.values():
            _assert_replay_matches_the_dense_oracle(M)

    def test_criterion_10_matrices(self):
        for M in criterion_10_matrices():
            _assert_replay_matches_the_dense_oracle(M)

    @settings(deadline=None, max_examples=60)
    @given(skew_matrices)
    def test_any_skew_matrix(self, M):
        _assert_replay_matches_the_dense_oracle(M)

    def test_dense_random_matrices(self):
        rng = random.Random(4_040)
        for _ in range(40):
            _assert_replay_matches_the_dense_oracle(random_skew(rng, rng.randrange(16, 41)))

    def test_empty_matrix(self):
        _assert_replay_matches_the_dense_oracle(SkewIntMatrix(()))
        assert intlinalg._transforms([], 0) == ([], [])


def _logs_and_forms(M: SkewIntMatrix):
    """The logs of M's reduction and of the bordered one of its extended
    form, and the factors, kernel dimension, E and F of both forms."""
    snf, replays = _replays(M)
    ext, bordered = _replays(snf, extended_normal_form)
    logs = [steps for steps, _, _ in replays + bordered]
    forms = [(f.invariant_factors, f.kernel_dim, f.transform, f.inverse_transform) for f in (snf, ext)]
    return logs, forms


def _assert_shear_matches_the_dense_oracle(M: SkewIntMatrix) -> None:
    """The reductions take the same steps, and give the same forms, with
    the shear of tests/oracles.py, which rewrites whole dense rows."""
    sparse = _logs_and_forms(M)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(intlinalg, "_pair_add", dense_pair_add)
        dense = _logs_and_forms(M)
    assert sparse == dense


class TestSparseShear:
    """_pair_add against the dense shear of tests/oracles.py, step for step."""

    def test_exhaustive_boards(self):
        from pideg.sweep import exhaustive_diagrams

        distinct = {}
        for d in exhaustive_diagrams(3, 3) + exhaustive_diagrams(3, 4):
            M = matrix_from_diagram(d)
            distinct.setdefault(M.rows, M)
        for M in distinct.values():
            _assert_shear_matches_the_dense_oracle(M)

    def test_criterion_10_matrices(self):
        for M in criterion_10_matrices():
            _assert_shear_matches_the_dense_oracle(M)

    @settings(deadline=None, max_examples=60)
    @given(skew_matrices)
    def test_any_skew_matrix(self, M):
        _assert_shear_matches_the_dense_oracle(M)

    def test_dense_random_matrices(self):
        rng = random.Random(4_141)
        for _ in range(40):
            _assert_shear_matches_the_dense_oracle(random_skew(rng, rng.randrange(16, 41)))

    def test_empty_matrix(self):
        _assert_shear_matches_the_dense_oracle(SkewIntMatrix(()))


def _low_rank_skew(rng: random.Random, n: int, h: list[int]) -> SkewIntMatrix:
    """X diag(h) X^T for a random integer n x 2k matrix X, k = len(h), with
    diag(h) the skew block diagonal of the [[0, h_i], [-h_i, 0]]: rank at
    most 2k, and invariant factors built from the h_i."""
    X = [[rng.randrange(-2, 3) for _ in range(2 * len(h))] for _ in range(n)]
    return SkewIntMatrix(tuple(
        tuple(
            sum(hl * (X[i][2 * l] * X[j][2 * l + 1] - X[i][2 * l + 1] * X[j][2 * l])
                for l, hl in enumerate(h))
            for j in range(n)
        )
        for i in range(n)
    ))


def low_rank_matrices() -> list[SkewIntMatrix]:
    """200 seeded X diag(h) X^T with n = 2..10 and h_i in {1, 2, 3, 4, 6, 8, 12};
    about one in three has the largest rank, 2 (n // 2)."""
    rng = random.Random(5_151)
    out = []
    for _ in range(200):
        n = rng.randrange(2, 11)
        k = rng.randrange(1, n // 2 + 1)
        out.append(_low_rank_skew(rng, n, [rng.choice((1, 2, 3, 4, 6, 8, 12)) for _ in range(k)]))
    return out


def exhaustive_board_matrices() -> list[SkewIntMatrix]:
    """The distinct matrices of all 3x3 and 3x4 boards."""
    from pideg.sweep import exhaustive_diagrams

    distinct = {}
    for d in exhaustive_diagrams(3, 3) + exhaustive_diagrams(3, 4):
        M = matrix_from_diagram(d)
        distinct.setdefault(M.rows, M)
    return list(distinct.values())


def _block_diagonal(h, n: int) -> SkewIntMatrix:
    """The n x n skew block diagonal of the [[0, h_i], [-h_i, 0]]."""
    rows = [[0] * n for _ in range(n)]
    for k, x in enumerate(h):
        rows[2 * k][2 * k + 1], rows[2 * k + 1][2 * k] = x, -x
    return SkewIntMatrix(tuple(map(tuple, rows)))


def _record_replay_moduli(monkeypatch) -> list[int]:
    """The modulus of every later replay: N for residues._residue_transforms,
    0 for intlinalg._transforms over Z."""
    moduli = []
    replay, residue_replay = intlinalg._transforms, residues._residue_transforms

    def spy(log, n):
        moduli.append(0)
        return replay(log, n)

    def residue_spy(log, n, N):
        moduli.append(N)
        return residue_replay(log, n, N)

    monkeypatch.setattr(intlinalg, "_transforms", spy)
    monkeypatch.setattr(residues, "_residue_transforms", residue_spy)
    return moduli


RESIDUE_ELLS = (*range(2, 13), 30, 36, RANK_PRIME, 2 * RANK_PRIME, 10**24 + 7)


def _never_over_z(patch: pytest.MonkeyPatch) -> None:
    """Make every normal form over Z, and every replay over Z, fail the test."""

    def refused(*args):
        raise AssertionError("pi_degree_qas reduced over Z")

    for module in (intlinalg, degrees):
        patch.setattr(module, "skew_normal_form", refused)
    patch.setattr(intlinalg, "_transforms", refused)


def _assert_residue_route_agrees(M: SkewIntMatrix) -> None:
    """At every ell of RESIDUE_ELLS, the certified form mod N = ell q has
    the factors gcd(h_i, N) of the invariant factors h_i over Z, and
    pi_degree_qas equals the degree read from the h_i in every field,
    without a normal form over Z."""
    h = skew_normal_form(M).invariant_factors
    certify = intlinalg._certify
    for ell in RESIDUE_ELLS:
        N = ell * RANK_PRIME
        seen = []

        def certify_spy(M, S, Et, F, N=0):
            seen.append(certify(M, S, Et, F, N))
            return seen[-1]

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(intlinalg, "_certify", certify_spy)
            _never_over_z(patch)
            got = pi_degree_qas(M, ell)
        expected = pi_degree_from_factors(h, ell)
        assert got == expected and repr(got) == repr(expected), (M.rows, ell)
        [factors] = seen
        g = [gcd(a, N) for a in factors]
        assert g == [gcd(x, N) for x in h[:len(g)]], (M.rows, ell)
        assert all(gcd(x, N) == N for x in h[len(g):]), (M.rows, ell)


class TestResidueForm:
    """The congruence form mod N = ell q against the normal form over Z."""

    def test_exhaustive_boards(self):
        for M in exhaustive_board_matrices():
            _assert_residue_route_agrees(M)

    def test_criterion_10_matrices(self):
        for M in criterion_10_matrices():
            _assert_residue_route_agrees(M)

    def test_dense_random_matrices(self):
        rng = random.Random(4_242)
        for _ in range(40):
            _assert_residue_route_agrees(random_skew(rng, rng.randrange(16, 41)))

    @settings(deadline=None, max_examples=60)
    @given(skew_matrices)
    def test_any_skew_matrix(self, M):
        _assert_residue_route_agrees(M)

    def test_low_rank_matrices(self):
        matrices = low_rank_matrices()
        full = [M for M in matrices if 2 * len(skew_normal_form(M).invariant_factors) == M.n // 2 * 2]
        assert 40 <= len(full) < len(matrices)
        for M in matrices:
            _assert_residue_route_agrees(M)

    @pytest.mark.parametrize(
        "h, ell",
        [((1, 6), 6), ((1, 6), 3), ((2, 12), 4), ((1, RANK_PRIME), 2), ((3, 3 * RANK_PRIME), 9)],
    )
    def test_factors_that_ell_or_q_divide_keep_their_blocks(self, monkeypatch, h, ell):
        # Mod ell q a factor that ell or q alone divides is still a block,
        # so the form over Z/N answers and no form over Z is replayed.
        moduli = _record_replay_moduli(monkeypatch)
        assert pi_degree_qas(_block_diagonal(h, 4), ell) == pi_degree_from_factors(h, ell)
        assert moduli == [ell * RANK_PRIME]

    def test_a_short_form_proves_its_rank_from_primes(self, monkeypatch):
        # Rank 2 of 4, and rank 4 of 4 with a factor that ell q divides:
        # both forms mod N have one block, which settles no rank, so the
        # rank is proved from primes and only the form mod N is replayed.
        moduli = _record_replay_moduli(monkeypatch)
        for h, degree in (((1,), (1, 1, (5,))), ((1, 5 * RANK_PRIME), (2, 5, (5, 1)))):
            pi = pi_degree_qas(_block_diagonal(h, 4), 5)
            assert (pi.exponent, pi.divisor, pi.factors) == degree
            assert repr(pi) == repr(pi_degree_from_factors(h, 5))
        assert moduli == [5 * RANK_PRIME] * 2

    def test_a_pivot_clears_what_its_gcd_with_n_divides_in_one_shear(self):
        # gcd(2, 3q) = 1 divides 3, so one shear by c = 3 / 2 mod 3q clears
        # it, and 2, a unit mod 3q, stays the pivot; over Z, 3 // 2 leaves 1.
        N = 3 * RANK_PRIME
        M = SkewIntMatrix(((0, 2, 3), (-2, 0, 0), (-3, 0, 0)))
        A, log = residues._residue_reduce(M, N)
        c = 3 * pow(2, -1, N) % N
        assert log == [2, 1, -c]
        assert A == [[0, 2, 0], [-2, 0, 0], [0, 0, 0]]
        assert intlinalg._residue_factors(M, 3) == (2,)
        assert skew_normal_form(M).invariant_factors == (1,)

    def test_entries_stay_below_the_modulus(self):
        # The reduced matrix holds residues of least absolute value, and the
        # replayed transforms residues in [0, N): nothing grows with n.
        rng = random.Random(4_343)
        for ell in (2, 6, 10**24 + 7):
            N = ell * RANK_PRIME
            for n in (16, 30):
                A, log = residues._residue_reduce(random_skew(rng, n), N)
                assert all(abs(x) <= N // 2 for row in A for x in row)
                assert all(abs(x) < N for x in log)
                rows = residues._residue_transforms(log, n, N)
                assert all(0 < x < N for side in rows for row in side for x in row.values())

    def test_empty_tiny_and_zero_matrices(self, monkeypatch):
        # A zero matrix has a zero Hadamard bound, so its rank 0 needs no prime.
        primes = _record_primes(monkeypatch)
        for n in (0, 1, 2, 5, 6):
            M = SkewIntMatrix(tuple((0,) * n for _ in range(n)))
            assert intlinalg._residue_factors(M, 5) == ()
            assert pi_degree_qas(M, 5) == pi_degree_from_factors((), 5)
        assert primes == []

    @pytest.mark.parametrize(
        "tamper, message",
        [
            (_bump_e, "E F is not the identity"),
            (_bump_f, "E F is not the identity"),
            (_drop_f_entry, "E F is not the identity"),
            (_swap_e_and_f, "E M E^T does not equal the reduced matrix"),
            (_break_block, "block shape broken at (2, 5)"),
            (_break_gcd_chain, "divisibility chain broken"),
        ],
    )
    def test_certificate_rejects_tampering(self, fig_diagram, monkeypatch, tamper, message):
        certify = intlinalg._certify
        moduli = []

        def tampered(M, S, Et, F, N=0):
            moduli.append(N)
            tamper(S, Et, F)
            return certify(M, S, Et, F, N)

        monkeypatch.setattr(intlinalg, "_certify", tampered)
        with pytest.raises(InternalVerificationFailed, match=re.escape(message)):
            pi_degree_qas(matrix_from_diagram(fig_diagram), 5)
        assert moduli == [5 * RANK_PRIME]


class TestRankProof:
    """A short form mod N gets its rank from primes, never from the form over Z."""

    def test_a_rank_deficient_matrix_needs_no_form_over_z(self, monkeypatch):
        # A 40 x 40 X diag(h) X^T of rank 36, h = (1, 2, 3) six times.
        M = _low_rank_skew(random.Random(36), 40, [1, 2, 3] * 6)
        h = skew_normal_form(M).invariant_factors
        assert len(h) == 18
        primes = _record_primes(monkeypatch)
        moduli = _record_replay_moduli(monkeypatch)
        _never_over_z(monkeypatch)
        for ell in range(2, 13):
            got = pi_degree_qas(M, ell)
            assert repr(got) == repr(pi_degree_from_factors(h, ell)), ell
        assert moduli == [ell * RANK_PRIME for ell in range(2, 13)]
        # Each proof takes the primes below 2^31 in turn, and stops at the
        # first whose running product passes the Hadamard bound of the 37-minors.
        proof = primes[:len(primes) // 11]
        assert primes == proof * 11
        assert proof[0] == 2**31 - 1 and proof == sorted(proof, reverse=True)
        assert all(is_prime(p) for p in proof)
        assert not any(is_prime(p) for p in range(proof[-1] + 2, proof[0], 2) if p not in proof)
        bound_sq = prod(sorted((sum(x * x for x in row) for row in M.rows), reverse=True)[:37])
        assert prod(proof[:-1]) ** 2 <= bound_sq < prod(proof) ** 2

    @pytest.mark.parametrize("divisors", [(0, 1, 2), (1,)], ids=["first-three", "second"])
    def test_a_multiple_of_proof_primes_keeps_its_rank(self, monkeypatch, divisors):
        # c M0 has rank 0 mod each proof prime that divides c, so a proof
        # that stopped on them, or read the rank off the last prime, would fail.
        M0 = _low_rank_skew(random.Random(7), 12, [1, 2, 4])
        h0 = skew_normal_form(M0).invariant_factors
        assert len(h0) == 3
        first = list(islice(intlinalg._primes(2**31 - 1, -2), 3))
        c = prod(first[k] for k in divisors)
        M = SkewIntMatrix(tuple(tuple(c * x for x in row) for row in M0.rows))
        assert [rank_mod_p(M.rows, p)[0] for p in first] == [0 if k in divisors else 6 for k in range(3)]
        assert intlinalg._proved_rank(M.rows, 12, intlinalg._primes(2**31 - 1, -2)) == 6
        primes = _record_primes(monkeypatch)
        _never_over_z(monkeypatch)
        for ell in (2, 4, 6, 7):
            got = pi_degree_qas(M, ell)
            assert repr(got) == repr(pi_degree_from_factors(tuple(c * x for x in h0), ell))
        assert primes[:3] == first

    @pytest.mark.parametrize("n, h", [(9, [2, 3]), (9, [1, 1, 2, 6]), (11, [3])])
    def test_odd_sizes(self, monkeypatch, n, h):
        M = _low_rank_skew(random.Random(n), n, h)
        expected = skew_normal_form(M).invariant_factors
        _never_over_z(monkeypatch)
        for ell in (2, 3, 6, 12):
            got = pi_degree_qas(M, ell)
            assert repr(got) == repr(pi_degree_from_factors(expected, ell)), (n, h, ell)

    def test_the_proof_stops_at_the_largest_rank(self, monkeypatch):
        # Rank n - 1 of an odd n is the largest, so the first prime that
        # shows it ends the proof, whatever the bound.
        M = _block_diagonal([RANK_PRIME * 5] * 2, 5)
        primes = _record_primes(monkeypatch)
        assert pi_degree_qas(M, 5) == pi_degree_from_factors((5 * RANK_PRIME,) * 2, 5)
        assert primes == [2**31 - 1]


class TestResidueRows:
    """The packed slots of residues._ResidueRows against per-slot % N."""

    @pytest.mark.parametrize("ell", range(2, 9))
    def test_one_word_per_slot(self, ell):
        # For ell <= 8 every residue mod ell q is below 2^16, and a slot
        # stays one 64-bit word up to n = 256.
        for n in (1, 55, 256):
            assert residues._ResidueRows(ell * RANK_PRIME, n).width == 64, (ell, n)

    @pytest.mark.parametrize(
        "N",
        [5 * RANK_PRIME, 2**64 - 59, 2**64 + 13, (10**24 + 7) * RANK_PRIME],
        ids=["5q", "below-2^64", "above-2^64", "ell-10^24+7"],
    )
    def test_reduce_takes_every_slot_mod_n(self, N):
        rng = random.Random(N)
        for n in (1, 2, 17, 55):
            rows = residues._ResidueRows(N, n)
            w = rows.width
            assert w % 64 == 0
            top = N - 1 + rows.budget * (N - 1) ** 2  # the largest slot the bound allows
            edges = [0, 1, N - 1, N, N + 1, 2 * N - 1, 2 * N, top - N, top - 1, top]
            for slots in (
                [top] * n,
                [edges[k % len(edges)] for k in range(n)],
                [rng.randint(0, top) for _ in range(n)],
            ):
                reduced = rows.reduce(sum(x << w * k for k, x in enumerate(slots)))
                expected = [x % N for x in slots]
                assert rows.unpack(reduced) == expected
                assert reduced == sum(x << w * k for k, x in enumerate(expected))
                assert rows.pack(expected) == reduced

    @pytest.mark.parametrize("N", [2**64 - 59, 2**64 + 13])
    def test_budget_products_of_the_largest_residues_fit(self, N):
        # A reduced row of N - 1 times N - 1, added budget times, is the
        # largest row the reduction and the replay build.
        rows = residues._ResidueRows(N, 9)
        row = rows.pack([N - 1] * 9)
        total = 0
        for _ in range(rows.budget):
            total += (N - 1) * row
        total += row
        assert rows.unpack(rows.reduce(total)) == [(N - 1) * (rows.budget * (N - 1) + 1) % N] * 9


def _assert_packed_rounds_match_the_oracle(M: SkewIntMatrix, ells) -> None:
    """The packed reduction mod N = ell q returns the matrix and log of
    tests/oracles.residue_reduce, which applies each shear to dense lists
    as it logs it, and the packed replay of that log the E and F of
    tests/oracles.dense_transforms mod N."""
    n = M.n
    for ell in ells:
        N = ell * RANK_PRIME
        A, log = residues._residue_reduce(M, N)
        assert (A, log) == residue_reduce(M.rows, N), (M.rows, ell)
        Et, F = residues._residue_transforms(log, n, N)
        E_dense, F_dense = dense_transforms(log, n, N)
        assert [[col.get(r, 0) for col in Et] for r in range(n)] == E_dense, (M.rows, ell)
        assert [[row.get(c, 0) for c in range(n)] for row in F] == F_dense, (M.rows, ell)


class TestPackedRounds:
    """A round of the packed reduction is the congruence of all its shears."""

    def test_exhaustive_boards(self):
        for M in exhaustive_board_matrices():
            _assert_packed_rounds_match_the_oracle(M, (2, 3, 6, RANK_PRIME))

    def test_low_rank_matrices(self):
        for M in low_rank_matrices():
            _assert_packed_rounds_match_the_oracle(M, RESIDUE_ELLS)

    def test_dense_random_matrices(self):
        rng = random.Random(4_444)
        for _ in range(8):
            M = random_skew(rng, rng.randrange(16, 41))
            _assert_packed_rounds_match_the_oracle(M, (2, 3, 6, 10**24 + 7))

    @settings(deadline=None, max_examples=60)
    @given(skew_matrices, st.sampled_from(RESIDUE_ELLS))
    def test_any_skew_matrix(self, M, ell):
        _assert_packed_rounds_match_the_oracle(M, (ell,))

    def test_a_repair_folds_in_what_the_pivot_does_not_divide(self):
        # Mod 6q no entry is a unit; 2 has the least gcd, does not divide 3,
        # and the repair's shear brings 3 into the pivot's row, where its
        # remainder 1 becomes the pivot.
        M = _block_diagonal((2, 3), 4)
        A, log = residues._residue_reduce(M, 6 * RANK_PRIME)
        assert log[:3] == [0, 2, 1]
        assert [gcd(A[i][i + 1], 6 * RANK_PRIME) for i in (0, 2)] == [1, 6]
        _assert_packed_rounds_match_the_oracle(M, (6,))
        assert pi_degree_qas(M, 6) == pi_degree_from_factors((1, 6), 6)


def _assert_chain_holds(M: SkewIntMatrix) -> None:
    """The transforms of extend(M), composed by tests/oracles.py from the
    two forms, against extend(M) itself, by dense products that do not rely
    on the chain of certificates."""
    snf = skew_normal_form(M)
    ext = extended_normal_form(snf)
    assert congruence_certificate_holds(extend(M).rows, extended_transforms(snf, ext))


class TestExtendedNormalForm:
    def test_certificate_holds_on_exhaustive_boards(self):
        from pideg.sweep import exhaustive_diagrams

        for d in exhaustive_diagrams(3, 3) + exhaustive_diagrams(3, 4):
            _assert_chain_holds(matrix_from_diagram(d))

    @settings(deadline=None, max_examples=60)
    @given(skew_matrices)
    def test_any_skew_matrix(self, M):
        ext = extended_normal_form(skew_normal_form(M))
        direct = skew_normal_form(extend(M))
        assert ext.invariant_factors == direct.invariant_factors
        assert ext.kernel_dim == direct.kernel_dim
        _assert_chain_holds(M)

    def test_certificate_holds_on_random_matrices(self, fig_diagram):
        from pideg.sweep import exhaustive_diagrams

        rng = random.Random(5_151)
        matrices = [matrix_from_diagram(d) for d in exhaustive_diagrams(3, 3)]
        matrices += [random_skew(rng, rng.randrange(0, 12)) for _ in range(40)]
        for M in [matrix_from_diagram(fig_diagram)] + matrices:
            _assert_chain_holds(M)

    def test_transforms_are_those_of_the_bordered_matrix(self, fig_diagram):
        # The form returned is that of B = D extend(M) D^T, D = diag(E, 1),
        # transforms included.
        M = matrix_from_diagram(fig_diagram)
        snf = skew_normal_form(M)
        D = [list(row) + [0] for row in snf.transform] + [[0] * M.n + [1]]
        DA = [[sum(d * a for d, a in zip(row, col)) for col in zip(*extend(M).rows)] for row in D]
        B = [[sum(x * d for x, d in zip(row, other)) for other in D] for row in DA]
        assert congruence_certificate_holds(B, extended_normal_form(snf))

    def test_oracle_sees_a_broken_transform(self, fig_diagram):
        M = matrix_from_diagram(fig_diagram)
        snf = skew_normal_form(M)
        ext = extended_transforms(snf, extended_normal_form(snf))
        assert congruence_certificate_holds(extend(M).rows, ext)
        E = [list(row) for row in ext.transform]
        E[0][0] += 1
        broken = SimpleNamespace(
            transform=tuple(map(tuple, E)),
            inverse_transform=ext.inverse_transform,
            invariant_factors=ext.invariant_factors,
        )
        assert not congruence_certificate_holds(extend(M).rows, broken)
        other = [list(row) for row in extend(M).rows]
        other[0][1], other[1][0] = other[0][1] + 1, other[1][0] - 1
        assert not congruence_certificate_holds(other, ext)

    def test_both_reductions_are_certified(self, fig_diagram, monkeypatch):
        certify = intlinalg._certify
        sizes = []

        def spy(M, S, E, F):
            sizes.append(M.n)
            return certify(M, S, E, F)

        monkeypatch.setattr(intlinalg, "_certify", spy)
        DiagramFacts(fig_diagram).extended_snf
        assert sizes == [9, 10]


def _count_calls(monkeypatch, *names) -> dict[str, int]:
    """Patch the named functions of intlinalg to count their calls."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(intlinalg, name)

        def counted(*args, name=name, original=original):
            counts[name] += 1
            return original(*args)

        monkeypatch.setattr(intlinalg, name, counted)
    return counts


class TestLazyTransforms:
    """Dense transforms are built on first read only."""

    def test_factors_build_no_transform(self, fig_diagram, monkeypatch):
        counts = _count_calls(monkeypatch, "_dense")
        facts = DiagramFacts(fig_diagram)
        assert facts.extended_snf.invariant_factors == (1, 1, 1, 2, 2)
        assert facts.extended_snf.kernel_dim == 0
        assert facts.snf.invariant_factors == FIG_INVARIANT_FACTORS
        assert counts == {"_dense": 0}

    def test_extended_json_report_builds_no_transform(self, monkeypatch, tmp_path, capsys):
        from pideg import cli

        board = tmp_path / "board.txt"
        board.write_text(FIG_TEXT)
        counts = _count_calls(monkeypatch, "_dense")
        assert cli.main(["diagram", str(board), "--ell", "5", "--extended", "--json"]) == 0
        assert '"kernel_jump"' in capsys.readouterr().out
        assert counts == {"_dense": 0}


class TestRationalKernel:
    def test_reference_board(self, fig_diagram):
        M = matrix_from_diagram(fig_diagram)
        basis = kernel_basis_rational(M)
        assert len(basis) == FIG_KERNEL_DIM

    def test_nullity_matches_the_bareiss_oracle(self):
        rng = random.Random(23)
        for _ in range(60):
            M = random_skew(rng, rng.randrange(0, 8))
            assert len(kernel_basis_rational(M)) == rational_nullity(M.to_lists())

    def test_vectors_are_primitive_integer_kernel_vectors(self):
        rng = random.Random(29)
        from math import gcd

        for _ in range(40):
            M = random_skew(rng, rng.randrange(1, 8))
            for v in kernel_basis_rational(M):
                assert all(
                    sum(M[i, j] * v[j] for j in range(M.n)) == 0 for i in range(M.n)
                )
                assert gcd(*v, 0) == 1

    def test_one_perp(self, fig_diagram):
        # The oracle the cycle route is compared with. The reference
        # board's kernel vector has coordinate sum 2.
        assert not one_perp(matrix_from_diagram(fig_diagram).rows)
        # A zero 2x2 matrix has kernel vectors of nonzero sum too.
        assert not one_perp([[0, 0], [0, 0]])
        # Full rank: the empty kernel lies in every hyperplane.
        assert one_perp([[0, 1], [-1, 0]])
        assert one_perp([])
        # The kernel of this matrix is spanned by (1, -1, 0).
        assert one_perp([[0, 0, 1], [0, 0, 1], [-1, -1, 0]])

    def test_cycle_route_one_perp_matches_rational(self):
        from pideg.sweep import exhaustive_diagrams

        boards = exhaustive_diagrams(3, 3) + exhaustive_diagrams(3, 4)
        oracle = {}
        for d in boards:
            rows = matrix_from_diagram(d).rows
            if rows not in oracle:
                oracle[rows] = one_perp(rows)
            assert DiagramFacts(d).one_perp == oracle[rows]
        assert set(oracle.values()) == {True, False}


class TestModPKernel:
    def test_dimension_never_smaller_than_rational(self):
        rng = random.Random(31)
        for _ in range(40):
            M = random_skew(rng, rng.randrange(0, 8))
            nullity = rational_nullity(M.to_lists())
            for p in (2, 3, 5):
                assert len(kernel_basis_mod_p(M, p)) >= nullity

    def test_basis_vectors_lie_in_kernel_mod_p(self):
        rng = random.Random(37)
        for _ in range(30):
            M = random_skew(rng, rng.randrange(1, 8))
            for p in (2, 3, 5):
                basis = kernel_basis_mod_p(M, p)
                if M.n <= 5 and p < 5:
                    # The kernel over F_p has exactly p**len(basis) vectors.
                    count = sum(
                        1
                        for v in product(range(p), repeat=M.n)
                        if not any(sum(a * x for a, x in zip(row, v)) % p for row in M.rows)
                    )
                    assert count == p ** len(basis)
                for v in basis:
                    assert all(
                        sum(M[i, j] * v[j] for j in range(M.n)) % p == 0
                        for i in range(M.n)
                    )

    def test_one_perp_mod_p_on_a_kernel_with_unit_sum(self):
        def one_perp_mod_p(M, p):
            return all(sum(v) % p == 0 for v in kernel_basis_mod_p(M, p))

        M = SkewIntMatrix(((0, 0), (0, 0)))
        for p in (2, 3, 5):
            assert not one_perp_mod_p(M, p)
        full = SkewIntMatrix(((0, 1), (-1, 0)))
        for p in (2, 5):
            assert one_perp_mod_p(full, p)


class TestRankModP:
    """rank_mod_p against the Gauss-Jordan kernel basis of tests/oracles.py."""

    @staticmethod
    def assert_agrees(M, primes=(2, 3, 5, 7)):
        TestRankModP.assert_rows_agree(M.rows, M.n, primes)

    @staticmethod
    def assert_rows_agree(rows, columns, primes):
        for p in primes:
            basis = kernel_basis_mod_p(rows, p)
            rank, ones_in_rows = rank_mod_p(rows, p)
            assert columns - rank == len(basis)
            assert ones_in_rows == all(sum(v) % p == 0 for v in basis)

    def test_distinct_matrices_of_exhaustive_boards(self):
        from pideg.sweep import exhaustive_diagrams

        distinct = {}
        for d in exhaustive_diagrams(3, 3) + exhaustive_diagrams(3, 4):
            M = matrix_from_diagram(d)
            distinct.setdefault(M.rows, M)
        for M in distinct.values():
            self.assert_agrees(M)

    def test_random_6x6_boards(self):
        from pideg.sweep import random_diagrams

        for d in random_diagrams(6, 6, 200, 6_066):
            self.assert_agrees(matrix_from_diagram(d))

    def test_dense_random_matrices(self):
        rng = random.Random(7_077)
        for _ in range(60):
            R, C = rng.randrange(1, 13), rng.randrange(1, 13)
            rows = [[rng.randrange(-20, 21) for _ in range(C)] for _ in range(R)]
            self.assert_rows_agree(rows, C, (2, 3, 5, 7, 11, 13))
        for _ in range(20):
            self.assert_agrees(random_skew(rng, rng.randrange(2, 16), 20), (2, 11, 13))

    def test_pivot_zeros_facing_nonzeros(self):
        # Each pivot row is mostly zeros where the rows below it are not:
        # the support-only update must leave those entries as they are.
        assert rank_mod_p([(1, 0, 0), (1, 1, 1)], 5) == (2, True)
        assert rank_mod_p([(2, 0, 0, 0), (4, 1, 1, 1), (6, 2, 3, 2)], 11) == (3, True)
        assert rank_mod_p([(1, 0, 0, 0), (1, 1, 1, 0), (1, 1, 1, 0)], 13) == (2, False)
        rng = random.Random(8_088)
        units = (1, -1, 17, -19, 23)  # nonzero modulo every prime below
        for _ in range(60):
            R, C = rng.randrange(2, 10), rng.randrange(2, 10)
            rows = []
            for r in range(R):
                # Even rows are units on at most two columns, odd rows
                # are units everywhere, so most pivot rows are sparse
                # against dense rows below them.
                support = {r % C, rng.randrange(C)} if r % 2 == 0 else range(C)
                rows.append([rng.choice(units) if c in support else 0 for c in range(C)])
            self.assert_rows_agree(rows, C, (2, 3, 5, 7, 11, 13))

    def test_rectangular_rows(self):
        assert rank_mod_p([], 3) == (0, True)
        # (1, -2) is (1, 1) mod 3, and the ones row is that row.
        assert rank_mod_p([(1, 1), (1, -2)], 3) == (1, True)
        assert rank_mod_p([(1, 1), (1, -2)], 5) == (2, True)
        assert rank_mod_p([(2, 0, 4)], 2) == (0, False)
        assert rank_mod_p([(1, 0, 0), (0, 1, 0)], 7) == (2, False)
        assert rank_mod_p([(1, 2, 3), (2, 4, 6), (0, 0, 1)], 11) == (2, False)


def _record_primes(monkeypatch) -> list[int]:
    """Patch rank_mod_p to record the prime of every call; return the record."""
    primes = []
    rank = intlinalg.rank_mod_p

    def spy(rows, p):
        primes.append(p)
        return rank(rows, p)

    monkeypatch.setattr(intlinalg, "rank_mod_p", spy)
    return primes


class TestCycleKernelVectors:
    def test_reference_board(self, fig_diagram):
        vectors = cycle_kernel_vectors(fig_diagram)
        assert len(vectors) == 1
        assert vectors[0].cycle == (1, 7)
        assert vectors[0].vector == FIG_KERNEL_VECTOR

    def test_dependent_vectors_are_rejected(self, fig_diagram, monkeypatch):
        # A permutation listing the even cycle (1, 7) twice yields the same
        # kernel vector twice, which the independence proof must refuse.
        # The primes tried stop at the first whose running product passes
        # the Hadamard bound ||v||^2.
        primes = _record_primes(monkeypatch)
        tau = SimpleNamespace(cycles=SimpleNamespace(cycles=((1, 7), (1, 7))))
        with pytest.raises(InternalVerificationFailed):
            cycle_kernel_vectors(fig_diagram, tau)
        bound = sum(x * x for x in FIG_KERNEL_VECTOR)
        assert primes[0] == 3 and all(is_prime(p) for p in primes)
        assert prod(primes[:-1]) <= bound < prod(primes)

    def test_independence_missed_mod_3_is_proved_mod_5(self, monkeypatch):
        # det [[1, 1], [1, -2]] = -3, so the rank is 1 mod 3 and 2 mod 5.
        primes = _record_primes(monkeypatch)
        intlinalg._prove_independent([(1, 1), (1, -2)])
        assert primes == [3, 5]

    def test_vectors_kill_the_matrix(self):
        rng = random.Random(41)
        from pideg.sweep import random_diagrams

        for d in random_diagrams(4, 4, 40, rng.randrange(10**6)):
            M = matrix_from_diagram(d)
            for ckv in cycle_kernel_vectors(d):
                assert all(
                    sum(M[i, j] * ckv.vector[j] for j in range(M.n)) == 0
                    for i in range(M.n)
                )

    def test_count_matches_kernel_dimension(self):
        from pideg.sweep import exhaustive_diagrams

        for d in exhaustive_diagrams(2, 3):
            assert len(cycle_kernel_vectors(d)) == skew_normal_form(
                matrix_from_diagram(d)
            ).kernel_dim


class TestCycleSum:
    @staticmethod
    def sums(d) -> dict[tuple[int, ...], int]:
        tau = toric_permutation(d)
        return {ckv.cycle: checked_cycle_sum(ckv, tau, d.m) for ckv in cycle_kernel_vectors(d, tau)}

    def test_reference_cycle(self, fig_diagram):
        assert self.sums(fig_diagram)[(1, 7)] == FIG_CYCLE_SUM

    def test_single_white_cell(self):
        assert self.sums(all_white(1, 1)) == {(1, 2): 2}

    def test_equals_the_kernel_vector_sum(self):
        from pideg.sweep import random_diagrams

        for d in random_diagrams(4, 5, 30, 4242):
            tau = toric_permutation(d)
            for ckv in cycle_kernel_vectors(d, tau):
                assert checked_cycle_sum(ckv, tau, d.m) == sum(ckv.vector)

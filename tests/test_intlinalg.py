"""Exact integer linear algebra: normal forms, kernels, cycle vectors."""

import dataclasses
import random
import re
from itertools import product
from math import gcd, prod
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pideg import (
    BadRange,
    CycleKernelVector,
    DiagramFacts,
    FormulaMismatch,
    InternalVerificationFailed,
    Permutation,
    SkewIntMatrix,
    SkewSymmetryViolated,
    TooLarge,
    checked_cycle_sum,
    cycle_kernel_vectors,
    degrees,
    diagram_from_text,
    intlinalg,
    is_prime,
    matrix_from_diagram,
    pi_degree_from_factors,
    pi_degree_qas,
    qas_representation,
    reps,
    residues,
    skew_normal_form,
    toric_permutation,
)
from pideg.intlinalg import MILLER_RABIN_BOUND, extended_normal_form, ranks_mod
from pideg.residues import RANK_PRIME
from tests.conftest import (
    FIG_CYCLE_SUM,
    FIG_INVARIANT_FACTORS,
    FIG_KERNEL_DIM,
    FIG_KERNEL_VECTOR,
    FIG_MATRIX,
    FIG_TEXT,
    criterion_10_matrices,
    wide_boards,
    extend,
)
from tests.oracles import (
    all_white,
    congruence_certificate_holds,
    dense_form,
    dense_pair_add,
    dense_round,
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
        # matrix_from_diagram and the bordered block form reduced by
        # extended_normal_form skip the validation; the public constructor
        # keeps it, and accepts each of them unchanged.
        from pideg.sweep import exhaustive_diagrams

        certify = intlinalg._certify_by_replay
        reduced = []

        def spy(M, S, log):
            reduced.append(M)
            return certify(M, S, log)

        monkeypatch.setattr(intlinalg, "_certify_by_replay", spy)
        for d in exhaustive_diagrams(2, 3) + exhaustive_diagrams(3, 3):
            M = matrix_from_diagram(d)
            extended_normal_form(skew_normal_form(M))
            built = [M] + reduced
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

    def test_answers_only_below_the_proved_bound(self):
        import sympy

        # The least strong pseudoprime to the bases 2, ..., 37; base 41 finds it.
        assert not is_prime(318_665_857_834_031_151_167_461)
        assert is_prime(sympy.prevprime(MILLER_RABIN_BOUND))
        # The bound itself passes every base up to 41, so it is refused, not called prime.
        for p in (MILLER_RABIN_BOUND, MILLER_RABIN_BOUND + 2, 10**25 + 1):
            with pytest.raises(TooLarge, match="^primality is proved only below 3317044064679887385961981$"):
                is_prime(p)


# residues._certify receives the rows of E^T and of F as dicts from column
# index to nonzero entry, so entry (r, c) of E is Et[c][r].


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


def _swap_e_and_f(S, Et, F):
    # Rows 0 and 1 of E and columns 0 and 1 of F: E and F stay inverse to
    # each other; only E M E^T = S catches it.
    _swap_columns(Et, 0, 1)
    _swap_columns(F, 0, 1)


def _double_last_factor(S, *transforms):
    # Shape and divisibility chain stay valid: (1, 1, 1, 2) -> (1, 1, 1, 4).
    S[6][7], S[7][6] = 4, -4


def _break_block(S, Et, F):
    S[2][5] += 1


def _break_gcd_chain(S, Et, F):
    # The first factor of the reference board's form becomes 5, which
    # divides ell = 5 and so N; the next factor is prime to N.
    S[0][1], S[1][0] = 5, -5


# Over Z the log is the transform, so these tampers change the log that
# intlinalg._certify_by_replay receives. The id of each names what it does
# to E and F: E no longer unimodular (_bump_e), F changed (_bump_f), a step
# of F lost (_drop_f_entry), a kernel index scaled where S cannot show it
# (_bump_f_kernel_column), and E and F swapped at indices 0 and 1
# (_swap_e_and_f).


def _double_index_0(S, log):
    # A step with i == j: index 0 doubled, so E is not unimodular.
    log += (0, 0, 1)


def _flip_last_shear(S, log):
    k = max(k for k in range(0, len(log), 3) if log[k + 2])
    log[k + 2] = -log[k + 2]


def _drop_last_step(S, log):
    del log[-3:]


def _double_kernel_index(S, log):
    # The kernel index doubled leaves S as it is, so only the refusal of a
    # step with i == j catches it, as only E F = I caught a bumped kernel
    # column of F.
    n = len(S)
    log += (n - 1, n - 1, 1)


def _swap_indices_0_and_1(S, log):
    # E and F stay inverse to each other; only E M E^T = S catches it.
    log += (0, 1, 0)


LOG_TAMPERS = [
    pytest.param(_double_index_0, id="_bump_e"),
    pytest.param(_flip_last_shear, id="_bump_f"),
    pytest.param(_drop_last_step, id="_drop_f_entry"),
    pytest.param(_double_kernel_index, id="_bump_f_kernel_column"),
    pytest.param(_swap_indices_0_and_1, id="_swap_e_and_f"),
    pytest.param(_double_last_factor, id="_double_last_factor"),
]


def _assert_replay_matches_the_dense_oracle(M: SkewIntMatrix) -> None:
    """The replays of the package against tests/oracles.dense_transforms,
    on the logs of M's normal form and of its extended form: the certificate
    replay gives E M E^T, the forward replay E 1 (the row sums of E), and
    rep's backward replay the first 2s columns of F, which are rep's
    exponents; an exponent entry bumped where the pairing reads it fails
    rep's construction check."""
    snf = skew_normal_form(M)
    ext = extended_normal_form(snf)
    for A, form in zip((M.rows, _bordered_rows(snf)), (snf, ext)):
        n = len(A)
        E, F = dense_transforms(form.log, n)
        EA = [[sum(x * y for x, y in zip(row, col)) for col in zip(*A)] for row in E]
        assert intlinalg._replay(SkewIntMatrix(A), form.log) == [
            [sum(x * y for x, y in zip(row, other)) for other in E] for row in EA
        ]
        assert intlinalg._row_sums(form.log, n) == [sum(row) for row in E]
        width = 2 * len(form.invariant_factors)
        assert intlinalg._block_columns(form.log, n, width) == tuple(tuple(row[:width]) for row in F)
    width = 2 * len(snf.invariant_factors)
    F = dense_form(snf).inverse_transform
    assert qas_representation(M, 3).exponents == tuple(row[:width] for row in F)
    # Bumping entry (i, c) moves the pairing of rows i and j by h F[j][c ^ 1],
    # so it is seen once column c ^ 1 has a nonzero off row i.
    bumped = next(((i, c) for c in range(width) for i in range(M.n)
                   if any(F[j][c ^ 1] for j in range(M.n) if j != i)), None)
    if bumped is not None:
        columns = reps._block_columns

        def tampered(log, n, width):
            rows = [list(row) for row in columns(log, n, width)]
            rows[bumped[0]][bumped[1]] += 1
            return tuple(map(tuple, rows))

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(reps, "_block_columns", tampered)
            with pytest.raises(InternalVerificationFailed, match="do not pair"):
                qas_representation(M, 3)
    else:
        assert width == 0
    for form in map(dense_form, (snf, ext)):
        for matrix in (form.transform, form.inverse_transform):
            assert type(matrix) is tuple
            assert all(type(row) is tuple for row in matrix)
            assert all(type(x) is int for row in matrix for x in row)


def _bordered_rows(snf) -> tuple[tuple[int, ...], ...]:
    """The bordered matrix B = [[S, v], [-v^T, 0]] that extended_normal_form
    reduces, with v the row sums of the oracle's E."""
    n = 2 * len(snf.invariant_factors) + snf.kernel_dim
    B = [[0] * (n + 1) for _ in range(n + 1)]
    for k, h in enumerate(snf.invariant_factors):
        B[2 * k][2 * k + 1], B[2 * k + 1][2 * k] = h, -h
    for i, row in enumerate(dense_form(snf).transform):
        B[i][n], B[n][i] = sum(row), -sum(row)
    return tuple(map(tuple, B))


class TestSkewNormalForm:
    def test_reference_board(self, fig_diagram):
        snf = skew_normal_form(matrix_from_diagram(fig_diagram))
        assert snf.invariant_factors == FIG_INVARIANT_FACTORS
        assert snf.kernel_dim == FIG_KERNEL_DIM

    def test_transform_is_unimodular(self, fig_diagram):
        snf = skew_normal_form(matrix_from_diagram(fig_diagram))
        assert determinant(dense_form(snf).transform) in (1, -1)

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

    def test_sparse_pivots_bound_the_steps_on_all_white_boards(self):
        # Pivots in the sparsest rows and columns keep the log at most
        # 1.37 k^3 steps on the all-white k x k board for k <= 12; the first
        # least entry in row-major order takes 361 steps at k = 6, past 324.
        for k in range(1, 13):
            steps = len(skew_normal_form(matrix_from_diagram(all_white(k, k))).log) // 3
            assert 2 * steps <= 3 * k**3, (k, steps)

    def test_inverse_transform_round_trip(self, fig_diagram):
        import sympy

        form = dense_form(skew_normal_form(matrix_from_diagram(fig_diagram)))
        E, inv = form.transform, form.inverse_transform
        n = len(inv)
        prod = [
            [sum(E[i][k] * inv[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]
        assert prod == [[int(i == j) for j in range(n)] for i in range(n)]
        assert sympy.Matrix(E).inv() == sympy.Matrix(inv)

    def test_inverse_transform_matches_sympy(self):
        import sympy

        from pideg.sweep import exhaustive_diagrams

        matrices = [matrix_from_diagram(d) for d in exhaustive_diagrams(3, 3)]
        for M in matrices + criterion_10_matrices():
            form = dense_form(skew_normal_form(M))
            if M.n:
                assert sympy.Matrix(form.transform).inv() == sympy.Matrix(form.inverse_transform)
            else:
                assert form.transform == form.inverse_transform == ()

    @pytest.mark.parametrize("tamper", LOG_TAMPERS)
    def test_certificate_rejects_tampering(self, fig_diagram, monkeypatch, tamper):
        certify = intlinalg._certify_by_replay

        def tampered(M, S, log):
            tamper(S, log)
            return certify(M, S, log)

        monkeypatch.setattr(intlinalg, "_certify_by_replay", tampered)
        with pytest.raises(InternalVerificationFailed):
            skew_normal_form(matrix_from_diagram(fig_diagram))

    @pytest.mark.parametrize("cell", [(8, 0), (2, 5), (7, 6)])
    def test_block_shape_reports_its_first_bad_cell(self, fig_diagram, monkeypatch, cell):
        certify = intlinalg._certify_by_replay

        def tampered(M, S, log):
            # A second bad cell at the end of the row: the first one is named.
            i, j = cell
            S[i][j] += 1
            S[i][-1] += 1
            return certify(M, S, log)

        monkeypatch.setattr(intlinalg, "_certify_by_replay", tampered)
        message = rf"block shape broken at \({cell[0]}, {cell[1]}\)"
        with pytest.raises(InternalVerificationFailed, match=message):
            skew_normal_form(matrix_from_diagram(fig_diagram))

    @pytest.mark.parametrize("cell", [(8, 0), (2, 5), (7, 6)])
    def test_replay_reports_its_first_bad_cell(self, fig_diagram, monkeypatch, cell):
        replay = intlinalg._replay

        def tampered(M, log):
            # A second bad cell at the end of the row: the first one is named.
            R = replay(M, log)
            i, j = cell
            R[i][j] += 1
            R[i][-1] += 1
            return R

        monkeypatch.setattr(intlinalg, "_replay", tampered)
        message = rf"E M E\^T differs from the reduced matrix at \({cell[0]}, {cell[1]}\)"
        with pytest.raises(InternalVerificationFailed, match=message):
            skew_normal_form(matrix_from_diagram(fig_diagram))


class TestSparseReplay:
    """The replays of the log against the dense replay of tests/oracles.py,
    entry for entry."""

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
        assert intlinalg._replay(SkewIntMatrix(()), []) == []
        assert intlinalg._row_sums([], 0) == []
        assert intlinalg._block_columns([], 0, 0) == ()


def _assert_rounds_match_the_dense_oracle(M: SkewIntMatrix) -> None:
    """Each round of M's reduction, and of the bordered one of its extended
    form, logs the shears of tests/oracles.dense_round and leaves A as they
    leave it, applied one at a time by the dense shear; each divisibility
    repair leaves A as the dense shear of its logged step does."""
    round_, shear = intlinalg._pair_round, intlinalg._pair_add
    rounds = 0

    def checked_round(A, log, p):
        nonlocal rounds
        start, expect = len(log), dense_round(A, p)
        touched = round_(A, log, p)
        assert (A, log[start:]) == expect
        rounds += 1
        return touched

    def checked_shear(A, log, dst, src, q, live):
        start, expect, dense_log = len(log), [row[:] for row in A], []
        shear(A, log, dst, src, q, live)
        dense_pair_add(expect, dense_log, dst, src, q, live)
        assert (A, log[start:]) == (expect, dense_log)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(intlinalg, "_pair_round", checked_round)
        patch.setattr(intlinalg, "_pair_add", checked_shear)
        extended_normal_form(skew_normal_form(M))
    assert rounds or not any(map(any, M.rows))


class TestSparseShear:
    """Each round, one congruence, against its shears applied one at a time
    by the dense shear of tests/oracles.py."""

    def test_exhaustive_boards(self):
        from pideg.sweep import exhaustive_diagrams

        distinct = {}
        for d in exhaustive_diagrams(3, 3) + exhaustive_diagrams(3, 4):
            M = matrix_from_diagram(d)
            distinct.setdefault(M.rows, M)
        for M in distinct.values():
            _assert_rounds_match_the_dense_oracle(M)

    def test_criterion_10_matrices(self):
        for M in criterion_10_matrices():
            _assert_rounds_match_the_dense_oracle(M)

    @settings(deadline=None, max_examples=60)
    @given(skew_matrices)
    def test_any_skew_matrix(self, M):
        _assert_rounds_match_the_dense_oracle(M)

    def test_dense_random_matrices(self):
        rng = random.Random(4_141)
        for _ in range(40):
            _assert_rounds_match_the_dense_oracle(random_skew(rng, rng.randrange(16, 41)))

    def test_empty_matrix(self):
        _assert_rounds_match_the_dense_oracle(SkewIntMatrix(()))


def replay_boards() -> list[SkewIntMatrix]:
    """40 seeded random 5 x 5 skew matrices, entries in [-5, 5]."""
    rng = random.Random(5_252)
    return [random_skew(rng, 5) for _ in range(40)]


def _reduce_then(patch: pytest.MonkeyPatch, tamper) -> None:
    """Make the reduction hand tamper(log) to the certificate in place of its log."""
    reduce = intlinalg._reduce

    def tampered(M):
        A, log = reduce(M)
        return A, tamper(list(log))

    patch.setattr(intlinalg, "_reduce", tampered)


class TestReplayCertificate:
    """Over Z the replay of the log is the whole certificate: each of these
    mutations of the log, or of the reduction's round, raises."""

    def test_a_step_with_i_equal_to_j_is_refused(self):
        for M in replay_boards():
            steps = len(intlinalg._reduce(M)[1]) // 3
            assert steps
            for t in range(steps):
                def same_index(log, t=t):
                    log[3 * t + 1] = log[3 * t]
                    return log

                with pytest.MonkeyPatch.context() as patch:
                    _reduce_then(patch, same_index)
                    with pytest.raises(InternalVerificationFailed, match="not elementary"):
                        skew_normal_form(M)

    @pytest.mark.parametrize("step", [(-1, 8, 1), (9, 0, 1), (0, -9, 0)])
    def test_a_step_outside_the_matrix_is_refused(self, fig_diagram, step):
        # -1 and -9 would alias indices 8 and 0 of the 9 x 9 reference matrix.
        M = matrix_from_diagram(fig_diagram)
        A, log = intlinalg._reduce(M)
        with pytest.raises(InternalVerificationFailed, match="not elementary"):
            intlinalg._certify_by_replay(M, A, log + list(step))

    def test_a_flipped_shear_sign_is_refused(self):
        flipped = 0
        for M in replay_boards():
            log = intlinalg._reduce(M)[1]
            for t in range(0, len(log), 3):
                if not log[t + 2]:
                    continue

                def flip(log, t=t):
                    log[t + 2] = -log[t + 2]
                    return log

                with pytest.MonkeyPatch.context() as patch:
                    _reduce_then(patch, flip)
                    with pytest.raises(InternalVerificationFailed, match="differs from the reduced matrix"):
                        skew_normal_form(M)
                flipped += 1
        assert flipped >= 200

    def test_a_dropped_step_is_refused(self):
        for M in replay_boards():
            log = intlinalg._reduce(M)[1]
            for t in range(0, len(log), 3):
                def drop(log, t=t):
                    del log[t:t + 3]
                    return log

                with pytest.MonkeyPatch.context() as patch:
                    _reduce_then(patch, drop)
                    with pytest.raises(InternalVerificationFailed, match="differs from the reduced matrix"):
                        skew_normal_form(M)

    def test_a_shear_that_skips_its_last_live_column_is_caught_by_the_replay(self, monkeypatch):
        # The reduction still ends in block form on its own wrong matrix;
        # only the replay, which calls no step of the reduction, sees that
        # the log does not take M there. In the round, the shear into each
        # live index k below the last leaves entry (k, last) as it was.
        round_ = intlinalg._pair_round

        def skipping_round(A, log, p):
            last = len(A) - 1
            kept = [row[last] for row in A]
            touched = round_(A, log, p)
            for k in touched:
                if k != last:
                    A[k][last], A[last][k] = kept[k], -kept[k]
            return touched

        monkeypatch.setattr(intlinalg, "_pair_round", skipping_round)
        for M in replay_boards():
            with pytest.raises(InternalVerificationFailed, match="differs from the reduced matrix"):
                skew_normal_form(M)

    def test_the_replay_shares_no_step_with_the_reduction(self, monkeypatch):
        def refused(*args):
            raise AssertionError("the replay called a step of the reduction")

        forms = [(M, *intlinalg._reduce(M)) for M in replay_boards()]
        monkeypatch.setattr(intlinalg, "_pair_round", refused)
        monkeypatch.setattr(intlinalg, "_pair_add", refused)
        monkeypatch.setattr(intlinalg, "_pair_swap", refused)
        for M, A, log in forms:
            assert intlinalg._replay(M, log) == A


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
    0 for intlinalg._replay over Z."""
    moduli = []
    replay, residue_replay = intlinalg._replay, residues._residue_transforms

    def spy(M, log):
        moduli.append(0)
        return replay(M, log)

    def residue_spy(log, n, N):
        moduli.append(N)
        return residue_replay(log, n, N)

    monkeypatch.setattr(intlinalg, "_replay", spy)
    monkeypatch.setattr(residues, "_residue_transforms", residue_spy)
    return moduli


RESIDUE_ELLS = (*range(2, 13), 30, 36, RANK_PRIME, 2 * RANK_PRIME, 10**24 + 7)


def _refuse_ranks_mod(patch: pytest.MonkeyPatch) -> None:
    """Make every rank mod p, through ranks_mod or its elimination, fail the test."""

    def refused(*args):
        raise AssertionError("a rank mod p was taken")

    patch.setattr(intlinalg, "ranks_mod", refused)
    patch.setattr(intlinalg, "_ranks_mod", refused)


def _record_forms_over_z(patch: pytest.MonkeyPatch) -> list[SkewIntMatrix]:
    """Record the matrix of every normal form over Z that pi_degree_qas
    takes, and make every rank mod p fail the test; return the record."""
    forms = []
    reduce = degrees.skew_normal_form

    def spy(M):
        forms.append(M)
        return reduce(M)

    patch.setattr(degrees, "skew_normal_form", spy)
    _refuse_ranks_mod(patch)
    return forms


def _assert_residue_route_agrees(M: SkewIntMatrix, ells=RESIDUE_ELLS) -> None:
    """At every ell of `ells`, the certified form mod N = ell q has the
    factors gcd(h_i, N) of the invariant factors h_i over Z, and
    pi_degree_qas equals the degree read from the h_i in every field. It
    reduces M over Z, one form and one replay, exactly when the form mod N
    has fewer than n // 2 blocks, never otherwise, and takes no rank mod p."""
    h = skew_normal_form(M).invariant_factors
    certify = residues._certify
    for ell in ells:
        N = ell * RANK_PRIME
        seen = []

        def certify_spy(M, S, Et, F, N):
            seen.append(certify(M, S, Et, F, N))
            return seen[-1]

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(residues, "_certify", certify_spy)
            moduli = _record_replay_moduli(patch)
            forms = _record_forms_over_z(patch)
            got = pi_degree_qas(M, ell)
        expected = pi_degree_from_factors(h, ell)
        assert got == expected and repr(got) == repr(expected), (M.rows, ell)
        [factors] = seen
        short = len(factors) < M.n // 2
        assert moduli == [N] + [0] * short and forms == [M] * short, (M.rows, ell)
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

    def test_a_short_form_hands_over_to_the_form_over_z(self, monkeypatch):
        # Rank 2 of 4, and rank 4 of 4 with a factor that ell q divides:
        # both forms mod N have one block, which settles no rank, so each
        # matrix is reduced and replayed over Z after its form mod N.
        moduli = _record_replay_moduli(monkeypatch)
        forms = _record_forms_over_z(monkeypatch)
        matrices = []
        for h, degree in (((1,), (1, 1, (5,))), ((1, 5 * RANK_PRIME), (2, 5, (5, 1)))):
            matrices.append(_block_diagonal(h, 4))
            pi = pi_degree_qas(matrices[-1], 5)
            assert (pi.exponent, pi.divisor, pi.factors) == degree
            assert repr(pi) == repr(pi_degree_from_factors(h, 5))
        assert moduli == [5 * RANK_PRIME, 0] * 2
        assert forms == matrices

    def test_a_pivot_clears_what_its_gcd_with_n_divides_in_one_shear(self):
        # gcd(2, 3q) = 1 divides 3, so one shear by c = 3 / 2 mod 3q clears
        # it, and 2, a unit mod 3q, stays the pivot; over Z, 3 // 2 leaves 1.
        N = 3 * RANK_PRIME
        M = SkewIntMatrix(((0, 2, 3), (-2, 0, 0), (-3, 0, 0)))
        A, log = residues._residue_reduce(M, N)
        c = 3 * pow(2, -1, N) % N
        assert log == [2, 1, -c]
        assert A == [[0, 2, 0], [-2, 0, 0], [0, 0, 0]]
        assert residues._residue_factors(M, 3) == (2,)
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
        # No block is the full form for n < 2; from n = 2 on, a zero matrix
        # has a short form mod N, and the form over Z reads its rank 0.
        forms = _record_forms_over_z(monkeypatch)
        zeros = [SkewIntMatrix(tuple((0,) * n for _ in range(n))) for n in (0, 1, 2, 5, 6)]
        for M in zeros:
            assert residues._residue_factors(M, 5) == ()
            assert pi_degree_qas(M, 5) == pi_degree_from_factors((), 5)
        assert forms == zeros[2:]

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
        certify = residues._certify
        moduli = []

        def tampered(M, S, Et, F, N):
            moduli.append(N)
            tamper(S, Et, F)
            return certify(M, S, Et, F, N)

        monkeypatch.setattr(residues, "_certify", tampered)
        with pytest.raises(InternalVerificationFailed, match=re.escape(message)):
            pi_degree_qas(matrix_from_diagram(fig_diagram), 5)
        assert moduli == [5 * RANK_PRIME]


class TestRankProof:
    """A short form mod N hands over to the form over Z, which reads the rank."""

    def test_a_rank_deficient_matrix_takes_the_form_over_z(self, monkeypatch):
        # A 40 x 40 X diag(h) X^T of rank 36, h = (1, 2, 3) six times.
        M = _low_rank_skew(random.Random(36), 40, [1, 2, 3] * 6)
        h = skew_normal_form(M).invariant_factors
        assert len(h) == 18
        moduli = _record_replay_moduli(monkeypatch)
        forms = _record_forms_over_z(monkeypatch)
        for ell in range(2, 13):
            got = pi_degree_qas(M, ell)
            assert repr(got) == repr(pi_degree_from_factors(h, ell)), ell
        # Each form mod N has at most 18 of the 20 blocks, so each ell
        # replays its form mod N, then one form over Z.
        assert moduli == [x for ell in range(2, 13) for x in (ell * RANK_PRIME, 0)]
        assert forms == [M] * 11

    @pytest.mark.parametrize("divisors", [(0, 1, 2), (1,)], ids=["first-three", "second"])
    def test_a_multiple_of_proof_primes_keeps_its_rank(self, monkeypatch, divisors):
        # The three largest primes below 2^31, where a rank proof from ranks
        # mod p would start: c M0 has rank 0 mod each of them that divides c,
        # and the form over Z reads its rank 6 whatever c is.
        first = [2**31 - 1, 2**31 - 19, 2**31 - 61]
        assert [p for p in range(first[-1], first[0] + 1) if is_prime(p)] == first[::-1]
        M0 = _low_rank_skew(random.Random(7), 12, [1, 2, 4])
        h0 = skew_normal_form(M0).invariant_factors
        assert len(h0) == 3
        c = prod(first[k] for k in divisors)
        M = SkewIntMatrix(tuple(tuple(c * x for x in row) for row in M0.rows))
        assert [rank for rank, _ in ranks_mod(M.rows, first)] == [0 if k in divisors else 6 for k in range(3)]
        forms = _record_forms_over_z(monkeypatch)
        for ell in (2, 4, 6, 7):
            got = pi_degree_qas(M, ell)
            assert repr(got) == repr(pi_degree_from_factors(tuple(c * x for x in h0), ell))
        assert forms == [M] * 4

    @pytest.mark.parametrize("n, h", [(9, [2, 3]), (9, [1, 1, 2, 6]), (11, [3])])
    def test_odd_sizes(self, n, h):
        _assert_residue_route_agrees(_low_rank_skew(random.Random(n), n, h), (2, 3, 6, 12))

    def test_a_form_with_no_block_hands_over(self, monkeypatch):
        # Both factors are multiples of 5 q, so the form mod 5 q has no
        # block, and the form over Z reads rank 4, the largest of n = 5.
        M = _block_diagonal([RANK_PRIME * 5] * 2, 5)
        assert residues._residue_factors(M, 5) == ()
        forms = _record_forms_over_z(monkeypatch)
        got = pi_degree_qas(M, 5)
        assert repr(got) == repr(pi_degree_from_factors((5 * RANK_PRIME,) * 2, 5))
        assert forms == [M]


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
        D = [list(row) + [0] for row in dense_form(snf).transform] + [[0] * M.n + [1]]
        DA = [[sum(d * a for d, a in zip(row, col)) for col in zip(*extend(M).rows)] for row in D]
        B = [[sum(x * d for x, d in zip(row, other)) for other in D] for row in DA]
        assert congruence_certificate_holds(B, dense_form(extended_normal_form(snf)))

    def test_the_two_logs_are_a_log_of_the_extended_matrix(self, fig_diagram):
        # M's log acts on the first n indices as diag(E, 1), so the bordered
        # matrix's log after it replays to E_ext = G diag(E, 1).
        from pideg.sweep import exhaustive_diagrams

        matrices = [matrix_from_diagram(d) for d in exhaustive_diagrams(3, 3)]
        for M in [matrix_from_diagram(fig_diagram)] + matrices:
            snf = skew_normal_form(M)
            ext = extended_normal_form(snf)
            E, F = dense_transforms(snf.log + ext.log, M.n + 1)
            form = SimpleNamespace(invariant_factors=ext.invariant_factors,
                                   transform=E, inverse_transform=F)
            assert congruence_certificate_holds(extend(M).rows, form)

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
        certify = intlinalg._certify_by_replay
        sizes = []

        def spy(M, S, log):
            sizes.append(M.n)
            return certify(M, S, log)

        monkeypatch.setattr(intlinalg, "_certify_by_replay", spy)
        DiagramFacts(fig_diagram).extended_snf
        assert sizes == [9, 10]


class TestPlainData:
    def test_a_form_is_its_factors_and_its_log(self, fig_diagram):
        # The certified log is the only transform: no row of E or F, dense
        # or sparse, is built or kept by the package over Z.
        snf = skew_normal_form(matrix_from_diagram(fig_diagram))
        fields = ["invariant_factors", "kernel_dim", "log"]
        assert [f.name for f in dataclasses.fields(snf)] == list(vars(snf)) == fields
        for name in ("transform", "inverse_transform", "e_columns", "f_rows"):
            assert not hasattr(snf, name)
        for name in ("_dense", "_transforms", "_add_multiple", "_certify", "_combine"):
            assert not hasattr(intlinalg, name)


def _record_forms(monkeypatch) -> list:
    """Patch skew_normal_form where DiagramFacts and extended_normal_form
    call it, and return the list of the forms it builds."""
    from pideg import degrees

    forms = []

    def recorded(M):
        forms.append(skew_normal_form(M))
        return forms[-1]

    monkeypatch.setattr(degrees, "skew_normal_form", recorded)
    monkeypatch.setattr(intlinalg, "skew_normal_form", recorded)
    return forms


def _assert_sparse_and_plain(forms) -> None:
    # Each form holds its three fields and no more, and its transform is the
    # log: a flat list of steps (i, j, q) with i != j, no row of E or F.
    for snf in forms:
        assert list(vars(snf)) == ["invariant_factors", "kernel_dim", "log"]
        log = snf.log
        assert type(log) is list and len(log) % 3 == 0
        assert all(type(x) is int for x in log)
        assert all(i != j for i, j in zip(log[::3], log[1::3]))


class TestLazyTransforms:
    """No transform is built: the factors come with the log only."""

    def test_factors_build_no_transform(self, fig_diagram, monkeypatch):
        forms = _record_forms(monkeypatch)
        facts = DiagramFacts(fig_diagram)
        assert facts.extended_snf.invariant_factors == (1, 1, 1, 2, 2)
        assert facts.extended_snf.kernel_dim == 0
        assert facts.snf.invariant_factors == FIG_INVARIANT_FACTORS
        assert forms == [facts.snf, facts.extended_snf]
        _assert_sparse_and_plain(forms)

    def test_extended_json_report_builds_no_transform(self, monkeypatch, tmp_path, capsys):
        from pideg import cli

        board = tmp_path / "board.txt"
        board.write_text(FIG_TEXT)
        forms = _record_forms(monkeypatch)
        assert cli.main(["diagram", str(board), "--ell", "5", "--extended", "--json"]) == 0
        assert '"kernel_jump"' in capsys.readouterr().out
        assert [2 * len(snf.invariant_factors) + snf.kernel_dim for snf in forms] == [9, 10]
        _assert_sparse_and_plain(forms)


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


PRIME_SETS = ((2, 3, 5, 7), (2, 3, 5, 7, 11, 13))
# Products of distinct primes below 8, and 0, +-1: entries that are
# non-units mod 2 * 3 * 5 * 7 and mod 2 * 3 * 5 * 7 * 11 * 13, so columns split.
SPLIT_ENTRIES = (0, 1, -1, 2, 3, 5, 6, 7, 10, 14, 15, 21, 30, 35, 42, 70, 105)


def _record_moduli(monkeypatch) -> list[int]:
    """Patch intlinalg._ranks_mod to record the modulus of every elimination,
    the branches of each split included; return the record."""
    moduli = []
    eliminate = intlinalg._ranks_mod

    def spy(A, m, *args):
        moduli.append(m)
        return eliminate(A, m, *args)

    monkeypatch.setattr(intlinalg, "_ranks_mod", spy)
    return moduli


class TestRankModP:
    """ranks_mod against the Gauss-Jordan kernel basis of tests/oracles.py,
    prime by prime, with every prime of a set passed in one call."""

    @staticmethod
    def assert_agrees(M, prime_sets=PRIME_SETS):
        TestRankModP.assert_rows_agree(M.rows, M.n, prime_sets)

    @staticmethod
    def assert_rows_agree(rows, columns, prime_sets=PRIME_SETS):
        expected = {}
        for p in {p for primes in prime_sets for p in primes}:
            basis = kernel_basis_mod_p(rows, p)
            expected[p] = (columns - len(basis), all(sum(v) % p == 0 for v in basis))
        for primes in prime_sets:
            assert ranks_mod(rows, primes) == [expected[p] for p in primes], (rows, primes)

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
            self.assert_rows_agree(rows, C)
        for _ in range(20):
            self.assert_agrees(random_skew(rng, rng.randrange(2, 16), 20), PRIME_SETS + ((2, 11, 13),))

    def test_pivot_zeros_facing_nonzeros(self):
        # Each pivot row is mostly zeros where the rows below it are not:
        # the support-only update must leave those entries as they are.
        assert ranks_mod([(1, 0, 0), (1, 1, 1)], (5,)) == [(2, True)]
        assert ranks_mod([(2, 0, 0, 0), (4, 1, 1, 1), (6, 2, 3, 2)], (11,)) == [(3, True)]
        assert ranks_mod([(1, 0, 0, 0), (1, 1, 1, 0), (1, 1, 1, 0)], (13,)) == [(2, False)]
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
            self.assert_rows_agree(rows, C)

    def test_rectangular_rows(self):
        # (1, -2) is (1, 1) mod 3, and the ones row is that row.
        assert ranks_mod([(1, 1), (1, -2)], (3, 5)) == [(1, True), (2, True)]
        assert ranks_mod([(2, 0, 4)], (2,)) == [(0, False)]
        assert ranks_mod([(1, 0, 0), (0, 1, 0)], (7,)) == [(2, False)]
        assert ranks_mod([(1, 2, 3), (2, 4, 6), (0, 0, 1)], (11,)) == [(2, False)]

    def test_columns_without_a_unit_split_once_and_twice(self, monkeypatch):
        # Each call records its modulus once, and each split two more.
        moduli = _record_moduli(monkeypatch)
        rng = random.Random(105)
        splits = set()
        for _ in range(300):
            R, C = rng.randrange(1, 9), rng.randrange(1, 9)
            rows = [[rng.choice(SPLIT_ENTRIES) for _ in range(C)] for _ in range(R)]
            for primes in PRIME_SETS:
                moduli.clear()
                self.assert_rows_agree(rows, C, (primes,))
                splits.add((len(moduli) - 1) // 2)
        assert {0, 1, 2} <= splits and max(splits) >= 3

    def test_a_later_unit_is_the_pivot(self, monkeypatch):
        # Column 0 starts with 3, no unit mod 105, but row 1 holds 1 there:
        # the elimination pivots on it, and m is not split.
        moduli = _record_moduli(monkeypatch)
        rows = [(3, 1, 0), (1, 0, 0), (0, 2, 1)]
        self.assert_rows_agree(rows, 3, ((3, 5, 7),))
        assert moduli == [105]
        # Column 0 holds no unit mod 210: 6 splits it into 6 and 35, then 4
        # splits 6 into 2 and 3 there, and 10 splits 35 into 5 and 7 at column 1.
        moduli.clear()
        self.assert_rows_agree([(6, 1), (10, 0), (15, 5)], 2, ((2, 3, 5, 7),))
        assert moduli == [210, 6, 2, 3, 35, 5, 7]

    def test_primes_out_of_order(self):
        # det [[1, 1], [1, -2]] = -3: rank 1 mod 3, rank 2 mod 7.
        assert ranks_mod([(1, 1), (1, -2)], (7, 3)) == [(2, True), (1, True)]
        assert ranks_mod([(1, 1), (1, -2)], (3, 7)) == [(1, True), (2, True)]
        rows = [(6, 10, 15), (14, 21, 35), (1, 0, 0)]
        self.assert_rows_agree(rows, 3, ((7, 3), (13, 7, 2, 11, 5, 3), (5, 2, 7, 3)))

    def test_empty_and_one_column_inputs(self):
        assert ranks_mod([], (2, 3, 5, 7)) == [(0, True)] * 4
        assert ranks_mod([], ()) == []
        assert ranks_mod([(), ()], (3, 5)) == [(0, True)] * 2
        assert ranks_mod([(2,), (4,)], (2, 3)) == [(0, False), (1, True)]
        assert ranks_mod([(0,)], (5, 7)) == [(0, False)] * 2
        # 6, 10 and 15: no unit mod 210, and each prime still finds rank 1.
        assert ranks_mod([(6,), (10,), (15,)], (2, 3, 5, 7)) == [(1, True)] * 4
        for column in product((0, 2, 3, 5, 6, 7, 10, 35), repeat=3):
            self.assert_rows_agree([(x,) for x in column], 1)


class TestCycleKernelVectors:
    def test_reference_board(self, fig_diagram):
        vectors = cycle_kernel_vectors(fig_diagram)
        assert len(vectors) == 1
        assert vectors[0].cycle == (1, 7)
        assert vectors[0].vector == FIG_KERNEL_VECTOR

    def test_dependent_vectors_are_rejected(self, fig_diagram, monkeypatch):
        # A permutation listing the even cycle (1, 7) twice yields the same
        # kernel vector twice, which the independence proof must refuse:
        # the Gram minor of the first vector is ||v||^2 > 0, that of both 0.
        _refuse_ranks_mod(monkeypatch)
        tau = SimpleNamespace(cycles=SimpleNamespace(cycles=((1, 7), (1, 7))))
        with pytest.raises(InternalVerificationFailed, match="the Gram minor of the first 2 is 0"):
            cycle_kernel_vectors(fig_diagram, tau)
        assert sum(x * x for x in FIG_KERNEL_VECTOR) > 0

    def test_independence_missed_mod_3_is_proved_by_gram_minors(self, monkeypatch):
        # det [[1, 1], [1, -2]] = -3, so the rank is 1 mod 3; the Gram
        # minors are 2 and det^2 = 9, both positive, so the rank is 2 over Q.
        _refuse_ranks_mod(monkeypatch)
        intlinalg._prove_independent([(1, 1), (1, -2)])

    @pytest.mark.parametrize(
        "vectors, k",
        [
            ([(0, 0), (1, 0)], 1),
            ([(1, 0), (2, 0), (0, 1)], 2),
            ([(1, 0), (0, 1), (1, 1)], 3),
            ([(1, 2, 0, 1), (0, 1, 1, 0), (2, 5, 1, 2), (0, 0, 0, 1)], 3),
            ([()], 1),
        ],
    )
    def test_the_first_zero_gram_minor_is_refused(self, vectors, k):
        # Each set is dependent first at its k-th vector, where the Gram
        # minor of the first k vectors is zero, wherever k falls.
        with pytest.raises(InternalVerificationFailed, match=f"the Gram minor of the first {k} is 0$"):
            intlinalg._prove_independent(vectors)

    def test_gram_minors_of_independent_sets(self):
        # The empty set is independent, and on random small sets the proof
        # agrees with the rank of the Bareiss oracle of tests/oracles.py.
        intlinalg._prove_independent([])
        rng = random.Random(2_828)
        for _ in range(300):
            k, n = rng.randrange(1, 6), rng.randrange(1, 6)
            vectors = [tuple(rng.randrange(-2, 3) for _ in range(n)) for _ in range(k)]
            independent = rational_nullity(vectors) == n - k
            try:
                intlinalg._prove_independent(vectors)
                proved = True
            except InternalVerificationFailed:
                proved = False
            assert proved == independent, vectors

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

    def test_formula_reads_only_tau(self, fig_diagram):
        tau = toric_permutation(fig_diagram)
        assert intlinalg.cycle_sum((1, 7), tau, fig_diagram.m) == FIG_CYCLE_SUM
        # A cycle that stays on the row labels, or on the column labels, sums to zero.
        assert intlinalg.cycle_sum((1, 2), Permutation((2, 1, 3, 4)), 2) == 0
        assert intlinalg.cycle_sum((3, 4), Permutation((1, 2, 4, 3)), 2) == 0

    def test_a_vector_that_disagrees_with_the_formula_is_refused(self, fig_diagram):
        tau = toric_permutation(fig_diagram)
        (ckv,) = cycle_kernel_vectors(fig_diagram, tau)
        broken = CycleKernelVector(ckv.cycle, ckv.vector[:-1] + (ckv.vector[-1] + 1,))
        with pytest.raises(FormulaMismatch, match=r"direct 3, formula 2"):
            checked_cycle_sum(broken, tau, fig_diagram.m)

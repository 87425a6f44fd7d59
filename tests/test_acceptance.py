"""End-to-end acceptance checks.

Each test below is one acceptance criterion; `pytest tests/test_acceptance.py -v`
prints exactly one PASS/FAIL line per criterion. All comparisons are exact
integer identities; there are no tolerances anywhere.
"""

from itertools import combinations
from math import gcd

from pideg import (
    DiagramFacts,
    Partition,
    PiDegree,
    PluckerIndex,
    cycle_kernel_vectors,
    determinantal_diagram,
    determinantal_toric_cycles,
    diagram_from_text,
    MonomialMatrix,
    find_relation_violation,
    irreducibility_check,
    matrix_from_diagram,
    partition_toric_permutation,
    pi_degree_determinantal,
    pi_degree_grassmannian,
    pi_degree_partition,
    pi_degree_qas,
    pi_degree_schubert,
    qas_representation,
    skew_normal_form,
    toric_permutation,
)
from pideg.intlinalg import ranks_mod
from tests.conftest import (
    EG_EXT_INVARIANT_FACTORS,
    EG_EXT_KERNEL_DIM_MOD_3,
    EG_EXT_PI_AT_5,
    EG_EXT_PI_AT_9,
    EG_INVARIANT_FACTORS,
    FIG_MATRIX,
    FIG_TAU_CYCLES,
    FIG_YOUNG_PI_AT_5,
    FIG_YOUNG_TAU_CYCLES,
    criterion_10_matrices,
    extend,
)
from tests.oracles import (
    all_white,
    grassmannian_exponent,
    is_power_of_two,
    kernel_basis_mod_p,
    kernel_basis_rational,
    one_perp,
    rectangle_kernel_dim,
    textbook_smith,
)


def test_criterion_01_reference_board_matrix_and_permutation(fig_diagram):
    assert matrix_from_diagram(fig_diagram).rows == FIG_MATRIX
    assert toric_permutation(fig_diagram).cycles.cycles == FIG_TAU_CYCLES


def test_criterion_02_reference_partition_cycles_and_degree():
    shape = Partition((5, 3, 2))
    assert partition_toric_permutation(shape).cycles.cycles == FIG_YOUNG_TAU_CYCLES
    pi = pi_degree_partition(shape, 5, cross_check=True)
    assert pi.value == FIG_YOUNG_PI_AT_5 == 625


def test_criterion_03_kernel_equals_odd_cycles_and_factors_are_binary(corpus_analysis):
    for rec in corpus_analysis:
        r = rec.tau.cycles.odd_cycle_count
        assert rec.snf.kernel_dim == r
        assert len(kernel_basis_rational(rec.matrix)) == r
        assert len(cycle_kernel_vectors(rec.diagram)) == r
        assert 2 * len(rec.snf.invariant_factors) + r == rec.matrix.n
        assert all(is_power_of_two(h) for h in rec.snf.invariant_factors)


def test_criterion_04_extension_laws_hold_across_the_corpus(corpus_analysis):
    # The oracle is slow; many exhaustive boards share one matrix.
    oracle_one_perp = {}
    for rec in corpus_analysis:
        h, h_ext = rec.snf.invariant_factors, rec.ext_snf.invariant_factors
        jump = rec.ext_snf.kernel_dim - rec.snf.kernel_dim
        # DiagramFacts reads the extended form from the normal form of M;
        # the fixture reduced extend(M) directly.
        ext = DiagramFacts(rec.diagram).extended_snf
        assert ext.invariant_factors == h_ext
        assert ext.kernel_dim == rec.ext_snf.kernel_dim
        rows = rec.matrix.rows
        if rows not in oracle_one_perp:
            oracle_one_perp[rows] = one_perp(rows)
        assert jump == (1 if oracle_one_perp[rows] else -1)
        for i in range(min(len(h), len(h_ext))):
            assert h[i] % h_ext[i] == 0
        if len(h_ext) == len(h) + 1:
            extra = h_ext[len(h)]
            odd = extra
            while odd % 2 == 0:
                odd //= 2
            f = 3
            while f * f <= odd:
                while odd % f == 0:
                    assert f <= min(rec.diagram.shape)
                    odd //= f
                f += 2
            if odd > 1:
                assert odd <= min(rec.diagram.shape)
        # The sweep's mod-p property reads both answers for all three
        # primes from one elimination.
        for p, ranked in zip((3, 5, 7), ranks_mod(rows, (3, 5, 7))):
            basis = kernel_basis_mod_p(rec.matrix, p)
            assert len(basis) >= rec.snf.kernel_dim
            s_prime = sum(1 for x in h if x % p)
            divisible = s_prime >= len(h_ext) or h_ext[s_prime] % p == 0
            assert divisible == all(sum(v) % p == 0 for v in basis)
            assert ranked == (rec.matrix.n - len(basis), divisible)


def test_criterion_05_small_prime_extension_example(eg_diagram):
    M = matrix_from_diagram(eg_diagram)
    assert skew_normal_form(M).invariant_factors == EG_INVARIANT_FACTORS
    E = extend(M)
    assert skew_normal_form(E).invariant_factors == EG_EXT_INVARIANT_FACTORS
    assert pi_degree_qas(E, 5).value == EG_EXT_PI_AT_5
    assert pi_degree_qas(E, 9).value == EG_EXT_PI_AT_9
    assert len(kernel_basis_mod_p(E, 3)) == EG_EXT_KERNEL_DIM_MOD_3


def test_criterion_06_determinantal_closed_form_and_cycles():
    for n in range(2, 8):
        for t in range(1, n):
            M = matrix_from_diagram(determinantal_diagram(n, t))
            for ell in (3, 4, 5, 6, 8, 9):
                assert pi_degree_determinantal(n, t, ell).value == (
                    pi_degree_qas(M, ell).value
                )
            closed = determinantal_toric_cycles(n, t)
            assert closed == toric_permutation(determinantal_diagram(n, t)).cycles


def test_criterion_07_extended_determinantal_boards():
    for n in range(2, 9):
        for t in range(1, n):
            M = matrix_from_diagram(determinantal_diagram(n, t))
            snf = skew_normal_form(M)
            s_t = len(snf.invariant_factors)
            ext = skew_normal_form(extend(M))
            h_ext = ext.invariant_factors
            # The bordered matrix drops to a zero extra factor exactly when
            # n is even and t divides n/2.
            expects_zero = n % 2 == 0 and (n // 2) % t == 0
            assert (len(h_ext) == s_t) == expects_zero
            assert all(is_power_of_two(x) for x in h_ext)
            # Matching Schubert cell in the 2n ambient space.
            gamma = tuple(range(1, t + 1)) + tuple(range(n + 1, 2 * n - t + 1))
            idx = PluckerIndex(gamma, 2 * n)
            for ell in (3, 5):
                closed = pi_degree_schubert(idx, ell, cross_check=True)
                expected_exp = s_t if expects_zero else s_t + 1
                assert closed.value == ell**expected_exp


def test_criterion_08_grassmannian_closed_form():
    for m in range(1, 8):
        for n in range(m + 1, 9):
            rect = matrix_from_diagram(all_white(m, n - m))
            assert skew_normal_form(rect).kernel_dim == rectangle_kernel_dim(m, n - m)
            for ell in (5, 7, 11):
                closed = pi_degree_grassmannian(m, n, ell)
                generic = pi_degree_qas(extend(rect), ell)
                assert closed.value == generic.value == ell ** grassmannian_exponent(m, n)


def test_criterion_09_representations_of_all_small_boards(small_board_matrices):
    for d, M in small_board_matrices:
        for ell in (3, 5):
            rep = qas_representation(M, ell)
            assert rep.dim == pi_degree_qas(M, ell).value
            assert find_relation_violation(rep, M) is None
            identity = MonomialMatrix.identity(rep.dim, ell)
            assert all(g**ell == identity for g in rep.generator_images)
            assert irreducibility_check(rep)


def test_criterion_10_skew_normal_form_against_classical_smith():
    for M in criterion_10_matrices():
        n = M.n
        snf = skew_normal_form(M)
        smith = textbook_smith(M.to_lists())
        assert smith == [h for h in snf.invariant_factors for _ in (0, 1)]
        assert 2 * len(snf.invariant_factors) + snf.kernel_dim == n

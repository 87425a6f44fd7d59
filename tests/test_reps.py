"""Monomial matrices and representations of quantum affine spaces."""

import time
from collections import Counter
from dataclasses import replace
from functools import partial
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pideg import (
    BadEll,
    BadRange,
    InternalVerificationFailed,
    MonomialMatrix,
    SkewIntMatrix,
    TooLarge,
    ZeroDim,
    clock_shift,
    determinantal_diagram,
    determinantal_invariant_exponent,
    find_relation_violation,
    irreducibility_check,
    is_prime,
    kron,
    matrix_from_diagram,
    pi_degree_determinantal,
    pi_degree_from_factors,
    pi_degree_qas,
    qas_representation,
    skew_normal_form,
)
from bench.workloads import REP_DETRING
from pideg import reps
from pideg.intlinalg import ranks_mod
from pideg.reps import MAX_REP_DIM, QASRepresentation, least_prime_1_mod
from tests.oracles import (
    dense_form,
    dense_mod_p,
    image_relation_violation,
    lifted_generator_images,
    orbit_irreducible,
    span_irreducible,
)


def monomials(dim: int, ell: int):
    return st.tuples(
        st.permutations(list(range(dim))),
        st.lists(st.integers(0, ell - 1), min_size=dim, max_size=dim),
    ).map(lambda t: MonomialMatrix(ell, tuple(t[0]), tuple(t[1])))


class TestMonomialMatrix:
    def test_identity(self):
        ident = MonomialMatrix.identity(3, 5)
        assert ident.rows == (0, 1, 2) and ident.exps == (0, 0, 0)
        assert dense_mod_p(ident, 7, 2) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]

    def test_zero_dimension_rejected(self):
        with pytest.raises(ZeroDim):
            MonomialMatrix(5, (), ())

    def test_matmul_matches_dense(self):
        # q evaluated at 2, which has order 4 modulo 5.
        p, zeta, ell = 5, 2, 4
        a = MonomialMatrix(ell, (1, 2, 0), (3, 0, 1))
        b = MonomialMatrix(ell, (2, 0, 1), (1, 1, 2))
        left = dense_mod_p(a @ b, p, zeta)
        da, db = dense_mod_p(a, p, zeta), dense_mod_p(b, p, zeta)
        dense = [
            [sum(da[i][k] * db[k][j] for k in range(3)) % p for j in range(3)]
            for i in range(3)
        ]
        assert left == dense

    @settings(deadline=None, max_examples=50)
    @given(monomials(4, 6), monomials(4, 6), monomials(4, 6))
    def test_matmul_is_associative(self, a, b, c):
        assert (a @ b) @ c == a @ (b @ c)

    @settings(deadline=None, max_examples=50)
    @given(monomials(5, 4))
    def test_inverse(self, a):
        # a**60 is diagonal (60 is a multiple of every cycle length on five
        # points), so a**240 is the identity and a**239 inverts a.
        ident = MonomialMatrix.identity(5, 4)
        assert a**240 == ident
        assert a @ a**239 == ident == a**239 @ a

    def test_pow(self):
        x, y = clock_shift(3, 1)
        g = x @ y
        assert g**0 == MonomialMatrix.identity(3, 3)
        assert g**2 == g @ g
        assert g**5 == g**2 @ g**3
        with pytest.raises(BadRange):
            g**-1

    @settings(deadline=None, max_examples=80)
    @given(monomials(5, 6), st.integers(1, 13))
    def test_order_divides_matches_the_power(self, a, k):
        assert a.order_divides(k) == (a**k == MonomialMatrix.identity(5, 6))

    def test_order_divides_on_clock_and_shift(self):
        x, y = clock_shift(6, 1)
        assert x.order_divides(6) and y.order_divides(12)
        assert not x.order_divides(3) and not y.order_divides(2)
        # (x y)**6 = q**15 = q**3 is a scalar but not the identity.
        assert not (x @ y).order_divides(6) and (x @ y).order_divides(12)

    def test_scalar_power_vs(self):
        x, y = clock_shift(5, 2)
        # x y = q^2 y x, so comparing xy against yx reports exponent 2.
        assert (x @ y).scalar_power_vs(y @ x) == 2
        # x^2 is not a scalar multiple of y.
        assert (x @ x).scalar_power_vs(y) is None


class TestClockShift:
    def test_commutation_scalar(self):
        # Every clock step, a shared factor with ell or a multiple of it too:
        # the legs have the size and order e of q**h.
        for ell in (2, 3, 4, 5, 6, 8, 9, 12):
            for h in range(ell + 3):
                x, y = clock_shift(ell, h)
                e = ell // gcd(h, ell)
                assert x.dim == y.dim == e and x.order_divides(e) and y.order_divides(e)
                assert (x @ y).scalar_power_vs(y @ x) == h % ell

    def test_order(self):
        for ell in (2, 3, 5):
            x, y = clock_shift(ell, 1)
            ident = MonomialMatrix.identity(ell, ell)
            assert x**ell == ident and y**ell == ident

    def test_even_ell_product_order_defect(self):
        # At ell = 4 the product xy has (xy)^4 = q^6 = q^2 times the
        # identity, not the identity: even levels genuinely differ.
        x, y = clock_shift(4, 1)
        g = (x @ y) ** 4
        assert g != MonomialMatrix.identity(4, 4)
        assert g.scalar_power_vs(MonomialMatrix.identity(4, 4)) == 2

    def test_shared_factor_shrinks_the_leg(self):
        # q**3 has order 2 at ell = 6, so the clock and shift are 2 x 2.
        x, y = clock_shift(6, 3)
        assert x == MonomialMatrix(6, (0, 1), (0, 3))
        assert y == MonomialMatrix(6, (1, 0), (0, 0))
        assert x**2 == y**2 == MonomialMatrix.identity(2, 6)
        assert (x @ y).scalar_power_vs(y @ x) == 3

    def test_tiny_ell_rejected(self):
        with pytest.raises(BadEll):
            clock_shift(1, 1)


class TestKron:
    def test_mixed_product_rule(self):
        x3, y3 = clock_shift(3, 1)
        a, b, c, d = x3, y3, y3, x3
        assert kron(a, b) @ kron(c, d) == kron(a @ c, b @ d)

    def test_identity_legs(self):
        ident = MonomialMatrix.identity(3, 3)
        x, _ = clock_shift(3, 1)
        assert kron(ident, x).dim == 9
        assert kron(x, ident).dim == 9
        assert kron(ident, x) != kron(x, ident)


class TestQASRepresentation:
    def test_dimension_is_the_pi_degree(self, fig_diagram):
        M = matrix_from_diagram(fig_diagram)
        rep = qas_representation(M, 5)
        assert rep.dim == pi_degree_qas(M, 5).value == 625

    def test_relations_hold(self, fig_diagram):
        M = matrix_from_diagram(fig_diagram)
        rep = qas_representation(M, 3)
        assert find_relation_violation(rep, M) is None
        assert image_relation_violation(rep, M) is None

    def test_generators_have_order_ell_at_odd_ell(self):
        M = matrix_from_diagram(determinantal_diagram(3, 1))
        for ell in (3, 5):
            rep = qas_representation(M, ell)
            for g in rep.generator_images:
                assert g**ell == MonomialMatrix.identity(rep.dim, ell)

    def test_violation_is_reported(self, fig_diagram):
        M = matrix_from_diagram(fig_diagram)
        rep = qas_representation(M, 3)
        # Tamper with the exponents: generator 0 becomes the square of its image.
        rows = list(rep.exponents)
        rows[0] = tuple(2 * x for x in rows[0])
        broken = replace(rep, exponents=tuple(rows))
        assert find_relation_violation(broken, M) is not None
        assert image_relation_violation(broken, M) is not None
        # Adding ell to an exponent leaves every image as it was, but F is no
        # longer the certified inverse, and the exact pairing sees it.
        rows[0] = (rep.exponents[0][0] + 3,) + rep.exponents[0][1:]
        shifted = replace(rep, exponents=tuple(rows))
        assert shifted.generator_images == rep.generator_images
        assert find_relation_violation(shifted, M) is not None

    def test_broken_leg_is_an_internal_failure(self, fig_diagram, monkeypatch):
        # A shift that is the clock again commutes with it: no relation can hold.
        monkeypatch.setattr(reps, "clock_shift", lambda ell, h: (clock_shift(ell, h)[0],) * 2)
        M = matrix_from_diagram(fig_diagram)
        with pytest.raises(InternalVerificationFailed, match="block 0: clock and shift"):
            find_relation_violation(qas_representation(M, 3), M)

    def test_shared_factor_with_ell_shrinks_the_dimension(self):
        # h = 2: one leg of size 4 / gcd(2, 4) = 2 at ell = 4, and of size 1
        # at ell = 2, where both generators are central.
        M = SkewIntMatrix(((0, 2), (-2, 0)))
        rep = qas_representation(M, 4)
        assert rep.dim == pi_degree_qas(M, 4).value == 2
        assert find_relation_violation(rep, M) is None
        assert irreducibility_check(rep) and orbit_irreducible(rep) and span_irreducible(rep, 5)
        rep = qas_representation(M, 2)
        assert rep.dim == 1 and rep.generator_images == (MonomialMatrix.identity(1, 2),) * 2
        assert find_relation_violation(rep, M) is None and irreducibility_check(rep)

    def test_empty_matrix_gives_trivial_representation(self):
        rep = qas_representation(SkewIntMatrix(()), 5)
        assert rep.dim == 1 and rep.generator_images == ()

    def test_kernel_generators_are_trivial(self):
        # A zero matrix has only kernel directions; all images are scalars
        # of the one-dimensional identity... in fact the identity itself.
        M = SkewIntMatrix(((0, 0), (0, 0)))
        rep = qas_representation(M, 3)
        assert rep.dim == 1
        assert rep.generator_images == (MonomialMatrix.identity(1, 3),) * 2

    def test_images_match_the_lifted_construction(self, small_board_matrices):
        for _, M in small_board_matrices:
            for ell in (3, 5):
                rep = qas_representation(M, ell)
                assert rep.generator_images == lifted_generator_images(M, ell), M

    @pytest.mark.parametrize("n, t, ell", REP_DETRING)
    def test_images_match_the_lifted_construction_on_determinantal_boards(self, n, t, ell):
        M = matrix_from_diagram(determinantal_diagram(n, t))
        assert qas_representation(M, ell).generator_images == lifted_generator_images(M, ell)

    def test_largest_dimension_is_built(self):
        # detring 11,1 at ell 3 has dimension 3**10 = MAX_REP_DIM.
        rep = qas_representation(matrix_from_diagram(determinantal_diagram(11, 1)), 3)
        assert rep.dim == MAX_REP_DIM
        assert rep.generator_images[0].dim == MAX_REP_DIM

    def test_images_above_the_cap_are_refused(self):
        # The record answers at any dimension; only building images is refused.
        start = time.perf_counter()
        rep = qas_representation(matrix_from_diagram(determinantal_diagram(12, 1)), 3)
        assert rep.dim == 3**11 == 3 * MAX_REP_DIM
        with pytest.raises(TooLarge, match=f"dimension {3**11} exceeds"):
            rep.generator_images
        big_leg = qas_representation(SkewIntMatrix(((0, 1), (-1, 0))), MAX_REP_DIM + 2)
        with pytest.raises(TooLarge, match="clock and shift"):
            big_leg.legs
        assert time.perf_counter() - start < 1

    def test_relation_check_agrees_with_the_image_oracle(self, small_board_matrices):
        # A tampered entry of M breaks exactly its own pair, by 1, so both
        # checks must name it, whether or not ell divides the exponents.
        for _, M in small_board_matrices:
            for ell in (3, 5):
                rep = qas_representation(M, ell)
                if rep.dim > 243:
                    continue
                assert find_relation_violation(rep, M) is None
                assert image_relation_violation(rep, M) is None
                n = M.n
                for i, j in {(0, 1), (n - 2, n - 1)} if n >= 2 else ():
                    rows = [list(row) for row in M.rows]
                    rows[i][j] += 1
                    rows[j][i] -= 1
                    tampered = SkewIntMatrix(tuple(map(tuple, rows)))
                    assert find_relation_violation(rep, tampered) == (i, j)
                    assert image_relation_violation(rep, tampered) == (i, j)


def hand_built(ell: int, h: tuple[int, ...], rows) -> QASRepresentation:
    """A representation record with invariant factors h whose generator i
    has the exponents rows[i] on the legs."""
    dim = pi_degree_from_factors(h, ell).value
    return QASRepresentation(
        ell=ell, dim=dim, invariant_factors=h, kernel_dim=0, exponents=tuple(rows)
    )


def first_usable_prime(ell: int) -> int:
    p = ell + 1
    while not (p % ell == 1 and is_prime(p)):
        p += 1
    return p


def test_least_prime_1_mod_matches_the_every_integer_scan():
    # Stepping by ell from ell + 1 visits exactly the p = 1 (mod ell).
    assert [least_prime_1_mod(ell) for ell in range(3, 61)] == [
        first_usable_prime(ell) for ell in range(3, 61)
    ]


def drop_last_generator(rep: QASRepresentation) -> QASRepresentation:
    return replace(rep, exponents=rep.exponents[:-1])


# detring boards small enough for the orbit oracle, which walks dim**2 pairs.
ORBIT_DETRING = [(n, t, ell) for n, t, ell in REP_DETRING
                 if ell ** determinantal_invariant_exponent(n, t) <= 243]


class TestIrreducibility:
    def test_clock_and_shift_are_irreducible(self):
        M = SkewIntMatrix(((0, 1), (-1, 0)))
        rep = qas_representation(M, 3)
        assert irreducibility_check(rep)

    def test_scalar_representation_is_not(self):
        fake = hand_built(3, (1,), [(0, 0), (0, 0)])
        assert fake.generator_images == (MonomialMatrix.identity(3, 3),) * 2
        assert not irreducibility_check(fake)
        assert not orbit_irreducible(fake)
        assert not span_irreducible(fake, 7)

    def test_clock_without_shift_is_not(self):
        # Every diagonal matrix commutes with a clock: an ell-dimensional commutant.
        for ell, p in ((3, 7), (5, 11)):
            fake = hand_built(ell, (1,), [(1, 0)])
            assert fake.generator_images == (clock_shift(ell, 1)[0],)
            assert not irreducibility_check(fake)
            assert not orbit_irreducible(fake)
            assert not span_irreducible(fake, p)

    @pytest.mark.parametrize(
        "ell, rows, irreducible",
        [
            (6, [(1, 0), (0, 1)], True),
            (6, [(3, 0), (0, 1)], False),  # full rank mod 2, rank 1 mod 3
            (6, [(2, 0), (0, 1)], False),  # full rank mod 3, rank 1 mod 2
            (4, [(2, 0), (0, 1)], False),
            (4, [(2, 1), (1, 1)], True),
            # No unit mod 15 in column 0: the elimination splits 15 into 3 and 5.
            (15, [(3, 1), (5, 1)], True),
            (15, [(5, 0), (0, 3)], False),  # rank 1 mod 3 and mod 5
        ],
    )
    def test_rank_is_taken_modulo_every_prime_of_ell(self, ell, rows, irreducible):
        fake = hand_built(ell, (1,), rows)
        p = first_usable_prime(ell)
        assert irreducibility_check(fake) is irreducible
        assert orbit_irreducible(fake) is irreducible
        assert span_irreducible(fake, p) is irreducible

    @pytest.mark.parametrize(
        "ell, h, rows, irreducible",
        [
            # Legs of sizes (6, 3): 2 reads block 0 only, 3 reads both blocks.
            (6, (1, 2), [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2)], True),
            (6, (1, 2), [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)], False),  # rank 3 mod 3
            (6, (1, 2), [(3, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)], False),
            (6, (1, 2), [(3, 0, 0, 0), (2, 1, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)],
             True),
            (6, (2,), [(1, 0), (0, 1)], True),  # a leg of size 3: 2 reads nothing
            (4, (2,), [(1, 0), (0, 1)], True),
            (4, (2,), [(2, 0), (0, 1)], False),
            (4, (1, 2), [(2, 0, 1, 0), (0, 1, 0, 0), (1, 0, 0, 1), (0, 0, 0, 1)], True),
            (12, (1, 4), [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)], True),
            (12, (1, 4), [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 3, 0), (0, 0, 0, 1)], False),
        ],
    )
    def test_rank_is_taken_on_the_blocks_each_prime_divides(self, ell, h, rows, irreducible):
        fake = hand_built(ell, h, rows)
        p = first_usable_prime(ell)
        assert irreducibility_check(fake) is irreducible
        assert orbit_irreducible(fake) is irreducible
        if fake.dim <= 18:
            assert span_irreducible(fake, p) is irreducible

    @pytest.mark.parametrize(
        "ell, h, calls",
        [
            (6, (1, 1), [[2, 3]]),
            (6, (1, 2), [[2], [3]]),
            (12, (1, 2, 4), [[2], [3]]),
            (30, (1, 2, 3), [[2], [3], [5]]),
            (30, (1, 2, 4), [[2], [3, 5]]),
        ],
    )
    def test_one_elimination_per_column_set(self, monkeypatch, ell, h, calls):
        # The primes whose blocks coincide share one elimination modulo their product.
        seen = []
        monkeypatch.setattr(reps, "ranks_mod", lambda rows, primes: seen.append(primes)
                            or ranks_mod(rows, primes))
        rows = [tuple(int(i == j) for j in range(2 * len(h))) for i in range(2 * len(h))]
        assert irreducibility_check(hand_built(ell, h, rows))
        assert seen == calls

    def test_leg_that_does_not_q_commute_raises(self, monkeypatch):
        # A shift that is the clock again commutes with it: both checks
        # read the legs, and a bad one is the package's fault.
        monkeypatch.setattr(reps, "clock_shift", lambda ell, h: (clock_shift(ell, h)[0],) * 2)
        M = SkewIntMatrix(((0, 1), (-1, 0)))
        for check in (irreducibility_check, partial(find_relation_violation, M=M)):
            with pytest.raises(InternalVerificationFailed,
                               match="block 0: clock and shift do not commute"):
                check(qas_representation(M, 3))

    def test_leg_whose_power_is_not_the_identity_raises(self, monkeypatch):
        # A transposition at ell = 3: its cube is itself.
        s01 = MonomialMatrix(3, (1, 0, 2), (0, 0, 0))
        monkeypatch.setattr(reps, "clock_shift", lambda ell, h: (clock_shift(ell, h)[0], s01))
        M = SkewIntMatrix(((0, 1), (-1, 0)))
        for check in (irreducibility_check, partial(find_relation_violation, M=M)):
            with pytest.raises(InternalVerificationFailed, match="block 0: clock or shift"):
                check(qas_representation(M, 3))

    def test_no_dimension_cap(self):
        # Dimension 739, above the old cap of 729, and 3**22, far above the
        # largest image built: the certificate never reads an image.
        start = time.perf_counter()
        rep = qas_representation(SkewIntMatrix(((0, 1), (-1, 0))), 739)
        assert irreducibility_check(rep)
        rep = qas_representation(matrix_from_diagram(determinantal_diagram(8, 4)), 3)
        assert rep.dim == 3**22
        assert irreducibility_check(rep)
        assert time.perf_counter() - start < 1

    def test_agrees_with_the_orbit_oracle_on_small_boards(self, small_board_matrices):
        # ell = 15 has two primes, so the rank check eliminates once mod 15.
        cases = Counter()
        for _, M in small_board_matrices:
            for ell in (3, 5, 15):
                rep = qas_representation(M, ell)
                if rep.dim > 27:
                    continue
                for part in (rep, drop_last_generator(rep)) if M.n else (rep,):
                    certified = irreducibility_check(part)
                    assert certified == orbit_irreducible(part), M
                    cases[ell, certified] += 1
        # 418 records of dimension <= 27 at ell = 3 and 5, and 26 at ell = 15
        # (dimension 1 or 15), each also without its last generator except
        # the three empty ones.
        assert cases == {
            (3, True): 388, (3, False): 89,
            (5, True): 307, (5, False): 50,
            (15, True): 45, (15, False): 6,
        }

    @pytest.mark.parametrize("n, t, ell", ORBIT_DETRING)
    def test_agrees_with_the_orbit_oracle_on_determinantal_boards(self, n, t, ell):
        rep = qas_representation(matrix_from_diagram(determinantal_diagram(n, t)), ell)
        assert irreducibility_check(rep) and orbit_irreducible(rep)
        if rep.dim <= 27:
            # Every prefix of the generators, reducible ones among them.
            for k in range(1, len(rep.exponents)):
                part = replace(rep, exponents=rep.exponents[:k])
                assert irreducibility_check(part) == orbit_irreducible(part)

    @pytest.mark.parametrize("n, t, ell", [(4, 1, 3), (3, 1, 5), (5, 1, 3)])
    def test_agrees_with_the_span_oracle_on_determinantal_boards(self, n, t, ell):
        rep = qas_representation(matrix_from_diagram(determinantal_diagram(n, t)), ell)
        p = first_usable_prime(ell)
        assert irreducibility_check(rep) and span_irreducible(rep, p)
        if rep.dim <= 27:
            # Dropping generators gives reducible images as well as irreducible ones.
            for k in range(1, len(rep.exponents)):
                part = replace(rep, exponents=rep.exponents[:k])
                assert irreducibility_check(part) == span_irreducible(part, p)

    def test_agrees_with_the_span_oracle_on_small_boards(self, small_board_matrices):
        for _, M in small_board_matrices:
            for ell, p in ((3, 7), (5, 11)):
                rep = qas_representation(M, ell)
                if rep.dim <= 27:
                    assert irreducibility_check(rep) == span_irreducible(rep, p), M
                if 1 < rep.dim <= 9:
                    part = drop_last_generator(rep)
                    assert irreducibility_check(part) == span_irreducible(part, p), M

    def test_one_answer_for_every_field(self, small_board_matrices):
        # The certificate reads no prime: over a second F_p with ell | p - 1
        # the span oracle, which computes in F_p itself, gives its answer.
        records = Counter()
        for _, M in small_board_matrices:
            for ell, p in ((3, 13), (5, 31)):
                assert p != least_prime_1_mod(ell) and (p - 1) % ell == 0
                rep = qas_representation(M, ell)
                if rep.dim > 9:
                    continue
                for part in (rep, drop_last_generator(rep)) if M.n else (rep,):
                    certified = irreducibility_check(part)
                    assert certified == span_irreducible(part, p), (M, ell)
                    records[certified] += 1
        # 205 records of dimension <= 9, 203 of them also without their last generator.
        assert records == {True: 352, False: 56}


class TestDeterminantalRepresentations:
    def test_dimension_check(self):
        # The representation has the dimension of the closed-form PI degree.
        for n, t, ell in ((3, 1, 3), (4, 2, 5)):
            rep = qas_representation(matrix_from_diagram(determinantal_diagram(n, t)), ell)
            assert rep.dim == pi_degree_determinantal(n, t, ell).value


# Every ell of the corpus below: odd and even, prime powers and not.
EVERY_ELL = (2, 3, 4, 6, 8, 12)


@pytest.fixture(scope="module")
def every_ell_records(small_board_matrices):
    """(M, representation) at each of EVERY_ELL, for every distinct matrix
    of a board with at most three rows and columns and for the
    determinantal boards 4,2, 5,2 and 4,3."""
    matrices = [M for _, M in small_board_matrices] + [
        matrix_from_diagram(determinantal_diagram(n, t)) for n, t in ((4, 2), (5, 2), (4, 3))
    ]
    return [(M, qas_representation(M, ell)) for M in matrices for ell in EVERY_ELL]


# The cases of dimension at most 64 by (ell, certified), and without their
# last generator by (ell, "dropped", certified): every whole record is
# irreducible, and dropping a generator gives reducible ones at every ell.
DROPPED_AND_WHOLE = {
    (2, True): 242, (2, "dropped", True): 191, (2, "dropped", False): 50,
    (3, True): 239, (3, "dropped", True): 149, (3, "dropped", False): 89,
    (4, True): 239, (4, "dropped", True): 149, (4, "dropped", False): 89,
    (6, True): 179, (6, "dropped", True): 128, (6, "dropped", False): 50,
    (8, True): 179, (8, "dropped", True): 128, (8, "dropped", False): 50,
    (12, True): 26, (12, "dropped", True): 19, (12, "dropped", False): 6,
}


class TestEveryEll:
    """Legs of size ell / gcd(h_k, ell) give a representation of the PI
    degree at every ell, shared factors or not."""

    def test_dimension_is_the_pi_degree_and_the_relations_hold(self, every_ell_records):
        assert len(every_ell_records) == 242 * len(EVERY_ELL)
        for M, rep in every_ell_records:
            assert rep.dim == pi_degree_from_factors(rep.invariant_factors, rep.ell).value
            assert rep.dim == pi_degree_qas(M, rep.ell).value
            assert find_relation_violation(rep, M) is None

    def test_exponents_are_the_block_columns_of_f(self, every_ell_records):
        # Row i is the first 2s entries of row i of F = E^{-1}, written out
        # by the oracle from the form's sparse rows: no kernel column enters.
        checked = 0
        for M, rep in every_ell_records:
            if rep.ell not in (2, 3, 4, 6):
                continue
            width = 2 * len(rep.invariant_factors)
            F = dense_form(skew_normal_form(M)).inverse_transform
            assert len(rep.exponents) == M.n
            assert all(len(row) == width for row in rep.exponents)
            assert rep.exponents == tuple(row[:width] for row in F), (M, rep.ell)
            checked += 1
        assert checked == 242 * 4

    def test_irreducibility_agrees_with_the_orbit_oracle(self, every_ell_records):
        cases = Counter()
        for M, rep in every_ell_records:
            if rep.dim > 64:
                continue
            certified = irreducibility_check(rep)
            assert certified == orbit_irreducible(rep), (M, rep.ell)
            cases[rep.ell, certified] += 1
            if M.n:
                part = drop_last_generator(rep)
                dropped = irreducibility_check(part)
                assert dropped == orbit_irreducible(part), (M, rep.ell)
                cases[rep.ell, "dropped", dropped] += 1
        assert sum(n for key, n in cases.items() if len(key) == 2) == 1104
        assert cases == DROPPED_AND_WHOLE

    def test_images_match_the_lifted_and_span_oracles(self, every_ell_records):
        for M, rep in every_ell_records:
            if rep.dim > 64:
                continue
            assert rep.generator_images == lifted_generator_images(M, rep.ell), (M, rep.ell)
            assert image_relation_violation(rep, M) is None
            if rep.dim <= 16:
                assert span_irreducible(rep, least_prime_1_mod(rep.ell)), (M, rep.ell)

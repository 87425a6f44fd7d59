"""Maximal-dimension irreducible representations via monomial matrices.

A quantum affine space at a primitive ell-th root of unity q has PI degree
prod e_k, e_k = ell / gcd(h_k, ell), over the congruence invariant factors
h_k of its commutation matrix, and it has an irreducible monomial
representation of that dimension. Block k gets a leg, a clock/shift pair of
size e_k with clock step h_k, and generator i's image is the Kronecker
product over the blocks k of x_k**a @ y_k**b, with (a, b) the exponents
that row i of F = E^{-1} gives block k in its columns 2k and 2k + 1. Only
those 2s columns of F are built, replayed backward from the log of the
normal form, and the exact integer pairing of their rows must give back
M before the record is returned.

Every fact reported follows from the legs and the exponents, so no
dim x dim image is built unless a caller reads one. Each certificate is
made once: the legs are built on first read, one clock/shift per distinct
h_k mod ell, and each is checked as it is built (size and order e_k, and
x y = q**h_k y x); with the pairing that qas_representation checked, that
proves every relation, so `pideg rep --verify` reads the legs and reports
it. find_relation_violation runs the pairing again only against an M a
caller brings. Irreducibility over every F_p with ell | p - 1 is the rank
of the exponent matrix modulo each prime r dividing some e_k, on the
blocks with r | e_k. Powers of q are integer exponents mod ell, so every
identity checked is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import count
from math import gcd, lcm
from operator import mul

from .degrees import check_ell, pi_degree_from_factors, smallest_prime_factor
from .errors import BadRange, InternalVerificationFailed, TooLarge, ZeroDim
from .intlinalg import SkewIntMatrix, _block_columns, is_prime, ranks_mod, skew_normal_form


@dataclass(frozen=True)
class MonomialMatrix:
    """A monomial matrix whose nonzero entries are powers of q, q**ell = 1.

    Column j holds its single nonzero entry q**exps[j] in row rows[j];
    `rows` must be a permutation of 0..dim-1. Products and powers stay
    monomial and are computed exactly on the exponents.
    """

    ell: int
    rows: tuple[int, ...]
    exps: tuple[int, ...]

    def __post_init__(self) -> None:
        check_ell(self.ell)
        d = len(self.rows)
        if d < 1:
            raise ZeroDim("monomial matrix needs dimension at least 1")
        if sorted(self.rows) != list(range(d)):
            raise BadRange(f"rows is not a permutation of 0..{d - 1}: {self.rows}")
        if len(self.exps) != d:
            raise BadRange("exps length differs from rows length")
        object.__setattr__(self, "exps", tuple(e % self.ell for e in self.exps))

    @property
    def dim(self) -> int:
        return len(self.rows)

    @classmethod
    def identity(cls, dim: int, ell: int) -> "MonomialMatrix":
        if dim < 1:
            raise ZeroDim(f"identity of dimension {dim}")
        return cls(ell, tuple(range(dim)), (0,) * dim)

    def __matmul__(self, other: "MonomialMatrix") -> "MonomialMatrix":
        if self.ell != other.ell or self.dim != other.dim:
            raise BadRange("monomial matrices of different shape or ell")
        rows = tuple(self.rows[r] for r in other.rows)
        exps = tuple(e + self.exps[r] for r, e in zip(other.rows, other.exps))
        return MonomialMatrix(self.ell, rows, exps)

    def __pow__(self, k: int) -> "MonomialMatrix":
        if k < 0:
            raise BadRange(f"monomial matrix power must be non-negative, got {k}")
        base = self
        out = MonomialMatrix.identity(self.dim, self.ell)
        while k:
            if k & 1:
                out = out @ base
            base = base @ base
            k >>= 1
        return out

    def order_divides(self, k: int) -> bool:
        """Whether self**k is the identity: each cycle of rows has a length L
        dividing k, and k / L rounds of it multiply to q**0."""
        seen = [False] * self.dim
        for start in range(self.dim):
            length = total = 0
            j = start
            while not seen[j]:
                seen[j] = True
                length, total, j = length + 1, total + self.exps[j], self.rows[j]
            if length and (k % length or total * (k // length) % self.ell):
                return False
        return True

    def scalar_power_vs(self, other: "MonomialMatrix") -> int | None:
        """The c with self = q**c * other, or None if no such scalar exists."""
        if self.rows != other.rows:
            return None
        c = (self.exps[0] - other.exps[0]) % self.ell
        for a, b in zip(self.exps, other.exps):
            if (a - b) % self.ell != c:
                return None
        return c


def kron(a: MonomialMatrix, b: MonomialMatrix) -> MonomialMatrix:
    """Kronecker product; column jA*dim(b)+jB maps under a on the left factor."""
    if a.ell != b.ell:
        raise BadRange("Kronecker factors with different ell")
    db = b.dim
    rows = tuple(ra * db + rb for ra in a.rows for rb in b.rows)
    exps = tuple(ea + eb for ea in a.exps for eb in b.exps)
    return MonomialMatrix(a.ell, rows, exps)


def clock_shift(ell: int, h: int) -> tuple[MonomialMatrix, MonomialMatrix]:
    """The e x e clock X (diagonal q**(j*h)) and shift Y (cyclic step),
    e = ell / gcd(h, ell), the order of q**h.

    They satisfy X Y = q**h Y X and X**e = Y**e = identity, so they generate
    the full e x e matrix algebra.
    """
    check_ell(ell)
    e = ell // gcd(h, ell)
    x = MonomialMatrix(ell, tuple(range(e)), tuple(j * h for j in range(e)))
    y = MonomialMatrix(ell, tuple((j + 1) % e for j in range(e)), (0,) * e)
    return x, y


@dataclass(frozen=True)
class QASRepresentation:
    """A representation of the quantum affine space of a skew matrix M.

    dim is the PI degree, the product of the leg sizes e_k = ell / gcd(h_k,
    ell) over the invariant factor blocks. `exponents` has one row of 2s
    integers per generator (row i of M): the first 2s entries of row i of
    F = E^{-1}, exact, where entries 2k and 2k + 1 are the powers of block
    k's clock and shift in leg k of generator i's image. Legs and images
    are built on first read; the checks never read the images.
    """

    ell: int
    dim: int
    invariant_factors: tuple[int, ...]
    kernel_dim: int
    exponents: tuple[tuple[int, ...], ...]

    @cached_property
    def leg_sizes(self) -> tuple[int, ...]:
        """e_k = ell / gcd(h_k, ell) for each block k, its factor of dim."""
        return pi_degree_from_factors(self.invariant_factors, self.ell).factors

    @cached_property
    def legs(self) -> tuple[tuple[MonomialMatrix, MonomialMatrix], ...]:
        """Block k's e_k x e_k clock and shift, with clock step h_k mod ell,
        built and checked (_checked_leg) once per distinct step and shared by
        the blocks with that step. TooLarge when some e_k exceeds
        MAX_REP_DIM, before anything is built."""
        largest = max(self.leg_sizes, default=1)
        if largest > MAX_REP_DIM:
            raise TooLarge(
                f"clock and shift of size {largest} exceed the largest built, {MAX_REP_DIM}"
            )
        ell = self.ell
        built: dict[int, tuple[MonomialMatrix, MonomialMatrix]] = {}  # h mod ell -> leg
        for k, (hk, e) in enumerate(zip(self.invariant_factors, self.leg_sizes)):
            if hk % ell not in built:
                built[hk % ell] = _checked_leg(ell, hk % ell, e, k)
        return tuple(built[hk % ell] for hk in self.invariant_factors)

    @cached_property
    def generator_images(self) -> tuple[MonomialMatrix, ...]:
        """Image i: the Kronecker product over blocks k of x_k**a @ y_k**b,
        (a, b) = entries 2k and 2k + 1 of exponent row i mod ell. TooLarge above
        MAX_REP_DIM, before anything is built."""
        if self.dim > MAX_REP_DIM:
            raise TooLarge(
                f"representation dimension {self.dim} exceeds the largest built, {MAX_REP_DIM}"
            )
        ell = self.ell
        images = []
        for row in self.exponents:
            g = MonomialMatrix.identity(1, ell)
            for k, (x, y) in enumerate(self.legs):
                g = kron(g, x ** (row[2 * k] % ell) @ y ** (row[2 * k + 1] % ell))
            images.append(g)
        return tuple(images)


# Largest dimension of a monomial matrix built here: 3**10, under a second for
# the images of detring 11,1 at ell 3. Larger requests could exhaust memory.
MAX_REP_DIM = 59_049


def qas_representation(M: SkewIntMatrix, ell: int) -> QASRepresentation:
    """The irreducible monomial representation of the algebra of M at ell,
    of dimension its PI degree. The empty matrix yields the trivial
    one-dimensional representation. The exponents are the first 2s columns
    of F = E^{-1} (intlinalg._block_columns), certified by the pairing
    identity M[i][j] = sum_k h_k (a_ik b_jk - b_ik a_jk) on every pair of
    their rows; InternalVerificationFailed names the first pair that breaks
    it."""
    check_ell(ell)
    snf = skew_normal_form(M)
    h = snf.invariant_factors
    dim = pi_degree_from_factors(h, ell).value
    exponents = _block_columns(snf.log, M.n, 2 * len(h))
    broken = _pairing_violation(h, exponents, M)
    if broken is not None:
        raise InternalVerificationFailed(f"exponent rows {broken} do not pair to their entry of M")
    return QASRepresentation(ell, dim, h, snf.kernel_dim, exponents)


def _checked_leg(ell: int, h: int, e: int, k: int) -> tuple[MonomialMatrix, MonomialMatrix]:
    """Block k's clock x and shift y, clock_shift(ell, h) with 0 <= h < ell,
    checked: InternalVerificationFailed, naming the block, unless they are
    of size and order e, the block's factor of the PI degree, and satisfy
    x y = q**h y x. The legs are built here, so a failure is a bug, never
    bad input."""
    x, y = clock_shift(ell, h)
    if not (x.dim == y.dim == e and x.ell == y.ell == ell and x.order_divides(e)
            and y.order_divides(e)):
        raise InternalVerificationFailed(f"block {k}: clock or shift is not of size and order {e}")
    if (x @ y).scalar_power_vs(y @ x) != h:
        raise InternalVerificationFailed(f"block {k}: clock and shift do not commute up to q**{h}")
    return x, y


def find_relation_violation(
    rep: QASRepresentation, M: SkewIntMatrix
) -> tuple[int, int] | None:
    """First generator pair (i, j) with T_i T_j != q**M[i,j] T_j T_i, or None.

    Checked on the legs and the exponents, never on the images. On one leg,
    (x**a y**b)(x**c y**d) = q**(h(ad - bc)) (x**c y**d)(x**a y**b) once
    x y = q**h y x, and Kronecker products multiply the scalars of their
    legs, so T_i T_j = q**c T_j T_i with the exact integer pairing
    c = sum_k h_k (a_ik b_jk - b_ik a_jk) of exponent rows i and j. The
    legs are read, and so checked where they are built (_checked_leg), then
    c = M[i, j] for every pair (_pairing_violation). qas_representation
    has already checked the pairing against its own M; this is for any
    other M a caller brings.
    """
    rep.legs  # built, and so checked, on first read
    return _pairing_violation(rep.invariant_factors, rep.exponents, M)


def _pairing_violation(h: tuple[int, ...], exponents, M: SkewIntMatrix) -> tuple[int, int] | None:
    """The first pair (i, j), i < j, with sum_k h_k (a_ik b_jk - b_ik a_jk)
    != M[i][j], or None; (a_ik, b_ik) are entries 2k and 2k + 1 of
    exponent row i."""
    # weighted[i] paired with exponent row j gives the pairing of (i, j).
    weighted = [
        [w for k, hk in enumerate(h) for w in (-hk * row[2 * k + 1], hk * row[2 * k])]
        for row in exponents
    ]
    for i in range(M.n):
        for j in range(i + 1, M.n):
            if sum(map(mul, weighted[i], exponents[j])) != M.rows[i][j]:
                return (i, j)
    return None


def least_prime_1_mod(ell: int) -> int:
    """The least prime p with ell | p - 1, the smallest field F_p holding a q
    of order ell: the field `pideg rep --irreducible` names."""
    return next(p for p in count(check_ell(ell) + 1, ell) if is_prime(p))


def irreducibility_check(rep: QASRepresentation) -> bool:
    """Whether the images commute only with scalars over every F_p with
    ell | p - 1: no p is read, so one answer holds for all of them.

    In such an F_p, q**h_k has order e_k = ell / gcd(h_k, ell), which the
    legs realize (checked as they are built, _checked_leg), so the
    Kronecker products W(u) of leg powers, u in G = sum_k (Z/e_k)**2, are a
    basis of the dim x dim matrices, and W(u) W(v) = q**w(u, v) W(v) W(u)
    for a pairing w weighted by the h_k, nondegenerate on G. Generator i is
    W(exponent row i), so the commutant is spanned by the W(v) with v in the
    annihilator of the span H of the exponent rows: it is the scalars
    exactly when H = G. By
    Frattini, that is when, for each prime r dividing some e_k, the
    exponent columns of the blocks with r | e_k have full rank mod r: one
    elimination modulo the product of the primes that share a column set,
    which is a single one when every e_k = ell. Only the lcm of the e_k is
    factored, never ell itself. This costs O(n s**2) at any dimension.
    """
    rep.legs  # built, and so checked, on first read
    sizes = rep.leg_sizes
    primes_of: dict[tuple[int, ...], list[int]] = {}  # blocks read -> primes
    rest = lcm(*sizes)
    while rest > 1:
        prime = smallest_prime_factor(rest)
        while rest % prime == 0:
            rest //= prime
        blocks = tuple(k for k, e in enumerate(sizes) if e % prime == 0)
        primes_of.setdefault(blocks, []).append(prime)
    return all(
        rank == 2 * len(blocks)
        for blocks, primes in primes_of.items()
        for rank, _ in ranks_mod([[row[c] for k in blocks for c in (2 * k, 2 * k + 1)]
                                  for row in rep.exponents], primes)
    )

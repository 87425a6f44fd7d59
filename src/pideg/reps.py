"""Maximal-dimension irreducible representations via monomial matrices.

A quantum affine space at a primitive ell-th root of unity q has PI degree
prod ell / gcd(h_i, ell) over the congruence invariant factors h_i of its
commutation matrix. When every gcd is 1 an irreducible representation of
exactly that dimension can be written down with monomial matrices: tensor
together one clock/shift pair of size ell per invariant factor, then pull
the generators back through the congruence transform.

All matrices here are monomial over the cyclotomic integers: one nonzero
entry per row and column, each a power of q. Powers of q are tracked as
integer exponents mod ell and never evaluated numerically, so every
identity checked is exact. Only the final irreducibility certificate picks
a concrete root of unity, inside a finite field F_p with ell | p - 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .errors import (
    BadEll,
    BadRange,
    GcdViolation,
    InternalVerificationFailed,
    NoRootOfUnity,
    NotPrime,
    TooLarge,
    ZeroDim,
)
from .intlinalg import SkewIntMatrix, is_prime, skew_normal_form


@dataclass(frozen=True)
class MonomialMatrix:
    """A monomial matrix whose nonzero entries are powers of q, q**ell = 1.

    Column j holds its single nonzero entry q**exps[j] in row rows[j];
    `rows` must be a permutation of 0..dim-1. Products, powers and
    inverses stay monomial and are computed exactly on the exponents.
    """

    ell: int
    rows: tuple[int, ...]
    exps: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.ell < 1:
            raise BadEll(f"ell must be at least 1, got {self.ell}")
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

    @property
    def is_identity(self) -> bool:
        return self.rows == tuple(range(self.dim)) and not any(self.exps)

    def __matmul__(self, other: "MonomialMatrix") -> "MonomialMatrix":
        if self.ell != other.ell or self.dim != other.dim:
            raise BadRange("monomial matrices of different shape or ell")
        rows = tuple(self.rows[r] for r in other.rows)
        exps = tuple(
            other.exps[j] + self.exps[other.rows[j]] for j in range(self.dim)
        )
        return MonomialMatrix(self.ell, rows, exps)

    def inverse(self) -> "MonomialMatrix":
        rows = [0] * self.dim
        exps = [0] * self.dim
        for j, r in enumerate(self.rows):
            rows[r] = j
            exps[r] = -self.exps[j]
        return MonomialMatrix(self.ell, tuple(rows), tuple(exps))

    def __pow__(self, k: int) -> "MonomialMatrix":
        base = self if k >= 0 else self.inverse()
        k = abs(k)
        out = MonomialMatrix.identity(self.dim, self.ell)
        while k:
            if k & 1:
                out = out @ base
            base = base @ base
            k >>= 1
        return out

    def scalar_times(self, c: int) -> "MonomialMatrix":
        """This matrix multiplied by the scalar q**c."""
        return MonomialMatrix(self.ell, self.rows, tuple(e + c for e in self.exps))

    def scalar_power_vs(self, other: "MonomialMatrix") -> int | None:
        """The c with self = q**c * other, or None if no such scalar exists."""
        if self.rows != other.rows:
            return None
        c = (self.exps[0] - other.exps[0]) % self.ell
        for a, b in zip(self.exps, other.exps):
            if (a - b) % self.ell != c:
                return None
        return c

    def dense_mod_p(self, p: int, zeta: int) -> list[list[int]]:
        """The matrix over F_p with q evaluated at zeta (order ell mod p)."""
        out = [[0] * self.dim for _ in range(self.dim)]
        for j in range(self.dim):
            out[self.rows[j]][j] = pow(zeta, self.exps[j], p)
        return out


def kron(a: MonomialMatrix, b: MonomialMatrix) -> MonomialMatrix:
    """Kronecker product; column jA*dim(b)+jB maps under a on the left factor."""
    if a.ell != b.ell:
        raise BadRange("Kronecker factors with different ell")
    db = b.dim
    rows = []
    exps = []
    for ja in range(a.dim):
        for jb in range(db):
            rows.append(a.rows[ja] * db + b.rows[jb])
            exps.append(a.exps[ja] + b.exps[jb])
    return MonomialMatrix(a.ell, tuple(rows), tuple(exps))


def clock_shift(ell: int, h: int) -> tuple[MonomialMatrix, MonomialMatrix]:
    """The ell x ell clock X (diagonal q**(j*h)) and shift Y (cyclic step).

    They satisfy X Y = q**h Y X, and X**ell = Y**ell = identity. The clock
    step h must be invertible mod ell for the pair to generate a matrix
    algebra of full size ell**2.
    """
    if ell < 2:
        raise BadEll(f"ell must be at least 2, got {ell}")
    if gcd(h, ell) != 1:
        raise GcdViolation(f"clock step {h} shares a factor with ell = {ell}")
    x = MonomialMatrix(ell, tuple(range(ell)), tuple(j * h for j in range(ell)))
    y = MonomialMatrix(ell, tuple((j + 1) % ell for j in range(ell)), (0,) * ell)
    return x, y


@dataclass(frozen=True)
class QASRepresentation:
    """A representation of the quantum affine space of a skew matrix M.

    generator_images[i] is the image of the i-th coordinate generator
    (0-based, matching row i of M); dim = ell**s with s the number of
    invariant factor blocks. block_images holds the raw tensor-leg
    generators (clock and shift per block, identity per kernel direction)
    and e_inverse the exact integer inverse of the congruence transform,
    whose row i gives the exponents expressing generator i in the raw ones.
    """

    ell: int
    dim: int
    invariant_factors: tuple[int, ...]
    kernel_dim: int
    e_inverse: tuple[tuple[int, ...], ...]
    block_images: tuple[MonomialMatrix, ...]
    generator_images: tuple[MonomialMatrix, ...]


def qas_representation(M: SkewIntMatrix, ell: int) -> QASRepresentation:
    """Build a dimension ell**s monomial representation of the algebra of M.

    Exists exactly when every invariant factor of M is coprime to ell
    (GcdViolation otherwise); in that case ell**s is the PI degree and the
    representation is irreducible. The empty matrix yields the trivial
    one-dimensional representation.
    """
    if ell < 2:
        raise BadEll(f"ell must be at least 2, got {ell}")
    snf = skew_normal_form(M)
    h = snf.invariant_factors
    bad = [hi for hi in h if gcd(hi, ell) != 1]
    if bad:
        raise GcdViolation(
            f"invariant factors {bad} share a factor with ell = {ell}; "
            "no representation of full PI degree from this construction"
        )
    s = len(h)
    t = snf.kernel_dim
    dim = ell**s
    e_inverse = snf.inverse_transform

    blocks: list[MonomialMatrix] = []
    for k in range(s):
        x, y = clock_shift(ell, h[k] % ell)
        for g in (x, y):
            lifted = g
            for _ in range(k):
                lifted = kron(MonomialMatrix.identity(ell, ell), lifted)
            for _ in range(s - k - 1):
                lifted = kron(lifted, MonomialMatrix.identity(ell, ell))
            blocks.append(lifted)
    identity = MonomialMatrix.identity(dim, ell)
    blocks.extend(identity for _ in range(t))

    generators = []
    for i in range(M.n):
        g = identity
        for a in range(2 * s + t):
            e = e_inverse[i][a] % ell
            if e:
                g = g @ blocks[a] ** e
        generators.append(g)

    return QASRepresentation(
        ell=ell,
        dim=dim,
        invariant_factors=h,
        kernel_dim=t,
        e_inverse=e_inverse,
        block_images=tuple(blocks),
        generator_images=tuple(generators),
    )


def find_relation_violation(
    rep: QASRepresentation, M: SkewIntMatrix
) -> tuple[int, int] | None:
    """First generator pair (i, j) whose commutation fails, or None.

    Two independent checks per pair: the monomial identity
    T_i T_j = q**M[i,j] T_j T_i, and the exact integer identity expressing
    M as E^{-1} S E^{-T} through the block pairing of the invariant
    factors. Either failing reports the pair.
    """
    h = rep.invariant_factors
    s = len(h)
    for i in range(M.n):
        for j in range(i + 1, M.n):
            ti, tj = rep.generator_images[i], rep.generator_images[j]
            c = (ti @ tj).scalar_power_vs(tj @ ti)
            if c is None or c != M[i, j] % rep.ell:
                return (i, j)
            ei, ej = rep.e_inverse[i], rep.e_inverse[j]
            pairing = sum(
                h[k] * (ei[2 * k] * ej[2 * k + 1] - ei[2 * k + 1] * ej[2 * k])
                for k in range(s)
            )
            if pairing != M[i, j]:
                return (i, j)
    return None


def verify_relations(rep: QASRepresentation, M: SkewIntMatrix) -> bool:
    """Whether every defining relation of the algebra holds in the representation."""
    return find_relation_violation(rep, M) is None


def _element_of_order(ell: int, p: int) -> int:
    """Some zeta in F_p of multiplicative order exactly ell."""
    if (p - 1) % ell:
        raise NoRootOfUnity(f"ell = {ell} does not divide p - 1 = {p - 1}")
    prime_divs = []
    rest = ell
    f = 2
    while f * f <= rest:
        if rest % f == 0:
            prime_divs.append(f)
            while rest % f == 0:
                rest //= f
        f += 1
    if rest > 1:
        prime_divs.append(rest)
    for a in range(2, p):
        z = pow(a, (p - 1) // ell, p)
        if z != 1 and all(pow(z, ell // q, p) != 1 for q in prime_divs):
            return z
    raise InternalVerificationFailed(f"no element of order {ell} found in F_{p}")


# Default bound on dim**2 for irreducibility_check: the span search costs
# about dim**6, which is seconds at dim 27 and many minutes at dim 81.
SPAN_BOUND = 729


def irreducibility_check(
    rep: QASRepresentation, p: int, bound: int = SPAN_BOUND
) -> bool:
    """Certify irreducibility over F_p by linear span of the generated algebra.

    Evaluates q at an order-ell element of F_p, then grows the span of all
    words in the generator images starting from the identity; the
    representation is irreducible exactly when the span fills the full
    dim x dim matrix algebra (Burnside). Requires a prime p with
    ell | p - 1 and dim**2 <= bound.
    """
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    d = rep.dim
    if d * d > bound:
        raise TooLarge(
            f"span computation needs {d * d} dimensions, above the bound {bound}; "
            "raise it with --bound (pideg rep) or bound= to run it anyway"
        )
    zeta = _element_of_order(rep.ell, p)
    gens = [g.dense_mod_p(p, zeta) for g in rep.generator_images]

    def vec(mat: list[list[int]]) -> list[int]:
        return [x for row in mat for x in row]

    # Row-reduced span basis: pivot column -> reduced vector.
    pivots: dict[int, list[int]] = {}

    def reduce_and_add(v: list[int]) -> bool:
        for c, w in pivots.items():
            if v[c]:
                f = v[c]
                v = [(x - f * y) % p for x, y in zip(v, w)]
        lead = next((c for c, x in enumerate(v) if x), None)
        if lead is None:
            return False
        inv = pow(v[lead], p - 2, p)
        pivots[lead] = [x * inv % p for x in v]
        return True

    def mat_mul_p(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
        bt = list(zip(*b))
        return [[sum(x * y for x, y in zip(row, col)) % p for col in bt] for row in a]

    ident = [[int(i == j) for j in range(d)] for i in range(d)]
    words = [ident]
    reduce_and_add(vec(ident))
    frontier = [ident]
    while frontier and len(pivots) < d * d:
        new_frontier = []
        for w in frontier:
            for g in gens:
                cand = mat_mul_p(w, g)
                if reduce_and_add(vec(cand)):
                    words.append(cand)
                    new_frontier.append(cand)
                    if len(pivots) == d * d:
                        break
            if len(pivots) == d * d:
                break
        frontier = new_frontier
    return len(pivots) == d * d


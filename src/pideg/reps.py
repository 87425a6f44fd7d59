"""Maximal-dimension irreducible representations via monomial matrices.

A quantum affine space at a primitive ell-th root of unity q has PI degree
prod ell / gcd(h_i, ell) over the congruence invariant factors h_i of its
commutation matrix. When every gcd is 1 an irreducible representation of
exactly that dimension can be written down with monomial matrices: one
clock/shift pair of size ell per invariant factor, pulled back through the
congruence transform. Generator i's image is the Kronecker product over the
blocks k of x_k**a @ y_k**b, with (a, b) the exponents that row i of
E^{-1} gives block k; kernel directions act as the identity.

All matrices here are monomial over the cyclotomic integers: one nonzero
entry per row and column, each a power of q. Powers of q are tracked as
integer exponents mod ell and never evaluated numerically, so every
identity checked is exact. Irreducibility over a finite field F_p with
ell | p - 1 is certified the same way: the commutant of the generator
images is counted on the exponents, orbit by orbit of index pairs, and
must be the scalars.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .errors import (
    BadEll,
    BadRange,
    GcdViolation,
    HypothesisViolated,
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
    `rows` must be a permutation of 0..dim-1. Products and powers stay
    monomial and are computed exactly on the exponents.
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

    def __matmul__(self, other: "MonomialMatrix") -> "MonomialMatrix":
        if self.ell != other.ell or self.dim != other.dim:
            raise BadRange("monomial matrices of different shape or ell")
        rows = tuple(self.rows[r] for r in other.rows)
        exps = tuple(
            other.exps[j] + self.exps[other.rows[j]] for j in range(self.dim)
        )
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
    invariant factor blocks. e_inverse is the exact integer inverse of the
    congruence transform: entries 2k and 2k + 1 of its row i are the
    powers of block k's clock and shift in the Kronecker leg k of image i.
    """

    ell: int
    dim: int
    invariant_factors: tuple[int, ...]
    kernel_dim: int
    e_inverse: tuple[tuple[int, ...], ...]
    generator_images: tuple[MonomialMatrix, ...]


# Largest dimension qas_representation builds: 3**10, under a second for
# detring 11,1 at ell 3. Each image holds dim rows and exponents, so a
# larger request is refused before it can exhaust memory.
MAX_REP_DIM = 59_049


def qas_representation(M: SkewIntMatrix, ell: int) -> QASRepresentation:
    """Build a dimension ell**s monomial representation of the algebra of M.

    Exists exactly when every invariant factor of M is coprime to ell
    (GcdViolation otherwise); in that case ell**s is the PI degree and the
    representation is irreducible. The empty matrix yields the trivial
    one-dimensional representation. A dimension above MAX_REP_DIM raises
    TooLarge before any image is built.
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
    dim = ell ** len(h)
    if dim > MAX_REP_DIM:
        raise TooLarge(
            f"representation dimension {dim} exceeds the largest built, {MAX_REP_DIM}"
        )
    e_inverse = snf.inverse_transform
    pairs = [clock_shift(ell, hk % ell) for hk in h]
    generators = []
    for row in e_inverse:
        g = MonomialMatrix.identity(1, ell)
        for k, (x, y) in enumerate(pairs):
            g = kron(g, x ** (row[2 * k] % ell) @ y ** (row[2 * k + 1] % ell))
        generators.append(g)

    return QASRepresentation(
        ell=ell,
        dim=dim,
        invariant_factors=h,
        kernel_dim=snf.kernel_dim,
        e_inverse=e_inverse,
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


# Largest dimension irreducibility_check accepts: the orbit count walks all
# dim**2 index pairs once per generator, under 2 s at dimension 729.
MAX_CERTIFIED_DIM = 729


def irreducibility_check(rep: QASRepresentation, p: int) -> bool:
    """Certify irreducibility over F_p: the images commute only with scalars.

    A matrix A commutes with a monomial generator sending e_j to
    q**a[j] e_sigma(j) exactly when A[sigma i, sigma j] = q**(a[i] - a[j])
    A[i, j]. So A is fixed by its entry at one index pair per orbit of the
    pairs (i, j) under the generators, and that entry can be nonzero only
    if the factors met around every loop of the orbit multiply to 1. The
    walk below labels each pair with its exponent relative to the first
    pair of its orbit; the commutant's dimension is the number of orbits
    whose every edge agrees with the labels. In F_p with ell | p - 1, q has
    order exactly ell, so an exponent is trivial exactly when it is 0 mod ell.

    Two hypotheses are checked first (HypothesisViolated, naming the
    generator, otherwise): every image's ell-th power is a scalar, and every
    two images commute up to a scalar. Then the group generated is abelian
    modulo its scalars, which are powers of q, so its order divides
    ell**(n + 1) for n generators and is prime to p. By Maschke its action
    is semisimple, so by Schur and the double centraliser theorem the
    commutant is the scalars exactly when the words in the images span all
    dim x dim matrices over F_p (Burnside). Requires a prime p with
    ell | p - 1 and dim <= MAX_CERTIFIED_DIM.
    """
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    ell = rep.ell
    if (p - 1) % ell:
        raise NoRootOfUnity(f"ell = {ell} does not divide p - 1 = {p - 1}")
    d = rep.dim
    if d > MAX_CERTIFIED_DIM:
        raise TooLarge(
            f"certifying dimension {d} walks {d * d} index pairs; "
            f"the largest dimension certified is {MAX_CERTIFIED_DIM}"
        )
    images = rep.generator_images
    identity = MonomialMatrix.identity(d, ell)
    for i, g in enumerate(images):
        if (g**ell).scalar_power_vs(identity) is None:
            raise HypothesisViolated(f"generator {i}: its {ell}-th power is not a scalar")
        for j in range(i):
            if (g @ images[j]).scalar_power_vs(images[j] @ g) is None:
                raise HypothesisViolated(
                    f"generators {j} and {i} do not commute up to a power of q"
                )

    gens = [(g.rows, g.exps) for g in images]
    # label[i * d + j]: exponent of q at (i, j) over the first pair of its orbit.
    label = [-1] * (d * d)
    orbits = 0
    for start in range(d * d):
        if label[start] >= 0:
            continue
        label[start] = 0
        stack = [start]
        trivial = True
        while stack:
            here = stack.pop()
            i, j = divmod(here, d)
            base = label[here]
            for rows, exps in gens:
                there = rows[i] * d + rows[j]
                expected = (base + exps[i] - exps[j]) % ell
                if label[there] < 0:
                    label[there] = expected
                    stack.append(there)
                elif label[there] != expected:
                    trivial = False
        orbits += trivial
        if orbits > 1:
            return False
    return orbits == 1

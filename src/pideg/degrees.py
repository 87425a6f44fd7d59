"""PI degrees of quantum algebras at a root of unity of order ell.

The generic route: the PI degree of the quantum affine space attached to a
skew integer matrix M is the product over the congruence invariant factors
h_i of M of ell / gcd(h_i, ell). Everything else in this module is a closed
form for a structured family (Young shapes, determinantal boards, extended
algebras, Schubert cells, Grassmannians), each carrying a cross_check flag
that recomputes the value generically and raises FormulaMismatch on any
disagreement, reading the generic degree over Z from the board itself
(only a bare matrix goes through pi_degree_qas). Closed forms are never
allowed to silently replace the generic computation: every PiDegree names
the route that produced it. Where the hypothesis of the Schubert and
Grassmannian closed forms fails, the generic route answers, and it says so.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from math import gcd

from .diagrams import (
    Diagram,
    Partition,
    PluckerIndex,
    determinantal_diagram,
    partition_from_plucker,
    young_diagram,
)
from .errors import (
    BadEll,
    BadRange,
    EvenEll,
    FormulaMismatch,
    InternalVerificationFailed,
)
from .intlinalg import (
    RANK_PRIME,
    CycleKernelVector,
    SkewIntMatrix,
    SkewNormalForm,
    _primes,
    _proved_rank,
    _residue_factors,
    cycle_kernel_vectors,
    extended_normal_form,
    matrix_from_diagram,
    skew_normal_form,
)
from .pipedreams import (
    CycleDecomposition,
    Permutation,
    partition_toric_permutation,
    toric_permutation,
)


def mu2(x: int) -> int:
    """The 2-adic valuation of a positive integer."""
    if x <= 0:
        raise BadRange(f"mu2 needs a positive integer, got {x}")
    v = 0
    while x % 2 == 0:
        x //= 2
        v += 1
    return v


def smallest_prime_factor(x: int) -> int:
    if x < 2:
        raise BadRange(f"no prime factor below 2: {x}")
    f = 2
    while f * f <= x:
        if x % f == 0:
            return f
        f += 1
    return x


@dataclass(frozen=True)
class PiDegree:
    """A PI degree in the exponent form value = ell**exponent // divisor.

    `factors` lists the per-block contributions ell // gcd(h_i, ell) when
    the value came from an explicit invariant factor list; closed forms
    that never see the factors leave it None.

    `route` names what produced the value: "closed" for a closed form,
    "generic" for the invariant factors of the congruence normal form, and
    GENERIC_FALLBACK when a closed form's hypothesis on ell failed and the
    generic route answered instead; `reason` then says which hypothesis.
    """

    ell: int
    exponent: int
    divisor: int = 1
    factors: tuple[int, ...] | None = None
    route: str = "closed"
    reason: str = ""

    def __post_init__(self) -> None:
        if self.ell < 2:
            raise BadEll(f"ell must be at least 2, got {self.ell}")
        if self.exponent < 0 or self.divisor < 1:
            raise BadRange(f"bad exponent form ({self.exponent}, {self.divisor})")
        if pow(self.ell, self.exponent, self.divisor):
            raise BadRange(
                f"divisor {self.divisor} does not divide ell^{self.exponent}"
            )
        if self.factors is not None:
            prod = 1
            for f in self.factors:
                prod *= f
            if prod != self.value:
                raise InternalVerificationFailed(
                    f"factor product {prod} differs from value {self.value}"
                )

    @property
    def value(self) -> int:
        return self.ell**self.exponent // self.divisor

    def __str__(self) -> str:
        if self.divisor == 1:
            return f"{self.ell}^{self.exponent}"
        return f"{self.ell}^{self.exponent}/{self.divisor}"


def pi_degree_from_factors(h: tuple[int, ...], ell: int) -> PiDegree:
    """Generic PI degree from the invariant factors h of the skew matrix."""
    if ell < 2:
        raise BadEll(f"ell must be at least 2, got {ell}")
    gcds = [gcd(hi, ell) for hi in h]
    divisor = 1
    for g in gcds:
        divisor *= g
    return PiDegree(
        ell=ell,
        exponent=len(h),
        divisor=divisor,
        factors=tuple(ell // g for g in gcds),
        route="generic",
    )


def pi_degree_qas(M: SkewIntMatrix, ell: int) -> PiDegree:
    """PI degree of the quantum affine space with commutation matrix M.

    The generic route, for every ell >= 2 including even ell: the product of
    ell / gcd(h_i, ell) over M's invariant factors h_1 | ... | h_s. M's form
    over Z/N, N = ell * RANK_PRIME, certified mod N, has blocks a_1, ..., a_t
    with gcd(a_i, ell) = gcd(h_i, ell), and N | h_i for i > t
    (intlinalg._residue_factors). When 2t < 2 (n // 2), the rank 2s is proved
    from ranks mod primes descending from 2^31 - 1 against a Hadamard bound
    (intlinalg._proved_rank), and each of the s - t blocks past the form
    counts as gcd(h_i, ell) = ell. The form mod N is reduced, and its
    transforms replayed, on rows packed as ints of residue slots, so no entry
    grows past N and each step is a multiply-add of whole rows.
    """
    if ell < 2:
        raise BadEll(f"ell must be at least 2, got {ell}")
    factors = _residue_factors(M, ell)
    top = M.n // 2 * 2
    if 2 * len(factors) < top:
        # Word-sized primes, so that a handful passes the bound.
        rank = _proved_rank(M.rows, top, _primes(2**31 - 1, -2))
        factors += (ell * RANK_PRIME,) * (rank // 2 - len(factors))
    return pi_degree_from_factors(factors, ell)


def _check_ell_at_least_3(ell: int) -> None:
    if ell < 3:
        raise BadEll(f"ell must be at least 3 here, got {ell}")


def _check_odd_ell(ell: int) -> None:
    _check_ell_at_least_3(ell)
    if ell % 2 == 0:
        raise EvenEll(f"this closed form needs odd ell, got {ell}")


def _cross_check(closed: PiDegree, other: PiDegree, context: str, route: str = "generic") -> None:
    """Raise FormulaMismatch when a closed value differs from another route's."""
    if other.value != closed.value:
        raise FormulaMismatch(f"{context}: closed {closed.value}, {route} {other.value}")


def _half_rank(shape: Partition, tau: Permutation) -> int:
    """s = (N - r) / 2 for N boxes and r even-length cycles of tau, the
    toric permutation of the Young shape."""
    r = tau.cycles.odd_cycle_count
    if (shape.size - r) % 2:
        raise InternalVerificationFailed(
            f"parity broken: N = {shape.size}, r = {r} for shape {shape}"
        )
    return (shape.size - r) // 2


def pi_degree_partition(
    shape: Partition,
    ell: int,
    cross_check: bool = False,
    tau: Permutation | None = None,
    facts: DiagramFacts | None = None,
) -> PiDegree:
    """PI degree of the quantum affine space of a Young shape, odd ell.

    Closed form ell**((N - r) / 2) with N the number of boxes and r the
    number of even-length cycles of the toric permutation of the shape.
    A caller that already holds that permutation passes it as tau;
    otherwise it is computed by its closed form. The cross check reads the
    generic degree from facts, the DiagramFacts of the shape's Young
    diagram, which a caller checking several ells passes so that the board
    is reduced once; otherwise it builds them.
    """
    _check_odd_ell(ell)
    if tau is None:
        tau = partition_toric_permutation(shape)
    closed = PiDegree(ell=ell, exponent=_half_rank(shape, tau))
    if cross_check:
        if facts is None:
            facts = DiagramFacts(young_diagram(shape))
        _cross_check(closed, facts.pi_degree(ell), f"shape {shape}, ell = {ell}")
    return closed


def determinantal_invariant_exponent(n: int, t: int) -> int:
    """s_t = nt - t(t+1)/2: half the rank of the determinantal board matrix."""
    if not (1 <= t <= n - 1):
        raise BadRange(f"need 1 <= t <= n-1, got n = {n}, t = {t}")
    return n * t - t * (t + 1) // 2


def pi_degree_determinantal(
    n: int, t: int, ell: int, cross_check: bool = False, facts: DiagramFacts | None = None
) -> PiDegree:
    """PI degree of the quantum determinantal ring of the n x n board at level t.

    For odd ell the value is ell**s_t; for even ell a power of 2 divides
    out: ell**s_t / 2**(s_t - n + 1). Both agree with the generic route on
    the determinantal diagram's matrix, which the cross check reads from
    facts, the board's DiagramFacts, when the caller passes them.
    """
    s_t = determinantal_invariant_exponent(n, t)
    _check_ell_at_least_3(ell)
    if ell % 2:
        closed = PiDegree(ell=ell, exponent=s_t)
    else:
        closed = PiDegree(ell=ell, exponent=s_t, divisor=2 ** (s_t - n + 1))
    if cross_check:
        if facts is None:
            facts = DiagramFacts(determinantal_diagram(n, t))
        _cross_check(closed, facts.pi_degree(ell), f"determinantal (n, t) = ({n}, {t}), ell = {ell}")
    return closed


def determinantal_toric_cycles(
    n: int, t: int, cross_check: bool = False
) -> CycleDecomposition:
    """Closed-form toric cycle structure of the determinantal board.

    Writing n = u*t + rem, label set {1..2n} (rows then columns) splits into
    exactly t cycles: cycle i climbs the rows i, i+t, ..., i+kt and then
    descends the columns i+kt+n, ..., i+t+n, i+n, where k = u for i <= rem
    and k = u - 1 otherwise. Every cycle has even length 2k + 2, so the
    count of odd cycles is t. cross_check traces the board's pipes as well
    and raises InternalVerificationFailed on any difference.
    """
    if not (1 <= t <= n - 1):
        raise BadRange(f"need 1 <= t <= n-1, got n = {n}, t = {t}")
    u, rem = divmod(n, t)
    cycles = []
    for i in range(1, t + 1):
        k = u if i <= rem else u - 1
        ascending = [i + j * t for j in range(k + 1)]
        descending = [i + j * t + n for j in range(k, -1, -1)]
        cycles.append(tuple(ascending + descending))
    closed = CycleDecomposition(2 * n, tuple(cycles))
    if cross_check and closed != toric_permutation(determinantal_diagram(n, t)).cycles:
        raise InternalVerificationFailed("closed-form cycles differ from traced cycles")
    return closed


def pi_degree_extended_diagram(
    d: Diagram, ell: int, cross_check: bool = False
) -> PiDegree:
    """PI degree of the extended algebra of a diagram, odd ell.

    The extended algebra borders the commutation matrix with a row and
    column of ones. With s the number of invariant factors of the
    unextended matrix: if every kernel vector sums to zero the border adds
    a kernel direction and the degree stays ell**s; otherwise the border
    eats one kernel direction, and the extra block contributes a full ell
    when the smallest prime of ell exceeds min(m, n), else
    ell / gcd(h_extra, ell) with h_extra the extra invariant factor of the
    extended matrix. The smallest prime exceeds min(m, n) exactly when no
    integer in 2..min(m, n) divides ell, so ell is never factored.
    """
    _check_odd_ell(ell)
    facts = DiagramFacts(d)
    s = len(facts.snf.invariant_factors)
    if facts.one_perp:
        closed = PiDegree(ell=ell, exponent=s)
    elif all(ell % f for f in range(2, min(d.m, d.n) + 1)):
        closed = PiDegree(ell=ell, exponent=s + 1)
    else:
        h_ext = facts.extended_snf.invariant_factors
        if len(h_ext) != s + 1:
            raise InternalVerificationFailed(
                f"extended rank did not grow: {len(h_ext)} blocks vs {s}"
            )
        closed = PiDegree(ell=ell, exponent=s + 1, divisor=gcd(h_ext[s], ell))
    if cross_check:
        _cross_check(closed, facts.extended_pi_degree(ell), f"extended diagram, ell = {ell}")
    return closed


GENERIC_FALLBACK = "generic (hypothesis not met)"


def _box_hypothesis_failure(ell: int, box_m: int, box_n: int) -> str:
    """Why ell fails the common hypothesis of the Schubert and Grassmannian
    closed forms, or "" when it holds.

    ell must be odd (>= 3) and its smallest prime factor must exceed
    min(box_m, box_n, 2). That bound is at most 2, which every odd ell
    clears, so only the parity is tested. An ell that fails is an input the
    closed form does not cover, not an error: the generic route answers.
    """
    _check_ell_at_least_3(ell)
    if ell % 2:
        return ""
    return f"need odd ell with smallest prime factor above {min(box_m, box_n, 2)}, got {ell}"


def pi_degree_schubert(
    idx: PluckerIndex, ell: int, cross_check: bool = False, facts: DiagramFacts | None = None
) -> PiDegree:
    """PI degree of the extended Schubert cell algebra, at any ell >= 3.

    The cell is indexed by an increasing m-subset of {1..n}; its Young
    shape lambda lives in the m x (n-m) box. Under the hypothesis (odd
    ell, smallest prime factor above min(box sides, 2)) the value is
    ell**((N - r)/2) when every kernel vector of the shape's matrix has
    zero coordinate sum and ell**((N - r)/2 + 1) otherwise. The kernel is
    read from the r even cycles of the shape's toric permutation: their
    kernel vectors are independent, and r is the kernel dimension.
    Outside the hypothesis the generic route on the extended matrix
    extend(M(young_diagram(lambda))) answers, with route GENERIC_FALLBACK
    and the failed hypothesis as reason. It and the cross check read the
    generic degree from facts, the DiagramFacts of the Young diagram, which
    a caller asking for several ells passes so that the board is reduced
    once; otherwise they are built here.
    """
    shape = partition_from_plucker(idx)
    failure = _box_hypothesis_failure(ell, shape.box_m, shape.box_n)
    if facts is None:
        facts = DiagramFacts(young_diagram(shape))
    if failure:
        return replace(facts.extended_pi_degree(ell), route=GENERIC_FALLBACK, reason=failure)
    tau = partition_toric_permutation(shape)
    s = _half_rank(shape, tau)
    vectors = cycle_kernel_vectors(facts.diagram, tau, facts.matrix)
    closed = PiDegree(ell=ell, exponent=s if all(sum(v.vector) == 0 for v in vectors) else s + 1)
    if cross_check:
        _cross_check(closed, facts.extended_pi_degree(ell), f"Schubert gamma = {idx.gamma}, ell = {ell}")
    return closed


def rectangle_kernel_dim(a: int, b: int) -> int:
    """Kernel dimension of the commutation matrix of the all-white a x b board.

    The toric permutation of the full board is the rotation
    x -> x + b (mod a + b), which splits into gcd(a, b) cycles of length
    (a + b) / gcd(a, b); the cycles have even length exactly when a and b
    have the same 2-adic valuation. Hence the kernel dimension is gcd(a, b)
    when mu2(a) = mu2(b) and 0 otherwise.
    """
    if a < 1 or b < 1:
        raise BadRange(f"need positive sides, got {a} x {b}")
    return gcd(a, b) if mu2(a) == mu2(b) else 0


def pi_degree_grassmannian(
    m: int, n: int, ell: int, cross_check: bool = False
) -> PiDegree:
    """PI degree of the quantum Grassmannian of m-planes in n-space, ell >= 3.

    This is the Schubert cell of the full m x (n-m) rectangle,
    PluckerIndex((1, ..., m), n). The kernel of the rectangle matrix has
    dimension gcd(m, n) when mu2(m) = mu2(n-m) (equivalently n / gcd(m, n)
    is even) and is zero otherwise; in the nonzero case some kernel vector
    has nonzero sum, so under the Schubert hypothesis

        value = ell**(m(n-m)/2)                        kernel zero,
        value = ell**((m(n-m) - gcd(m, n))/2 + 1)      kernel nonzero.

    Outside it the cell's pi_degree_schubert answers by the generic route.
    """
    if not (1 <= m < n):
        raise BadRange(f"need 1 <= m < n, got m = {m}, n = {n}")
    cell = PluckerIndex(tuple(range(1, m + 1)), n)
    if _box_hypothesis_failure(ell, m, n - m):
        return pi_degree_schubert(cell, ell)
    r = rectangle_kernel_dim(m, n - m)
    n_boxes = m * (n - m)
    if (n_boxes - r) % 2:
        raise InternalVerificationFailed(
            f"parity broken: N = {n_boxes}, r = {r} for ({m}, {n})"
        )
    exponent = (n_boxes - r) // 2 + (1 if r else 0)
    closed = PiDegree(ell=ell, exponent=exponent)
    if cross_check:
        reference = pi_degree_schubert(cell, ell, cross_check=True)
        _cross_check(closed, reference, f"Grassmannian ({m}, {n}), ell = {ell}", "Schubert route")
    return closed


# ---------------------------------------------------------------------------
# Whole-diagram analysis (used by the command line driver and the sweeps)
# ---------------------------------------------------------------------------


class DiagramFacts:
    """The generic route's facts about one diagram, each computed on first use.

    `matrix` is M(D), `snf` its normal form E M(D) E^T = S, and `tau` the
    toric permutation. `extended_snf` is read from `snf` by
    extended_normal_form, which reduces S bordered by the row sums of E,
    congruent to extend(M(D)), instead of reducing extend(M(D)) afresh: it
    has the factors and kernel dimension of extend(M(D)) and the transforms
    of the bordered S, and both reductions certify themselves. pi_degree
    and extended_pi_degree are the generic route's PI degrees of the two
    matrices, read from their invariant factors. `cycle_vectors` are the
    kernel vectors of the even cycles of tau, which
    cycle_kernel_vectors proves independent. `one_perp` says whether every
    kernel vector sums to zero; it first checks that the cycle vectors are
    as many as the kernel dimension, which makes them a basis of the
    rational kernel, and then reads their sums. A fact nobody reads is
    never computed: the cycle vectors alone need no normal form.
    """

    def __init__(self, diagram: Diagram) -> None:
        self.diagram = diagram

    @cached_property
    def matrix(self) -> SkewIntMatrix:
        return matrix_from_diagram(self.diagram)

    @cached_property
    def snf(self) -> SkewNormalForm:
        return skew_normal_form(self.matrix)

    @cached_property
    def extended_snf(self) -> SkewNormalForm:
        return extended_normal_form(self.snf)

    def pi_degree(self, ell: int) -> PiDegree:
        return pi_degree_from_factors(self.snf.invariant_factors, ell)

    def extended_pi_degree(self, ell: int) -> PiDegree:
        return pi_degree_from_factors(self.extended_snf.invariant_factors, ell)

    @cached_property
    def tau(self) -> Permutation:
        return toric_permutation(self.diagram)

    @cached_property
    def cycle_vectors(self) -> tuple[CycleKernelVector, ...]:
        return cycle_kernel_vectors(self.diagram, self.tau, self.matrix)

    @cached_property
    def one_perp(self) -> bool:
        vectors = self.cycle_vectors
        if len(vectors) != self.snf.kernel_dim:
            raise InternalVerificationFailed(
                f"{len(vectors)} even toric cycles but kernel dimension "
                f"{self.snf.kernel_dim}"
            )
        return all(sum(v.vector) == 0 for v in vectors)

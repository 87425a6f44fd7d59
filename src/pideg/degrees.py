"""PI degrees of quantum algebras at a root of unity of order ell.

The generic route: the PI degree of the quantum affine space attached to a
skew integer matrix M is the product over the congruence invariant factors
h_i of M of ell / gcd(h_i, ell). Everything else in this module is a closed
form for a structured family (Young shapes, determinantal boards, Schubert
cells, Grassmannians as the cells of full rectangles), each carrying a
cross_check flag that recomputes the value generically and raises
FormulaMismatch on any disagreement, reading the generic degree over Z
(and, for shapes and determinantal boards, the traced toric permutation)
from the board itself; only a bare matrix goes through pi_degree_qas.
Closed forms are never allowed to silently replace the generic
computation: every PiDegree names the route that produced it. The one rule
on ell is an integer ell >= 2 (check_ell); where a closed form's
hypothesis on ell fails, the generic route answers, and it says so.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, replace
from functools import cached_property, partial
from math import gcd

from .diagrams import (
    Diagram,
    Partition,
    PluckerIndex,
    check_determinantal,
    check_integer,
    check_labels,
    determinantal_diagram,
    partition_from_plucker,
    young_diagram,
)
from .errors import (
    BadEll,
    BadRange,
    FormulaMismatch,
    InternalVerificationFailed,
)
from .intlinalg import (
    CycleKernelVector,
    SkewIntMatrix,
    SkewNormalForm,
    cycle_kernel_vectors,
    cycle_sum,
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


def smallest_prime_factor(x: int) -> int:
    if x < 2:
        raise BadRange(f"no prime factor below 2: {x}")
    f = 2
    while f * f <= x:
        if x % f == 0:
            return f
        f += 1
    return x


def check_ell(ell: int) -> int:
    """ell, or BadEll when ell is no integer (check_integer) or ell < 2: the
    one rule on ell, for every route."""
    ell = check_integer(ell, "ell", BadEll)
    if ell < 2:
        raise BadEll(f"ell must be at least 2, got {ell}")
    return ell


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
        check_ell(self.ell)
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
    check_ell(ell)
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
    ell / gcd(h_i, ell) over M's invariant factors h_1 | ... | h_s, read
    first off M's certified form mod N (residues._residue_factors, which
    states why its blocks give gcd(h_i, ell)). A form of n // 2 blocks
    proves the rank and answers. A shorter one settles no rank, so it comes
    back as None before it is certified, and M is handed over to the
    certified form over Z (skew_normal_form), whose factors answer.
    """
    check_ell(ell)
    # Imported on first use, so that the commands that reduce only over Z do not load it.
    from .residues import _residue_factors

    factors = _residue_factors(M, ell)
    if factors is None:
        factors = skew_normal_form(M).invariant_factors
    return pi_degree_from_factors(factors, ell)


GENERIC_FALLBACK = "generic (hypothesis not met)"


def _cross_check(closed: PiDegree, generic: PiDegree, context: str) -> None:
    """Raise FormulaMismatch when a closed value differs from the generic route's."""
    if generic.value != closed.value:
        raise FormulaMismatch(f"{context}: closed {closed.value}, generic {generic.value}")


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
    """PI degree of the quantum affine space of a Young shape.

    At odd ell, the closed form ell**((N - r) / 2) with N the number of
    boxes and r the number of even-length cycles of the toric permutation
    of the shape: every invariant factor is a power of 2 (the paper's
    theorem), so each contributes a full ell. A caller that already holds
    that permutation passes it as tau; otherwise it is computed by its
    closed form. At even ell the generic route answers, with route
    GENERIC_FALLBACK. The fallback and the cross check read the generic
    degree, and the cross check the permutation traced on the board, from
    facts, the DiagramFacts of the shape's Young diagram, which a caller
    asking for several ells passes so that the board is traced and reduced
    once; otherwise they are built here. Only the fallback and the cross
    check build the board.
    """
    check_ell(ell)
    if facts is None:
        facts = DiagramFacts(partial(young_diagram, shape))
    if ell % 2 == 0:
        return replace(facts.pi_degree(ell), route=GENERIC_FALLBACK, reason=f"need odd ell, got {ell}")
    if tau is None:
        tau = partition_toric_permutation(shape)
    closed = PiDegree(ell=ell, exponent=_half_rank(shape, tau))
    if cross_check:
        # A board without rows cannot carry its width; its box_n strands all run straight.
        traced = facts.tau if shape.box_m else Permutation.identity(shape.box_n)
        if tau != traced:
            raise InternalVerificationFailed("closed-form toric permutation differs from the traced one")
        _cross_check(closed, facts.pi_degree(ell), f"shape {shape}, ell = {ell}")
    return closed


def determinantal_invariant_exponent(n: int, t: int) -> int:
    """s_t = nt - t(t+1)/2: half the rank of the determinantal board matrix."""
    check_determinantal(n, t)
    return n * t - t * (t + 1) // 2


def pi_degree_determinantal(
    n: int, t: int, ell: int, cross_check: bool = False, facts: DiagramFacts | None = None
) -> PiDegree:
    """PI degree of the quantum determinantal ring of the n x n board at level t.

    For odd ell the value is ell**s_t; for even ell, ell = 2 included, a
    power of 2 divides out: ell**s_t / 2**(s_t - n + 1). Both agree with
    the generic route on the determinantal diagram's matrix. The cross
    check reads that degree, and the traced toric cycles it compares with
    determinantal_toric_cycles, from facts, the board's DiagramFacts, when
    the caller passes them.
    """
    check_ell(ell)
    s_t = determinantal_invariant_exponent(n, t)
    if ell % 2:
        closed = PiDegree(ell=ell, exponent=s_t)
    else:
        closed = PiDegree(ell=ell, exponent=s_t, divisor=2 ** (s_t - n + 1))
    if cross_check:
        if facts is None:
            facts = DiagramFacts(determinantal_diagram(n, t))
        if determinantal_toric_cycles(n, t) != facts.tau.cycles:
            raise InternalVerificationFailed("closed-form cycles differ from traced cycles")
        _cross_check(closed, facts.pi_degree(ell), f"determinantal (n, t) = ({n}, {t}), ell = {ell}")
    return closed


def determinantal_toric_cycles(n: int, t: int) -> CycleDecomposition:
    """Closed-form toric cycle structure of the determinantal board.

    Writing n = u*t + rem, label set {1..2n} (rows then columns) splits into
    exactly t cycles: cycle i climbs the rows i, i+t, ..., i+kt and then
    descends the columns i+kt+n, ..., i+t+n, i+n, where k = u for i <= rem
    and k = u - 1 otherwise. Every cycle has even length 2k + 2, so the
    count of odd cycles is t. The cross check of pi_degree_determinantal
    traces the board's pipes. Past check_labels, nothing is listed.
    """
    check_determinantal(n, t)
    check_labels(2 * n)
    u, rem = divmod(n, t)
    cycles = []
    for i in range(1, t + 1):
        k = u if i <= rem else u - 1
        ascending = [i + j * t for j in range(k + 1)]
        descending = [i + j * t + n for j in range(k, -1, -1)]
        cycles.append(tuple(ascending + descending))
    return CycleDecomposition(2 * n, tuple(cycles))


def pi_degree_schubert(
    idx: PluckerIndex, ell: int, cross_check: bool = False, facts: DiagramFacts | None = None
) -> PiDegree:
    """PI degree of the extended Schubert cell algebra, at any ell >= 2.

    The cell is indexed by an increasing m-subset of {1..n}; its Young
    shape lambda lives in the m x (n-m) box, with N boxes. Only the toric
    permutation tau of lambda is read: s = (N - r)/2 for its r even cycles,
    and g, the gcd of the coordinate sums of the even cycles' kernel
    vectors, each by the side-transition formula (intlinalg.cycle_sum). At
    odd ell the value is ell**s when g = 0 and ell**(s + 1) when
    gcd(g, ell) = 1.

    Proof. Let M = M(young_diagram(lambda)), E M E^T = S its certified
    form with factors h_1, ..., h_s, and K its integer kernel, of rank r.
    The last r rows of E form a Z-basis of K, so the kernel part of
    v = E 1 has gcd g_K, the gcd of the sums of all vectors of K. A
    unimodular change on those r coordinates turns extend(M), congruent to
    S bordered by v, into diag(C, 0) with

        C = [[S_blk, 0, v_blk], [0, 0, g_K], [-v_blk^T, -g_K, 0]],

    and Pf(C) = +-g_K h_1 ... h_s: when g_K != 0, the s + 1 extended
    factors multiply to g_K h_1 ... h_s, and every h_i is a power of 2 (the
    paper's theorem). Every cycle vector lies in K, so g_K divides g, and
    gcd(g, ell) = 1 gives gcd(g_K h_1 ... h_s, ell) = 1 for odd ell: each
    extended factor contributes a full ell. When g = 0, the r cycle
    vectors, independent, span K over Q, so g_K = 0; the product of the s
    extended factors then divides h_1 ... h_s, a power of 2: ell**s.

    Otherwise the generic route on the extended matrix
    extend(M(young_diagram(lambda))) answers, with route GENERIC_FALLBACK
    and as reason the even ell or gcd(g, ell). That fallback and the
    cross check read the generic degree from facts, the DiagramFacts of
    the Young diagram, which a caller asking for several ells passes so
    that the board is reduced once; otherwise they are built here. The
    closed route builds no board, matrix or kernel vector.
    """
    check_ell(ell)
    shape = partition_from_plucker(idx)
    failure = "" if ell % 2 else f"need odd ell, got {ell}"
    if not failure:
        tau = partition_toric_permutation(shape)
        g = 0
        for cycle in tau.cycles.cycles:
            if len(cycle) % 2 == 0:
                g = gcd(g, cycle_sum(cycle, tau, shape.box_m))
        if g == 0 or gcd(g, ell) == 1:
            closed = PiDegree(ell=ell, exponent=_half_rank(shape, tau) + (1 if g else 0))
        else:
            failure = f"need gcd(g, ell) = 1 for the gcd g of the even cycle sums, got gcd({g}, {ell}) = {gcd(g, ell)}"
    if facts is None:
        facts = DiagramFacts(partial(young_diagram, shape))
    if failure:
        return replace(facts.extended_pi_degree(ell), route=GENERIC_FALLBACK, reason=failure)
    if cross_check:
        _cross_check(closed, facts.extended_pi_degree(ell), f"Schubert gamma = {idx.gamma}, ell = {ell}")
    return closed


def pi_degree_grassmannian(
    m: int, n: int, ell: int, cross_check: bool = False, facts: DiagramFacts | None = None
) -> PiDegree:
    """PI degree of the quantum Grassmannian of m-planes in n-space, ell >= 2.

    This is the Schubert cell of the full m x (n-m) rectangle,
    PluckerIndex((1, ..., m), n), and pi_degree_schubert answers it, with
    facts, the DiagramFacts of the rectangle's Young diagram, when the
    caller passes them. Every even cycle of the rectangle's tau sums to 2,
    so g is 0 or 2 and every odd ell is closed; at even ell the generic
    route answers.

    Proof. cycle_sum of an even cycle c_0, ..., c_{L-1} telescopes to
    2 * sum (-1)^k over its row labels c_k. The rectangle's tau is
    x -> x + n - m mod n; with d = gcd(m, n), a = m / d, b = (n - m) / d,
    the cycle of x <= d holds x + d t at the position k with k b = t
    mod a + b, a row label iff t < a. Even length makes a and b odd, so
    k = t mod 2 and the sum is 2 * sum_{t < a} (-1)^t = 2.
    """
    if not (1 <= m < n):
        raise BadRange(f"need 1 <= m < n, got m = {m}, n = {n}")
    check_labels(n)
    return pi_degree_schubert(PluckerIndex(tuple(range(1, m + 1)), n), ell, cross_check, facts)


# ---------------------------------------------------------------------------
# Whole-diagram analysis (used by the command line driver and the sweeps)
# ---------------------------------------------------------------------------


class DiagramFacts:
    """The generic route's facts about one diagram, each computed on first use.

    `matrix` is M(D), `snf` its normal form E M(D) E^T = S, and `tau` the
    toric permutation. `extended_snf` is read from `snf` by
    extended_normal_form, which reduces S bordered by v = E 1, congruent to
    extend(M(D)), instead of reducing extend(M(D)) afresh; v is the log of
    `snf` replayed forward on the ones vector, and no row of E is built.
    It has the factors and kernel dimension of extend(M(D)) and the log of
    the bordered S, and both reductions certify themselves by replaying
    their logs. pi_degree and extended_pi_degree are the generic route's PI
    degrees of the two matrices, read from their invariant factors.
    `cycle_vectors` are the kernel vectors of the even cycles of tau, which
    cycle_kernel_vectors proves independent by their Gram minors (all
    positive). `one_perp` says whether every kernel vector sums to zero; it
    first checks that the cycle vectors are as many as the kernel
    dimension, which makes them a basis of the rational kernel, and then
    reads their sums. A fact nobody reads is
    never computed: the cycle vectors alone need no normal form, and a
    record made from a builder of the diagram, such as
    partial(young_diagram, shape), builds the board only when a fact needs it.
    """

    def __init__(self, diagram: Diagram | Callable[[], Diagram]) -> None:
        if isinstance(diagram, Diagram):
            self.diagram = diagram
        else:
            self._build = diagram

    @cached_property
    def diagram(self) -> Diagram:
        return self._build()

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

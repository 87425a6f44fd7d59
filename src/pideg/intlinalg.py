"""Exact integer linear algebra for skew-symmetric commutation matrices.

Everything here runs on exact Python integers, arbitrary-precision or
reduced modulo a prime; nothing is ever rounded. The normal-form
routines verify their own output exactly before returning, by replaying
their congruence log, and raise InternalVerificationFailed if the check
fails, so a returned result is a proved identity, not a hope.

The central objects:

- matrix_from_diagram builds the skew commutation matrix M(D) of a diagram:
  entry (i, j) is +1 when white square j lies strictly below square i in the
  same column or strictly to its right in the same row, -1 in the mirrored
  cases, 0 otherwise. It sizes every board, whatever its source, by
  diagrams.check_board_size before it allocates the matrix.

- skew_normal_form reduces a skew matrix by a unimodular congruence
  E M E^T to a block diagonal of 2x2 blocks [[0, h], [-h, 0]] followed by a
  zero block, with h_1 | h_2 | ... ; the h_i determine the PI degree. Each
  pivot is an entry of least size in the sparsest row and column that hold
  one (after Markowitz, 1957), found from zero counts kept per row, and
  each round of Euclidean shears at it is one congruence on the rows that
  touch the two pivot rows, reading only nonzeros. It logs each step, a
  swap or a shear of two distinct indices. The log is its certificate:
  _replay applies the steps to a copy of M by code of its own, and the
  result must be the reduced matrix cell for cell, in block form with its
  divisibility chain. That proves E M E^T = S, and E is unimodular by
  construction, with no transform built and no product. The form keeps
  the log, and a reader replays only what it reads:
  extended_normal_form takes E 1 forward (_row_sums), and
  reps.qas_representation the first 2s columns of F = E^{-1} backward
  (_block_columns).

- The reduction also runs mod N, in its own module: the docstring of
  residues._residue_factors states what the certified form over Z/N
  proves. That module reads _block_factors and _nonzeros from here;
  nothing here imports it.

- extended_normal_form reads the normal form of extend(M), M bordered by
  a column of ones, from that of M. Congruence by diag(E, 1), unimodular by
  M's certificate, turns extend(M) into S bordered by v = E 1, whose own
  certified form it returns: the invariant factors and kernel dimension of
  extend(M), reached cheaply since S is block diagonal, and the log of the
  bordered S (its docstring chains it to extend(M)).

- ranks_mod finds, for each of a few primes p, the rank of an integer
  matrix over F_p and whether the all-ones row lies in its row space, by
  one elimination over Z/m, m the product of the primes, with unit pivots;
  a column with no unit splits m (dynamic evaluation), and the
  elimination goes on mod each factor. It builds no kernel basis and
  updates only the support of each pivot row.

- cycle_kernel_vectors realizes the kernel of M(D) combinatorially from the
  even-length cycles of the toric permutation, and proves the vectors
  independent by the Gram minors of their fraction-free elimination.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress
from math import gcd, prod
from operator import mul

from .diagrams import Diagram, check_board_size
from .errors import (
    BadRange,
    FormulaMismatch,
    InternalVerificationFailed,
    SkewSymmetryViolated,
    TooLarge,
)
from .pipedreams import Permutation, toric_permutation, white_exit_labels


def _integer(x) -> int:
    """x as an int; BadRange unless it is an integer value (1.5 is not 1)."""
    if type(x) is int:
        return x
    try:
        if int(x) == x:
            return int(x)
    except (TypeError, ValueError, OverflowError):
        pass
    raise BadRange(f"matrix entry {x!r} is not an integer")


@dataclass(frozen=True)
class SkewIntMatrix:
    """A square integer matrix A with A^T = -A (hence zero diagonal).

    Indexing is 0-based: A[i, j] is row i, column j.
    """

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        rows = tuple(tuple(map(_integer, row)) for row in self.rows)
        object.__setattr__(self, "rows", rows)
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise SkewSymmetryViolated("matrix is not square")
        for i in range(n):
            for j in range(i, n):
                if rows[i][j] != -rows[j][i]:
                    raise SkewSymmetryViolated(
                        f"entry ({i}, {j}) = {rows[i][j]} but ({j}, {i}) = {rows[j][i]}"
                    )

    @property
    def n(self) -> int:
        return len(self.rows)

    def __getitem__(self, key: tuple[int, int]) -> int:
        i, j = key
        return self.rows[i][j]

    @classmethod
    def _unchecked(cls, rows: tuple[tuple[int, ...], ...]) -> "SkewIntMatrix":
        """Wrap rows of ints that are square and skew by construction,
        skipping the validation of __post_init__; only for matrices the
        package builds itself."""
        self = object.__new__(cls)
        object.__setattr__(self, "rows", rows)
        return self

    def to_lists(self) -> list[list[int]]:
        return [list(row) for row in self.rows]


def matrix_from_diagram(d: Diagram) -> SkewIntMatrix:
    """The skew commutation matrix of the white squares of a diagram.

    White squares are numbered row-major; +1 at (i, j) when square j is
    strictly below square i in the same column or strictly to the right of
    it in the same row. Squares in distinct rows and columns commute (0).
    Each unordered pair is visited once, with i < j: in row-major order a
    later square sharing the row lies to the right and one sharing the
    column lies below, so the entry is +1 at (i, j) and -1 at (j, i).

    Before the matrix is allocated, the board is sized: a row or column of
    k white squares holds k (k - 1) of the matrix nonzeros, and
    diagrams.check_board_size refuses a board whose cells, or whose white
    squares times nonzeros, pass their bounds.
    """
    squares = d.white_squares
    lines = [*map(sum, d.cells), *map(sum, zip(*d.cells))]
    check_board_size(d.m, d.n, len(squares), sum(k * (k - 1) for k in lines))
    rows = [[0] * len(squares) for _ in squares]
    for i, (ri, ci) in enumerate(squares):
        for j in range(i + 1, len(squares)):
            rj, cj = squares[j]
            if ri == rj or ci == cj:
                rows[i][j] = 1
                rows[j][i] = -1
    return SkewIntMatrix._unchecked(tuple(map(tuple, rows)))


# The least strong pseudoprime to every prime base 2, ..., 41 (Sorenson and
# Webster, Math. Comp. 86, 2017). The bases 2, ..., 37 alone pass the
# composite 318665857834031151167461, so is_prime needs 41 to reach it.
MILLER_RABIN_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin to the prime bases 2, ..., 41, exact below
    MILLER_RABIN_BOUND; TooLarge from there on, where no answer is proved."""
    if p >= MILLER_RABIN_BOUND:
        raise TooLarge(f"primality is proved only below {MILLER_RABIN_BOUND}")
    if p < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    if p in small:
        return True
    if any(p % q == 0 for q in small):
        return False
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in small:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# Skew congruence normal form
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SkewNormalForm:
    """Result of the congruence reduction S = E M E^T.

    S is block diagonal: s blocks [[0, h_i], [-h_i, 0]] with positive
    h_1 | h_2 | ... | h_s, then a zero block of size kernel_dim = n - 2s.
    It is not stored, since invariant_factors and kernel_dim determine it.
    `log` holds the elementary steps G_1, ..., G_m of the reduction, with
    E = G_m ... G_1, as skew_normal_form certified them by replaying them
    on M before constructing this object. No row of E or of F = E^{-1} is
    kept: each reader replays the log into what it reads.
    extended_normal_form takes E 1 forward, and reps.qas_representation
    the first 2s columns of F backward.
    """

    invariant_factors: tuple[int, ...]
    kernel_dim: int
    log: list[int] = field(repr=False)


# The reduction logs each congruence step as three integers i, j, q in one
# flat list: q == 0 swaps indices i and j, any other q is the shear
# index_i += q * index_j. Replayed forward, the steps act as E; replayed
# backward with each step inverted, as F = E^{-1}.


def _pair_swap(A: list[list[int]], log: list[int], i: int, j: int, live: int) -> None:
    """Congruence swap of indices i and j.

    Rows of A before `live` belong to finished blocks and are zero in every
    column from `live` on, so only the live rows need their columns swapped.
    """
    if i == j:
        return
    A[i], A[j] = A[j], A[i]
    for r in range(live, len(A)):
        row = A[r]
        row[i], row[j] = row[j], row[i]
    log += (i, j, 0)


def _pair_add(A: list[list[int]], log: list[int], dst: int, src: int, q: int, live: int) -> None:
    """Congruence shear: row_dst += q * row_src, then col_dst += q * col_src;
    the reduction's divisibility repair.

    Only the nonzeros of row src from `live` on are read, and only the
    matching entries of row dst and column dst are written: every other
    entry of row dst keeps its value, and A stays skew, so column dst
    already holds minus it. Entry (dst, dst) stays zero, and indices before
    `live` (finished blocks, zero against the live ones) do not change.
    """
    if q == 0:
        return
    row = A[dst]
    for k, y in _nonzeros(A[src], live):
        if k != dst:
            x = row[k] + q * y
            row[k] = x
            A[k][dst] = -x
    log += (dst, src, q)


def _pair_round(A: list[list[int]], log: list[int], p: int) -> list[int]:
    """One round of Euclidean shears at the pivot a = A[p][p+1], as one
    congruence; returns the live indices it touched, in increasing order.

    Each live index k gets u_k = -(A[p][k] // a) times index p+1 and
    v_k = -(A[p+1][k] // -a) times index p, which leaves the remainders in
    rows p and p+1. These shears change only their own row and column, so
    every quotient comes from rows p and p+1 as the round found them, the
    shears commute, and the round is one congruence T A T^T. A live row k
    changes only if A[p][k] or A[p+1][k] is nonzero, and becomes
    A[k] + u_k A[p+1] + v_k A[p] + alpha_k U + beta_k V, with U and V the
    rows of the u_k and v_k, alpha_k = A[k][p+1] + a v_k and
    beta_k = A[k][p] - a u_k; rows p and p+1 become A[p] + a U and
    A[p+1] - a V. The row steps come first, after which entries (k, p+1)
    and (k, p) hold alpha_k and beta_k: minus the remainders, so zero when
    a is a unit. Only the nonzeros of these four rows are read. The shears
    are logged one by one, for each k in increasing order the one from
    p+1 first.
    """
    top, bottom = A[p], A[p + 1]
    a = top[p + 1]
    touched = [k for k in range(p + 2, len(A)) if top[k] or bottom[k]]
    from_top = [(p + 1, a), *[(k, top[k]) for k in touched if top[k]]]
    from_bottom = [(p, -a), *[(k, bottom[k]) for k in touched if bottom[k]]]
    U, V, rest = [], [], []
    for k in touched:
        u, v = -(top[k] // a), -(bottom[k] // -a)
        row = A[k]
        if u:
            for j, y in from_bottom:
                row[j] += u * y
            log += (k, p + 1, u)
            U.append((k, u))
        if v:
            for j, y in from_top:
                row[j] += v * y
            log += (k, p, v)
            V.append((k, v))
        if row[p] or row[p + 1]:
            rest.append(row)
    for row in rest:
        alpha, beta = row[p + 1], row[p]
        if alpha:
            for j, y in U:
                row[j] += alpha * y
        if beta:
            for j, y in V:
                row[j] += beta * y
    for k, u in U:
        top[k] += a * u
    for k, v in V:
        bottom[k] -= a * v
    return touched


def _nonzeros(row, start: int = 0):
    """The (column index, entry) pairs of the nonzeros of a dense row, from
    column `start` on."""
    tail = row[start:]
    return zip(compress(range(start, len(row)), tail), filter(None, tail))


def _block_factors(S: list[list[int]], N: int = 0) -> tuple[int, ...]:
    """The factors of the block form S, after checking its shape row by row
    and its divisibility chain; with a modulus N, the chain on gcd(a_i, N)
    (gcd(a, 0) = |a|). Raises InternalVerificationFailed on the first
    failure, naming the first bad cell of a broken shape."""
    n = len(S)
    s = 0
    while 2 * s + 1 < n and S[2 * s][2 * s + 1] != 0:
        s += 1
    factors = tuple(S[2 * i][2 * i + 1] for i in range(s))
    for i, row in enumerate(S):
        # Row i holds one entry x at (i, j), nonzero in a block and zero past
        # them, and zeros elsewhere: the zeros are counted in C.
        j, x = (i ^ 1, -factors[i // 2] if i % 2 else factors[i // 2]) if i < 2 * s else (i, 0)
        if row.count(0) != n - (x != 0) or row[j] != x:
            expect = [0] * n
            expect[j] = x
            j = next(j for j in range(n) if row[j] != expect[j])
            raise InternalVerificationFailed(f"block shape broken at ({i}, {j})")
    for i in range(s - 1):
        if factors[i] <= 0 or gcd(factors[i + 1], N) % gcd(factors[i], N):
            raise InternalVerificationFailed(f"divisibility chain broken: {factors}")
    if s and factors[-1] <= 0:
        raise InternalVerificationFailed(f"non-positive invariant factor: {factors}")
    return factors


def _replay(M: SkewIntMatrix, log: list[int]) -> list[list[int]]:
    """E M E^T: the logged congruences applied, in order, to a copy of M.

    This is its own code, apart from _pair_swap and _pair_add, so that a
    bug in the reduction's steps cannot prove itself. A swap exchanges rows
    and columns i and j. A shear index_i += q index_j adds q times row j to
    row i over the nonzeros of row j, and writes column i by skew symmetry;
    its column step cancels what its row step puts at (i, i), so that
    entry is zero again. A step with i == j, or with an index outside
    0..n-1 (-1 would alias n - 1), is refused: every other step is
    elementary, so E = G_m ... G_1 is unimodular by construction.
    """
    n = M.n
    A = M.to_lists()
    columns = range(n)
    steps = iter(log)
    for i, j, q in zip(steps, steps, steps):
        if i == j or not (0 <= i < n and 0 <= j < n):
            raise InternalVerificationFailed(f"logged step ({i}, {j}, {q}) is not elementary")
        if q:
            row, src = A[i], A[j]
            for k, y in zip(compress(columns, src), filter(None, src)):
                row[k] = x = row[k] + q * y
                A[k][i] = -x
            row[i] = 0
        else:
            A[i], A[j] = A[j], A[i]
            for row in A:
                row[i], row[j] = row[j], row[i]
    return A


def _certify_by_replay(M: SkewIntMatrix, S: list[list[int]], log: list[int]) -> tuple[int, ...]:
    """Prove that S = E M E^T is the canonical form of M; return its factors.

    S must be the block form with its divisibility chain (_block_factors),
    and the replay of the log on M must give S cell for cell: that is
    E M E^T = S, with E unimodular since every logged step is elementary.
    No transform is built and no matrix product is taken. Raises
    InternalVerificationFailed on the first failure.
    """
    factors = _block_factors(S)
    for i, (got, row) in enumerate(zip(_replay(M, log), S)):
        if got != row:
            j = next(j for j, (x, y) in enumerate(zip(got, row)) if x != y)
            raise InternalVerificationFailed(f"E M E^T differs from the reduced matrix at ({i}, {j})")
    return factors


def _pivot(A: list[list[int]], zeros: list[int], p: int, last: int) -> tuple[int, int] | None:
    """The pivot (i, j) of the next block, with A[i][j] > 0 of least size,
    in sparse rows; None when the live block is zero.

    zeros[i] counts the zeros of row i, or is 0 if row i is zero. Every
    live entry is a multiple of `last`, so an entry of size `last` is
    least. The first such is taken in the first live row with the most
    zeros that holds one, and in that row the first column whose row has
    the most zeros (Markowitz, Management Sci. 3, 1957). When no entry has
    size `last`, the first entry of least absolute value in row-major
    order.
    """
    n = len(A)
    most, i = 0, None
    for k in range(p, n):
        if zeros[k] > most and (last in A[k] or -last in A[k]):
            most, i = zeros[k], k
    if i is not None:
        row = A[i]
        j = max((j for j in range(p, n) if row[j] == last or row[j] == -last), key=zeros.__getitem__)
        return (i, j) if row[j] > 0 else (j, i)
    piv = None
    least = 0
    for i in range(p, n):
        row = A[i]
        for j in range(i + 1, n):
            x = row[j]
            if x and (not least or abs(x) < least):
                piv, least = ((i, j) if x > 0 else (j, i)), abs(x)
    return piv


def _reduce(M: SkewIntMatrix) -> tuple[list[list[int]], list[int]]:
    """The reduced matrix and the log of skew_normal_form's reduction of M."""
    n = M.n
    A = M.to_lists()
    # zeros[k] counts the zeros of row k, and a zero row counts 0, since it
    # holds no pivot (every other row has between 1 and n - 1). A swap
    # exchanges two counts, and each round recounts the rows it wrote.
    zeros = [row.count(0) % n for row in A]
    log: list[int] = []

    def swap(i: int, j: int) -> None:
        _pair_swap(A, log, i, j, p)
        zeros[i], zeros[j] = zeros[j], zeros[i]

    p = 0
    # The last block's factor divides every live entry: the check below proves
    # it for a new factor, and congruences keep it.
    last = 1
    while (piv := _pivot(A, zeros, p, last)) is not None:
        i, j = piv
        swap(i, p)
        swap(i if j == p else j, p + 1)
        # Each round either shrinks |pivot| or ends, and a divisibility
        # repair is followed by a shrinking round, so the loop terminates;
        # a step that breaks this raises instead of looping.
        repaired = False
        while True:
            a = A[p][p + 1]
            if a == 0:
                raise InternalVerificationFailed("lost the pivot")
            touched = _pair_round(A, log, p)
            for k in (p, p + 1, *touched):
                zeros[k] = A[k].count(0) % n
            rem = next(((r, k) for k in touched for r in (p, p + 1) if A[r][k]), None)
            if rem is not None:
                r, k = rem
                if not 0 < abs(A[r][k]) < abs(a):
                    raise InternalVerificationFailed("the pivot did not shrink")
                swap(k, p + 1 if r == p else p)
                repaired = False
                continue
            if repaired:
                raise InternalVerificationFailed("a divisibility repair left no remainder")
            viol = None
            g = abs(a)
            if g != last:
                # The first live row with a non-multiple of g above the diagonal.
                viol = next((k for k in range(p + 2, n) if any(map(g.__rmod__, A[k][k + 1:]))), None)
            if viol is None:
                break
            _pair_add(A, log, p, viol, 1, p)
            repaired = True
        if A[p][p + 1] < 0:
            swap(p, p + 1)
        last = g
        p += 2
    return A, log


def skew_normal_form(M: SkewIntMatrix) -> SkewNormalForm:
    """Reduce a skew matrix to its canonical block form by unimodular congruence.

    Each block's pivot is an entry of least absolute value over the live
    block, in the live row with the most zeros and, in that row, the column
    with the most zeros (_pivot), so that shears copy few nonzeros.
    Rounds of Euclidean shears, each one congruence (_pair_round), shrink
    the pivot until its two rows are clean, then a divisibility repair
    folds any non-multiple of the pivot back in. The pivot starts least,
    every remainder swapped in as the pivot must be smaller than it, and
    every repair must leave one, so the reduction ends; a step that breaks
    this raises InternalVerificationFailed instead of looping. The steps are
    logged (transform tracking as in Kannan and Bachem, SIAM J. Comput. 8,
    1979), and the log is the certificate: replayed on M by code of its
    own, it must give the reduced matrix cell for cell, and that matrix
    must be the block form with its divisibility chain. Every logged step
    swaps or shears two distinct indices, so E is unimodular by
    construction, and E M E^T = S is proved with no transform built and no
    matrix product; InternalVerificationFailed is raised otherwise.
    """
    A, log = _reduce(M)
    factors = _certify_by_replay(M, A, log)
    return SkewNormalForm(factors, M.n - 2 * len(factors), log)


def extended_normal_form(snf: SkewNormalForm) -> SkewNormalForm:
    """The normal form of a matrix congruent to extend(M), read from that of M.

    `snf` is what skew_normal_form returned for M: S = E M E^T, with E
    unimodular, both certified by the replay of its log. With
    D = diag(E, 1), that identity gives

        D extend(M) D^T = B = [[S, v], [-v^T, 0]],  v = E 1,

    the block diagonal S bordered by the row sums of E, which _row_sums
    replays forward from the log. The result is skew_normal_form(B), whose
    own replay certifies G B G^T = S_ext with G unimodular. Its invariant
    factors and kernel dimension are those of extend(M), with no further
    product: E_ext = G D is unimodular and E_ext extend(M) E_ext^T = S_ext.
    Its log is that of B; followed after the log of `snf`, which acts on
    the first n indices as D does, it is a log of E_ext.

    B is S plus one dense border, so its reduction is short.
    """
    h = snf.invariant_factors
    n = 2 * len(h) + snf.kernel_dim
    B = [[0] * (n + 1) for _ in range(n + 1)]
    for k, x in enumerate(h):
        B[2 * k][2 * k + 1], B[2 * k + 1][2 * k] = x, -x
    for i, x in enumerate(_row_sums(snf.log, n)):
        B[i][n], B[n][i] = x, -x
    return skew_normal_form(SkewIntMatrix._unchecked(tuple(map(tuple, B))))


def _row_sums(log: list[int], n: int) -> list[int]:
    """E 1, the row sums of the n x n transform E = G_m ... G_1 of a log:
    the steps applied in order to the ones vector, a swap exchanging two
    entries and a shear index_i += q index_j adding q v_j to v_i."""
    v = [1] * n
    steps = iter(log)
    for i, j, q in zip(steps, steps, steps):
        if q:
            v[i] += q * v[j]
        else:
            v[i], v[j] = v[j], v[i]
    return v


def _block_columns(log: list[int], n: int, width: int) -> tuple[tuple[int, ...], ...]:
    """The first `width` columns of F = E^{-1} = G_1^{-1} ... G_m^{-1} for
    the logged steps G_1, ..., G_m of an n x n normal form.

    The steps are inverted and applied to the rows from the last one back:
    a swap exchanges two rows, and the shear index_i += q index_j subtracts
    q times row j from row i. Row operations never mix columns, so the
    replay starts from the first `width` columns of the identity, and no
    other column of F is built.
    """
    F = [[int(i == c) for c in range(width)] for i in range(n)]
    steps = reversed(log)
    for q, j, i in zip(steps, steps, steps):
        if q:
            F[i] = [x - q * y for x, y in zip(F[i], F[j])]
        else:
            F[i], F[j] = F[j], F[i]
    return tuple(map(tuple, F))


# ---------------------------------------------------------------------------
# Ranks mod p, and the combinatorial kernel
# ---------------------------------------------------------------------------


def ranks_mod(rows, primes) -> list[tuple[int, bool]]:
    """For each of the given distinct primes p, in their order: the rank
    over F_p of an integer matrix, given as rows, and whether the all-ones
    row lies in its row space mod p.

    One forward elimination over Z/m, m the product of the primes, which
    is the product of the fields F_p: a pivot that is a unit mod m is one
    mod every p, so each such step serves every prime at once. A column
    that is nonzero mod m but holds no unit splits m at the gcd g of its
    first nonzero entry (dynamic evaluation: Della Dora, Dicrescenzo and
    Duval, EUROCAL 1985), and the elimination goes on mod g and mod m/g
    from that column (_ranks_mod). No kernel basis and no transform are
    built.

    The all-ones row is carried along: every pivot row reduces it, but it
    is never a pivot, so what is left of it is zero mod p exactly when it
    is a combination of the rows mod p. The row space is the orthogonal
    complement of the kernel, so the second answer says whether the mod-p
    kernel lies in the sum-zero hyperplane.
    """
    ones = [1] * (len(rows[0]) if rows else 0)
    leaves = _ranks_mod([*rows, ones], prod(primes), 0, 0)
    # The moduli of the leaves are coprime, so one of them holds each p.
    return [
        (rank, not any(x % p for x in left))
        for p in primes
        for g, rank, left in leaves
        if g % p == 0
    ]


def _ranks_mod(A, m: int, rank: int, start: int) -> list[tuple[int, int, list[int]]]:
    """Eliminate the rows A, the ones row last, mod m from column `start`
    on, below `rank` pivots already taken. Returns (modulus, rank, what is
    left of the ones row) for m, or for each factor of m that its splits
    reach; the rows below the pivots end at zero mod that modulus.

    A pivot row's support is taken once, and each row below it changes
    only there: the pivot row's zeros leave the rest as it is. The rows
    are copied, so each factor of a split gets its own.
    """
    A = [[x % m for x in row] for row in A]
    R = len(A) - 1  # A[R]: the ones row, never a pivot
    r = 0
    for c in range(start, len(A[R])):
        if r == R:
            break
        for pr in range(r, R):
            x = A[pr][c]
            if x and gcd(x, m) == 1:
                break
        else:
            first = next(filter(None, (row[c] for row in A[r:R])), 0)
            if first:
                # Nonzero mod m, yet no unit: split m, and go on from c
                # with the live rows and the ones row mod each factor.
                g = gcd(first, m)
                return [
                    leaf for factor in (g, m // g)
                    for leaf in _ranks_mod(A[r:], factor, rank + r, c)
                ]
            continue
        top = A[pr]
        A[pr], A[r] = A[r], top
        # Adding f * (m - 1/pivot) * top clears the f at column c; the
        # entries left of c are zero in every row from r on, and top's
        # zeros change nothing, so only its support is visited.
        neg_inv = m - pow(top[c], -1, m)
        support = list(_nonzeros(top, c))
        for row in A[r + 1:]:
            f = row[c]
            if f:
                f *= neg_inv
                for k, y in support:
                    row[k] = (row[k] + f * y) % m
        r += 1
    return [(m, rank + r, A[R])]


def _prove_independent(vectors) -> None:
    """Prove integer vectors linearly independent over Q; raise
    InternalVerificationFailed if they are dependent.

    Fraction-free elimination (Bareiss, Math. Comp. 22, 1968) on the Gram
    matrix G = V V^T, without pivoting: its k-th pivot is the leading
    k-minor of G, the Gram determinant of the first k vectors, which is
    positive exactly when they are independent. So every pivot must be
    positive, and every division is exact.
    """
    G = [[sum(map(mul, u, v)) for v in vectors] for u in vectors]
    last = 1
    for k, top in enumerate(G):
        pivot = top[k]
        if pivot <= 0:
            raise InternalVerificationFailed(
                f"the {len(vectors)} vectors are dependent: the Gram minor of the first {k + 1} is {pivot}"
            )
        for row in G[k + 1:]:
            f = row[k]
            for j in range(k + 1, len(G)):
                row[j] = (pivot * row[j] - f * top[j]) // last
        last = pivot


@dataclass(frozen=True)
class CycleKernelVector:
    """A kernel vector of M(D) built from one even-length toric cycle.

    `values` assigns +1/-1 alternately around the cycle starting with +1 at
    the smallest label; `vector` has one coordinate per white square,
    values[left exit] - values[up exit], and is verified to lie in ker M(D).
    """

    cycle: tuple[int, ...]
    vector: tuple[int, ...]


def cycle_kernel_vectors(
    d: Diagram, tau: Permutation | None = None, M: SkewIntMatrix | None = None
) -> tuple[CycleKernelVector, ...]:
    """Kernel vectors of M(D), one per even-length cycle of the toric permutation.

    Each vector is checked to lie in ker M(D), and the set is proved
    independent over Q by its Gram minors (_prove_independent).
    The number of even-length cycles equals the nullity of M(D), so they
    are a basis of the rational kernel; a caller holding the nullity
    checks the count. A caller that already holds tau = toric_permutation(d)
    or M = matrix_from_diagram(d) passes it to save recomputing it.
    """
    if M is None:
        M = matrix_from_diagram(d)
    if tau is None:
        tau = toric_permutation(d)
    left, up = white_exit_labels(d)
    out = []
    for cycle in tau.cycles.cycles:
        if len(cycle) % 2:
            continue
        values = {label: (1 if k % 2 == 0 else -1) for k, label in enumerate(cycle)}
        vector = tuple(
            values.get(left[i], 0) - values.get(up[i], 0) for i in range(len(left))
        )
        if any(sum(map(mul, row, vector)) for row in M.rows):
            raise InternalVerificationFailed(
                f"cycle vector for {cycle} is not in the kernel"
            )
        out.append(CycleKernelVector(cycle=cycle, vector=vector))
    _prove_independent([v.vector for v in out])
    return tuple(out)


def cycle_sum(cycle: tuple[int, ...], tau: Permutation, m: int) -> int:
    """Coordinate sum of the kernel vector of one even toric cycle of a
    diagram with m rows, by the side-transition formula.

    With the cycle's values +1/-1 alternating from its smallest label, the
    sum adds the value at tau(j) whenever the cycle steps from a column
    label j to a row label tau(j), subtracts the value at tau(k) whenever it
    steps from a row label k to a column label tau(k), and ignores steps
    that stay on one side. A cycle living entirely on rows or entirely on
    columns therefore sums to zero. Only tau is read: no board, matrix or
    vector.
    """
    values = {label: (1 if k % 2 == 0 else -1) for k, label in enumerate(cycle)}
    total = 0
    for label in cycle:
        image = tau(label)
        if label > m and image <= m:
            total += values[image]
        elif label <= m and image > m:
            total -= values[image]
    return total


def checked_cycle_sum(ckv: CycleKernelVector, tau: Permutation, m: int) -> int:
    """Coordinate sum of one cycle kernel vector of a diagram with m rows.

    Computed two independent ways and cross-checked: directly by summing the
    vector, and by cycle_sum's side-transition formula. FormulaMismatch if
    the two disagree.
    """
    direct = sum(ckv.vector)
    formula = cycle_sum(ckv.cycle, tau, m)
    if direct != formula:
        raise FormulaMismatch(
            f"cycle sum mismatch for {ckv.cycle}: direct {direct}, formula {formula}"
        )
    return direct

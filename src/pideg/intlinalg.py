"""Exact integer linear algebra for skew-symmetric commutation matrices.

Everything here runs on exact Python integers, arbitrary-precision or
reduced modulo a prime; nothing is ever rounded. The normal-form
routines verify their own output by exact multiplication before returning
and raise InternalVerificationFailed if the check fails, so a returned
result is a proved identity, not a hope.

The central objects:

- matrix_from_diagram builds the skew commutation matrix M(D) of a diagram:
  entry (i, j) is +1 when white square j lies strictly below square i in the
  same column or strictly to its right in the same row, -1 in the mirrored
  cases, 0 otherwise.

- skew_normal_form reduces a skew matrix by a unimodular congruence
  E M E^T to a block diagonal of 2x2 blocks [[0, h], [-h, 0]] followed by a
  zero block, with h_1 | h_2 | ... ; the h_i determine the PI degree. It
  returns F = E^{-1} alongside E: both are replayed from the logged steps
  as sparse rows. Each shear, of the reduction and of the replay, touches
  only the nonzeros of its source row. It certifies its result with two
  exact products over those sparse rows: E F = I, which makes E
  unimodular, and E M E^T = S (checked as M E^T = F S). The certified
  sparse rows are kept, and written out as dense matrices only when the
  transforms are read.

- The reduction, replay and certificate also run mod N (modular normal
  forms, Domich, Kannan and Trotter, 1987), and _residue_factors reads PI
  degrees off them. There the reduction and the replay (module residues)
  hold each row as one int of fixed-width slots of residues: a round of the
  reduction at one pivot is one congruence, a few multiply-adds of whole
  rows per live row, a shear of the replay is one multiply-add, and a
  Barrett step takes every slot of a row mod N at once. The certificate
  reads the residues back as the sparse rows and lists it reads over Z,
  and checks E F = I and M E^T = F S mod N.

- extended_normal_form reads the normal form of extend(M), M bordered by
  a column of ones, from that of M. Congruence by diag(E, 1), unimodular by
  M's certificate, turns extend(M) into S bordered by v = E 1, whose own
  certified form it returns: the invariant factors and kernel dimension of
  extend(M), reached cheaply since S is block diagonal, and the transforms
  of the bordered S (its docstring chains them to those of extend(M)).

- rank_mod_p finds the rank of an integer matrix over F_p, and whether
  the all-ones row lies in its row space, by one elimination that builds
  no kernel basis and updates only the support of each pivot row.
  _proved_rank proves the rank over Q from ranks mod primes against a
  Hadamard bound: for the cycle vectors below, and for a bare matrix whose
  form mod N is short.

- cycle_kernel_vectors realizes the kernel of M(D) combinatorially from the
  even-length cycles of the toric permutation, and proves the vectors
  independent by ranks mod p.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress
from math import gcd, prod
from operator import mul

from .diagrams import Diagram
from .errors import (
    BadRange,
    FormulaMismatch,
    InternalVerificationFailed,
    SkewSymmetryViolated,
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
    """
    squares = d.white_squares
    rows = [[0] * len(squares) for _ in squares]
    for i, (ri, ci) in enumerate(squares):
        for j in range(i + 1, len(squares)):
            rj, cj = squares[j]
            if ri == rj or ci == cj:
                rows[i][j] = 1
                rows[j][i] = -1
    return SkewIntMatrix._unchecked(tuple(map(tuple, rows)))


def extend(M: SkewIntMatrix) -> SkewIntMatrix:
    """Border M with a column of ones and the matching row of minus ones.

    The new last row is (-1, ..., -1, 0). Its mirror, with the signs of the
    border swapped, is congruent to it by negating the last coordinate, so
    the choice changes no congruence invariant.
    """
    n = M.n
    rows = [row + (1,) for row in M.rows]
    rows.append((-1,) * n + (0,))
    return SkewIntMatrix._unchecked(tuple(rows))


# q in the modulus N = ell q of _residue_factors: mod ell, an invariant factor
# that ell divides would leave no block; mod ell q, only one that ell q divides,
# about once in q for a full-rank matrix, and pi_degree_qas then proves the rank
# from primes instead. So q need not be large, and at 2^13 - 1 every residue
# mod N is below 2^16 for ell <= 8: a slot of residues._ResidueRows is one
# 64-bit word up to n = 256, and a certificate product mod N is below 2^32.
RANK_PRIME = 2**13 - 1


def is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin, exact for all inputs below 3.3e24."""
    if p < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
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
    `e_columns` are the sparse columns of E (the rows of E^T) and `f_rows`
    the sparse rows of F = E^{-1}, each a dict from index to nonzero entry,
    as skew_normal_form certified them before constructing this object:
    E F = I, which proves F = E^{-1} and |det E| = 1, and M E^T = F S,
    which given E F = I is E M E^T = S. `transform` is E and
    `inverse_transform` is F, dense integer matrices as tuples of rows,
    built on first read and kept.
    """

    invariant_factors: tuple[int, ...]
    kernel_dim: int
    e_columns: list[dict[int, int]] = field(repr=False)
    f_rows: list[dict[int, int]] = field(repr=False)

    @cached_property
    def transform(self) -> tuple[tuple[int, ...], ...]:
        n = len(self.e_columns)
        return tuple(zip(*(_dense(col, n) for col in self.e_columns)))

    @cached_property
    def inverse_transform(self) -> tuple[tuple[int, ...], ...]:
        n = len(self.f_rows)
        return tuple(tuple(_dense(row, n)) for row in self.f_rows)


# The reduction logs each congruence step as three integers i, j, q in one
# flat list: q == 0 swaps indices i and j, any other q is the shear
# index_i += q * index_j.


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
    """Congruence shear: row_dst += q * row_src, then col_dst += q * col_src.

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


def _transforms(log: list[int], n: int) -> tuple[list[dict[int, int]], ...]:
    """The rows of E^T and of F = E^{-1} for the logged steps G_1, ..., G_m.

    Each row is sparse, a dict from column index to nonzero entry.
    E = G_m ... G_1 and F = G_1^{-1} ... G_m^{-1}. Both are accumulated
    from the last step back: E as X -> X G, a column operation (kept as a
    row operation on E^T), and F as Y -> G^{-1} Y, a row operation. A
    shear reads only the nonzeros of its source row and writes only the
    matching entries of its destination row, so it needs no cut at the
    live index: after the steps taken at live index p or later, X and Y
    are diag(I_p, X'), so their rows from p on are zero before column p.
    Forward tracking would fill whole rows.
    """
    Et = [{k: 1} for k in range(n)]
    F = [{k: 1} for k in range(n)]
    steps = reversed(log)
    for q, j, i in zip(steps, steps, steps):
        if q == 0:
            Et[i], Et[j] = Et[j], Et[i]
            F[i], F[j] = F[j], F[i]
            continue
        # X G adds q * column i to column j; G^{-1} Y subtracts q * row j from row i.
        _add_multiple(Et[j], Et[i], q)
        _add_multiple(F[i], F[j], -q)
    return Et, F


def _add_multiple(dst: dict[int, int], src: dict[int, int], q: int) -> None:
    """dst += q * src for sparse rows, dropping the entries that cancel."""
    get = dst.get
    for k, x in src.items():
        y = get(k, 0) + q * x
        if y:
            dst[k] = y
        else:
            del dst[k]


def _nonzeros(row, start: int = 0):
    """The (column index, entry) pairs of the nonzeros of a dense row, from
    column `start` on."""
    tail = row[start:]
    return zip(compress(range(start, len(row)), tail), filter(None, tail))


def _dense(row: dict[int, int], n: int) -> list[int]:
    """A sparse row as a dense list of length n."""
    out = [0] * n
    for k, x in row.items():
        out[k] = x
    return out


def _combine(terms, rows: list[list[tuple[int, int]]], n: int) -> list[int]:
    """The dense row vector of length n summing x * rows[k] over the (k, x)
    in terms, for sparse rows given as lists of (column index, entry) pairs."""
    acc = [0] * n
    for k, x in terms:
        for j, y in rows[k]:
            acc[j] += x * y
    return acc


def _certify(M: SkewIntMatrix, S: list[list[int]], Et: list[dict[int, int]],
             F: list[dict[int, int]], N: int = 0) -> tuple[int, ...]:
    """Prove that S = E M E^T is the canonical form of M; return its factors.

    Et holds the rows of E^T and F those of E^{-1}, both sparse dicts as
    from _transforms. Checks the block shape of S row by row and its
    divisibility chain, then two exact products, each row summed from
    sparse rows into a dense accumulator: E F = I, and M E^T = F S, which
    given the first is E M E^T = S; with a modulus N, both mod N, and the chain on
    gcd(a_i, N) (gcd(a, 0) = |a|). Raises InternalVerificationFailed on the first failure.
    """
    n = M.n
    s = 0
    while 2 * s + 1 < n and S[2 * s][2 * s + 1] != 0:
        s += 1
    factors = tuple(S[2 * i][2 * i + 1] for i in range(s))
    for i, row in enumerate(S):
        expect = [0] * n
        if i < 2 * s:
            expect[i ^ 1] = -factors[i // 2] if i % 2 else factors[i // 2]
        if row != expect:
            j = next(j for j in range(n) if row[j] != expect[j])
            raise InternalVerificationFailed(f"block shape broken at ({i}, {j})")
    for i in range(s - 1):
        if factors[i] <= 0 or gcd(factors[i + 1], N) % gcd(factors[i], N):
            raise InternalVerificationFailed(f"divisibility chain broken: {factors}")
    if s and factors[-1] <= 0:
        raise InternalVerificationFailed(f"non-positive invariant factor: {factors}")

    # The products read each sparse row many times, so they read it as a
    # list of pairs, which iterates faster than the items of a dict.
    nonzero = (lambda row: any(x % N for x in row)) if N else any
    E: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for k, col in enumerate(Et):
        for i, x in col.items():
            E[i].append((k, x))
    F_pairs = [list(row.items()) for row in F]
    for i, terms in enumerate(E):
        product = _combine(terms, F_pairs, n)
        product[i] -= 1
        if nonzero(product):
            raise InternalVerificationFailed("E F is not the identity: the transform is not unimodular")
    Et_pairs = [list(col.items()) for col in Et]
    for Mr, Fr in zip(M.rows, F):
        product = _combine(_nonzeros(Mr), Et_pairs, n)
        # Row r of F S: entry k ^ 1 is F[r][k] * S[k][k ^ 1] for k < 2s, the rest is zero.
        for k, y in Fr.items():
            if k < 2 * s:
                product[k ^ 1] -= y * S[k][k ^ 1]
        if nonzero(product):
            raise InternalVerificationFailed("E M E^T does not equal the reduced matrix")
    return factors


def _reduce(M: SkewIntMatrix) -> tuple[list[list[int]], list[int]]:
    """The reduced matrix and the log of skew_normal_form's reduction of M."""
    n = M.n
    A = M.to_lists()
    log: list[int] = []
    p = 0
    # The last block's factor divides every live entry: the scan proved it, and
    # congruences keep it. So a pivot of that size (or 1, before any block) needs no scan.
    last = 1
    while True:
        # The first entry of least absolute value in row-major order. A is
        # skew, so it lies above the diagonal, and an entry of absolute
        # value 1 ends the search.
        piv = None
        least = 0
        for i in range(p, n):
            row = A[i]
            for j in range(i + 1, n):
                x = row[j]
                if x and (not least or abs(x) < least):
                    piv, least = (i, j), abs(x)
                    if least == 1:
                        break
            if least == 1:
                break
        if piv is None:
            break
        i, j = piv
        _pair_swap(A, log, i, p, p)
        _pair_swap(A, log, j, p + 1, p)
        # Each round either shrinks |pivot| or ends, and a divisibility
        # repair is followed by a shrinking round, so the loop terminates;
        # a step that breaks this raises instead of looping.
        repaired = False
        while True:
            a = A[p][p + 1]
            if a == 0:
                raise InternalVerificationFailed("lost the pivot")
            # b goes to b - c a with c = b // a, which leaves the remainder.
            for k in range(p + 2, n):
                b = A[p][k]
                if b:
                    _pair_add(A, log, k, p + 1, -(b // a), p)
                b = A[p + 1][k]
                if b:
                    _pair_add(A, log, k, p, -(b // -a), p)
            rem = next(
                ((r, k) for k in range(p + 2, n) for r in (p, p + 1) if A[r][k]),
                None,
            )
            if rem is not None:
                r, k = rem
                if not 0 < abs(A[r][k]) < abs(a):
                    raise InternalVerificationFailed("the pivot did not shrink")
                _pair_swap(A, log, k, p + 1 if r == p else p, p)
                repaired = False
                continue
            if repaired:
                raise InternalVerificationFailed("a divisibility repair left no remainder")
            viol = None
            g = abs(a)
            if g != last:
                for i2 in range(p + 2, n):
                    if any(A[i2][j2] % g for j2 in range(i2 + 1, n)):
                        viol = i2
                        break
            if viol is None:
                break
            _pair_add(A, log, p, viol, 1, p)
            repaired = True
        if A[p][p + 1] < 0:
            _pair_swap(A, log, p, p + 1, p)
        last = g
        p += 2
    return A, log


def skew_normal_form(M: SkewIntMatrix) -> SkewNormalForm:
    """Reduce a skew matrix to its canonical block form by unimodular congruence.

    Pivot selection is by minimal absolute value over the live block;
    Euclidean shears shrink the pivot until its two rows are clean, then a
    divisibility repair folds any non-multiple of the pivot back in. Every
    remainder swapped in as the pivot must be smaller than it, and every
    repair must leave one, so the reduction ends; a step that breaks this
    raises InternalVerificationFailed instead of looping. The steps are
    logged, and E and E^{-1} are both built from the log as sparse rows,
    so the inverse costs no inversion (transform tracking as in Kannan and
    Bachem, SIAM J. Comput. 8, 1979, replayed backwards).
    The output is certified exactly over those sparse rows (block shape,
    divisibility chain, E F = I and M E^T = F S, hence E M E^T = S with
    |det E| = 1) and InternalVerificationFailed is raised otherwise.
    """
    n = M.n
    A, log = _reduce(M)
    Et, F = _transforms(log, n)
    factors = _certify(M, A, Et, F)
    return SkewNormalForm(factors, n - 2 * len(factors), Et, F)


def _residue_factors(M: SkewIntMatrix, ell: int) -> tuple[int, ...]:
    """The factors a_1, ..., a_s of M's congruence form over Z/N, N = ell *
    RANK_PRIME, certified mod N.

    The certificate proves that M and the form share their Smith form over Z/N
    (Newman, Integral Matrices, 1972, ch. II): gcd(a_i, N) = gcd(h_i, N) for M's
    invariant factors h_i, and N | h_i past the blocks (h_i = 0 too). So the s
    blocks prove rank at least 2s, and exactly 2s when s = n // 2; a shorter
    form leaves the rank to _proved_rank. The reduction and the replay run on
    packed residue rows (residues._residue_reduce and
    residues._residue_transforms); the certificate reads the dict rows and
    the lists that _certify reads over Z.
    """
    # Imported on first use, so that the commands that reduce only over Z do not load it.
    from .residues import _residue_reduce, _residue_transforms

    N = ell * RANK_PRIME
    A, log = _residue_reduce(M, N)
    Et, F = _residue_transforms(log, M.n, N)
    return _certify(M, A, Et, F, N)


def extended_normal_form(snf: SkewNormalForm) -> SkewNormalForm:
    """The normal form of a matrix congruent to extend(M), read from that of M.

    `snf` is what skew_normal_form returned for M: S = E M E^T, certified
    by E F = I and M E^T = F S. With D = diag(E, 1), that identity gives

        D extend(M) D^T = B = [[S, v], [-v^T, 0]],  v = E 1,

    the block diagonal S bordered by the row sums of E. The result is
    skew_normal_form(B): G B G^T = S_ext with H = G^{-1}, certified by
    G H = I and B G^T = H S_ext, so its transforms are G and H, those of B.
    Its invariant factors and kernel dimension are those of extend(M): the
    chain of certified identities proves, with no further product, that
    E_ext = G D and F_ext = diag(F, 1) H transform extend(M) into S_ext:

    - E F = I gives F E = I, so D^{-1} = diag(F, 1);
    - E_ext F_ext = G D D^{-1} H = G H = I;
    - extend(M) E_ext^T = extend(M) D^T G^T = D^{-1} B G^T
      = D^{-1} H S_ext = F_ext S_ext.

    B is S plus one dense border, so its reduction is short. A caller that
    needs E_ext or F_ext forms the product.
    """
    n = len(snf.e_columns)
    B = [[0] * (n + 1) for _ in range(n + 1)]
    for k, h in enumerate(snf.invariant_factors):
        B[2 * k][2 * k + 1], B[2 * k + 1][2 * k] = h, -h
    v = [0] * n
    for col in snf.e_columns:
        for i, x in col.items():
            v[i] += x
    for i, x in enumerate(v):
        B[i][n], B[n][i] = x, -x
    return skew_normal_form(SkewIntMatrix._unchecked(tuple(map(tuple, B))))


# ---------------------------------------------------------------------------
# Ranks mod p, and the combinatorial kernel
# ---------------------------------------------------------------------------


def rank_mod_p(rows, p: int) -> tuple[int, bool]:
    """The rank over F_p of an integer matrix, given as rows, and whether
    the all-ones row lies in its row space mod p; p must be prime.

    One forward elimination to row echelon form, with no kernel basis and
    no transform. A pivot row's support is taken once, and each row below
    it changes only there: the pivot row's zeros leave the rest as it is.
    The all-ones row is carried along: every pivot row reduces it, but it
    is never a pivot, so it ends at zero exactly when it is a combination
    of the rows. The row space is the orthogonal complement of the kernel,
    so the second answer says whether the mod-p kernel lies in the sum-zero
    hyperplane.
    """
    A = [[x % p for x in row] for row in rows]
    R = len(A)
    C = len(A[0]) if A else 0
    A.append([1] * C)  # row R: the ones row, never a pivot
    r = 0
    for c in range(C):
        if r == R:
            break
        for pr in range(r, R):
            if A[pr][c]:
                break
        else:
            continue
        top = A[pr]
        A[pr], A[r] = A[r], top
        # Adding f * (p - 1/pivot) * top clears the f at column c; the
        # entries left of c are zero in every row from r on, and top's
        # zeros change nothing, so only its support is visited.
        neg_inv = p - pow(top[c], -1, p)
        support = list(_nonzeros(top, c))
        for row in A[r + 1:]:
            f = row[c]
            if f:
                f *= neg_inv
                for k, y in support:
                    row[k] = (row[k] + f * y) % p
        r += 1
    return r, not any(A[R])


def _primes(p: int, step: int):
    """The primes among p, p + step, p + 2 step, ..., in that order."""
    while True:
        if is_prime(p):
            yield p
        p += step


def _proved_rank(rows, top: int, primes) -> int:
    """The rank over Q of an integer matrix, given as rows, proved from its
    ranks mod primes; `top` bounds the rank.

    Every prime p gives rank_Q >= rank_p, so r is the largest rank seen.
    Each prime tried then divides every (r + 1)-minor, and Hadamard bounds
    such a minor by the product of the r + 1 largest row norms, so once the
    product of the primes exceeds that bound, every (r + 1)-minor is zero
    and the rank is r (Dumas, Saunders and Villard, J. Symb. Comput. 32,
    2001). The primes are taken in the given order until then, or until
    r = top.
    """
    norms = sorted((sum(x * x for x in row) for row in rows), reverse=True)
    r, modulus = 0, 1
    primes = iter(primes)
    while r < top and modulus * modulus <= prod(norms[:r + 1]):
        p = next(primes)
        r = max(r, rank_mod_p(rows, p)[0])
        modulus *= p
    return r


def _prove_independent(vectors) -> None:
    """Prove integer vectors linearly independent over Q; raise
    InternalVerificationFailed if they are dependent.

    Full rank mod p proves it: some maximal minor is then nonzero mod p,
    hence nonzero. Primes 3, 5, 7, ... are tried in turn, until one gives
    full rank or _proved_rank proves a smaller rank. Small primes, since
    one almost always gives full rank here: primes near 2^31 cost a
    Miller-Rabin test each and a slower elimination.
    """
    rank = _proved_rank(vectors, len(vectors), _primes(3, 2))
    if rank < len(vectors):
        raise InternalVerificationFailed(
            f"the {len(vectors)} vectors are dependent: their rank is {rank}"
        )


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
    independent over Q by its ranks mod p (_prove_independent).
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


def checked_cycle_sum(ckv: CycleKernelVector, tau: Permutation, m: int) -> int:
    """Coordinate sum of one cycle kernel vector of a diagram with m rows.

    Computed two independent ways and cross-checked: directly by summing the
    vector, and by the side-transition formula, which adds the cycle value
    at tau(j) whenever the cycle steps from a column label j to a row label
    tau(j), subtracts the value at tau(k) whenever it steps from a row label
    k to a column label tau(k), and ignores steps that stay on one side.
    FormulaMismatch if the two disagree. A cycle living entirely on rows or
    entirely on columns therefore sums to zero.
    """
    values = {label: (1 if k % 2 == 0 else -1) for k, label in enumerate(ckv.cycle)}
    direct = sum(ckv.vector)
    formula = 0
    for label in ckv.cycle:
        image = tau(label)
        if label > m and image <= m:
            formula += values[image]
        elif label <= m and image > m:
            formula -= values[image]
    if direct != formula:
        raise FormulaMismatch(
            f"cycle sum mismatch for {ckv.cycle}: direct {direct}, formula {formula}"
        )
    return direct

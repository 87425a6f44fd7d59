"""Independent reference implementations used only by the tests.

Nothing here imports from the package's linear algebra: the Smith form
below pivots top-left with plain Euclidean reduction (the production code
reduces skew matrices by paired congruence instead), the nullity oracle is
a Bareiss rank (production reads the kernel dimension from the normal
form), the sum-zero test of the kernel compares two such nullities
(production reads it from the kernel vectors of the even toric cycles), the
determinant is an independent check on the unimodularity the normal form
certifies by E E^{-1} = I, the kernel bases build every kernel vector
(kernel_basis_rational back-substitutes with Fractions after a Bareiss
elimination, kernel_basis_mod_p runs Gauss-Jordan over F_p; production
only finds ranks mod p, with the all-ones row carried along), the
congruence certificate is checked by dense products (production checks
sparse ones), the transforms of extend(M) are composed by dense products
(production returns the bordered matrix's own form, whose invariants the
chain of two certificates proves to be those of extend(M)), the
transforms are replayed from the congruence log over whole dense rows
(production replays sparse rows, touching only their nonzeros, and mod N
packed rows), the shear of the reduction rewrites whole live rows and
columns (production visits only the nonzeros of its source row), a round
of the reduction over Z applies its shears one at a time with that shear
(production applies them as one congruence on the rows that touch the
pivot rows), the reduction mod N applies its shears one at a time to
dense lists (production applies each round's shears as one congruence on
packed rows), the PI degree oracles count group
orders directly, and irreducibility is decided by Burnside's criterion,
growing the F_p span of the words in the generator images, or by counting
the commutant of the images orbit by orbit of index pairs (production
takes the rank of the exponent matrix instead), the relations are checked
by multiplying full images (production checks one leg per block and an
integer pairing), the generator images are built from full-dimension
lifted copies of every clock and shift (production tensors one leg per
block), and the restricted permutation is traced by its own strand walker.
The toric permutation and the exit labels of the white squares are traced
strand by strand (production reads them all off one sweep of the cells),
the Cauchon-Le test rescans the column above and the row to the left of
each black cell (production keeps running flags), and the commutation
matrix is filled over every ordered pair of white squares by four cases
(production visits each unordered pair once). The constant boards, the
cycle constructor of permutations, their composition and the two reversal
involutions of the labelling bridge are test helpers only. The
Grassmannian's PI degree is the paper's explicit formula in the 2-adic
valuations and gcd of the rectangle's sides (production answers the
Grassmannian as the Schubert cell of its rectangle, from the cycles of tau).
The command line parser is built whole, all seven subcommands with all
their arguments (production adds only the named subcommand's arguments).
Agreement between these and the package is a genuine cross-check, not the
same algorithm twice.
"""

from __future__ import annotations

import argparse
from fractions import Fraction
from math import gcd, isqrt, lcm, prod
from types import SimpleNamespace

from pideg.errors import InternalVerificationFailed


def textbook_smith(mat: list[list[int]]) -> list[int]:
    """Smith invariant factors (nonzero ones) by the classical algorithm.

    Move a least-magnitude entry to position (k, k), reduce its row and
    column by one Euclidean pass, and re-select the pivot whenever a
    remainder survives (remainders are strictly smaller, so the pivot
    shrinks and entries stay tame). Divisibility is repaired by folding
    an offending row into the pivot row. Works for any integer matrix,
    square or not.
    """
    a = [list(map(int, row)) for row in mat]
    rows = len(a)
    cols = len(a[0]) if a else 0
    if any(len(row) != cols for row in a):
        raise ValueError("ragged matrix")

    def pivot_to(k: int) -> bool:
        best = None
        pr = pc = -1
        for i in range(k, rows):
            for j in range(k, cols):
                if a[i][j] and (best is None or abs(a[i][j]) < best):
                    best = abs(a[i][j])
                    pr, pc = i, j
        if best is None:
            return False
        a[k], a[pr] = a[pr], a[k]
        for row in a:
            row[k], row[pc] = row[pc], row[k]
        return True

    factors = []
    k = 0
    while k < min(rows, cols):
        if not pivot_to(k):
            break
        while True:
            p = a[k][k]
            dirty = False
            for i in range(k + 1, rows):
                q = a[i][k] // p
                if q:
                    a[i] = [x - q * y for x, y in zip(a[i], a[k])]
                if a[i][k]:
                    dirty = True
            for j in range(k + 1, cols):
                q = a[k][j] // p
                if q:
                    for i in range(k, rows):
                        a[i][j] -= q * a[i][k]
                if a[k][j]:
                    dirty = True
            if dirty:
                pivot_to(k)
                continue
            culprit = next(
                (
                    i
                    for i in range(k + 1, rows)
                    if any(x % p for x in a[i][k + 1 :])
                ),
                None,
            )
            if culprit is None:
                break
            for jj in range(k, cols):
                a[k][jj] += a[culprit][jj]
        factors.append(abs(a[k][k]))
        k += 1
    return factors


def determinant(mat) -> int:
    """Exact determinant of a square integer matrix by fraction-free (Bareiss) elimination."""
    a = [list(map(int, row)) for row in mat]
    n = len(a)
    if n == 0:
        return 1
    if any(len(row) != n for row in a):
        raise ValueError("determinant of a non-square matrix")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                q, r = divmod(a[i][j] * a[k][k] - a[i][k] * a[k][j], prev)
                if r:
                    raise InternalVerificationFailed("Bareiss exact division failed")
                a[i][j] = q
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def span_order(rows: list[list[int]], ell: int) -> int:
    """Order of the subgroup of (Z/ell)^n generated by the columns."""
    n = len(rows)
    cols = [tuple(rows[i][j] % ell for i in range(n)) for j in range(n)]
    span = {tuple([0] * n)}
    for g in cols:
        if g in span:
            continue
        span = {
            tuple((s[i] + k * g[i]) % ell for i in range(n))
            for s in span
            for k in range(ell)
        }
    return len(span)


def brute_pi_degree(rows: list[list[int]], ell: int) -> int:
    """PI degree by direct counting: the square root of the order of the
    column span of the commutation matrix over Z/ell. Only for small
    matrices; the span is materialized element by element."""
    order = span_order(rows, ell)
    root = isqrt(order)
    if root * root != order:
        raise AssertionError(f"span order {order} is not a square")
    return root


def smith_pi_degree(rows: list[list[int]], ell: int) -> int:
    """PI degree through the classical Smith form: the span order is the
    product of ell/gcd(h, ell) over all Smith factors h, and the PI degree
    is its square root."""
    order = prod(ell // gcd(x, ell) for x in textbook_smith(rows))
    root = isqrt(order)
    if root * root != order:
        raise AssertionError(f"factor product {order} is not a square")
    return root


def rational_nullity(rows: list[list[int]]) -> int:
    """Nullity over the rationals: columns minus the rank, found by
    fraction-free (Bareiss) elimination with exact integer division.

    A column with no pivot below the current row is skipped, which keeps
    every entry a minor of the original matrix, so each division is exact.
    """
    a = [list(map(int, row)) for row in rows]
    m = len(a)
    n = len(a[0]) if a else 0
    rank = 0
    prev = 1
    for col in range(n):
        pivot = next((i for i in range(rank, m) if a[i][col]), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        top = a[rank]
        p = top[col]
        for i in range(rank + 1, m):
            row = a[i]
            f = row[col]
            if f:
                a[i] = [(x * p - f * y) // prev for x, y in zip(row, top)]
            elif p != prev:
                a[i] = [x * p // prev for x in row]
        prev = p
        rank += 1
        if rank == m:
            break
    return n - rank


def dense_form(snf) -> SimpleNamespace:
    """A normal form with its transforms written out as dense matrices,
    tuples of rows of ints: `transform` is E and `inverse_transform` is
    F = E^{-1}, both replayed from the form's log by dense_transforms. The
    package itself builds neither."""
    n = 2 * len(snf.invariant_factors) + snf.kernel_dim
    E, F = dense_transforms(snf.log, n)
    return SimpleNamespace(
        invariant_factors=snf.invariant_factors,
        kernel_dim=snf.kernel_dim,
        transform=tuple(map(tuple, E)),
        inverse_transform=tuple(map(tuple, F)),
    )


def congruence_certificate_holds(A, form) -> bool:
    """Whether the transforms of the dense form `form` (see dense_form)
    satisfy E F = I and A E^T = F S for the square integer matrix A, by
    plain dense products; S is the block diagonal that the invariant
    factors of `form` determine."""
    E, F = form.transform, form.inverse_transform
    rows = [list(row) for row in A]
    n = len(rows)
    S = [[0] * n for _ in range(n)]
    for k, h in enumerate(form.invariant_factors):
        S[2 * k][2 * k + 1], S[2 * k + 1][2 * k] = h, -h
    F_cols = list(zip(*F))
    S_cols = list(zip(*S))
    identity = all(
        sum(x * y for x, y in zip(E[i], F_cols[j])) == (i == j)
        for i in range(n)
        for j in range(n)
    )
    return identity and all(
        sum(x * y for x, y in zip(rows[i], E[j])) == sum(x * y for x, y in zip(F[i], S_cols[j]))
        for i in range(n)
        for j in range(n)
    )


def extended_transforms(snf, ext) -> SimpleNamespace:
    """The dense form of `ext`, which extended_normal_form(snf) returned,
    with the transforms of extend(M) in place of those of the bordered
    matrix B: E_ext = G diag(E, 1) and F_ext = diag(F, 1) H, by dense
    products, for E, F the transforms of M's form `snf` and G, H those of
    B's form `ext`."""
    snf, ext = dense_form(snf), dense_form(ext)
    n = len(snf.transform)

    def bordered_by_one(X):
        return [list(row) + [0] for row in X] + [[0] * n + [1]]

    def product(X, Y):
        cols = list(zip(*Y))
        return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in X)

    return SimpleNamespace(
        invariant_factors=ext.invariant_factors,
        kernel_dim=ext.kernel_dim,
        transform=product(ext.transform, bordered_by_one(snf.transform)),
        inverse_transform=product(bordered_by_one(snf.inverse_transform), ext.inverse_transform),
    )


def dense_transforms(log: list[int], n: int, N: int = 0) -> tuple[list[list[int]], list[list[int]]]:
    """E and F = E^{-1} as dense n x n lists, replayed from a congruence log.

    The log holds the steps G_1, ..., G_m of a skew reduction as flat
    triples i, j, q: q == 0 swaps indices i and j, any other q is the
    shear index_i += q * index_j. E = G_m ... G_1 and F = G_1^{-1} ...
    G_m^{-1} are replayed from the last step back over whole dense rows:
    E^T as X^T -> G^T X^T and F as Y -> G^{-1} Y. With a modulus N, every
    entry is taken mod N after each step, into [0, N).
    """
    Et = [[int(i == j) for j in range(n)] for i in range(n)]
    F = [row[:] for row in Et]
    for k in range(len(log) - 3, -1, -3):
        i, j, q = log[k:k + 3]
        if q == 0:
            Et[i], Et[j] = Et[j], Et[i]
            F[i], F[j] = F[j], F[i]
        else:
            Et[j] = [x + q * y for x, y in zip(Et[j], Et[i])]
            F[i] = [x - q * y for x, y in zip(F[i], F[j])]
            if N:
                Et[j] = [x % N for x in Et[j]]
                F[i] = [x % N for x in F[i]]
    return [list(col) for col in zip(*Et)], F


def residue_reduce(rows, N: int) -> tuple[list[list[int]], list[int]]:
    """The reduced matrix and the log of residues._residue_reduce, one
    dense shear at a time.

    The same pivot rule (the first unit mod N in row-major order, else the
    least gcd with N, then the least absolute value), quotients, remainder
    swaps and divisibility repairs, but every logged step is applied as it
    is logged, to whole dense rows and columns of residues in [0, N), and a
    swap moves rows and columns. Production applies a round's shears as one
    congruence on packed rows, and a swap only relabels. The reduced matrix
    comes back as production returns it: residues in (-N/2, N/2] above the
    diagonal, their negatives below.
    """
    n = len(rows)
    A = [[x % N for x in row] for row in rows]
    log: list[int] = []

    def signed(x):
        return x - N if 2 * x > N else x

    def swap(i, j):
        if i != j:
            A[i], A[j] = A[j], A[i]
            for row in A:
                row[i], row[j] = row[j], row[i]
            log.extend((i, j, 0))

    def shear(dst, src, q):  # index dst += q * index src
        if q:
            A[dst] = [(x + q * y) % N for x, y in zip(A[dst], A[src])]
            for row in A:
                row[dst] = (row[dst] + q * row[src]) % N
            log.extend((dst, src, q))

    p, last = 0, 1
    while True:
        candidates = [((gcd(A[i][j], N), min(A[i][j], N - A[i][j])), i, j)
                      for i in range(p, n) for j in range(i + 1, n) if A[i][j]]
        if not candidates:
            break
        units = [c for c in candidates if c[0][0] == 1]
        _, i, j = units[0] if units else min(candidates)
        swap(i, p)
        swap(j, p + 1)
        repaired = False
        while True:
            a = signed(A[p][p + 1])
            if a == 0:
                raise InternalVerificationFailed("lost the pivot")
            g = gcd(a, N)
            unit = pow(a // g, -1, N // g)
            for k in range(p + 2, n):
                b = A[p][k]
                shear(k, p + 1, -(signed(b) // a) if b % g else -(b // g * unit % (N // g)))
                b = A[p + 1][k]
                shear(k, p, -(signed(b) // -a) if b % g else b // g * unit % (N // g))
            rem = next(((r, k) for k in range(p + 2, n) for r in (p, p + 1) if A[r][k]), None)
            if rem is not None:
                r, k = rem
                if not 0 < abs(signed(A[r][k])) < abs(a):
                    raise InternalVerificationFailed("the pivot did not shrink")
                swap(k, p + 1 if r == p else p)
                repaired = False
                continue
            if repaired:
                raise InternalVerificationFailed("a divisibility repair left no remainder")
            viol = None
            if g != last:
                viol = next((k for k in range(p + 2, n)
                             if any(A[k][j] % g for j in range(k + 1, n))), None)
            if viol is None:
                break
            shear(p, viol, 1)
            repaired = True
        if a < 0:
            swap(p, p + 1)
        last = g
        p += 2
    S = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            S[i][j] = signed(A[i][j])
            S[j][i] = -S[i][j]
    return S, log


def dense_pair_add(A: list[list[int]], log: list[int], dst: int, src: int, q: int, live: int) -> None:
    """The congruence shear row_dst += q * row_src, col_dst += q * col_src
    of a skew reduction, over whole dense rows: it rewrites the live slice
    of row dst and then every live entry of column dst as minus it, with the
    signature and logging of the shear it stands in for. Indices before
    `live` belong to finished blocks and do not change.
    """
    if q == 0:
        return
    row = A[dst]
    row[live:] = [x + q * y for x, y in zip(row[live:], A[src][live:])]
    row[dst] = 0
    for r in range(live, len(A)):
        A[r][dst] = -row[r]
    log += (dst, src, q)


def dense_round(A: list[list[int]], p: int) -> tuple[list[list[int]], list[int]]:
    """The Euclidean round of a skew reduction at the pivot a = A[p][p+1],
    one shear at a time: for each live index k in turn, dense_pair_add
    shears k by -(A[p][k] // a) times index p+1 and then by
    -(A[p+1][k] // -a) times index p, each quotient read just before its
    shear. Returns a copy of A after the round and the round's log; A is
    not changed.
    """
    A = [row[:] for row in A]
    log: list[int] = []
    a = A[p][p + 1]
    for k in range(p + 2, len(A)):
        dense_pair_add(A, log, k, p + 1, -(A[p][k] // a), p)
        dense_pair_add(A, log, k, p, -(A[p + 1][k] // -a), p)
    return A, log


def one_perp(rows) -> bool:
    """Whether every rational kernel vector of a square matrix sums to zero.

    The kernel of the matrix with a row of ones appended is the sum-zero
    part of the kernel, so the two nullities agree exactly when the whole
    kernel sums to zero. True for a zero kernel.
    """
    rows = [list(row) for row in rows]
    return rational_nullity(rows + [[1] * len(rows)]) == rational_nullity(rows)


def _int_rows(mat) -> list[list[int]]:
    """The rows of a SkewIntMatrix or a list of rows, as lists of ints."""
    return [list(map(int, row)) for row in getattr(mat, "rows", mat)]


def kernel_basis_rational(mat) -> tuple[tuple[int, ...], ...]:
    """Primitive integer basis of the rational column kernel.

    Fraction-free (Bareiss) forward elimination to an integer echelon form,
    one back-substituted vector per free column, each scaled to coprime
    integer entries with the first nonzero entry positive, and checked to
    satisfy M v = 0.
    """
    rows = _int_rows(mat)
    A = [row[:] for row in rows]
    R = len(A)
    C = len(A[0]) if A else 0
    pivots: list[tuple[int, int]] = []
    r = 0
    prev = 1
    for c in range(C):
        if r == R:
            break
        pr = next((i for i in range(r, R) if A[i][c]), None)
        if pr is None:
            continue
        A[r], A[pr] = A[pr], A[r]
        for i in range(r + 1, R):
            for j in range(c + 1, C):
                num = A[i][j] * A[r][c] - A[i][c] * A[r][j]
                q, rr = divmod(num, prev)
                if rr:
                    raise InternalVerificationFailed("Bareiss exact division failed")
                A[i][j] = q
            A[i][c] = 0
        prev = A[r][c]
        pivots.append((r, c))
        r += 1
    pivot_cols = [c for _, c in pivots]
    basis = []
    for f in (c for c in range(C) if c not in pivot_cols):
        x: list[Fraction] = [Fraction(0)] * C
        x[f] = Fraction(1)
        for pr, pc in reversed(pivots):
            if pc > f:
                continue
            acc = sum((A[pr][j] * x[j] for j in range(pc + 1, C)), Fraction(0))
            x[pc] = -acc / A[pr][pc]
        scale = lcm(*(v.denominator for v in x))
        ints = [int(v * scale) for v in x]
        g = gcd(*ints)
        ints = [v // g for v in ints]
        if next(v for v in ints if v) < 0:
            ints = [-v for v in ints]
        if any(sum(a * v for a, v in zip(row, ints)) for row in rows):
            raise InternalVerificationFailed("kernel vector fails M v = 0")
        basis.append(tuple(ints))
    return tuple(basis)


def kernel_basis_mod_p(mat, p: int) -> tuple[tuple[int, ...], ...]:
    """Standard basis of the mod-p kernel for a prime p, entries in [0, p).

    One Gauss-Jordan elimination over the field with p elements, then one
    vector per free column, so the basis size is the mod-p nullity.
    """
    A = [[x % p for x in row] for row in _int_rows(mat)]
    R = len(A)
    C = len(A[0]) if A else 0
    pivot_cols: list[int] = []
    for c in range(C):
        r = len(pivot_cols)
        if r == R:
            break
        pr = next((i for i in range(r, R) if A[i][c]), None)
        if pr is None:
            continue
        A[r], A[pr] = A[pr], A[r]
        inv = pow(A[r][c], p - 2, p)
        A[r] = [x * inv % p for x in A[r]]
        for i in range(R):
            if i != r and A[i][c]:
                f = A[i][c]
                A[i] = [(x - f * y) % p for x, y in zip(A[i], A[r])]
        pivot_cols.append(c)
    basis = []
    for f in range(C):
        if f in pivot_cols:
            continue
        x = [0] * C
        x[f] = 1
        for r, pc in enumerate(pivot_cols):
            x[pc] = -A[r][f] % p
        basis.append(tuple(x))
    return tuple(basis)


def is_power_of_two(x: int) -> bool:
    return x >= 1 and x & (x - 1) == 0


def element_of_order(ell: int, p: int) -> int:
    """Some zeta in F_p of multiplicative order exactly ell; needs ell | p - 1."""
    if (p - 1) % ell:
        raise ValueError(f"ell = {ell} does not divide p - 1 = {p - 1}")
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
        if all(pow(z, ell // f, p) != 1 for f in prime_divs):
            return z
    raise ValueError(f"no element of order {ell} in F_{p}")


def dense_mod_p(g, p: int, zeta: int) -> list[list[int]]:
    """The monomial matrix g over F_p, with q evaluated at zeta."""
    out = [[0] * g.dim for _ in range(g.dim)]
    for j in range(g.dim):
        out[g.rows[j]][j] = pow(zeta, g.exps[j], p)
    return out


def span_irreducible(rep, p: int) -> bool:
    """Whether the words in the generator images of `rep` span all d x d
    matrices over F_p, with q an element of order ell (Burnside).

    Grows the span breadth first from the identity, multiplying on the
    right by each image only the words that enlarged it. A word is kept as
    (rows, exps) like a monomial matrix and multiplied here, not by the
    package. A word that is a scalar multiple of an earlier one lies in its
    span, and so do all its multiples, so it is skipped before any
    elimination. The span is kept as sparse rows in echelon form, each
    keyed by its least position.
    """
    d, ell = rep.dim, rep.ell
    zeta = element_of_order(ell, p)
    power = [pow(zeta, e, p) for e in range(ell)]
    gens = [(g.rows, g.exps) for g in rep.generator_images]
    pivots: dict[int, dict[int, int]] = {}
    seen = set()

    def enlarges(rows, exps) -> bool:
        key = (rows, tuple([(e - exps[0]) % ell for e in exps]))
        if key in seen:
            return False
        seen.add(key)
        v = {rows[j] * d + j: power[exps[j]] for j in range(d)}
        while v:
            lead = min(v)
            row = pivots.get(lead)
            if row is None:
                inv = pow(v[lead], p - 2, p)
                pivots[lead] = {k: x * inv % p for k, x in v.items()}
                return True
            f = v[lead]
            for k, x in row.items():
                y = (v.get(k, 0) - f * x) % p
                if y:
                    v[k] = y
                else:
                    del v[k]
        return False

    identity = (tuple(range(d)), (0,) * d)
    enlarges(*identity)
    frontier = [identity]
    while frontier and len(pivots) < d * d:
        products = (
            (
                tuple([rows[r] for r in g_rows]),
                tuple([(e + exps[r]) % ell for r, e in zip(g_rows, g_exps)]),
            )
            for rows, exps in frontier
            for g_rows, g_exps in gens
        )
        frontier = [word for word in products if enlarges(*word)]
    return len(pivots) == d * d


def lifted_generator_images(M, ell: int) -> tuple:
    """The generator images of the representation of M at ell, built from
    lifted blocks.

    Block k's clock and shift, of size e_k = ell / gcd(h_k, ell), is lifted
    to the full dimension prod e_j by Kronecker products with the e_j x e_j
    identities of the other blocks (j < k on its left, j > k on its right),
    every kernel direction gets the identity, and generator i is the product
    over all 2s + t lifted blocks a of block a to the power E^{-1}[i][a] mod
    ell. Only the normal form and the monomial arithmetic come from the
    package.
    """
    from pideg.intlinalg import skew_normal_form
    from pideg.reps import MonomialMatrix, clock_shift, kron

    snf = skew_normal_form(M)
    h = snf.invariant_factors
    s, t = len(h), snf.kernel_dim
    sizes = [ell // gcd(hk, ell) for hk in h]
    identity = MonomialMatrix.identity(prod(sizes), ell)
    blocks = []
    for k in range(s):
        for g in clock_shift(ell, h[k] % ell):
            for j in reversed(range(k)):
                g = kron(MonomialMatrix.identity(sizes[j], ell), g)
            for j in range(k + 1, s):
                g = kron(g, MonomialMatrix.identity(sizes[j], ell))
            blocks.append(g)
    blocks.extend(identity for _ in range(t))
    images = []
    for row in dense_form(snf).inverse_transform:
        g = identity
        for block, e in zip(blocks, row):
            if e % ell:
                g = g @ block ** (e % ell)
        images.append(g)
    return tuple(images)


def image_relation_violation(rep, M) -> tuple[int, int] | None:
    """First pair (i, j) whose full images fail T_i T_j = q**M[i,j] T_j T_i."""
    images = rep.generator_images
    for i in range(M.n):
        for j in range(i + 1, M.n):
            ti, tj = images[i], images[j]
            if (ti @ tj).scalar_power_vs(tj @ ti) != M[i, j] % rep.ell:
                return (i, j)
    return None


def orbit_irreducible(rep) -> bool:
    """Whether only the scalars commute with the generator images of `rep`.

    A matrix A commutes with a monomial generator sending e_j to
    q**a[j] e_sigma(j) exactly when A[sigma i, sigma j] = q**(a[i] - a[j])
    A[i, j]. So A is fixed by its entry at one index pair per orbit of the
    pairs (i, j) under the generators, and that entry can be nonzero only
    if the factors met around every loop of the orbit multiply to 1. The
    walk labels each pair with its exponent relative to the first pair of
    its orbit; the commutant's dimension is the number of orbits whose
    every edge agrees with the labels. With q of order exactly ell, the
    group the images generate is abelian modulo scalars and of order prime
    to the field's characteristic, so a commutant of the scalars alone
    means irreducible (Maschke and Schur).
    """
    d, ell = rep.dim, rep.ell
    gens = [(g.rows, g.exps) for g in rep.generator_images]
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


def all_black(m: int, n: int):
    """The m x n board with every square black."""
    from pideg import Diagram

    return Diagram(tuple((False,) * n for _ in range(m)))


def inverse_permutation(p):
    """The inverse of a pideg Permutation."""
    from pideg import Permutation

    image = [0] * p.k
    for i, v in enumerate(p.image, start=1):
        image[v - 1] = i
    return Permutation(tuple(image))


def restricted_permutation(d):
    """The permutation w of {1, ..., m+n} induced by the restricted labelling.

    Entries: 1..m down the right side (top to bottom), then m+1..m+n along
    the bottom from RIGHT to left. Exits: 1..n along the top from RIGHT to
    left, then n+1..n+m down the left side (top to bottom). A strand moves
    west or north and turns at every white square.
    """
    from pideg import Permutation

    m, n = d.shape
    image = []
    for i in range(1, m + n + 1):
        # (row, col) of the square the strand enters next, 1-based.
        r, c, north = (i, n, False) if i <= m else (m, m + n + 1 - i, True)
        while 1 <= r and 1 <= c:
            if d.cells[r - 1][c - 1]:
                north = not north
            if north:
                r -= 1
            else:
                c -= 1
        image.append(n + 1 - c if r == 0 else n + r)
    return Permutation(tuple(image))


def all_white(m: int, n: int):
    """The m x n board with every square white."""
    from pideg import Diagram

    _check_dims(m, n)
    return Diagram(tuple((True,) * n for _ in range(m)))


def _check_dims(m: int, n: int) -> None:
    from pideg import BadRange

    if m < 0 or n < 0:
        raise BadRange(f"diagram dimensions must be nonnegative, got {m}x{n}")
    if (m == 0) != (n == 0):
        raise BadRange("only the 0x0 diagram may have a zero dimension")


def permutation_from_cycles(k: int, cycles):
    """The pideg Permutation of {1, ..., k} with the given disjoint cycles."""
    from pideg import BadRange, Permutation

    image = list(range(1, k + 1))
    seen: set[int] = set()
    for cycle in cycles:
        for a in cycle:
            if not (1 <= a <= k) or a in seen:
                raise BadRange(f"bad cycle entry {a} in {cycles}")
            seen.add(a)
        for i, a in enumerate(cycle):
            image[a - 1] = cycle[(i + 1) % len(cycle)]
    return Permutation(tuple(image))


def compose(p, q):
    """The composite p q of two pideg Permutations, right to left: i -> p(q(i))."""
    from pideg import Permutation

    assert p.k == q.k, (p.k, q.k)
    return Permutation(tuple(p(j) for j in q.image))


def reverse_word(m: int, n: int):
    """The order-reversing involution i -> m+n+1-i."""
    from pideg import Permutation

    return Permutation(tuple(range(m + n, 0, -1)))


def partial_reverse(m: int, n: int):
    """The involution reversing 1..m and m+1..m+n separately."""
    from pideg import Permutation

    return Permutation(tuple(range(m, 0, -1)) + tuple(range(m + n, m, -1)))


def _trace(d, row: int, col: int, north: bool) -> int:
    """Follow one strand from just before cell (row, col) to its toric exit label.

    The strand is about to pass through (row, col), heading north or west;
    it turns at every white cell.
    """
    m = d.m
    while True:
        if d.cells[row - 1][col - 1]:
            north = not north
        if north:
            row -= 1
            if row == 0:
                return m + col
        else:
            col -= 1
            if col == 0:
                return m + 1 - row


def traced_toric_permutation(d):
    """toric_permutation by walking each of the m + n strands on its own."""
    from pideg import Permutation

    m, n = d.shape
    return Permutation(tuple(
        _trace(d, m + 1 - i, n, False) if i <= m else _trace(d, m, i - m, True)
        for i in range(1, m + n + 1)
    ))


def traced_white_exit_labels(d):
    """white_exit_labels by walking two strands from every white square."""
    m = d.m
    left = tuple(
        m + 1 - r if c == 1 else _trace(d, r, c - 1, False) for r, c in d.white_squares
    )
    up = tuple(m + c if r == 1 else _trace(d, r - 1, c, True) for r, c in d.white_squares)
    return left, up


def rescanning_is_cauchon_le(d) -> bool:
    """is_cauchon_le by rescanning the column above and the row to the left
    of every black cell."""
    for r in range(1, d.m + 1):
        for c in range(1, d.n + 1):
            if d.cells[r - 1][c - 1]:
                continue
            col_above_black = all(not d.cells[i - 1][c - 1] for i in range(1, r))
            row_left_black = all(not d.cells[r - 1][j - 1] for j in range(1, c))
            if not (col_above_black or row_left_black):
                return False
    return True


def four_way_matrix_rows(d) -> tuple[tuple[int, ...], ...]:
    """The rows of matrix_from_diagram(d), every ordered pair of white squares
    placed by the four cases: below or right (+1), above or left (-1)."""
    squares = d.white_squares
    rows = []
    for ri, ci in squares:
        row = []
        for rj, cj in squares:
            if (ci == cj and rj > ri) or (ri == rj and cj > ci):
                row.append(1)
            elif (ci == cj and rj < ri) or (ri == rj and cj < ci):
                row.append(-1)
            else:
                row.append(0)
        rows.append(tuple(row))
    return tuple(rows)


def mu2(x: int) -> int:
    """The 2-adic valuation of a positive integer."""
    from pideg import BadRange

    if x <= 0:
        raise BadRange(f"mu2 needs a positive integer, got {x}")
    v = 0
    while x % 2 == 0:
        x //= 2
        v += 1
    return v


def rectangle_kernel_dim(a: int, b: int) -> int:
    """Kernel dimension of the commutation matrix of the all-white a x b board.

    The toric permutation of the full board is the rotation
    x -> x + b (mod a + b), which splits into gcd(a, b) cycles of length
    (a + b) / gcd(a, b); the cycles have even length exactly when a and b
    have the same 2-adic valuation. Hence the kernel dimension is gcd(a, b)
    when mu2(a) = mu2(b) and 0 otherwise.
    """
    from pideg import BadRange

    if a < 1 or b < 1:
        raise BadRange(f"need positive sides, got {a} x {b}")
    return gcd(a, b) if mu2(a) == mu2(b) else 0


def grassmannian_exponent(m: int, n: int) -> int:
    """The exponent of the PI degree of the quantum Grassmannian of m-planes
    in n-space at odd ell, by the paper's explicit formula.

    With r = rectangle_kernel_dim(m, n - m): m(n-m)/2 when r = 0, and
    (m(n-m) - r)/2 + 1 otherwise, some kernel vector then having nonzero sum.
    """
    r = rectangle_kernel_dim(m, n - m)
    n_boxes = m * (n - m)
    if (n_boxes - r) % 2:
        raise InternalVerificationFailed(f"parity broken: N = {n_boxes}, r = {r} for ({m}, {n})")
    return (n_boxes - r) // 2 + (1 if r else 0)


def full_parser() -> argparse.ArgumentParser:
    """The command line parser built whole, every subcommand with all its
    arguments, as one function of inline blocks. The command line's
    modules are imported here, on first use, not with the oracles."""
    from pideg.cli import (
        cmd_detring, cmd_diagram, cmd_grassmannian, cmd_partition, cmd_rep, cmd_schubert, cmd_sweep,
    )
    from pideg.sweep import DIAGRAM_PROPERTIES, MATRIX_PROPERTIES

    parser = argparse.ArgumentParser(
        prog="pideg",
        description="PI degrees of quantum algebras at roots of unity, "
        "via diagram combinatorics and exact integer linear algebra.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("diagram", help="analyze a diagram file")
    p.add_argument("file", help="path to a text diagram ('.' white, '#' black)")
    p.add_argument("--ell", action="append", type=int, help="root of unity order (>= 2), repeatable")
    p.add_argument("--extended", action="store_true", help="also analyze the bordered matrix")
    p.add_argument("--cycles", action="store_true", help="list even toric cycles and their sums")
    p.add_argument("--kernel", action="store_true", help="list the combinatorial kernel vectors")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_diagram)

    p = sub.add_parser("partition", help="closed-form PI degree of a Young shape")
    p.add_argument("parts", help="comma separated parts, e.g. 5,3,2 (use - for empty)")
    p.add_argument("--box", help="bounding box like 3x5 (default: tight box)")
    p.add_argument("--ell", action="append", type=int, help="ell >= 2, repeatable")
    p.add_argument("--verify", action="store_true", help="cross-check against the generic route")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("detring", help="determinantal board closed forms")
    p.add_argument("n", type=int)
    p.add_argument("t", type=int)
    p.add_argument("--ell", action="append", type=int, help="ell >= 2, repeatable")
    p.add_argument("--verify", action="store_true", help="cross-check cycles and degrees")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_detring)

    p = sub.add_parser("schubert", help="extended Schubert cell closed form")
    p.add_argument("gamma", help="comma separated index set, e.g. 1,3,4,7")
    p.add_argument("n", type=int, help="ambient dimension")
    p.add_argument("--ell", action="append", type=int, help="ell >= 2, repeatable")
    p.add_argument("--verify", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_schubert)

    p = sub.add_parser("grassmannian", help="quantum Grassmannian closed form")
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    p.add_argument("--ell", action="append", type=int, help="ell >= 2, repeatable")
    p.add_argument("--verify", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_grassmannian)

    p = sub.add_parser("rep", help="monomial representation of a quantum affine space")
    p.add_argument("--diagram", help="diagram file")
    p.add_argument("--matrix", help="JSON file with an integer skew matrix")
    p.add_argument("--detring", help="determinantal board as n,t")
    p.add_argument("--partition", help="Young shape parts, e.g. 5,3,2")
    p.add_argument("--box", help="bounding box for --partition")
    p.add_argument("--ell", type=int, required=True, help="ell >= 2")
    p.add_argument("--verify", action="store_true", help="verify all commutation relations")
    p.add_argument(
        "--irreducible",
        action="store_true",
        help="certify irreducibility over every F_p with ell | p - 1",
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_rep)

    p = sub.add_parser("sweep", help="property sweep over a corpus")
    p.add_argument(
        "corpus",
        help="'exhaustive MxN', 'random MxN xK', or 'mutation NxN xK'",
    )
    p.add_argument(
        "--properties",
        help="comma separated property names (default depends on corpus kind); "
        "diagram properties: " + ", ".join(sorted(DIAGRAM_PROPERTIES)) + "; "
        "matrix properties: " + ", ".join(sorted(MATRIX_PROPERTIES)),
    )
    p.add_argument("--seed", type=int, default=20_240_601)
    p.add_argument("--out", default="sweep-failures", help="directory for counterexample dumps")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_sweep)

    return parser

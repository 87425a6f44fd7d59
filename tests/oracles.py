"""Independent reference implementations used only by the tests.

Nothing here imports from the package's linear algebra: the Smith form
below pivots top-left with plain Euclidean reduction (the production code
reduces skew matrices by paired congruence instead), the nullity oracle is
a Bareiss rank (production reads the kernel dimension from the normal
form), the sum-zero test of the kernel compares two such nullities
(production reads it from the kernel vectors of the even toric cycles), the
determinant is an independent check on the unimodularity the normal form
certifies by E E^{-1} = I, the congruence certificate is checked by dense
products (production checks sparse ones, or for the bordered matrix chains
two certificates), the PI degree oracles count group orders directly, and
irreducibility is decided by Burnside's criterion, growing the F_p span of
the words in the generator images, or by counting the commutant of the
images orbit by orbit of index pairs (production takes the rank of the
exponent matrix instead), the relations are checked by multiplying full
images (production checks one leg per block and an integer pairing), the
generator images are built from full-dimension lifted copies of every clock
and shift (production tensors one leg per block), and the restricted
permutation is traced by its own strand walker. Agreement between these and
the package is a genuine cross-check, not the same algorithm twice.
"""

from __future__ import annotations

from math import gcd, isqrt, prod

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


def congruence_certificate_holds(A, snf) -> bool:
    """Whether the transforms of `snf` satisfy E F = I and A E^T = F S for
    the square integer matrix A, by plain dense products; S is the block
    diagonal that the invariant factors of `snf` determine."""
    E, F = snf.transform, snf.inverse_transform
    rows = [list(row) for row in A]
    n = len(rows)
    S = [[0] * n for _ in range(n)]
    for k, h in enumerate(snf.invariant_factors):
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


def one_perp(rows) -> bool:
    """Whether every rational kernel vector of a square matrix sums to zero.

    The kernel of the matrix with a row of ones appended is the sum-zero
    part of the kernel, so the two nullities agree exactly when the whole
    kernel sums to zero. True for a zero kernel.
    """
    rows = [list(row) for row in rows]
    return rational_nullity(rows + [[1] * len(rows)]) == rational_nullity(rows)


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

    Each block k's clock and shift is lifted to the full dimension ell**s
    by Kronecker products with ell x ell identities (k on its left, s - k - 1
    on its right), every kernel direction gets the identity, and generator
    i is the product over all 2s + t lifted blocks a of block a to the
    power E^{-1}[i][a] mod ell. Only the normal form and the monomial
    arithmetic come from the package.
    """
    from pideg.intlinalg import skew_normal_form
    from pideg.reps import MonomialMatrix, clock_shift, kron

    snf = skew_normal_form(M)
    h = snf.invariant_factors
    s, t = len(h), snf.kernel_dim
    identity = MonomialMatrix.identity(ell**s, ell)
    leg_identity = MonomialMatrix.identity(ell, ell)
    blocks = []
    for k in range(s):
        for g in clock_shift(ell, h[k] % ell):
            for _ in range(k):
                g = kron(leg_identity, g)
            for _ in range(s - k - 1):
                g = kron(g, leg_identity)
            blocks.append(g)
    blocks.extend(identity for _ in range(t))
    images = []
    for row in snf.inverse_transform:
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

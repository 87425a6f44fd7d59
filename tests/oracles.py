"""Independent reference implementations used only by the tests.

Nothing here imports from the package's linear algebra: the Smith form
below pivots top-left with plain Euclidean reduction (the production code
reduces skew matrices by paired congruence instead), the nullity oracle is
Fraction Gauss-Jordan (production uses Bareiss), the sum-zero test of the
kernel compares two such nullities (production reads it from the kernel
vectors of the even toric cycles), the determinant is an
independent check on the unimodularity the normal form certifies by
E E^{-1} = I, and the PI degree oracles count group orders directly.
Agreement between these and the package is a genuine cross-check, not the
same algorithm twice.
"""

from __future__ import annotations

from fractions import Fraction
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


def gauss_jordan_nullity(rows: list[list[int]]) -> int:
    """Nullity over the rationals by plain Fraction elimination."""
    a = [[Fraction(x) for x in row] for row in rows]
    m = len(a)
    n = len(a[0]) if a else 0
    rank = 0
    for col in range(n):
        pivot = next((i for i in range(rank, m) if a[i][col]), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        inv = 1 / a[rank][col]
        a[rank] = [x * inv for x in a[rank]]
        for i in range(m):
            if i != rank and a[i][col]:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[rank])]
        rank += 1
    return n - rank


def one_perp(rows) -> bool:
    """Whether every rational kernel vector of a square matrix sums to zero.

    The kernel of the matrix with a row of ones appended is the sum-zero
    part of the kernel, so the two nullities agree exactly when the whole
    kernel sums to zero. True for a zero kernel.
    """
    rows = [list(row) for row in rows]
    return gauss_jordan_nullity(rows + [[1] * len(rows)]) == gauss_jordan_nullity(rows)


def is_power_of_two(x: int) -> bool:
    return x >= 1 and x & (x - 1) == 0

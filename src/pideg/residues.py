"""The congruence form of a skew matrix mod N, on packed residue rows.

intlinalg._residue_factors reads PI degrees off this form, after its
certificate: _residue_reduce runs the reduction of intlinalg._reduce mod N,
a round at one pivot as one congruence on whole rows, and
_residue_transforms replays its log into the rows of E^T and F = E^{-1}.
Both hold each row as one int of fixed-width slots (_ResidueRows), so a
step is a few multiply-adds of whole rows, and a Barrett step takes every
slot of a row mod N at once. Only bare matrices reach this route, so the
module is imported on first use.
"""

from __future__ import annotations

import sys
from array import array
from itertools import compress
from math import gcd

from .errors import InternalVerificationFailed
from .intlinalg import SkewIntMatrix


class _ResidueRows:
    """n rows of n residues mod N, each held as one int of n fixed-width slots.

    Slot k of a row is bits [k w, (k + 1) w) of its int. A reduced row
    holds residues in [0, N). A row may take up to `budget` = max(n, 4)
    added products of two residues before it is reduced again, so a slot
    stays at most top = N - 1 + budget (N - 1)^2. The width w is the least
    multiple of 64 that holds top * m, the Barrett product below: then no
    sum of products and no step of reduce() carries from one slot into the
    next, and every slot stays an exact integer of its own.

    reduce() takes every slot mod N with big-integer operations only. With
    s = top.bit_length() and m = 2^s // N, the quotient floor(x m / 2^s) of
    a slot x <= top is floor(x / N) or one less (Barrett, CRYPTO 1986), so x
    minus it times N lies in [0, 2N). Adding 2^f - N to every slot, with 2^f
    the least power of two above N, then sets bit f of exactly the slots
    from which N must still be subtracted.

    The rows start as the given lists of residues, or as the identity.
    add() counts the products it adds to a row, and a row is reduced only
    when read() reads it after an add, or when add() would pass its budget.
    """

    def __init__(self, N: int, n: int, rows: list[list[int]] | None = None) -> None:
        self.N, self.n = N, n
        self.budget = max(n, 4)
        top = N - 1 + self.budget * (N - 1) ** 2
        self.shift = top.bit_length()
        self.multiplier = (1 << self.shift) // N
        self.width = w = -(-(top * self.multiplier).bit_length() // 64) * 64
        self.ones = ((1 << w * n) - 1) // ((1 << w) - 1)  # a 1 in every slot
        self.quotients = ((1 << w - self.shift) - 1) * self.ones
        self.flag = N.bit_length()
        self.bias = ((1 << self.flag) - N) * self.ones
        # Below 2^64 a residue fills the first 64-bit word of its slot.
        self.stride = w // 64 if N < 2**64 and sys.byteorder == "little" else 0
        self.rows = [self.pack(row) for row in rows] if rows else [1 << w * k for k in range(n)]
        self.added = [0] * n  # products added to each row since it was last reduced

    def reduce(self, row: int) -> int:
        """The row with every slot taken mod N."""
        N = self.N
        row -= (row * self.multiplier >> self.shift & self.quotients) * N
        return row - ((row + self.bias) >> self.flag & self.ones) * N

    def read(self, r: int) -> int:
        """Row r, reduced."""
        if self.added[r]:
            self.rows[r] = self.reduce(self.rows[r])
            self.added[r] = 0
        return self.rows[r]

    def add(self, r: int, row: int, products: int = 1) -> None:
        """Add to row r a row whose every slot is at most `products` products of two residues."""
        if self.added[r] + products > self.budget:
            self.rows[r] = self.reduce(self.rows[r])
            self.added[r] = 0
        self.rows[r] += row
        self.added[r] += products

    def swap(self, i: int, j: int) -> None:
        self.rows[i], self.rows[j] = self.rows[j], self.rows[i]
        self.added[i], self.added[j] = self.added[j], self.added[i]

    def pack(self, residues: list[int]) -> int:
        """The row of n residues in [0, N)."""
        if self.stride:
            words = array("Q", bytes(8 * self.stride * self.n))
            words[::self.stride] = array("Q", residues)
            return int.from_bytes(words, "little")
        size = self.width // 8
        return int.from_bytes(b"".join(x.to_bytes(size, "little") for x in residues), "little")

    def unpack(self, row: int) -> list[int]:
        """The n slots of a reduced row."""
        data = row.to_bytes(self.width // 8 * self.n, "little")
        if self.stride:
            return memoryview(data).cast("Q")[::self.stride].tolist()
        size = self.width // 8
        return [int.from_bytes(data[k:k + size], "little") for k in range(0, len(data), size)]


def _residue_reduce(M: SkewIntMatrix, N: int) -> tuple[list[list[int]], list[int]]:
    """The reduced matrix and the log of M's congruence reduction mod N.

    The rounds of intlinalg._reduce, mod N, on the packed rows of
    _ResidueRows. The pivot is the first entry, in row-major order, that is
    a unit mod N; failing one, an entry of least gcd with N, then of least
    absolute value.
    At pivot a = A[p][p+1], with g = gcd(a, N), an entry b of row p or p+1
    that g divides is cleared by c = (b / g) (a / g)^-1 mod N / g, since
    c a = b mod N; any other b goes to its remainder by c = b // a.

    The round's shears, u_k times index p+1 and v_k times index p added to
    each live index k, change only their own row and column, so they commute
    and every quotient comes from rows p and p+1 as the round found them.
    The round is one congruence T A T^T: each live row k becomes
    A[k] + alpha_k U + beta_k V + u_k A[p+1] + v_k A[p], with U and V the
    packed rows of the u_k and v_k, alpha_k = A[k][p+1] + a v_k and
    beta_k = A[k][p] - a u_k; rows p and p+1 become A[p] + a U and
    A[p+1] - a V. The shears are logged one by one, in the order of _reduce.
    Swaps only relabel: index k lives in row and slot at[k]. The reduced
    matrix comes back as lists of residues in (-N/2, N/2], its lower
    triangle minus its upper one.
    """
    n = M.n
    A = _ResidueRows(N, n, [[x % N for x in row] for row in M.rows])
    w = A.width
    at = list(range(n))
    log: list[int] = []

    def unpacked(k: int) -> list[int]:
        """The slots of index k's row, reduced: entry (k, j) is in slot at[j]."""
        return A.unpack(A.read(at[k]))

    def swap(i: int, j: int) -> None:
        if i != j:
            at[i], at[j] = at[j], at[i]
            log.extend((i, j, 0))

    def signed(x: int) -> int:
        return x - N if 2 * x > N else x

    p = 0
    last = 1  # gcd(a, N) of the last block, as in _reduce
    while True:
        piv = None
        least = (N, 0)  # (gcd with N, absolute value): a zero entry has gcd N
        for i in range(p, n - 1):
            row = unpacked(i)
            entries = [row[r] for r in at[i + 1:]]
            gcds = [gcd(x, N) for x in entries]
            if 1 in gcds:
                piv = (i, i + 1 + gcds.index(1))
                break
            for j, (x, g) in enumerate(zip(entries, gcds), i + 1):
                if g < N and (g, min(x, N - x)) < least:
                    piv, least = (i, j), (g, min(x, N - x))
        if piv is None:
            break
        i, j = piv
        swap(i, p)
        swap(j, p + 1)
        repaired = False
        while True:
            P, Q = at[p], at[p + 1]
            live = at[p + 2:]
            row_p, row_q = unpacked(p), unpacked(p + 1)
            a = signed(row_p[Q])
            if a == 0:
                raise InternalVerificationFailed("lost the pivot")
            g = gcd(a, N)
            unit, cycle = pow(a // g, -1, N // g), N // g
            us = [-(signed(b) // a) if b % g else -(b // g * unit % cycle)
                  for b in map(row_p.__getitem__, live)]
            vs = [-(signed(b) // -a) if b % g else b // g * unit % cycle
                  for b in map(row_q.__getitem__, live)]
            U, V = [0] * n, [0] * n
            for k, r, u, v in zip(range(p + 2, n), live, us, vs):
                if u:
                    log += (k, p + 1, u)
                if v:
                    log += (k, p, v)
                U[r], V[r] = u % N, v % N
            U, V = A.pack(U), A.pack(V)
            top_p, top_q = A.read(P), A.read(Q)
            for r, u, v, b, c in zip(live, us, vs, map(row_p.__getitem__, live),
                                     map(row_q.__getitem__, live)):
                # A[k][p] = -b and A[k][p+1] = -c, by skew symmetry.
                A.add(r, (a * v - c) % N * U + (-b - a * u) % N * V + u % N * top_q + v % N * top_p, 4)
            A.add(P, a % N * U)
            A.add(Q, -a % N * V)
            rem = None
            if A.read(P) != a % N << w * Q or A.read(Q) != -a % N << w * P:
                row_p, row_q = unpacked(p), unpacked(p + 1)
                rem = next(((r, k) for k in range(p + 2, n) for r in (p, p + 1)
                            if (row_p, row_q)[r - p][at[k]]), None)
            if rem is not None:
                r, k = rem
                if not 0 < abs(signed((row_p, row_q)[r - p][at[k]])) < abs(a):
                    raise InternalVerificationFailed("the pivot did not shrink")
                swap(k, p + 1 if r == p else p)
                repaired = False
                continue
            if repaired:
                raise InternalVerificationFailed("a divisibility repair left no remainder")
            viol = None
            if g != last:
                viol = next((k for k in range(p + 2, n) if any(x % g for x in unpacked(k))), None)
            if viol is None:
                break
            # The shear index p += index viol: row p gains row viol less its
            # slot p, which the column step cancels, and every row k gains
            # A[k][viol] = -A[viol][k] in slot p.
            row_v = unpacked(viol)
            A.add(P, A.read(at[viol]) - (row_v[P] << w * P))
            for k in range(p + 1, n):
                r = at[k]
                if row_v[r]:
                    A.add(r, N - row_v[r] << w * P)
            log += (p, viol, 1)
            repaired = True
        if a < 0:
            swap(p, p + 1)
        last = g
        p += 2
    S = [[0] * n for _ in range(n)]
    for i in range(n):
        row = unpacked(i)
        for j in range(i + 1, n):
            S[i][j] = x = signed(row[at[j]])
            S[j][i] = -x
    return S, log


def _residue_transforms(log: list[int], n: int, N: int) -> tuple[list[dict[int, int]], ...]:
    """intlinalg._transforms mod N: the rows of E^T and of F = E^{-1} as
    dicts of their nonzero residues, in [0, N).

    The same backward replay, on the packed rows of _ResidueRows, so each
    shear is one multiply-add of a whole row.
    """
    Et, F = _ResidueRows(N, n), _ResidueRows(N, n)
    steps = reversed(log)
    for q, j, i in zip(steps, steps, steps):
        if q == 0:
            Et.swap(i, j)
            F.swap(i, j)
            continue
        Et.add(j, q % N * Et.read(i))
        F.add(i, -q % N * F.read(j))

    def nonzeros(X: _ResidueRows) -> list[dict[int, int]]:
        slots = (X.unpack(X.read(r)) for r in range(n))
        return [dict(zip(compress(range(n), row), filter(None, row))) for row in slots]

    return nonzeros(Et), nonzeros(F)

"""Pipe dreams over diagrams and the permutations they induce.

Lay a pipe tile on every cell of a diagram: a black cell carries a crossing
(both strands pass straight through), a white cell carries two quarter-turn
arcs (a strand entering from the east leaves north, one entering from the
south leaves west). Strands therefore only ever travel north or west, enter
on the right or bottom side and leave on the top or left side.

Two ways of labelling the four sides give two permutations:

- the toric labelling: left and right sides carry 1..m from BOTTOM to top,
  top and bottom sides carry m+1..m+n from left to right; following the
  strand that enters at label i (right or bottom side) to its exit (top or
  left side) defines tau(i). The cycle structure of tau controls the kernel
  of the commutation matrix.

- the restricted labelling: entries 1..m down the right side then m+1..m+n
  along the bottom from right to left; exits 1..n along the top from right
  to left then n+1..n+m down the left side. This gives the permutation w,
  which for Young shapes is the restricted permutation of the Schubert
  cell; partition_permutation computes it in closed form, and the two
  labellings are reconciled by tau(j) = m+n+1 - w(P(j)), where P reverses
  1..m and m+1..m+n separately. That closed form traces no pipes; the
  cross check of degrees.pi_degree_partition traces the board it reduces.

Every toric exit is read off one row-by-row sweep of the cells. Write W(r, c)
and N(r, c) for the exit labels of the strands leaving cell (r, c) going
west and going north. W(r, 1) = m+1-r and N(1, c) = m+c are border labels;
otherwise the strand leaving (r, c) west has just crossed (r, c-1), so
W(r, c) is N(r, c-1) when that cell is white (it turned there) and W(r, c-1)
when it is black, and N(r, c) is read the same way from (r-1, c). Column
n+1 of W and row m+1 of N are the exits of the strands entering on the
right and at the bottom, which is tau.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress

from .diagrams import Diagram, Partition, check_labels, plucker_from_partition
from .errors import BadRange


@dataclass(frozen=True)
class Permutation:
    """A permutation of {1, ..., k} stored in one-line notation.

    image[i-1] is the value at i.
    """

    image: tuple[int, ...]

    def __post_init__(self) -> None:
        image = tuple(self.image)
        object.__setattr__(self, "image", image)
        if sorted(image) != list(range(1, len(image) + 1)):
            raise BadRange(f"not a permutation of 1..{len(image)}: {image}")

    @classmethod
    def identity(cls, k: int) -> "Permutation":
        return cls(tuple(range(1, k + 1)))

    @property
    def k(self) -> int:
        return len(self.image)

    def __call__(self, i: int) -> int:
        if not (1 <= i <= self.k):
            raise BadRange(f"argument {i} outside 1..{self.k}")
        return self.image[i - 1]

    @cached_property
    def cycles(self) -> "CycleDecomposition":
        return cycle_decomposition(self)

    def __str__(self) -> str:
        return str(self.cycles)


@dataclass(frozen=True)
class CycleDecomposition:
    """Disjoint cycles of a permutation of {1, ..., k}, fixed points included.

    Canonical form: each cycle is rotated to start at its smallest entry and
    cycles are sorted by that entry, so equal decompositions compare equal.
    """

    k: int
    cycles: tuple[tuple[int, ...], ...]

    @property
    def odd_cycle_count(self) -> int:
        """Number of cycles that are odd permutations.

        A cycle of length L has sign (-1)^(L-1), so exactly the cycles of
        EVEN length count and fixed points never do. For a toric
        permutation this count equals the kernel dimension of the
        commutation matrix.
        """
        return sum(1 for c in self.cycles if len(c) % 2 == 0)

    def nontrivial(self) -> tuple[tuple[int, ...], ...]:
        return tuple(c for c in self.cycles if len(c) > 1)

    def __str__(self) -> str:
        parts = ["(" + " ".join(str(a) for a in c) + ")" for c in self.nontrivial()]
        return "".join(parts) if parts else "()"


def cycle_decomposition(p: Permutation) -> CycleDecomposition:
    seen = [False] * p.k
    cycles = []
    for start in range(1, p.k + 1):
        if seen[start - 1]:
            continue
        cycle = [start]
        seen[start - 1] = True
        a = p(start)
        while a != start:
            cycle.append(a)
            seen[a - 1] = True
            a = p(a)
        cycles.append(tuple(cycle))
    return CycleDecomposition(p.k, tuple(cycles))


def _exit_table(d: Diagram) -> tuple[list[list[int]], list[list[int]]]:
    """The exit labels W and N of the module docstring, in one sweep.

    west[r-1][c-1] is W(r, c) for 1 <= c <= n+1 and north[r-1][c-1] is
    N(r, c) for 1 <= r <= m+1, both 1-indexed as cells are.
    """
    m, n = d.shape
    north = [list(range(m + 1, m + n + 1))]
    west = []
    for r, cells in enumerate(d.cells, start=1):
        exit_ = m + 1 - r
        row = [exit_]
        below = north[-1][:]
        for c, white in enumerate(cells):
            # exit_ is W(r, c+1) and below[c] is N(r, c+1). A white cell
            # turns the strand from the east north and the one from the
            # south west, so the two exits trade places.
            if white:
                exit_, below[c] = below[c], exit_
            row.append(exit_)
        west.append(row)
        north.append(below)
    return west, north


def toric_permutation(d: Diagram) -> Permutation:
    """The permutation tau of {1, ..., m+n} induced by the toric labelling.

    Entry label i is the right side of row m+1-i for i <= m, else the bottom
    of column i-m; exit label is m+1-r on the left of row r and m+c on the
    top of column c. Both sides of the board carry the SAME labels, so tau
    genuinely permutes {1, ..., m+n}. tau(i) is W(m+1-i, n+1) for i <= m and
    N(m+1, i-m) otherwise, read off the exit table.
    """
    west, north = _exit_table(d)
    return Permutation(tuple(row[-1] for row in reversed(west)) + tuple(north[-1]))


def white_exit_labels(d: Diagram) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Toric exit labels of the two strands leaving each white square.

    For white square number i (row-major order) at (r, c), left[i-1] is the
    exit label W(r, c) of the strand leaving its west edge and up[i-1] the
    exit label N(r, c) of the strand leaving its north edge, both read off
    the exit table. These drive the combinatorial kernel construction: the
    strand entering the square from the east turns north, the one entering
    from the south turns west, so the square ties together the pipes that
    exit at labels up[i-1] and left[i-1].
    """
    west, north = _exit_table(d)
    left = chain.from_iterable(map(compress, west, d.cells))
    up = chain.from_iterable(map(compress, north, d.cells))
    return tuple(left), tuple(up)


def partition_permutation(shape: Partition) -> Permutation:
    """The restricted permutation of a Young shape inside its m x n box.

    In one-line notation: the first m values are gamma_i = i + n - lambda_i
    (the jump sequence of the shape's boundary path), the rest is the
    complement of {gamma_i} in increasing order: the permutation that the
    restricted labelling reads off the pipes of young_diagram(shape).
    Past check_labels, nothing is listed.
    """
    m, n = shape.box_m, shape.box_n
    check_labels(m + n)
    if m == 0 or n == 0:
        return Permutation.identity(m + n)
    gamma = plucker_from_partition(shape).gamma
    rest = sorted(set(range(1, m + n + 1)) - set(gamma))
    return Permutation(gamma + tuple(rest))


def partition_toric_permutation(shape: Partition) -> Permutation:
    """The toric permutation of a Young shape, via the labelling bridge.

    Computed as tau(j) = m+n+1 - w(P(j)) with w = partition_permutation(shape)
    and P the reversal of 1..m and of m+1..m+n, which agrees with
    toric_permutation(young_diagram(shape)); the closed form avoids tracing
    pipes. The cross check of degrees.pi_degree_partition traces them.
    """
    m, n = shape.box_m, shape.box_n
    w = partition_permutation(shape).image
    return Permutation(tuple(m + n + 1 - x for x in w[:m][::-1] + w[m:][::-1]))

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
  cell; partition_permutation computes it in closed form, and tau =
  reverse_word o w o partial_reverse reconciles the two labellings.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .diagrams import Diagram, Partition, plucker_from_partition, young_diagram
from .errors import BadRange, InternalVerificationFailed


@dataclass(frozen=True)
class Permutation:
    """A permutation of {1, ..., k} stored in one-line notation.

    image[i-1] is the value at i. Composition is right-to-left:
    (p * q)(i) = p(q(i)).
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

    @classmethod
    def from_cycles(cls, k: int, cycles: tuple[tuple[int, ...], ...]) -> "Permutation":
        image = list(range(1, k + 1))
        seen: set[int] = set()
        for cycle in cycles:
            for a in cycle:
                if not (1 <= a <= k) or a in seen:
                    raise BadRange(f"bad cycle entry {a} in {cycles}")
                seen.add(a)
            for i, a in enumerate(cycle):
                image[a - 1] = cycle[(i + 1) % len(cycle)]
        return cls(tuple(image))

    @property
    def k(self) -> int:
        return len(self.image)

    def __call__(self, i: int) -> int:
        if not (1 <= i <= self.k):
            raise BadRange(f"argument {i} outside 1..{self.k}")
        return self.image[i - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        if self.k != other.k:
            raise BadRange(f"cannot compose permutations of sizes {self.k} and {other.k}")
        return Permutation(tuple(self.image[j - 1] for j in other.image))

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


_NORTH = "N"
_WEST = "W"


def _trace(d: Diagram, row: int, col: int, heading: str) -> tuple[str, int]:
    """Follow a strand from just before cell (row, col) until it leaves the board.

    The strand is about to pass through (row, col) moving in `heading`.
    Returns ('top', col) or ('left', row) for the exit position.
    """
    while True:
        if d.cells[row - 1][col - 1]:
            heading = _NORTH if heading == _WEST else _WEST
        if heading == _NORTH:
            row -= 1
            if row == 0:
                return ("top", col)
        else:
            col -= 1
            if col == 0:
                return ("left", row)


def _toric_exit(m: int, side: str, pos: int) -> int:
    """Toric label of an exit: m+1-r on the left of row r, m+c atop column c."""
    return m + pos if side == "top" else m + 1 - pos


def toric_permutation(d: Diagram) -> Permutation:
    """The permutation tau of {1, ..., m+n} induced by the toric labelling.

    Entry label i is the right side of row m+1-i for i <= m, else the bottom
    of column i-m; exit label is m+1-r on the left of row r and m+c on the
    top of column c. Both sides of the board carry the SAME labels, so tau
    genuinely permutes {1, ..., m+n}.
    """
    m, n = d.shape
    image = []
    for i in range(1, m + n + 1):
        if i <= m:
            side, pos = _trace(d, m + 1 - i, n, _WEST)
        else:
            side, pos = _trace(d, m, i - m, _NORTH)
        image.append(_toric_exit(m, side, pos))
    return Permutation(tuple(image))


def white_exit_labels(d: Diagram) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Toric exit labels of the two strands leaving each white square.

    For white square number i (row-major order), left[i-1] is the exit label
    of the strand leaving its west edge and up[i-1] the exit label of the
    strand leaving its north edge. These drive the combinatorial kernel
    construction: the strand entering the square from the east turns north,
    the one entering from the south turns west, so the square ties together
    the pipes that exit at labels up[i-1] and left[i-1].
    """
    m, n = d.shape
    left = []
    up = []
    for r, c in d.white_squares:
        if c == 1:
            side, pos = "left", r
        else:
            side, pos = _trace(d, r, c - 1, _WEST)
        left.append(_toric_exit(m, side, pos))
        if r == 1:
            side, pos = "top", c
        else:
            side, pos = _trace(d, r - 1, c, _NORTH)
        up.append(_toric_exit(m, side, pos))
    return tuple(left), tuple(up)


def reverse_word(m: int, n: int) -> Permutation:
    """The order-reversing involution i -> m+n+1-i."""
    k = m + n
    return Permutation(tuple(range(k, 0, -1)))


def partial_reverse(m: int, n: int) -> Permutation:
    """The involution reversing 1..m and m+1..m+n separately."""
    return Permutation(tuple(range(m, 0, -1)) + tuple(range(m + n, m, -1)))


def partition_permutation(shape: Partition) -> Permutation:
    """The restricted permutation of a Young shape inside its m x n box.

    In one-line notation: the first m values are gamma_i = i + n - lambda_i
    (the jump sequence of the shape's boundary path), the rest is the
    complement of {gamma_i} in increasing order: the permutation that the
    restricted labelling reads off the pipes of young_diagram(shape).
    """
    m, n = shape.box_m, shape.box_n
    if m == 0 or n == 0:
        return Permutation.identity(m + n)
    gamma = plucker_from_partition(shape).gamma
    rest = sorted(set(range(1, m + n + 1)) - set(gamma))
    return Permutation(gamma + tuple(rest))


def partition_toric_permutation(shape: Partition, cross_check: bool = False) -> Permutation:
    """The toric permutation of a Young shape, via the labelling bridge.

    Computed as reverse_word o partition_permutation o partial_reverse,
    which agrees with toric_permutation(young_diagram(shape)); the closed
    form avoids tracing pipes. cross_check traces them as well and raises
    InternalVerificationFailed on any difference.
    """
    m, n = shape.box_m, shape.box_n
    if m == 0 or n == 0:
        tau = Permutation.identity(m + n)
    else:
        tau = reverse_word(m, n) * partition_permutation(shape) * partial_reverse(m, n)
    if cross_check and tau != toric_permutation(young_diagram(shape)):
        raise InternalVerificationFailed(
            "closed-form toric permutation differs from the traced one"
        )
    return tau

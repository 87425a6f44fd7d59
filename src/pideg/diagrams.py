"""Rectangular black/white diagrams, partitions and Plucker indices.

A diagram is an m x n grid whose cells are either white or black. White
cells are the generators of the associated quantum affine space; black
cells are deleted generators. Everything downstream (pipe dreams, the
commutation matrix, PI degrees) is built on top of this module.

Conventions used throughout the package:

- cells are addressed (row, col), 1-indexed, row 1 at the TOP;
- white squares are enumerated row by row, left to right, labels 1..N;
- text form uses '.' for white and '#' for black, one row per line.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import (
    BadRange,
    EmptyInput,
    RaggedRows,
    ShapeOverflow,
    TooLarge,
    UnknownCharacter,
)

WHITE_CHAR = "."
BLACK_CHAR = "#"


@dataclass(frozen=True)
class Diagram:
    """An m x n grid of cells; cells[r][c] is True when the cell is white.

    The zero-size diagram (m = n = 0) is allowed and behaves as the empty
    board: no white squares, empty commutation matrix, identity toric
    permutation on the empty set. So are m rows of width 0 (tau the
    identity on m labels); a board without rows has n = 0 whatever its box.
    """

    cells: tuple[tuple[bool, ...], ...]

    def __post_init__(self) -> None:
        widths = {len(row) for row in self.cells}
        if len(widths) > 1:
            raise RaggedRows(f"diagram rows have different lengths: {sorted(widths)}")

    @property
    def m(self) -> int:
        return len(self.cells)

    @property
    def n(self) -> int:
        return len(self.cells[0]) if self.cells else 0

    @property
    def shape(self) -> tuple[int, int]:
        return (self.m, self.n)

    @cached_property
    def white_squares(self) -> tuple[tuple[int, int], ...]:
        """Positions of white cells in row-major order; index k-1 has label k."""
        return tuple(
            (r, c)
            for r in range(1, self.m + 1)
            for c in range(1, self.n + 1)
            if self.cells[r - 1][c - 1]
        )

    @property
    def white_count(self) -> int:
        return len(self.white_squares)

    def to_text(self) -> str:
        return "\n".join(
            "".join(WHITE_CHAR if cell else BLACK_CHAR for cell in row)
            for row in self.cells
        )

    def __str__(self) -> str:
        return self.to_text()


def diagram_from_text(text: str) -> Diagram:
    """Parse a diagram from its text form.

    Lines are rows, WHITE_CHAR ('.') a white cell and BLACK_CHAR ('#') a
    black one. Leading/trailing blank lines and per-line trailing
    whitespace are ignored; interior rows must all have the same width.
    """
    lines = [line.rstrip() for line in text.splitlines()]
    while lines and not lines[0]:
        lines.pop(0)
    while lines and not lines[-1]:
        lines.pop()
    if not lines:
        raise EmptyInput("no diagram rows in input")
    width = len(lines[0])
    rows = []
    for i, line in enumerate(lines, start=1):
        if len(line) != width:
            raise RaggedRows(f"row {i} has length {len(line)}, expected {width}")
        row = []
        for j, ch in enumerate(line, start=1):
            if ch == WHITE_CHAR:
                row.append(True)
            elif ch == BLACK_CHAR:
                row.append(False)
            else:
                raise UnknownCharacter(f"row {i}, column {j}: unexpected character {ch!r}")
        rows.append(tuple(row))
    if width == 0:
        raise EmptyInput("diagram rows contain no cells")
    return Diagram(tuple(rows))


def is_cauchon_le(d: Diagram) -> bool:
    """Whether every black cell has its full column above or full row left black.

    This is the combinatorial condition singling out the diagrams that index
    torus-invariant prime quotients; none of the machinery here requires it,
    but callers may want to know. One scan in row-major order, reading each
    cell once: a flag per column says whether every cell above so far is
    black, and one for the current row whether every cell to the left is.
    """
    column_black = [True] * d.n
    for cells in d.cells:
        row_black = True
        for c, white in enumerate(cells):
            if white:
                row_black = column_black[c] = False
            elif not (row_black or column_black[c]):
                return False
    return True


@dataclass(frozen=True)
class Partition:
    """A weakly decreasing tuple of positive parts with a bounding box.

    `box_m` and `box_n` give the ambient rectangle, by default the tight
    box (number of parts, largest part); a negative side is refused.
    Trailing zero parts are stripped, so the empty partition is parts = ().
    """

    parts: tuple[int, ...]
    box_m: int | None = None
    box_n: int | None = None

    def __post_init__(self) -> None:
        parts = tuple(self.parts)
        while parts and parts[-1] == 0:
            parts = parts[:-1]
        object.__setattr__(self, "parts", parts)
        for i, p in enumerate(parts):
            if p < 0:
                raise BadRange(f"partition parts must be nonnegative, got {p}")
            if i > 0 and parts[i - 1] < p:
                raise BadRange(f"partition parts must weakly decrease: {parts}")
        box_m = len(parts) if self.box_m is None else self.box_m
        box_n = (parts[0] if parts else 0) if self.box_n is None else self.box_n
        if box_m < 0 or box_n < 0:
            raise BadRange(f"box sides must be nonnegative, got {box_m}x{box_n}")
        object.__setattr__(self, "box_m", box_m)
        object.__setattr__(self, "box_n", box_n)
        if len(parts) > box_m or (parts and parts[0] > box_n):
            raise ShapeOverflow(
                f"partition {parts} does not fit in a {box_m}x{box_n} box"
            )

    @property
    def size(self) -> int:
        return sum(self.parts)

    def padded(self) -> tuple[int, ...]:
        """Parts padded with zeros to box_m entries."""
        return self.parts + (0,) * (self.box_m - len(self.parts))

    def __str__(self) -> str:
        inner = ",".join(str(p) for p in self.parts)
        return f"({inner})"


# Largest board built. The form over Z of a board took about 35-80 ns per
# (white square x nonzero of its matrix) on a 2-core x86 host: 1.9 s for the
# 30 x 30 rectangle, 6.6 s for 40 x 40 and 14 s for a row of 580. So a cost
# of 2 * 10**8 bounds it by about 15 s there. The cells bound the board
# itself, which an empty shape in a large box would otherwise fill: the
# 1000 x 1000 box took 0.3 s to build and trace. It bounds as well the
# labels that a closed route lists, m + n of a shape's box or 2n of a
# determinantal board, though it builds no board.
MAX_BOARD_COST = 2 * 10**8
MAX_BOARD_CELLS = 10**6


def check_board_cells(m: int, n: int) -> None:
    """TooLarge when an m x n board has more than MAX_BOARD_CELLS cells:
    the bound that young_diagram and determinantal_diagram check before
    they build."""
    if m * n > MAX_BOARD_CELLS:
        raise TooLarge(f"a {m}x{n} board exceeds the largest built: {MAX_BOARD_CELLS} cells")


def check_board_size(m: int, n: int, white: int, nonzeros: int) -> None:
    """TooLarge when an m x n board of `white` white squares, whose matrix
    has `nonzeros` nonzero entries, has more than MAX_BOARD_CELLS cells or
    costs more than MAX_BOARD_COST, white x nonzeros, to reduce.
    intlinalg.matrix_from_diagram checks it, from counts it takes on the
    board, before it allocates the matrix, so every board meets it,
    whatever its source."""
    check_board_cells(m, n)
    if white * nonzeros > MAX_BOARD_COST:
        raise TooLarge(
            f"a {m}x{n} board with {white} white squares and {nonzeros} matrix nonzeros exceeds "
            f"the largest built: {MAX_BOARD_CELLS} cells, {MAX_BOARD_COST} white squares x nonzeros"
        )


def check_labels(count: int) -> None:
    """TooLarge past MAX_BOARD_CELLS labels: the bound on a toric
    permutation that a closed route lists, checked before any list is
    built."""
    if count > MAX_BOARD_CELLS:
        raise TooLarge(f"a permutation of {count} labels exceeds the largest built: {MAX_BOARD_CELLS} labels")


def young_diagram(shape: Partition) -> Diagram:
    """Diagram of the Young shape inside its box: row r is lambda_r white
    cells followed by box_n - lambda_r black ones, one tuple product per
    row, so a box with no columns still has its rows. A box past
    check_board_cells is refused before anything is built."""
    check_board_cells(shape.box_m, shape.box_n)
    n = shape.box_n
    return Diagram(tuple((True,) * p + (False,) * (n - p) for p in shape.padded()))


def check_determinantal(n: int, t: int) -> None:
    """BadRange unless 1 <= t <= n-1: the one rule on a determinantal board."""
    if not (1 <= t <= n - 1):
        raise BadRange(f"need 1 <= t <= n-1, got n = {n}, t = {t}")


def determinantal_diagram(n: int, t: int) -> Diagram:
    """The n x n board whose last t rows and last t columns are white.

    These boards encode quantum determinantal rings (n x n quantum matrices
    modulo the ideal of (t+1) x (t+1) quantum minors). Requires 1 <= t <= n-1.
    A board past check_board_cells is refused before anything is built.
    """
    check_determinantal(n, t)
    check_board_cells(n, n)
    rows = tuple(
        tuple(r > n - t or c > n - t for c in range(1, n + 1))
        for r in range(1, n + 1)
    )
    return Diagram(rows)


@dataclass(frozen=True)
class PluckerIndex:
    """A strictly increasing m-subset gamma of {1, ..., n}.

    Indexes a Plucker coordinate on the Grassmannian of m-planes in n-space,
    equivalently a Schubert cell.
    """

    gamma: tuple[int, ...]
    n: int

    def __post_init__(self) -> None:
        g = tuple(self.gamma)
        object.__setattr__(self, "gamma", g)
        if not g:
            raise BadRange("gamma must be a nonempty index set")
        if g[0] < 1 or g[-1] > self.n:
            raise BadRange(f"gamma entries must lie in 1..{self.n}: {g}")
        if any(g[i] >= g[i + 1] for i in range(len(g) - 1)):
            raise BadRange(f"gamma must be strictly increasing: {g}")

    @property
    def m(self) -> int:
        return len(self.gamma)


def partition_from_plucker(idx: PluckerIndex) -> Partition:
    """The Young shape lambda(gamma) in the m x (n-m) box.

    lambda_i = (n - m) - (gamma_i - i); strict increase of gamma makes this
    weakly decreasing, and fitting in the box is automatic.
    """
    m, n = idx.m, idx.n
    parts = tuple((n - m) - (g - i) for i, g in enumerate(idx.gamma, start=1))
    return Partition(parts, box_m=m, box_n=n - m)


def plucker_from_partition(shape: Partition) -> PluckerIndex:
    """Inverse of partition_from_plucker on the shape's own box."""
    m, n = shape.box_m, shape.box_m + shape.box_n
    padded = shape.padded()
    gamma = tuple(i + (n - m) - padded[i - 1] for i in range(1, m + 1))
    return PluckerIndex(gamma, n)

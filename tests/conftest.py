"""Shared fixtures: frozen reference data and the exhaustive board corpora.

The 3x5 reference board below is the running example threaded through the
whole suite; every number attached to it (toric permutation, commutation
matrix, invariant factors, kernel vector, exit labels) was derived by hand
from the pipe dream picture and is frozen here, independent of the code
under test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import pytest
from hypothesis import strategies as st

from pideg import (
    Diagram,
    SkewIntMatrix,
    SkewNormalForm,
    matrix_from_diagram,
    skew_normal_form,
    toric_permutation,
)
from pideg.sweep import exhaustive_diagrams, random_diagrams
from pideg.pipedreams import Permutation

# The running 3x5 example ('.' white, '#' black).
FIG_TEXT = ".#.#.\n.#...\n###..\n"

# Its toric permutation and the restricted one, as cycles.
FIG_TAU_CYCLES = ((1, 7), (2, 6, 3, 8, 4), (5,))
FIG_W_CYCLES = ((1,), (2, 3), (4, 5, 8, 7), (6,))

# Commutation matrix of its nine white squares in row-major order:
# (1,1) (1,3) (1,5) (2,1) (2,3) (2,4) (2,5) (3,4) (3,5).
FIG_MATRIX = (
    (0, 1, 1, 1, 0, 0, 0, 0, 0),
    (-1, 0, 1, 0, 1, 0, 0, 0, 0),
    (-1, -1, 0, 0, 0, 0, 1, 0, 1),
    (-1, 0, 0, 0, 1, 1, 1, 0, 0),
    (0, -1, 0, -1, 0, 1, 1, 0, 0),
    (0, 0, 0, -1, -1, 0, 1, 1, 0),
    (0, 0, -1, -1, -1, -1, 0, 0, 1),
    (0, 0, 0, 0, 0, -1, 0, 0, 1),
    (0, 0, -1, 0, 0, 0, -1, -1, 0),
)

# Toric labels of the two strands leaving each white square: one travels
# west, one travels north. Same row-major square order as FIG_MATRIX.
FIG_LEFT_LABELS = (3, 4, 6, 2, 3, 4, 7, 1, 4)
FIG_UP_LABELS = (4, 6, 8, 3, 4, 7, 6, 4, 7)

FIG_INVARIANT_FACTORS = (1, 1, 1, 2)
FIG_KERNEL_DIM = 1
# Kernel vector attached to the even cycle (1, 7), and that cycle's sum.
FIG_KERNEL_VECTOR = (0, 0, 0, 0, 0, 1, -1, 1, 1)
FIG_CYCLE_SUM = 2
FIG_PI_AT_5 = 625

# A 3x3 board whose extended matrix picks up an invariant factor of 3,
# exercising the case where the bordered algebra's PI degree is not a
# plain power of ell.
EG_TEXT = "..#\n#..\n##.\n"
EG_INVARIANT_FACTORS = (1, 1)
EG_EXT_INVARIANT_FACTORS = (1, 1, 3)
EG_EXT_PI_AT_5 = 125
EG_EXT_PI_AT_9 = 243
EG_EXT_KERNEL_DIM_MOD_3 = 2

# Closed-form reference values for the shape (5,3,2) alone.
FIG_YOUNG_TAU_CYCLES = ((1, 3, 8, 7, 6, 4), (2, 5))
FIG_YOUNG_PI_AT_5 = 625

CORPUS_SEED = 20_240_601


def extend(M: SkewIntMatrix) -> SkewIntMatrix:
    """M bordered by a column of ones and the matching row of minus ones.

    The new last row is (-1, ..., -1, 0). Its mirror, with the signs of the
    border swapped, is congruent to it by negating the last coordinate, so
    the choice changes no congruence invariant.
    """
    rows = [row + (1,) for row in M.rows]
    rows.append((-1,) * M.n + (0,))
    return SkewIntMatrix(tuple(rows))


def criterion_10_matrices() -> list[SkewIntMatrix]:
    """The 500 seeded random skew matrices (n = 0..12, entries -5..5) of
    acceptance criterion 10."""
    rng = random.Random(987_654_321)
    out = []
    for _ in range(500):
        n = rng.randrange(0, 13)
        a = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                a[i][j] = rng.randrange(-5, 6)
                a[j][i] = -a[i][j]
        out.append(SkewIntMatrix(tuple(tuple(row) for row in a)))
    return out


@pytest.fixture(scope="session")
def fig_diagram() -> Diagram:
    from pideg import diagram_from_text

    return diagram_from_text(FIG_TEXT)


@pytest.fixture(scope="session")
def eg_diagram() -> Diagram:
    from pideg import diagram_from_text

    return diagram_from_text(EG_TEXT)


# Boards of 1 to 10 rows and columns, past the exhaustive sizes below.
wide_boards = st.integers(1, 10).flatmap(
    lambda m: st.integers(1, 10).flatmap(
        lambda n: st.lists(
            st.lists(st.booleans(), min_size=n, max_size=n), min_size=m, max_size=m
        )
    )
).map(lambda rows: Diagram(tuple(tuple(r) for r in rows)))


@pytest.fixture(scope="session")
def exhaustive_boards() -> dict[tuple[int, int], list[Diagram]]:
    """Every 3x3, 3x4 and 4x4 board, keyed by shape."""
    return {shape: exhaustive_diagrams(*shape) for shape in ((3, 3), (3, 4), (4, 4))}


@dataclass(frozen=True)
class BoardRecord:
    diagram: Diagram
    matrix: SkewIntMatrix
    snf: SkewNormalForm
    ext_snf: SkewNormalForm
    tau: Permutation


@pytest.fixture(scope="session")
def corpus() -> list[Diagram]:
    """All 3x3 and 3x4 boards plus 1000 seeded random 5x5 boards."""
    return (
        exhaustive_diagrams(3, 3)
        + exhaustive_diagrams(3, 4)
        + list(random_diagrams(5, 5, 1000, CORPUS_SEED))
    )


@pytest.fixture(scope="session")
def corpus_analysis(corpus) -> list[BoardRecord]:
    """The corpus with its normal forms computed once for the whole session."""
    records = []
    for d in corpus:
        M = matrix_from_diagram(d)
        records.append(
            BoardRecord(
                diagram=d,
                matrix=M,
                snf=skew_normal_form(M),
                ext_snf=skew_normal_form(extend(M)),
                tau=toric_permutation(d),
            )
        )
    return records


@pytest.fixture(scope="session")
def small_board_matrices() -> list[tuple[Diagram, SkewIntMatrix]]:
    """One representative board per distinct commutation matrix, over all
    boards with at most three rows and three columns."""
    seen: dict[tuple, tuple[Diagram, SkewIntMatrix]] = {}
    for m in (1, 2, 3):
        for n in (1, 2, 3):
            for d in exhaustive_diagrams(m, n):
                M = matrix_from_diagram(d)
                seen.setdefault(M.rows, (d, M))
    return list(seen.values())

"""Boards, partitions, and index-set bookkeeping."""

from itertools import combinations_with_replacement
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pideg import (
    BadRange,
    Diagram,
    EmptyInput,
    Partition,
    PluckerIndex,
    RaggedRows,
    ShapeOverflow,
    TooLarge,
    UnknownCharacter,
    determinantal_diagram,
    diagram_from_text,
    is_cauchon_le,
    partition_from_plucker,
    plucker_from_partition,
    young_diagram,
)
from pideg import diagrams, intlinalg
from pideg.intlinalg import matrix_from_diagram
from pideg.sweep import exhaustive_diagrams
from tests.conftest import (
    FIG_TEXT,
    wide_boards,
)
from tests.oracles import all_black, all_white, rescanning_is_cauchon_le

boards = st.integers(1, 4).flatmap(
    lambda m: st.integers(1, 4).flatmap(
        lambda n: st.lists(
            st.lists(st.booleans(), min_size=n, max_size=n),
            min_size=m,
            max_size=m,
        )
    )
).map(lambda rows: Diagram(tuple(tuple(r) for r in rows)))


class TestDiagramParsing:
    def test_round_trip(self, fig_diagram):
        assert fig_diagram.to_text() + "\n" == FIG_TEXT
        assert diagram_from_text(fig_diagram.to_text()) == fig_diagram

    def test_shape_and_counts(self, fig_diagram):
        assert fig_diagram.shape == (3, 5)
        assert fig_diagram.white_count == 9

    def test_white_squares_row_major(self, fig_diagram):
        assert fig_diagram.white_squares == (
            (1, 1), (1, 3), (1, 5),
            (2, 1), (2, 3), (2, 4), (2, 5),
            (3, 4), (3, 5),
        )

    def test_ragged_rows(self):
        with pytest.raises(RaggedRows):
            diagram_from_text(".#.\n..\n")

    def test_unknown_character(self):
        with pytest.raises(UnknownCharacter):
            diagram_from_text(".#x\n...\n")

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            diagram_from_text("   \n\n")

    @settings(deadline=None, max_examples=60)
    @given(boards)
    def test_text_round_trip_any_board(self, d):
        assert diagram_from_text(d.to_text()) == d


class TestConstantBoards:
    def test_all_black(self):
        d = all_black(2, 3)
        assert d.white_count == 0 and d.shape == (2, 3)
        assert d == diagram_from_text("###\n###\n")

    def test_all_white(self):
        d = all_white(2, 3)
        assert d.white_count == 6

    def test_bad_dims(self):
        with pytest.raises(BadRange):
            all_white(0, 3)


class TestCauchonLe:
    def test_reference_board_qualifies(self, fig_diagram):
        assert is_cauchon_le(fig_diagram)

    def test_black_box_with_white_above_and_left(self):
        assert not is_cauchon_le(diagram_from_text("..\n.#\n"))

    def test_first_row_and_column_are_exempt(self):
        # A black box in row 1 or column 1 has nothing above or to the
        # left on one side, so it never violates the condition.
        assert is_cauchon_le(diagram_from_text("#.\n..\n"))
        assert is_cauchon_le(diagram_from_text(".#\n#.\n"))

    def test_full_column_above_black_suffices(self):
        assert is_cauchon_le(diagram_from_text(".#\n.#\n"))

    def test_full_row_left_black_suffices(self):
        assert is_cauchon_le(diagram_from_text("..\n##\n"))

    def test_row_flag_restarts_on_each_row(self):
        # Row 1 ends on a white cell, and the black cell opening row 2 has
        # white above it but nothing to its left, so it qualifies.
        assert is_cauchon_le(diagram_from_text("..\n#.\n"))

    def test_one_scan_matches_the_rescan_on_every_small_board(self, exhaustive_boards):
        for boards in exhaustive_boards.values():
            for d in boards:
                assert is_cauchon_le(d) == rescanning_is_cauchon_le(d)

    @settings(deadline=None, max_examples=200)
    @given(wide_boards)
    def test_one_scan_matches_the_rescan(self, d):
        assert is_cauchon_le(d) == rescanning_is_cauchon_le(d)

    # Cauchon-Le m x n boards are counted by the poly-Bernoulli numbers
    # (Launois, J. Algebra 309, 2007).
    COUNTS = {
        (1, 1): 2, (2, 2): 14, (2, 3): 46, (3, 3): 230, (3, 4): 1066, (4, 4): 6902, (2, 6): 1394,
    }

    @staticmethod
    def poly_bernoulli(m: int, n: int) -> int:
        """B(m, n) = sum over k of (k!)^2 S(m+1, k+1) S(n+1, k+1)."""
        size = max(m, n) + 2
        S = [[0] * size for _ in range(size)]
        S[0][0] = 1
        for a in range(1, size):
            for b in range(1, a + 1):
                S[a][b] = b * S[a - 1][b] + S[a - 1][b - 1]
        return sum(
            factorial(k) ** 2 * S[m + 1][k + 1] * S[n + 1][k + 1] for k in range(min(m, n) + 1)
        )

    def test_counts_are_poly_bernoulli(self, exhaustive_boards):
        for (m, n), expected in self.COUNTS.items():
            boards = exhaustive_boards.get((m, n)) or exhaustive_diagrams(m, n)
            assert sum(map(is_cauchon_le, boards)) == expected == self.poly_bernoulli(m, n)


class TestPartition:
    def test_parts_must_weakly_decrease(self):
        with pytest.raises(BadRange):
            Partition((2, 3))

    def test_parts_must_be_nonnegative(self):
        with pytest.raises(BadRange):
            Partition((3, -1))

    def test_trailing_zeros_stripped(self):
        assert Partition((3, 1, 0, 0)).parts == (3, 1)

    def test_tight_box_default(self):
        p = Partition((5, 3, 2))
        assert (p.box_m, p.box_n) == (3, 5)

    def test_explicit_box(self):
        p = Partition((2, 1), box_m=4, box_n=3)
        assert p.padded() == (2, 1, 0, 0)

    def test_box_overflow(self):
        with pytest.raises(ShapeOverflow):
            Partition((5, 3), box_m=2, box_n=4)
        with pytest.raises(ShapeOverflow):
            Partition((2, 2, 2), box_m=2, box_n=3)

    @pytest.mark.parametrize("box", [dict(box_m=-1), dict(box_n=-2), dict(box_m=-1, box_n=5)])
    def test_negative_box_side_is_refused(self, box):
        # The tight box is the default (None), not any negative side.
        with pytest.raises(BadRange, match="box sides must be nonnegative"):
            Partition((3, 1), **box)

    def test_size(self):
        assert Partition((5, 3, 2)).size == 10
        assert Partition(()).size == 0

    def test_str(self):
        assert str(Partition((5, 3, 2))) == "(5,3,2)"


class TestYoungDiagram:
    def test_plain_shape(self):
        d = young_diagram(Partition((2, 1)))
        assert d.to_text() == "..\n.#"

    def test_empty_shape_in_box_is_all_black(self):
        d = young_diagram(Partition((), box_m=2, box_n=3))
        assert d == all_black(2, 3)

    def test_zero_area_box(self):
        assert young_diagram(Partition(())) == Diagram(())


class TestDeterminantalBoards:
    def test_smallest(self):
        assert determinantal_diagram(2, 1).to_text() == "#.\n.."

    def test_white_region_is_a_hook(self):
        d = determinantal_diagram(4, 2)
        for r in range(1, 5):
            for c in range(1, 5):
                assert d.cells[r - 1][c - 1] == (r > 2 or c > 2)

    def test_t_out_of_range(self):
        with pytest.raises(BadRange):
            determinantal_diagram(3, 0)
        with pytest.raises(BadRange):
            determinantal_diagram(3, 3)


def shapes_in_box(m: int, n: int):
    """Every Young shape in the m x n box, in that box."""
    for parts in combinations_with_replacement(range(n + 1), m):
        yield Partition(tuple(sorted(parts, reverse=True)), box_m=m, box_n=n)


class TestBoardSizeBound:
    """Every board is refused before its matrix is allocated when its
    cells, or its white squares times its matrix nonzeros, pass their
    bounds; a board built from a shape or from (n, t) is refused before it
    is built when its cells do."""

    @staticmethod
    def actual(d: Diagram, M) -> tuple[int, int, int, int]:
        nonzeros = sum(1 for row in M.rows for x in row if x)
        return (d.m, d.n, d.white_count, nonzeros)

    def test_counts_are_the_boards_own(self, monkeypatch):
        seen = []
        check = diagrams.check_board_size
        monkeypatch.setattr(intlinalg, "check_board_size", lambda *size: seen.append(size) or check(*size))
        boards = [young_diagram(shape) for m, n in ((4, 4), (2, 6), (5, 3)) for shape in shapes_in_box(m, n)]
        boards += [determinantal_diagram(n, t) for n in range(2, 8) for t in range(1, n)]
        boards += exhaustive_diagrams(3, 3) + [Diagram(()), Diagram(((),) * 3)]
        matrices = [matrix_from_diagram(d) for d in boards]
        assert seen == [self.actual(d, M) for d, M in zip(boards, matrices)]

    @pytest.mark.parametrize("bound", ["MAX_BOARD_COST", "MAX_BOARD_CELLS"])
    def test_the_bound_is_the_largest_built(self, monkeypatch, bound):
        shape = Partition((4, 2, 1), box_m=3, box_n=5)
        m, n, white, nonzeros = self.actual(young_diagram(shape), matrix_from_diagram(young_diagram(shape)))
        if bound == "MAX_BOARD_COST":
            largest, build = white * nonzeros, lambda: matrix_from_diagram(young_diagram(shape)).n
            refusal = f"^a 3x5 board with 7 white squares and {nonzeros} matrix nonzeros "
        else:
            largest, build = m * n, lambda: young_diagram(shape).white_count
            refusal = "^a 3x5 board exceeds the largest built: 14 cells$"
        monkeypatch.setattr(diagrams, bound, largest)
        assert build() == 7
        monkeypatch.setattr(diagrams, bound, largest - 1)
        with pytest.raises(TooLarge, match=refusal):
            build()

    @pytest.mark.parametrize(
        "build",
        [
            lambda: matrix_from_diagram(young_diagram(Partition((600,)))),
            lambda: matrix_from_diagram(young_diagram(Partition((41,) * 40))),
            lambda: young_diagram(Partition((), box_m=1001, box_n=1000)),
            lambda: matrix_from_diagram(determinantal_diagram(400, 1)),
        ],
        ids=["row", "rectangle", "empty-box", "determinantal"],
    )
    def test_boards_just_past_a_bound_are_refused(self, build):
        # Small enough that a missing check builds them quickly and fails here.
        with pytest.raises(TooLarge, match="exceeds the largest built"):
            build()


class TestPluckerIndices:
    def test_validation(self):
        with pytest.raises(BadRange):
            PluckerIndex((2, 1), 4)
        with pytest.raises(BadRange):
            PluckerIndex((1, 5), 4)
        with pytest.raises(BadRange):
            PluckerIndex((0, 1), 4)

    def test_shape_from_index_set(self):
        shape = partition_from_plucker(PluckerIndex((1, 3, 4, 7), 8))
        assert shape.parts == (4, 3, 3, 1)
        assert (shape.box_m, shape.box_n) == (4, 4)

    def test_empty_shape_round_trip(self):
        idx = plucker_from_partition(Partition((), box_m=2, box_n=3))
        assert idx.gamma == (4, 5) and idx.n == 5

    def test_full_rectangle(self):
        idx = plucker_from_partition(Partition((3, 3), box_m=2, box_n=3))
        assert idx.gamma == (1, 2)

    @settings(deadline=None, max_examples=60)
    @given(
        st.integers(1, 5).flatmap(
            lambda m: st.integers(m + 1, m + 5).flatmap(
                lambda n: st.sets(
                    st.integers(1, n), min_size=m, max_size=m
                ).map(lambda s: PluckerIndex(tuple(sorted(s)), n))
            )
        )
    )
    def test_index_set_round_trip(self, idx):
        assert plucker_from_partition(partition_from_plucker(idx)) == idx

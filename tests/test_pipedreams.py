"""Pipe dreams, their permutations, and cycle bookkeeping."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pideg import (
    BadRange,
    CycleDecomposition,
    Diagram,
    Partition,
    cycle_decomposition,
    diagram_from_text,
    partition_permutation,
    partition_toric_permutation,
    toric_permutation,
    white_exit_labels,
    young_diagram,
)
from pideg.pipedreams import Permutation
from tests.oracles import (
    all_black,
    all_white,
    compose,
    inverse_permutation,
    partial_reverse,
    permutation_from_cycles,
    restricted_permutation,
    reverse_word,
    traced_toric_permutation,
    traced_white_exit_labels,
)
from tests.conftest import (
    FIG_LEFT_LABELS,
    FIG_TAU_CYCLES,
    FIG_UP_LABELS,
    FIG_W_CYCLES,
    FIG_YOUNG_TAU_CYCLES,
    wide_boards,
)

boards = st.integers(1, 4).flatmap(
    lambda m: st.integers(1, 4).flatmap(
        lambda n: st.lists(
            st.lists(st.booleans(), min_size=n, max_size=n),
            min_size=m,
            max_size=m,
        )
    )
).map(lambda rows: Diagram(tuple(tuple(r) for r in rows)))

partitions = st.lists(st.integers(1, 6), min_size=0, max_size=5).map(
    lambda parts: Partition(tuple(sorted(parts, reverse=True)))
)


class TestPermutation:
    def test_identity(self):
        p = Permutation.identity(4)
        assert p.image == (1, 2, 3, 4)
        assert all(p(i) == i for i in range(1, 5))

    def test_not_a_permutation(self):
        with pytest.raises(BadRange):
            Permutation((1, 1, 3))

    def test_from_cycles_and_call(self):
        p = permutation_from_cycles(5, ((1, 3), (2, 4, 5)))
        assert p(1) == 3 and p(3) == 1
        assert p(2) == 4 and p(4) == 5 and p(5) == 2

    def test_composition_is_right_to_left(self):
        p = permutation_from_cycles(3, ((1, 2),))
        q = permutation_from_cycles(3, ((2, 3),))
        assert compose(p, q)(3) == 1  # q first, then p

    def test_inverse(self):
        p = Permutation((3, 1, 2))
        assert inverse_permutation(p) == Permutation((2, 3, 1))
        assert compose(p, inverse_permutation(p)) == Permutation.identity(3)
        assert compose(inverse_permutation(p), p) == Permutation.identity(3)

    @settings(deadline=None, max_examples=40)
    @given(st.permutations(list(range(1, 8))))
    def test_cycles_recompose(self, image):
        p = Permutation(tuple(image))
        assert permutation_from_cycles(p.k, p.cycles.cycles) == p


class TestCycleDecomposition:
    def test_fixed_points_are_kept(self):
        dec = cycle_decomposition(Permutation((1, 3, 2)))
        assert dec.cycles == ((1,), (2, 3))

    def test_canonical_rotation_and_order(self):
        p = permutation_from_cycles(8, ((7, 1), (6, 3, 8, 4, 2)))
        assert p.cycles.cycles == ((1, 7), (2, 6, 3, 8, 4), (5,))

    def test_odd_cycle_count_counts_even_length_cycles(self):
        # A cycle is an odd permutation exactly when its length is even;
        # fixed points never contribute.
        assert cycle_decomposition(Permutation.identity(4)).odd_cycle_count == 0
        two_swaps = permutation_from_cycles(4, ((1, 2), (3, 4)))
        assert cycle_decomposition(two_swaps).odd_cycle_count == 2
        three_cycle = permutation_from_cycles(5, ((1, 2, 3),))
        assert cycle_decomposition(three_cycle).odd_cycle_count == 0

    def test_str(self):
        p = permutation_from_cycles(8, ((1, 7), (2, 6, 3, 8, 4)))
        assert str(p.cycles) == "(1 7)(2 6 3 8 4)"
        assert str(cycle_decomposition(Permutation.identity(3))) == "()"


class TestToricPermutation:
    def test_reference_board(self, fig_diagram):
        assert toric_permutation(fig_diagram).cycles.cycles == FIG_TAU_CYCLES

    def test_all_black_is_identity(self):
        for m, n in ((1, 1), (2, 3), (3, 2)):
            assert toric_permutation(all_black(m, n)) == Permutation.identity(m + n)

    def test_all_white_is_a_rotation(self):
        # Every strand of the full board exits b labels further around.
        for a, b in ((1, 1), (2, 3), (3, 2), (2, 4), (4, 4)):
            tau = toric_permutation(all_white(a, b))
            k = a + b
            expected = Permutation(tuple((x - 1 + b) % k + 1 for x in range(1, k + 1)))
            assert tau == expected

    def test_single_white_cell(self):
        assert toric_permutation(all_white(1, 1)).cycles.cycles == ((1, 2),)

    @settings(deadline=None, max_examples=60)
    @given(boards)
    def test_is_a_permutation_with_black_cells_fixed_free(self, d):
        tau = toric_permutation(d)
        assert tau.k == d.m + d.n


class TestRestrictedPermutation:
    def test_reference_board(self, fig_diagram):
        assert restricted_permutation(fig_diagram).cycles.cycles == FIG_W_CYCLES

    def test_all_black(self):
        # Strands cross straight through: the strand entering on the right
        # at row r exits on the left, and the one entering at the bottom of
        # column c exits at the top of the same column.
        assert restricted_permutation(all_black(2, 2)) == Permutation((3, 4, 1, 2))

    @settings(deadline=None, max_examples=60)
    @given(boards)
    def test_conjugate_to_toric(self, d):
        # The two labellings are the same wiring read through different
        # border dictionaries: tau = w0 * w * w0'.
        m, n = d.shape
        w0 = reverse_word(m, n)
        w0p = partial_reverse(m, n)
        assert toric_permutation(d) == compose(w0, compose(restricted_permutation(d), w0p))


class TestWhiteExitLabels:
    def test_reference_board(self, fig_diagram):
        left, up = white_exit_labels(fig_diagram)
        assert left == FIG_LEFT_LABELS
        assert up == FIG_UP_LABELS

    @settings(deadline=None, max_examples=60)
    @given(boards)
    def test_alignment_with_white_squares(self, d):
        left, up = white_exit_labels(d)
        assert len(left) == len(up) == d.white_count


class TestExitTable:
    """toric_permutation and white_exit_labels read one sweep of the cells;
    the oracle walks every strand on its own."""

    def test_matches_the_strand_walker_on_every_small_board(self, exhaustive_boards):
        for boards in exhaustive_boards.values():
            for d in boards:
                assert toric_permutation(d) == traced_toric_permutation(d)
                assert white_exit_labels(d) == traced_white_exit_labels(d)

    @settings(deadline=None, max_examples=200)
    @given(wide_boards)
    def test_matches_the_strand_walker(self, d):
        assert toric_permutation(d) == traced_toric_permutation(d)
        assert white_exit_labels(d) == traced_white_exit_labels(d)

    def test_empty_board(self):
        assert toric_permutation(Diagram(())) == Permutation(())
        assert white_exit_labels(Diagram(())) == ((), ())


class TestPartitionPermutations:
    def test_reference_shape(self):
        tau = partition_toric_permutation(Partition((5, 3, 2)))
        assert tau.cycles.cycles == FIG_YOUNG_TAU_CYCLES

    def test_empty_shape_in_a_box(self):
        shape = Partition((), box_m=2, box_n=2)
        assert partition_toric_permutation(shape) == toric_permutation(all_black(2, 2))

    @settings(deadline=None, max_examples=60)
    @given(partitions)
    def test_matches_the_traced_board(self, shape):
        # Closed-form route through the index-set permutation versus an
        # actual pipe dream trace of the shape's board.
        direct = toric_permutation(young_diagram(shape))
        assert partition_toric_permutation(shape) == direct

    @settings(deadline=None, max_examples=60)
    @given(partitions, st.integers(0, 3), st.integers(0, 3))
    def test_formula_is_the_labelling_bridge(self, shape, extra_m, extra_n):
        # tau(j) = m+n+1 - w(P(j)) is the composite w0 * w * w0' written out.
        m, n = shape.box_m + extra_m, shape.box_n + extra_n
        shape = Partition(shape.parts, box_m=m, box_n=n)
        bridge = compose(
            reverse_word(m, n), compose(partition_permutation(shape), partial_reverse(m, n))
        )
        assert partition_toric_permutation(shape) == bridge

    @settings(deadline=None, max_examples=40)
    @given(partitions)
    def test_index_permutation_is_a_permutation(self, shape):
        m, n = shape.box_m, shape.box_n
        if m == 0 or n == 0:
            return
        p = partition_permutation(shape)
        assert p.k == m + n
        assert p == restricted_permutation(young_diagram(shape))

"""Tests for Algorithm 3 (consistency enforcement)."""

import numpy as np
import pytest

from repro.core.consistency import (
    enforce_consistency,
    enforce_level_consistency,
    enforce_tree_consistency,
)
from repro.core.tree import PartitionTree


def repair(parent, left, right):
    """Algorithm 3 on one sibling pair, as plain floats."""
    new_left, new_right = enforce_consistency(
        np.array([parent]), np.array([left]), np.array([right])
    )
    return float(new_left[0]), float(new_right[0])


def scalar_algorithm3(parent, left, right):
    """The per-node Algorithm 3 the array version replaced, as an oracle."""
    left = 0.0 if left < 0 else left
    right = 0.0 if right < 0 else right
    surplus = left + right - parent
    if min(left - surplus / 2.0, right - surplus / 2.0) < 0:
        return (0.0, parent) if left <= right else (parent, 0.0)
    return left - surplus / 2.0, right - surplus / 2.0


class TestEvenRedistribution:
    def test_surplus_split_evenly(self):
        # Lambda = 2, each child loses 1.
        assert repair(10.0, 7.0, 5.0) == pytest.approx((6.0, 4.0))

    def test_deficit_split_evenly(self):
        assert repair(10.0, 3.0, 5.0) == pytest.approx((4.0, 6.0))

    def test_already_consistent_unchanged(self):
        assert repair(8.0, 3.0, 5.0) == pytest.approx((3.0, 5.0))

    def test_paper_example_figure_3(self):
        """The worked Example 6.1: counts (4.6, 3.5, 3.7) -> (4.6, 2.2, 2.4)."""
        assert repair(4.6, 3.5, 3.7) == pytest.approx((2.2, 2.4))


class TestCorrections:
    def test_type1_negative_child_clamped(self):
        left, right = repair(5.0, -2.0, 4.0)
        assert left >= 0.0
        assert right >= 0.0
        assert left + right == pytest.approx(5.0)

    def test_type2_smaller_child_zeroed(self):
        # After the even split one child would go negative: parent 10, children 0.5 and 20.
        assert repair(10.0, 0.5, 20.0) == pytest.approx((0.0, 10.0))

    def test_children_sum_to_parent_in_all_cases(self, rng):
        parent = rng.uniform(0, 10, size=200)
        left, right = enforce_consistency(
            parent, rng.normal(parent / 2, 3), rng.normal(parent / 2, 3)
        )
        np.testing.assert_allclose(left + right, parent, rtol=0, atol=1e-9)
        assert left.min() >= -1e-12
        assert right.min() >= -1e-12

    def test_pairs_match_the_scalar_algorithm_bit_for_bit(self, rng):
        values = np.concatenate([rng.normal(0.0, 5.0, 3000), [0.0, -0.0, 1.0, 2.0]])
        parent, left, right = (rng.choice(values, 4000) for _ in range(3))
        new_left, new_right = enforce_consistency(parent, left, right)
        expected = [scalar_algorithm3(*triple) for triple in zip(parent, left, right)]
        assert new_left.tobytes() == np.array([pair[0] for pair in expected]).tobytes()
        assert new_right.tobytes() == np.array([pair[1] for pair in expected]).tobytes()

    def test_missing_child_raises(self):
        # A tree never stores a lone child, so no pair can miss a sibling.
        with pytest.raises(ValueError):
            PartitionTree.from_cells({(): 1.0, (0,): 1.0})


class TestSubtreeConsistency:
    def test_full_tree_becomes_consistent(self, rng):
        tree = PartitionTree.complete(4, initial_count=0.0)
        for level in range(5):
            tree.level(level)[1][:] = rng.normal(5.0, 3.0, 1 << level)
        enforce_tree_consistency(tree)
        assert tree.is_consistent()

    def test_negative_root_clamped(self):
        tree = PartitionTree.from_cells({(): -3.0, (0,): 1.0, (1,): 1.0})
        enforce_tree_consistency(tree)
        assert tree.root_count == 0.0
        assert tree.is_consistent()

    def test_partial_tree_with_leaf_subtrees(self):
        tree = PartitionTree.from_cells(
            {(): 6.0, (0,): 4.0, (1,): 4.0, (0, 0): 1.0, (0, 1): 1.0}
        )
        enforce_tree_consistency(tree)
        assert tree.is_consistent()

    def test_one_level_at_a_time(self):
        tree = PartitionTree.from_cells(
            {(): 6.0, (0,): 4.0, (1,): 4.0, (0, 0): 1.0, (0, 1): 1.0}
        )
        enforce_level_consistency(tree, 2)
        assert (tree.count((0, 0)), tree.count((0, 1))) == (2.0, 2.0)
        assert tree.count((0,)) == 4.0

    def test_malformed_tree_detected(self):
        with pytest.raises(ValueError):
            PartitionTree.from_cells({(): 2.0, (0,): 2.0})

    def test_missing_root_raises(self):
        with pytest.raises(ValueError):
            PartitionTree.from_cells({(0,): 1.0, (1,): 1.0})

    def test_total_mass_preserved(self, rng):
        tree = PartitionTree.complete(3, initial_count=0.0)
        for level in range(4):
            tree.level(level)[1][:] = np.abs(rng.normal(4.0, 1.0, 1 << level))
        root_before = tree.count(())
        enforce_tree_consistency(tree)
        assert tree.count(()) == pytest.approx(root_before)

    def test_levels_top_down_equal_the_depth_first_pass(self, rng):
        """Each pair depends only on its fixed parent, so a level-by-level pass
        gives the depth-first per-node pass bit for bit."""
        cells = {(): float(rng.normal(20.0, 10.0))}
        frontier = [()]
        while frontier:
            theta = frontier.pop()
            if len(theta) < 6 and (not theta or rng.random() < 0.7):
                for bit in (0, 1):
                    cells[theta + (bit,)] = float(rng.normal(5.0, 10.0))
                    frontier.append(theta + (bit,))
        tree = PartitionTree.from_cells(cells)
        enforce_tree_consistency(tree)

        expected = dict(cells)
        if expected[()] < 0:
            expected[()] = 0.0
        stack = [()]
        while stack:
            theta = stack.pop()
            left, right = theta + (0,), theta + (1,)
            if left in expected:
                expected[left], expected[right] = scalar_algorithm3(
                    expected[theta], expected[left], expected[right]
                )
                stack.extend((right, left))
        assert {cell: repr(count) for cell, count in tree.nodes()} == {
            cell: repr(count) for cell, count in expected.items()
        }

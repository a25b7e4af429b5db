"""Tests for GrowPartition (Algorithm 2)."""

import numpy as np
import pytest

from repro.core.base import cell_keys
from repro.core.partition import grow_partition, select_top_k
from repro.core.tree import PartitionTree
from repro.domain.base import Domain


class ExactSketch:
    """A stand-in sketch that returns exact counts from a dictionary."""

    def __init__(self, counts):
        self.counts = {
            int(cell_keys(len(cell), Domain.pack_paths(np.array([cell])))[0]): float(count)
            for cell, count in counts.items()
        }

    def query_many(self, keys):
        return np.array([self.counts.get(int(key), 0.0) for key in keys])


class TestSelectTopK:
    def test_selects_largest(self):
        codes, counts = np.array([0, 1, 2]), np.array([5.0, 9.0, 1.0])
        assert select_top_k(codes, counts, 2).tolist() == [0, 1]

    def test_deterministic_tie_break(self):
        codes, counts = np.array([0, 1, 2, 3]), np.array([1.0, 3.0, 3.0, -0.0])
        assert select_top_k(codes, counts, 1).tolist() == [1]
        # 0.0 and -0.0 tie as well; the smaller code wins.
        assert select_top_k(np.array([4, 5]), np.array([0.0, -0.0]), 1).tolist() == [4]
        assert select_top_k(np.array([4, 5]), np.array([-0.0, 0.0]), 1).tolist() == [4]

    def test_selection_comes_back_in_code_order(self):
        codes, counts = np.array([2, 3, 6, 7]), np.array([1.0, 4.0, 9.0, 2.0])
        assert select_top_k(codes, counts, 3).tolist() == [3, 6, 7]

    def test_k_larger_than_population(self):
        assert select_top_k(np.array([0]), np.array([1.0]), 5).tolist() == [0]

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            select_top_k(np.array([], dtype=np.int64), np.array([]), -1)


class TestGrowPartition:
    def make_initial_tree(self):
        """Exact-counter tree of depth 1 holding 100 points: 70 left, 30 right."""
        return PartitionTree.from_cells({(): 100.0, (0,): 70.0, (1,): 30.0})

    def make_sketches(self):
        """Exact level-2 and level-3 counts consistent with the depth-1 tree."""
        level2 = ExactSketch({(0, 0): 50.0, (0, 1): 20.0, (1, 0): 25.0, (1, 1): 5.0})
        level3 = ExactSketch(
            {
                (0, 0, 0): 40.0,
                (0, 0, 1): 10.0,
                (0, 1, 0): 15.0,
                (0, 1, 1): 5.0,
                (1, 0, 0): 20.0,
                (1, 0, 1): 5.0,
                (1, 1, 0): 3.0,
                (1, 1, 1): 2.0,
            }
        )
        return {2: level2, 3: level3}

    def test_grows_to_requested_depth(self):
        tree = grow_partition(
            self.make_initial_tree(), self.make_sketches(), pruning_k=2, level_cutoff=1, depth=3
        )
        assert tree.depth() == 3

    def test_keeps_only_hot_branches(self):
        tree = grow_partition(
            self.make_initial_tree(), self.make_sketches(), pruning_k=2, level_cutoff=1, depth=3
        )
        # Level 2 contains all four children (both level-1 nodes are expanded),
        # but level 3 only contains children of the top-2 level-2 nodes.
        assert len(tree.nodes_at_level(2)) == 4
        assert len(tree.nodes_at_level(3)) == 4
        level3 = set(tree.nodes_at_level(3))
        assert level3 == {(0, 0, 0), (0, 0, 1), (1, 0, 0), (1, 0, 1)}

    def test_result_is_consistent(self):
        tree = grow_partition(
            self.make_initial_tree(), self.make_sketches(), pruning_k=2, level_cutoff=1, depth=3
        )
        assert tree.is_consistent()

    def test_total_mass_preserved(self):
        tree = grow_partition(
            self.make_initial_tree(), self.make_sketches(), pruning_k=2, level_cutoff=1, depth=3
        )
        assert tree.root_count == pytest.approx(100.0)

    def test_exact_counts_pass_through_unchanged(self):
        """With exact sketches and consistent inputs, counts stay exact."""
        tree = grow_partition(
            self.make_initial_tree(), self.make_sketches(), pruning_k=2, level_cutoff=1, depth=3
        )
        assert tree.count((0, 0)) == pytest.approx(50.0)
        assert tree.count((1, 0)) == pytest.approx(25.0)
        assert tree.count((0, 0, 0)) == pytest.approx(40.0)

    def test_consistency_disabled_keeps_raw_estimates(self):
        noisy = {2: ExactSketch({(0, 0): 45.0, (0, 1): 30.0, (1, 0): 20.0, (1, 1): 4.0})}
        tree = grow_partition(
            self.make_initial_tree(), noisy, pruning_k=2, level_cutoff=1, depth=2,
            apply_consistency=False,
        )
        # Raw estimates are stored without being reconciled with the parents.
        assert tree.count((0, 0)) == pytest.approx(45.0)
        assert tree.count((0, 1)) == pytest.approx(30.0)
        assert not tree.is_consistent()

    def test_missing_sketch_level_raises(self):
        with pytest.raises(KeyError):
            grow_partition(self.make_initial_tree(), {}, pruning_k=2, level_cutoff=1, depth=2)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            grow_partition(self.make_initial_tree(), {}, pruning_k=0, level_cutoff=1, depth=2)
        with pytest.raises(ValueError):
            grow_partition(self.make_initial_tree(), {}, pruning_k=1, level_cutoff=4, depth=2)

    def test_tree_must_end_at_the_cutoff(self):
        with pytest.raises(ValueError):
            grow_partition(
                self.make_initial_tree(), self.make_sketches(), pruning_k=2, level_cutoff=0,
                depth=3,
            )

    def test_degenerate_no_sketch_levels(self):
        """When L* = L the function only runs the consistency pass."""
        tree = grow_partition(self.make_initial_tree(), {}, pruning_k=2, level_cutoff=1, depth=1)
        assert tree.depth() == 1
        assert tree.is_consistent()

    def test_negative_sketch_estimates_are_repaired(self):
        noisy = {2: ExactSketch({(0, 0): -5.0, (0, 1): 80.0, (1, 0): 10.0, (1, 1): 25.0})}
        tree = grow_partition(
            self.make_initial_tree(), noisy, pruning_k=2, level_cutoff=1, depth=2
        )
        assert tree.is_consistent()
        assert tree.count((0, 0)) >= 0.0

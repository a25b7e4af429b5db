"""Tests for the partition tree container and its level arrays."""

import numpy as np
import pytest

from repro.core.tree import PartitionTree


def pruned_tree():
    """Root 4, children 3 and 1, and only ``(0,)`` expanded into 2 + 1."""
    return PartitionTree.from_cells(
        {"": 4.0, "0": 3.0, "1": 1.0, "00": 2.0, "01": 1.0}
    )


class TestConstruction:
    def test_complete_tree_node_count(self):
        tree = PartitionTree.complete(3)
        assert len(tree) == 2**4 - 1

    def test_complete_tree_negative_depth_rejected(self):
        with pytest.raises(ValueError):
            PartitionTree.complete(-1)

    def test_complete_tree_initial_count(self):
        tree = PartitionTree.complete(2, initial_count=1.5)
        assert all(count == 1.5 for _, count in tree.nodes())

    def test_append_level_adds_sibling_pairs(self):
        tree = PartitionTree(1.0)
        tree.append_level(np.array([0, 1]), np.array([0.5, 0.5]))
        assert (0,) in tree and (1,) in tree
        assert (0, 0) not in tree
        assert tree.depth() == 1

    @pytest.mark.parametrize(
        "codes",
        [[0], [0, 2], [1, 0], [2, 3], [0, 1, 0, 1]],
        ids=["lone-child", "not-siblings", "unsorted", "orphan", "duplicate"],
    )
    def test_append_level_rejects_cells_outside_sibling_pairs(self, codes):
        tree = PartitionTree(1.0)
        with pytest.raises(ValueError):
            tree.append_level(np.array(codes), np.zeros(len(codes)))

    def test_append_level_copies_its_inputs(self):
        tree = PartitionTree(1.0)
        counts = np.array([0.5, 0.5])
        tree.append_level(np.array([0, 1]), counts)
        counts[0] = 9.0
        assert tree.count((0,)) == 0.5

    def test_from_cells_accepts_tuples_and_bit_strings(self):
        by_tuple = PartitionTree.from_cells(
            {(): 4.0, (0,): 3.0, (1,): 1.0, (0, 0): 2.0, (0, 1): 1.0}
        )
        assert by_tuple.as_dict() == pruned_tree().as_dict()

    def test_from_cells_validates_bits(self):
        with pytest.raises(ValueError):
            PartitionTree.from_cells({(): 1.0, (0,): 0.5, (2,): 0.5})
        with pytest.raises(ValueError):
            PartitionTree.from_cells({"": 1.0, "0": 0.5, "x": 0.5})

    def test_from_cells_requires_a_root(self):
        with pytest.raises(ValueError, match="no root"):
            PartitionTree.from_cells({"0": 1.0, "1": 1.0})

    def test_from_cells_rejects_duplicates(self):
        with pytest.raises(ValueError):
            PartitionTree.from_cells([("", 1.0), ((), 1.0)])
        with pytest.raises(ValueError):
            PartitionTree.from_cells([("", 1.0), ("0", 1.0), ("1", 1.0), ((0,), 1.0)])

    def test_from_cells_rejects_lone_children_and_orphans(self):
        with pytest.raises(ValueError):
            PartitionTree.from_cells({"": 1.0, "0": 1.0})
        with pytest.raises(ValueError):
            PartitionTree.from_cells(
                {"": 1.0, "0": 1.0, "1": 0.0, "10": 0.0, "11": 0.0, "000": 1.0, "001": 0.0}
            )


class TestCounts:
    def test_increment_and_get(self):
        tree = PartitionTree.complete(1)
        tree.increment_many(np.array([0]), np.array([2.0]), level=1)
        tree.increment_many(np.array([0]), np.array([3.0]), level=1)
        assert tree.count((0,)) == pytest.approx(5.0)
        assert tree.get((1, 1), default=-1.0) == -1.0

    def test_increment_many_accumulates_repeated_codes(self):
        tree = PartitionTree.complete(2)
        tree.increment_many(np.array([3, 1, 3]), np.array([1.0, 2.0, 4.0]), level=2)
        assert tree.count((1, 1)) == 5.0
        assert tree.count((0, 1)) == 2.0
        assert tree.count((0, 0)) == 0.0

    def test_increment_many_requires_stored_cells(self):
        tree = pruned_tree()
        with pytest.raises(KeyError):
            tree.increment_many(np.array([2]), np.array([1.0]), level=2)
        with pytest.raises(ValueError):
            tree.increment_many(np.array([0]), np.array([1.0]), level=3)

    def test_count_requires_existing_node(self):
        with pytest.raises(KeyError):
            PartitionTree().count((0,))

    def test_root_count_default_zero(self):
        assert PartitionTree().root_count == 0.0


class TestStructure:
    def test_leaves_of_complete_tree(self):
        tree = PartitionTree.complete(2)
        leaves = tree.leaves()
        assert len(leaves) == 4
        assert all(len(theta) == 2 for theta in leaves)

    def test_leaves_of_a_pruned_tree(self):
        tree = pruned_tree()
        assert tree.leaves() == [(1,), (0, 0), (0, 1)]
        assert tree.leaf_counts().tolist() == [1.0, 2.0, 1.0]

    def test_leaf_arrays_and_num_leaves_describe_leaves(self):
        grown = PartitionTree.complete(3)
        grown.append_level([2, 3, 10, 11], [1.0, 2.0, 3.0, 4.0])
        for tree in (PartitionTree(), PartitionTree.complete(3), pruned_tree(), grown):
            levels, codes, counts = tree.leaf_arrays()
            leaves = tree.leaves()
            assert levels.dtype == codes.dtype == np.int64
            assert levels.tolist() == [len(theta) for theta in leaves]
            assert [tree.count(theta) for theta in leaves] == counts.tolist()
            assert codes.tolist() == [int("".join(map(str, theta)) or "0", 2) for theta in leaves]
            assert tree.num_leaves() == len(leaves)

    def test_nodes_at_level_sorted(self):
        tree = PartitionTree.complete(2)
        assert tree.nodes_at_level(2) == sorted(tree.nodes_at_level(2))
        assert tree.nodes_at_level(5) == []

    def test_depth(self):
        tree = PartitionTree.complete(4)
        assert tree.depth() == 4
        assert PartitionTree().depth() == 0

    def test_nodes_iterate_level_by_level(self):
        assert list(pruned_tree()) == [(), (0,), (1,), (0, 0), (0, 1)]

    def test_level_arrays_are_the_storage(self):
        tree = pruned_tree()
        codes, counts = tree.level(2)
        assert codes.tolist() == [0, 1]
        counts[1] = 7.0
        assert tree.count((0, 1)) == 7.0
        with pytest.raises(ValueError):
            codes[0] = 3
        with pytest.raises(ValueError):
            tree.level(3)

    def test_parent_counts_pair_with_sibling_pairs(self):
        tree = pruned_tree()
        assert tree.parent_counts(1).tolist() == [4.0]
        assert tree.parent_counts(2).tolist() == [3.0]


class TestInvariantsAndExport:
    def test_consistent_tree_detected(self):
        tree = PartitionTree.from_cells({(): 4.0, (0,): 1.0, (1,): 3.0})
        assert tree.is_consistent()

    def test_inconsistent_sum_detected(self):
        tree = PartitionTree.from_cells({(): 4.0, (0,): 1.0, (1,): 1.0})
        assert not tree.is_consistent()

    def test_negative_count_detected(self):
        assert not PartitionTree(-1.0).is_consistent()

    def test_memory_words_scales_with_nodes(self):
        tree = PartitionTree.complete(3)
        assert tree.memory_words() == 2 * len(tree)

    def test_copy_is_independent(self):
        tree = PartitionTree.complete(1, initial_count=1.0)
        clone = tree.copy()
        clone.level(0)[1][0] = 9.0
        assert tree.count(()) == 1.0

    def test_as_dict_snapshot(self):
        tree = PartitionTree.complete(1, initial_count=2.0)
        snapshot = tree.as_dict()
        assert snapshot[()] == 2.0
        assert len(snapshot) == 3

    def test_merge_sums_counts_of_the_same_cells(self):
        merged = pruned_tree().merge(pruned_tree())
        assert merged.as_dict() == {cell: 2 * count for cell, count in pruned_tree().nodes()}

    def test_merge_requires_the_same_cells(self):
        with pytest.raises(ValueError):
            pruned_tree().merge(PartitionTree.complete(2))
        with pytest.raises(TypeError):
            pruned_tree().merge({})

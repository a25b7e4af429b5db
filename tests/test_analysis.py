"""Tests for the Theorem-3 proof-pipeline diagnostics."""

import numpy as np
import pytest

from repro.analysis.decomposition import build_exact_pruned_tree, decompose_error
from repro.core.config import PrivHPConfig
from repro.stream.generators import sparse_cluster_stream, zipf_cell_stream


class TestBuildExactPrunedTree:
    def test_counts_are_exact_on_kept_cells(self, interval, rng):
        data = rng.random(500)
        tree = build_exact_pruned_tree(data, interval, pruning_k=4, level_cutoff=3, depth=6)
        codes, counts = interval.level_frequencies(data, 2)
        stored_codes, stored_counts = tree.level(2)
        assert stored_codes.tolist() == [0, 1, 2, 3]
        assert stored_counts[codes].tolist() == counts.tolist()

    def test_structure_respects_pruning(self, interval, rng):
        data = rng.random(500)
        tree = build_exact_pruned_tree(data, interval, pruning_k=2, level_cutoff=2, depth=6)
        for level in range(4, 7):
            assert len(tree.nodes_at_level(level)) <= 4

    def test_root_holds_all_points(self, interval, rng):
        data = rng.random(321)
        tree = build_exact_pruned_tree(data, interval, pruning_k=2, level_cutoff=2, depth=5)
        assert tree.count(()) == pytest.approx(321)

    def test_sparse_data_fully_captured(self, interval, rng):
        """With mass in fewer than k cells, pruning loses nothing at any level."""
        data = sparse_cluster_stream(400, dimension=1, num_clusters=2,
                                     cluster_width=0.002, rng=rng)
        tree = build_exact_pruned_tree(data, interval, pruning_k=4, level_cutoff=2, depth=8)
        deepest = sum(tree.count(theta) for theta in tree.nodes_at_level(8))
        assert deepest >= 0.9 * 400

    def test_invalid_parameters(self, interval, rng):
        with pytest.raises(ValueError):
            build_exact_pruned_tree([], interval, 2, 2, 4)
        with pytest.raises(ValueError):
            build_exact_pruned_tree(rng.random(10), interval, 0, 2, 4)
        with pytest.raises(ValueError):
            build_exact_pruned_tree(rng.random(10), interval, 2, 5, 4)


class TestDecomposeError:
    def test_report_structure_and_ordering(self, interval, rng):
        data = zipf_cell_stream(2000, dimension=1, level=8, exponent=1.3, rng=rng)
        config = PrivHPConfig.from_stream_size(len(data), epsilon=1.0, pruning_k=8, seed=0)
        report = decompose_error(data, interval, config, rng=0)
        assert set(report) >= {
            "exact_pruning_error", "total_error", "noise_and_approx_error",
            "tail_norm", "predicted_noise_term", "predicted_approx_term",
        }
        assert report["exact_pruning_error"] >= 0.0
        assert report["total_error"] >= 0.0
        assert report["noise_and_approx_error"] == pytest.approx(
            max(report["total_error"] - report["exact_pruning_error"], 0.0)
        )

    def test_noise_component_shrinks_with_epsilon(self, interval, rng):
        data = zipf_cell_stream(1500, dimension=1, level=8, exponent=1.3,
                                rng=np.random.default_rng(5))

        def total_error(epsilon):
            config = PrivHPConfig.from_stream_size(len(data), epsilon=epsilon,
                                                   pruning_k=8, seed=1)
            return decompose_error(data, interval, config, rng=1)["total_error"]

        assert total_error(500.0) <= total_error(0.2) + 0.01

    def test_empty_data_rejected(self, interval):
        config = PrivHPConfig.from_stream_size(10, epsilon=1.0, pruning_k=2)
        with pytest.raises(ValueError):
            decompose_error([], interval, config)

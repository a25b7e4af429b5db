"""Tests for the hypercube domain."""

import numpy as np
import pytest

from repro.api import PrivHPBuilder
from repro.domain.hypercube import Hypercube


class TestGeometry:
    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            Hypercube(0)

    def test_diameter_is_one(self, square):
        assert square.diameter() == 1.0

    def test_distance_is_linf(self, square):
        assert square.distance([0.0, 0.0], [0.3, 0.7]) == pytest.approx(0.7)

    def test_cell_bounds_alternate_axes(self, square):
        lower, upper = square.cell_bounds((1, 0))
        np.testing.assert_allclose(lower, [0.5, 0.0])
        np.testing.assert_allclose(upper, [1.0, 0.5])

    def test_cell_diameter_is_max_side(self, square):
        # After one split only axis 0 has been halved, so the diameter is 1.0... no:
        # level 1 cell has sides (0.5, 1.0) -> linf diameter 1.0? The level_max
        # formula says 2^{-floor(1/2)} = 1.0.
        assert square.cell_diameter((0,)) == pytest.approx(1.0)
        assert square.cell_diameter((0, 1)) == pytest.approx(0.5)

    def test_level_max_diameter_formula(self, cube):
        for level in range(10):
            assert cube.level_max_diameter(level) == pytest.approx(
                2.0 ** (-(level // 3))
            )

    def test_level_total_diameter(self, square):
        # Gamma_l = 2^l * 2^{-floor(l/2)}.
        assert square.level_total_diameter(4) == pytest.approx(16 * 0.25)


class TestLocate:
    def test_locate_respects_bounds(self, cube, rng):
        for _ in range(50):
            point = rng.random(3)
            theta = cube.locate(point, 7)
            lower, upper = cube.cell_bounds(theta)
            assert np.all(point >= lower - 1e-12)
            assert np.all(point <= upper + 1e-12)

    def test_locate_is_prefix_consistent(self, square, rng):
        point = rng.random(2)
        deep = square.locate(point, 8)
        for level in range(8):
            assert square.locate(point, level) == deep[:level]

    def test_wrong_dimension_raises(self, square):
        with pytest.raises(ValueError):
            square.locate([0.1, 0.2, 0.3], 2)

    def test_scalar_accepted_for_dimension_one(self):
        line = Hypercube(1)
        assert line.locate(0.75, 2) == (1, 1)

    def test_negative_level_raises(self, square):
        with pytest.raises(ValueError):
            square.locate([0.5, 0.5], -2)

    def test_non_finite_rejected_by_both_locate_paths(self, square):
        """NaN/inf must fail loud instead of silently binning to a wrong cell."""
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError):
                square.locate([bad, 0.5], 4)
            with pytest.raises(ValueError):
                square.locate_batch(np.array([[0.2, 0.3], [bad, 0.5]]), 4)

    @pytest.mark.parametrize("bad", [[7.0, -3.0], [1.0 + 1e-12, 0.5], [0.5, -1e-300]])
    def test_out_of_domain_rejected_by_both_locate_paths(self, square, bad):
        """A coordinate outside [0, 1] is an error, not a point of the edge
        cell, as on the interval and geo domains."""
        with pytest.raises(ValueError, match="outside"):
            square.locate(bad, 4)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            square.locate_batch(np.array([[0.2, 0.3], bad]), 4)

    def test_closed_unit_cube_is_in_domain(self, square):
        corners = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        bits = square.locate_batch(corners, 4)
        assert [tuple(row) for row in bits] == [square.locate(c, 4) for c in corners]
        assert square.locate([1.0, 1.0], 4) == (1, 1, 1, 1)

    @pytest.mark.parametrize("continual", [False, True])
    def test_summarizer_rejects_out_of_domain_batch(self, continual):
        builder = PrivHPBuilder("hypercube:2").stream_size(256).seed(3)
        summarizer = (builder.continual() if continual else builder).build()
        with pytest.raises(ValueError):
            summarizer.update_batch(np.array([[7.0, -3.0]]))
        assert summarizer.items_processed == 0


class TestSampling:
    def test_sample_cell_inside_bounds(self, square, rng):
        theta = (1, 1, 0, 0)
        lower, upper = square.cell_bounds(theta)
        for _ in range(50):
            point = square.sample_cell(theta, rng)
            assert np.all(point >= lower)
            assert np.all(point <= upper)

    def test_sample_uniform_shape(self, cube, rng):
        points = cube.sample_uniform(20, rng)
        assert points.shape == (20, 3)

    def test_contains(self, square):
        assert square.contains([0.0, 1.0])
        assert not square.contains([0.5, 1.2])
        assert not square.contains([0.5])


class TestPartitionStructure:
    def test_children_partition_parent(self, square, rng):
        """Every point of a parent cell lies in exactly one child cell."""
        parent = (0, 1)
        left, right = parent + (0,), parent + (1,)
        for _ in range(100):
            point = square.sample_cell(parent, rng)
            in_left = square.locate(point, 3) == left
            in_right = square.locate(point, 3) == right
            assert in_left != in_right

    def test_level_frequencies_sum_to_n(self, square, rng):
        data = rng.random((300, 2))
        _, counts = square.level_frequencies(data, 5)
        assert counts.sum() == 300

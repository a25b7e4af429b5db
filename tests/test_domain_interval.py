"""Tests for the unit-interval domain."""

import numpy as np
import pytest

from repro.domain.hypercube import Hypercube


class TestGeometry:
    def test_diameter(self, interval):
        assert interval.diameter() == 1.0

    def test_distance_is_absolute_difference(self, interval):
        assert interval.distance(0.2, 0.7) == pytest.approx(0.5)

    def test_cell_bounds_root(self, interval):
        assert interval.cell_bounds(()) == (0.0, 1.0)

    def test_cell_bounds_level_two(self, interval):
        assert interval.cell_bounds((1, 0)) == (0.5, 0.75)

    def test_cell_diameter_halves_per_level(self, interval):
        for level in range(8):
            assert interval.cell_diameter((0,) * level) == pytest.approx(2.0**-level)

    def test_level_max_diameter_matches_cells(self, interval):
        for level in range(6):
            assert interval.level_max_diameter(level) == interval.cell_diameter((1,) * level)

    def test_level_total_diameter(self, interval):
        # 2^l cells of length 2^-l each sum to 1 at every level.
        for level in range(6):
            assert interval.level_total_diameter(level) == pytest.approx(1.0)


class TestLocate:
    def test_root_location_is_empty(self, interval):
        assert interval.locate(0.3, 0) == ()

    def test_locate_matches_bounds(self, interval, rng):
        for point in rng.random(50):
            for level in (1, 3, 6):
                theta = interval.locate(point, level)
                lower, upper = interval.cell_bounds(theta)
                assert lower <= point <= upper

    def test_out_of_domain_point_raises(self, interval):
        with pytest.raises(ValueError):
            interval.locate(1.5, 3)

    def test_locate_batch_rejects_out_of_range_and_nan(self, interval):
        """The batch path must fail loud like the scalar path, NaN included."""
        with pytest.raises(ValueError):
            interval.locate_batch(np.array([0.2, 1.5]), 3)
        with pytest.raises(ValueError):
            interval.locate_batch(np.array([0.2, np.nan]), 3)

    def test_negative_level_raises(self, interval):
        with pytest.raises(ValueError):
            interval.locate(0.5, -1)

    def test_agrees_with_one_dimensional_hypercube(self, interval, rng):
        cube = Hypercube(1)
        for point in rng.random(30):
            assert interval.locate(point, 6) == cube.locate(np.array([point]), 6)


class TestSampling:
    def test_sample_cell_stays_inside(self, interval, rng):
        theta = (1, 0, 1)
        lower, upper = interval.cell_bounds(theta)
        for _ in range(100):
            value = interval.sample_cell(theta, rng)
            assert lower <= value <= upper

    def test_sample_uniform_shape(self, interval, rng):
        samples = interval.sample_uniform(10, rng)
        assert samples.shape == (10,)

    def test_contains(self, interval):
        assert interval.contains(0.0)
        assert interval.contains(1.0)
        assert not interval.contains(-0.1)
        assert not interval.contains("not a number")


class TestBulkHelpers:
    def test_level_frequencies_partition_the_data(self, interval, rng):
        data = rng.random(200)
        codes, counts = interval.level_frequencies(data, 4)
        assert counts.sum() == 200
        assert np.all(np.diff(codes) > 0) and codes.min() >= 0 and codes.max() < 16

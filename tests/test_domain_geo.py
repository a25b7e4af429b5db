"""Tests for the geographic domain."""

import numpy as np
import pytest

from repro.domain.geo import GeoDomain


class TestConstruction:
    def test_invalid_boxes_rejected(self):
        with pytest.raises(ValueError):
            GeoDomain(lat_min=10, lat_max=5)
        with pytest.raises(ValueError):
            GeoDomain(lon_min=0, lon_max=0)

    def test_default_box_is_whole_globe(self):
        domain = GeoDomain()
        assert domain.contains((0.0, 0.0))
        assert domain.contains((-90.0, 180.0))


class TestGeometry:
    def test_diameter_normalised_to_one(self, geo):
        assert geo.diameter() == 1.0

    def test_distance_normalised(self, geo):
        corner_a = (geo.lat_min, geo.lon_min)
        corner_b = (geo.lat_max, geo.lon_max)
        assert geo.distance(corner_a, corner_b) == pytest.approx(1.0)

    def test_cell_diameter_halves_every_two_levels(self, geo):
        assert geo.cell_diameter(()) == 1.0
        assert geo.cell_diameter((0, 1)) == pytest.approx(0.5)
        assert geo.cell_diameter((0, 1, 1, 0)) == pytest.approx(0.25)

    def test_level_max_diameter(self, geo):
        assert geo.level_max_diameter(6) == pytest.approx(2.0**-3)


class TestLocateAndSample:
    def test_locate_respects_cell_bounds(self, geo, rng):
        for _ in range(50):
            lat = geo.lat_min + rng.random() * (geo.lat_max - geo.lat_min)
            lon = geo.lon_min + rng.random() * (geo.lon_max - geo.lon_min)
            theta = geo.locate((lat, lon), 6)
            point = geo.sample_cell(theta, rng)
            assert geo.locate(point, 6) == theta

    def test_locate_outside_box_raises(self, geo):
        with pytest.raises(ValueError):
            geo.locate((0.0, 0.0), 4)

    def test_locate_batch_rejects_out_of_range_and_nan(self, geo):
        """The batch path must fail loud like the scalar path, NaN included."""
        inside = [(geo.lat_min + 0.1, geo.lon_min + 0.1)]
        with pytest.raises(ValueError):
            geo.locate_batch(np.array(inside + [(0.0, 0.0)]), 4)
        with pytest.raises(ValueError):
            geo.locate_batch(np.array(inside + [(np.nan, geo.lon_min + 0.1)]), 4)

    def test_sample_cell_inside_box(self, geo, rng):
        theta = (1, 0, 1)
        for _ in range(50):
            lat, lon = geo.sample_cell(theta, rng)
            assert geo.lat_min <= lat <= geo.lat_max
            assert geo.lon_min <= lon <= geo.lon_max

    def test_contains_rejects_garbage(self, geo):
        assert not geo.contains("nowhere")
        assert not geo.contains((200.0, 0.0))

    def test_level_frequencies_counts_everything(self, geo, rng):
        points = np.column_stack(
            [
                geo.lat_min + rng.random(100) * (geo.lat_max - geo.lat_min),
                geo.lon_min + rng.random(100) * (geo.lon_max - geo.lon_min),
            ]
        )
        _, counts = geo.level_frequencies(points, 4)
        assert counts.sum() == 100

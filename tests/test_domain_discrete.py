"""Tests for the finite ordered domain."""

import numpy as np
import pytest

from repro.api.builder import PrivHPBuilder
from repro.baselines.base import PrivHPMethod
from repro.domain.discrete import DiscreteDomain
from repro.ingest.spec import TenantSpec


class TestConstruction:
    def test_minimum_size(self):
        with pytest.raises(ValueError):
            DiscreteDomain(size=1)

    def test_max_depth_covers_universe(self):
        domain = DiscreteDomain(size=100)
        assert 2**domain.max_depth >= 100


class TestGeometry:
    def test_diameter(self, discrete):
        assert discrete.diameter() == 1.0

    def test_distance_normalised(self, discrete):
        assert discrete.distance(0, 99) == pytest.approx(1.0)
        assert discrete.distance(10, 10) == 0.0

    def test_cell_range_root_covers_everything(self, discrete):
        assert discrete.cell_range(()) == (0, 99)

    def test_cell_ranges_partition(self, discrete):
        low0, high0 = discrete.cell_range((0,))
        low1, high1 = discrete.cell_range((1,))
        assert low0 == 0
        assert high1 == 99
        assert high0 + 1 == low1

    def test_cell_diameter_shrinks(self, discrete):
        assert discrete.cell_diameter(()) > discrete.cell_diameter((0,)) > discrete.cell_diameter((0, 0))


class TestLocateAndSample:
    def test_locate_respects_ranges(self, discrete):
        for item in (0, 17, 49, 50, 99):
            for level in (1, 3, 5):
                theta = discrete.locate(item, level)
                low, high = discrete.cell_range(theta)
                assert low <= item <= high

    def test_locate_beyond_max_depth_is_well_defined(self, discrete):
        theta = discrete.locate(42, discrete.max_depth + 3)
        assert len(theta) == discrete.max_depth + 3

    def test_locate_rejects_out_of_universe(self, discrete):
        with pytest.raises(ValueError):
            discrete.locate(100, 2)

    def test_sample_cell_inside_range(self, discrete, rng):
        theta = discrete.locate(25, 3)
        low, high = discrete.cell_range(theta)
        for _ in range(50):
            assert low <= discrete.sample_cell(theta, rng) <= high

    def test_children_of_a_single_item_cell_cover_that_item(self, rng):
        domain = DiscreteDomain(size=3)
        assert domain.cell_range((1,)) == (2, 2)
        for theta in ((1, 0), (1, 1), (1, 1, 1, 1)):
            assert domain.cell_range(theta) == (2, 2)
            assert domain.cell_diameter(theta) == 0.0
            assert domain.sample_cell(theta, rng) == 2

    def test_contains(self, discrete):
        assert discrete.contains(0)
        assert discrete.contains(99)
        assert not discrete.contains(100)
        assert not discrete.contains("x")


class TestReleases:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_no_mass_is_lost_on_a_non_power_of_two_universe(self, seed):
        """Noise on the halves of single-item cells used to land on empty
        ranges: the leaf table dropped that mass and sampling raised."""
        items = np.random.default_rng(seed).integers(0, 1000, 1000)
        release = (
            PrivHPBuilder("discrete:1000").stream_size(1000).seed(seed).build()
            .update_batch(items).release()
        )
        assert release.mass(0, 999) == pytest.approx(1.0, abs=1e-12)
        samples = release.sample(2000)
        assert samples.min() >= 0 and samples.max() <= 999

    def test_more_items_than_the_universe_resolves(self):
        """The derived depth stops at the first level of single items."""
        items = np.arange(4096) % 1000
        builder = PrivHPBuilder("discrete:1000").stream_size(4096).seed(0)
        assert builder.build_config().depth == 10
        release = builder.build().update_batch(items).release()
        assert release.tree.depth() == 10
        assert release.mass(0, 999) == pytest.approx(1.0, abs=1e-12)
        spec = TenantSpec("t", domain="discrete:1000", stream_size=4096)
        assert spec.build_summarizer().update_batch(items).release().items_processed == 4096
        assert PrivHPMethod(DiscreteDomain(1000), 1.0, 8).build_config(4096).depth == 10

    def test_explicit_depth_is_left_alone(self):
        builder = PrivHPBuilder("discrete:1000").stream_size(4096).override(depth=12)
        assert builder.build_config().depth == 12
        assert PrivHPBuilder("interval").stream_size(4096).build_config().depth == 12

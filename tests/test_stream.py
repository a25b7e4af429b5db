"""Tests for the stream abstraction, workload generators and datasets."""

import numpy as np
import pytest

from repro.domain.geo import GeoDomain
from repro.stream.datasets import (
    geo_checkin_stream,
    ipv4_traffic_stream,
    transaction_amount_stream,
)
from repro.stream.generators import (
    beta_stream,
    gaussian_mixture_stream,
    sparse_cluster_stream,
    uniform_stream,
    zipf_cell_stream,
)
from repro.stream.stream import DataStream


class Collector:
    """Minimal consumer exposing update()."""

    def __init__(self):
        self.items = []

    def update(self, item):
        self.items.append(item)


class TestDataStream:
    def test_single_pass_enforced(self):
        stream = DataStream([1, 2, 3])
        assert list(stream) == [1, 2, 3]
        with pytest.raises(RuntimeError):
            list(stream)

    def test_stats_recorded(self):
        stream = DataStream(range(100))
        list(stream)
        assert stream.stats.items == 100
        assert stream.stats.elapsed_seconds >= 0.0

    def test_feed_pushes_into_consumer(self):
        stream = DataStream(range(10))
        consumer = Collector()
        stats = stream.feed(consumer)
        assert consumer.items == list(range(10))
        assert stats.items == 10
        assert stats.items_per_second >= 0.0

    def test_feed_after_iteration_rejected(self):
        stream = DataStream(range(3))
        list(stream)
        with pytest.raises(RuntimeError):
            stream.feed(Collector())

    def test_empty_stream_stats(self):
        stats = DataStream([]).feed(Collector())
        assert stats.items == 0
        assert stats.items_per_second == 0.0
        assert stats.seconds_per_item == 0.0


class TestGenerators:
    @pytest.mark.parametrize("dimension", [1, 2, 3])
    def test_uniform_stream_shapes_and_range(self, dimension, rng):
        data = uniform_stream(200, dimension=dimension, rng=rng)
        expected_shape = (200,) if dimension == 1 else (200, dimension)
        assert data.shape == expected_shape
        assert np.all((data >= 0) & (data <= 1))

    def test_gaussian_mixture_in_cube(self, rng):
        data = gaussian_mixture_stream(500, dimension=2, rng=rng)
        assert data.shape == (500, 2)
        assert np.all((data >= 0) & (data <= 1))

    def test_zipf_stream_is_skewed(self, interval, rng):
        skewed = zipf_cell_stream(2000, dimension=1, level=6, exponent=2.0, rng=rng)
        flat = zipf_cell_stream(2000, dimension=1, level=6, exponent=0.0, rng=rng)
        from repro.metrics.tail import tail_norm

        assert tail_norm(skewed, interval, 6, 4) < tail_norm(flat, interval, 6, 4)

    def test_zipf_stream_two_dimensional(self, rng):
        data = zipf_cell_stream(300, dimension=2, level=6, exponent=1.5, rng=rng)
        assert data.shape == (300, 2)
        assert np.all((data >= 0) & (data <= 1))

    def test_sparse_cluster_concentration(self, interval, rng):
        data = sparse_cluster_stream(1000, dimension=1, num_clusters=2,
                                     cluster_width=0.005, rng=rng)
        from repro.metrics.tail import tail_norm

        # Nearly all mass sits in at most a handful of level-6 cells.
        assert tail_norm(data, interval, 6, 4) < 0.05 * 1000

    def test_beta_stream_range(self, rng):
        data = beta_stream(400, alpha=2.0, beta=5.0, rng=rng)
        assert np.all((data >= 0) & (data <= 1))

    def test_reproducible_with_seed(self):
        a = gaussian_mixture_stream(100, dimension=2, rng=7)
        b = gaussian_mixture_stream(100, dimension=2, rng=7)
        np.testing.assert_allclose(a, b)

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            uniform_stream(-1)
        with pytest.raises(ValueError):
            zipf_cell_stream(10, level=0)
        with pytest.raises(ValueError):
            beta_stream(10, alpha=0.0)


class TestDatasets:
    def test_ipv4_traffic_addresses_valid(self, ipv4, rng):
        addresses = ipv4_traffic_stream(2000, rng=rng)
        assert np.all((addresses >= 0) & (addresses < 2**32))

    def test_ipv4_traffic_has_heavy_subnets(self, ipv4, rng):
        addresses = ipv4_traffic_stream(3000, num_heavy_subnets=5,
                                        heavy_fraction=0.95, rng=rng)
        _, counts = ipv4.level_frequencies(addresses, 16)
        top5 = np.sort(counts)[::-1][:5].sum()
        assert top5 > 0.7 * 3000

    def test_geo_checkins_inside_box(self, rng):
        domain = GeoDomain(lat_min=24.0, lat_max=49.0, lon_min=-125.0, lon_max=-66.0)
        points = geo_checkin_stream(1000, domain=domain, rng=rng)
        assert np.all(points[:, 0] >= domain.lat_min)
        assert np.all(points[:, 0] <= domain.lat_max)
        assert np.all(points[:, 1] >= domain.lon_min)
        assert np.all(points[:, 1] <= domain.lon_max)

    def test_geo_checkins_clustered(self, rng):
        domain = GeoDomain(lat_min=24.0, lat_max=49.0, lon_min=-125.0, lon_max=-66.0)
        points = geo_checkin_stream(2000, domain=domain, num_cities=3,
                                    city_fraction=0.95, city_spread=0.05, rng=rng)
        _, counts = domain.level_frequencies(points, 8)
        top_share = np.sort(counts)[::-1][:8].sum() / 2000
        assert top_share > 0.5

    def test_transaction_amounts_normalised(self, rng):
        amounts = transaction_amount_stream(1000, rng=rng)
        assert np.all((amounts >= 0) & (amounts <= 1))

    def test_invalid_parameters(self, rng):
        with pytest.raises(ValueError):
            ipv4_traffic_stream(10, heavy_fraction=1.5)
        with pytest.raises(ValueError):
            geo_checkin_stream(10, num_cities=0)
        with pytest.raises(ValueError):
            transaction_amount_stream(10, cap=0.0)

"""Tests for range, CDF, marginal and quantile queries on the released tree."""

import numpy as np
import pytest

from repro.baselines.pmm import build_exact_tree
from repro.core.config import PrivHPConfig
from repro.core.privhp import PrivHP
from repro.core.tree import PartitionTree
from repro.queries.quantiles import QuantileEngine
from repro.queries.range_queries import RangeQueryEngine
from repro.queries.workload import (
    RangeQuery,
    evaluate_range_workload,
    random_range_queries,
    true_mass,
)


def exact_engine(data, domain, depth):
    """A query engine over the exact (noise-free) tree of the data."""
    tree = build_exact_tree(list(data), domain, depth)
    return RangeQueryEngine(tree, domain)


class TestRangeQueriesInterval:
    def test_full_domain_has_mass_one(self, interval, rng):
        engine = exact_engine(rng.random(200), interval, depth=6)
        assert engine.mass(0.0, 1.0) == pytest.approx(1.0)

    def test_empty_range_has_mass_zero(self, interval, rng):
        engine = exact_engine(rng.random(200), interval, depth=6)
        assert engine.mass(0.3, 0.3) == pytest.approx(0.0, abs=1e-6)

    def test_half_domain_on_uniform_data(self, interval, rng):
        engine = exact_engine(rng.random(4000), interval, depth=8)
        assert engine.mass(0.0, 0.5) == pytest.approx(0.5, abs=0.05)

    def test_matches_true_mass_on_cell_aligned_query(self, interval, rng):
        data = rng.random(1000)
        engine = exact_engine(data, interval, depth=6)
        query = RangeQuery(lower=0.25, upper=0.5)
        assert engine.mass(query.lower, query.upper) == pytest.approx(
            true_mass(data, interval, query), abs=0.001
        )

    def test_count_scales_mass_by_total(self, interval, rng):
        data = rng.random(500)
        engine = exact_engine(data, interval, depth=6)
        assert engine.count(0.0, 1.0) == pytest.approx(500, abs=0.5)

    def test_cdf_monotone(self, interval, rng):
        engine = exact_engine(rng.beta(2, 5, 800), interval, depth=8)
        values = [engine.cdf(x) for x in np.linspace(0, 1, 11)]
        assert all(a <= b + 1e-9 for a, b in zip(values, values[1:]))
        assert values[-1] == pytest.approx(1.0, abs=1e-6)

    def test_invalid_bounds_rejected(self, interval, rng):
        engine = exact_engine(rng.random(50), interval, depth=4)
        with pytest.raises(ValueError):
            engine.mass(0.7, 0.2)


class TestRangeQueriesOtherDomains:
    def test_hypercube_box_query(self, square, rng):
        data = rng.random((2000, 2))
        engine = exact_engine(data, square, depth=8)
        estimate = engine.mass((0.0, 0.0), (0.5, 0.5))
        assert estimate == pytest.approx(0.25, abs=0.05)

    def test_hypercube_dimension_mismatch(self, square, rng):
        engine = exact_engine(rng.random((100, 2)), square, depth=4)
        with pytest.raises(ValueError):
            engine.mass((0.0,), (0.5,))

    def test_ipv4_prefix_query(self, ipv4, rng):
        addresses = np.concatenate(
            [
                rng.integers(10 << 24, (10 << 24) + (1 << 24), size=700),
                rng.integers(0, 2**32, size=300),
            ]
        )
        engine = exact_engine(addresses, ipv4, depth=10)
        low = ipv4.parse("10.0.0.0")
        high = ipv4.parse("10.255.255.255")
        assert engine.mass(low, high) == pytest.approx(0.7, abs=0.07)

    def test_ipv4_accepts_dotted_quad_bounds(self, ipv4, rng):
        addresses = rng.integers(0, 2**32, size=200)
        engine = exact_engine(addresses, ipv4, depth=8)
        value = engine.mass("0.0.0.0", "255.255.255.255")
        assert value == pytest.approx(1.0)

    def test_discrete_range_query(self, discrete, rng):
        items = rng.integers(0, 100, size=1000)
        engine = exact_engine(items, discrete, depth=7)
        query = RangeQuery(lower=0, upper=49)
        assert engine.mass(0, 49) == pytest.approx(
            true_mass(items, discrete, query), abs=0.05
        )

    def test_marginal_sums_to_one(self, square, rng):
        engine = exact_engine(rng.random((500, 2)), square, depth=6)
        marginal = engine.marginal(axis=0, bins=16)
        assert marginal.sum() == pytest.approx(1.0, abs=1e-6)
        assert marginal.shape == (16,)

    def test_marginal_detects_concentration(self, square, rng):
        data = np.column_stack([np.full(500, 0.1), rng.random(500)])
        engine = exact_engine(data, square, depth=8)
        marginal = engine.marginal(axis=0, bins=10)
        # All the mass sits around x = 0.1; the leaf containing it straddles the
        # first two slabs, so together they must hold essentially everything.
        assert marginal[0] + marginal[1] > 0.9
        assert marginal[5:].sum() < 0.05

    def test_marginal_invalid_axis(self, square, rng):
        engine = exact_engine(rng.random((50, 2)), square, depth=4)
        with pytest.raises(ValueError):
            engine.marginal(axis=5)

    def test_marginal_requires_vector_domain(self, interval, rng):
        engine = exact_engine(rng.random(50), interval, depth=4)
        with pytest.raises(TypeError):
            engine.marginal(axis=0)


class TestQueriesOnPrivateRelease:
    def test_private_range_answers_close_to_truth(self, interval, rng):
        data = rng.beta(2, 6, size=4000)
        config = PrivHPConfig.from_stream_size(len(data), epsilon=2.0, pruning_k=8, seed=0)
        algorithm = PrivHP(interval, config, rng=0).update_batch(data)
        algorithm.release()
        engine = RangeQueryEngine(algorithm.tree, interval)
        report = evaluate_range_workload(
            engine, data, interval, random_range_queries(interval, 30, rng=0)
        )
        assert report["mean_abs_error"] < 0.05
        assert report["max_abs_error"] < 0.2

    def test_degenerate_tree_answers_with_uniform(self, interval):
        engine = RangeQueryEngine(PartitionTree(0.0), interval)
        assert engine.mass(0.0, 0.25) == pytest.approx(0.25)


class TestQuantiles:
    def test_uniform_data_quantiles(self, interval, rng):
        tree = build_exact_tree(rng.random(4000), interval, depth=10)
        engine = QuantileEngine(tree, interval)
        assert engine.quantile(0.5) == pytest.approx(0.5, abs=0.05)
        assert engine.quantile(0.9) == pytest.approx(0.9, abs=0.05)

    def test_skewed_data_quantiles(self, interval, rng):
        data = rng.beta(2, 8, size=4000)
        tree = build_exact_tree(data, interval, depth=10)
        engine = QuantileEngine(tree, interval)
        for probability in (0.1, 0.5, 0.9):
            assert engine.quantile(probability) == pytest.approx(
                float(np.quantile(data, probability)), abs=0.03
            )

    def test_quantiles_monotone(self, interval, rng):
        tree = build_exact_tree(rng.beta(2, 5, 1000), interval, depth=8)
        engine = QuantileEngine(tree, interval)
        values = engine.quantiles(np.linspace(0, 1, 21))
        assert all(a <= b + 1e-9 for a, b in zip(values, values[1:]))

    def test_median_and_iqr(self, interval, rng):
        data = rng.random(2000)
        engine = QuantileEngine(build_exact_tree(data, interval, depth=9), interval)
        assert engine.median() == pytest.approx(0.5, abs=0.05)
        assert engine.interquartile_range() == pytest.approx(0.5, abs=0.07)

    def test_discrete_domain_quantiles_are_integers(self, discrete, rng):
        items = rng.integers(0, 100, size=1000)
        engine = QuantileEngine(build_exact_tree(items, discrete, depth=7), discrete)
        value = engine.quantile(0.5)
        assert isinstance(value, int)
        assert 0 <= value < 100

    def test_invalid_probability(self, interval, rng):
        engine = QuantileEngine(build_exact_tree(rng.random(50), interval, depth=4), interval)
        with pytest.raises(ValueError):
            engine.quantile(1.5)

    def test_vector_domain_rejected(self, square):
        with pytest.raises(TypeError):
            QuantileEngine(PartitionTree(), square)

    def test_empty_tree_falls_back_to_uniform_quantile(self, interval):
        engine = QuantileEngine(PartitionTree(0.0), interval)
        assert engine.quantile(0.25) == pytest.approx(0.25)


class TestWorkload:
    def test_random_queries_within_domain(self, interval, square, ipv4, discrete):
        for domain in (interval, square, ipv4, discrete):
            queries = random_range_queries(domain, 20, rng=0)
            assert len(queries) == 20

    def test_random_queries_validation(self, interval):
        with pytest.raises(ValueError):
            random_range_queries(interval, -1)
        with pytest.raises(ValueError):
            random_range_queries(interval, 5, min_width=0.9, max_width=0.1)

    def test_true_mass_matches_manual_count(self, interval):
        data = np.array([0.1, 0.2, 0.6, 0.9])
        assert true_mass(data, interval, RangeQuery(0.0, 0.5)) == pytest.approx(0.5)

    def test_evaluate_workload_structure(self, interval, rng):
        data = rng.random(300)
        engine = exact_engine(data, interval, depth=8)
        report = evaluate_range_workload(
            engine, data, interval, random_range_queries(interval, 10, rng=1)
        )
        assert report["num_queries"] == 10
        assert 0.0 <= report["mean_abs_error"] <= report["max_abs_error"]

    def test_evaluate_workload_requires_queries(self, interval, rng):
        engine = exact_engine(rng.random(50), interval, depth=4)
        with pytest.raises(ValueError):
            evaluate_range_workload(engine, rng.random(50), interval, [])

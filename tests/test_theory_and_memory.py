"""Tests for the theoretical bound evaluators and memory accounting."""

import pytest

from repro.core.config import PrivHPConfig
from repro.core.privhp import PrivHP
from repro.memory.accounting import measure_method, measure_privhp
from repro.theory.bounds import (
    corollary1_bound,
    memory_words_bound,
    pmm_bound,
    privhp_approx_term,
    privhp_noise_term,
    smooth_bound,
    srrw_bound,
    theorem3_bound,
)
from repro.theory.comparison import table1_rows


class TestPrivHPBounds:
    def test_noise_term_decreases_with_epsilon(self, interval):
        loose = privhp_noise_term(interval, 4096, 0.5, 12, 8, 8, 12)
        tight = privhp_noise_term(interval, 4096, 2.0, 12, 8, 8, 12)
        assert tight < loose

    def test_noise_term_decreases_with_n(self, interval):
        small = privhp_noise_term(interval, 1024, 1.0, 10, 7, 8, 10)
        large = privhp_noise_term(interval, 65536, 1.0, 16, 10, 8, 16)
        assert large < small

    def test_approx_term_zero_for_zero_tail_and_deep_sketch(self, interval):
        value = privhp_approx_term(interval, 4096, tail_norm=0.0, depth=12,
                                   level_cutoff=8, sketch_depth=40)
        assert value == pytest.approx(0.0, abs=1e-9)

    def test_approx_term_grows_with_tail(self, interval):
        low = privhp_approx_term(interval, 4096, 10.0, 12, 8, 12)
        high = privhp_approx_term(interval, 4096, 1000.0, 12, 8, 12)
        assert high > low

    def test_theorem3_is_sum_of_terms(self, square):
        noise = privhp_noise_term(square, 4096, 1.0, 12, 8, 8, 12)
        approx = privhp_approx_term(square, 4096, 100.0, 12, 8, 12)
        total = theorem3_bound(square, 4096, 1.0, 12, 8, 8, 12, 100.0)
        assert total == pytest.approx(noise + approx)

    def test_corollary1_decreases_with_memory_for_d2(self):
        """For d >= 2 the approx term shrinks with k faster than noise grows at these scales."""
        small_k = corollary1_bound(2, 10**6, 1.0, 2, tail_norm=10**5)
        large_k = corollary1_bound(2, 10**6, 1.0, 64, tail_norm=10**5)
        assert large_k < small_k

    def test_memory_bound_polylogarithmic(self):
        assert memory_words_bound(2**20, 8) == pytest.approx(8 * 400)
        assert memory_words_bound(2**20, 8) < 2**20


class TestBaselineBounds:
    def test_pmm_beats_smooth(self):
        # The asymptotic ordering of Table 1; for d=1 the crossover happens
        # late because of PMM's log^2 factor, so use a large n.
        assert pmm_bound(1, 10**8, 1.0) < smooth_bound(1, 10**8, 1.0)
        assert pmm_bound(2, 10**5, 1.0) < smooth_bound(2, 10**5, 1.0)

    def test_srrw_close_to_pmm(self):
        ratio = srrw_bound(2, 10**5, 1.0) / pmm_bound(2, 10**5, 1.0)
        assert 1.0 <= ratio < 10.0

    def test_bounds_decrease_with_n(self):
        for bound in (pmm_bound, srrw_bound):
            assert bound(2, 10**6, 1.0) < bound(2, 10**4, 1.0)
        assert smooth_bound(2, 10**6, 1.0) < smooth_bound(2, 10**4, 1.0)

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            pmm_bound(0, 100, 1.0)
        with pytest.raises(ValueError):
            smooth_bound(2, 100, 1.0, smoothness_order=0)


class TestTable1Rows:
    def test_contains_all_methods(self):
        rows = table1_rows(2, 10**5, 1.0, 8, tail_norm=10**4)
        assert [row.method for row in rows] == ["Smooth", "SRRW", "PMM", "PrivHP"]

    def test_privhp_memory_is_smallest_for_large_n(self):
        rows = {row.method: row for row in table1_rows(2, 10**6, 1.0, 8, tail_norm=10**5)}
        assert rows["PrivHP"].memory_bound < rows["PMM"].memory_bound
        assert rows["PrivHP"].memory_bound < rows["SRRW"].memory_bound

    def test_pmm_accuracy_best_or_equal(self):
        rows = {row.method: row for row in table1_rows(2, 10**6, 1.0, 8, tail_norm=10**5)}
        assert rows["PMM"].accuracy_bound <= rows["Smooth"].accuracy_bound
        assert rows["PMM"].accuracy_bound <= rows["PrivHP"].accuracy_bound * 1.01

    def test_as_dict_round_trip(self):
        row = table1_rows(1, 1000, 1.0, 4, 100.0)[0]
        data = row.as_dict()
        assert data["method"] == "Smooth"
        assert data["accuracy_bound"] == row.accuracy_bound


class TestMemoryAccounting:
    def test_privhp_report_breaks_down_components(self, interval, rng):
        config = PrivHPConfig(epsilon=1.0, pruning_k=4, depth=8, level_cutoff=4,
                              sketch_width=8, sketch_depth=4, seed=0)
        algorithm = PrivHP(interval, config, rng=0)
        algorithm.update_batch(rng.random(100))
        report = measure_privhp(algorithm)
        assert report.total_words == algorithm.memory_words()
        assert report.components["tree"] == algorithm.tree.memory_words()
        assert sum(report.components.values()) == report.total_words

    def test_report_as_row(self, interval, rng):
        config = PrivHPConfig(epsilon=1.0, pruning_k=2, depth=6, level_cutoff=3,
                              sketch_width=4, sketch_depth=2, seed=0)
        algorithm = PrivHP(interval, config, rng=0)
        row = measure_privhp(algorithm).as_row()
        assert row["method"] == "PrivHP"
        assert row["total_words"] > 0

    def test_measure_generic_method(self, interval, rng):
        from repro.baselines.nonprivate import NonPrivateHistogramMethod

        method = NonPrivateHistogramMethod(interval, max_depth=5)
        method.fit(rng.random(50), rng=0)
        report = measure_method(method)
        assert report.method == "NonPrivate"
        assert report.total_words == method.memory_words()

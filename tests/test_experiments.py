"""Smoke tests for the experiment harness (small parameters only).

The benchmarks drive the same functions with paper-scale parameters; these
tests only assert structural correctness and the cheapest qualitative claims,
so the suite stays fast.
"""


from repro.experiments.ablations import budget_ablation, consistency_ablation, sketch_ablation
from repro.experiments.harness import format_table
from repro.experiments.performance import throughput_experiment
from repro.experiments.skew import skew_experiment
from repro.experiments.table1 import run_table1
from repro.experiments.tradeoffs import (
    epsilon_tradeoff,
    memory_tradeoff,
    stream_length_tradeoff,
)


class TestHarness:
    def test_format_table_alignment(self):
        rows = [{"a": 1, "b": 0.123456}, {"a": 200, "c": "x"}]
        text = format_table(rows)
        lines = text.splitlines()
        assert len(lines) == 4
        assert "a" in lines[0] and "c" in lines[0]

    def test_format_table_empty(self):
        assert format_table([]) == "(no rows)"


class TestTable1:
    def test_structure_of_report(self):
        report = run_table1(dimension=1, stream_size=512, epsilon=1.0,
                            pruning_k=4, repetitions=1, seed=0)
        assert {row["method"] for row in report["predicted"]} == {"Smooth", "SRRW", "PMM", "PrivHP"}
        measured_methods = {row["method"] for row in report["measured"]}
        assert "PrivHP" in measured_methods
        assert "PMM" in measured_methods

    def test_private_methods_beat_nothing_but_are_finite(self):
        report = run_table1(dimension=1, stream_size=512, epsilon=1.0,
                            pruning_k=4, repetitions=1, seed=0, include_nonprivate=False)
        for row in report["measured"]:
            assert 0.0 <= row["wasserstein"] <= 1.0


class TestTradeoffs:
    def test_memory_tradeoff_rows(self):
        rows = memory_tradeoff(pruning_values=(2, 8), dimension=1, stream_size=512,
                               repetitions=1, seed=0)
        assert len(rows) == 2
        assert rows[0]["k"] == 2
        assert rows[1]["memory_words"] >= rows[0]["memory_words"]

    def test_epsilon_tradeoff_rows(self):
        rows = epsilon_tradeoff(epsilons=(0.5, 4.0), dimension=1, stream_size=512,
                                repetitions=1, seed=0)
        assert len(rows) == 2
        assert rows[0]["predicted_bound"] > rows[1]["predicted_bound"]

    def test_stream_length_tradeoff_rows(self):
        rows = stream_length_tradeoff(stream_sizes=(256, 1024), dimension=1,
                                      repetitions=1, seed=0)
        assert len(rows) == 2
        assert rows[1]["n"] == 1024


class TestSkewAndPerformance:
    def test_skew_experiment_tail_decreases_with_exponent(self):
        rows = skew_experiment(exponents=(0.0, 2.0), stream_size=1024,
                               repetitions=1, seed=0)
        assert rows[0]["tail_norm"] > rows[1]["tail_norm"]

    def test_throughput_experiment_reports_memory(self):
        rows = throughput_experiment(stream_sizes=(256, 512), pruning_k=4, seed=0,
                                     synthetic_size=64)
        assert len(rows) == 2
        assert all(row["memory_words"] > 0 for row in rows)
        assert all(row["updates_per_second"] > 0 for row in rows)


class TestAblations:
    def test_budget_ablation_rows(self):
        rows = budget_ablation(stream_size=512, repetitions=1, seed=0)
        assert {row["allocation"] for row in rows} == {"optimal", "uniform"}

    def test_consistency_ablation_rows(self):
        rows = consistency_ablation(stream_size=512, repetitions=1, seed=0)
        assert {row["consistency"] for row in rows} == {True, False}

    def test_sketch_ablation_structure(self):
        report = sketch_ablation(widths=(4, 32), depths=(2, 6), stream_size=2048, seed=0)
        assert len(report["width_sweep"]) == 2
        assert len(report["depth_sweep"]) == 2
        assert report["distinct_cells"] > 0
        # Wider sketches estimate more accurately.
        assert report["width_sweep"][1]["mean_abs_error"] <= report["width_sweep"][0]["mean_abs_error"]

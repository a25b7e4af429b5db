"""Property-based tests (hypothesis) for the core data structures and invariants."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.consistency import enforce_consistency, enforce_tree_consistency
from repro.core.partition import select_top_k
from repro.core.tree import PartitionTree
from repro.domain.hypercube import Hypercube
from repro.domain.interval import UnitInterval
from repro.metrics.tail import tail_norm_from_counts
from repro.metrics.wasserstein import wasserstein1_1d
from repro.core.base import cell_keys
from repro.domain.base import Domain
from repro.sketch.countmin import CountMinSketch

SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

finite_floats = st.floats(min_value=-50.0, max_value=50.0,
                          allow_nan=False, allow_infinity=False)
unit_floats = st.floats(min_value=0.0, max_value=1.0,
                        allow_nan=False, allow_infinity=False)
bits = st.lists(st.integers(min_value=0, max_value=1), min_size=0, max_size=12)


class TestConsistencyProperties:
    @SETTINGS
    @given(parent=st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
           left=finite_floats, right=finite_floats)
    def test_single_step_restores_invariants(self, parent, left, right):
        new_left, new_right = enforce_consistency(
            np.array([parent]), np.array([left]), np.array([right])
        )
        left, right = float(new_left[0]), float(new_right[0])
        assert left >= -1e-9
        assert right >= -1e-9
        assert left + right == np.float64(parent).item() or \
            abs(left + right - parent) < 1e-6 * max(1.0, abs(parent)) + 1e-9

    @SETTINGS
    @given(counts=st.lists(finite_floats, min_size=15, max_size=15))
    def test_subtree_consistency_on_complete_depth3_tree(self, counts):
        tree = PartitionTree.complete(3, initial_count=0.0)
        for level in range(4):
            tree.level(level)[1][:] = counts[(1 << level) - 1 : (2 << level) - 1]
        enforce_tree_consistency(tree)
        assert tree.is_consistent(tolerance=1e-6)

    @SETTINGS
    @given(counts=st.lists(st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
                           min_size=15, max_size=15))
    def test_consistency_preserves_root_mass_when_root_nonnegative(self, counts):
        tree = PartitionTree.complete(3, initial_count=0.0)
        for level in range(4):
            tree.level(level)[1][:] = counts[(1 << level) - 1 : (2 << level) - 1]
        root_before = tree.count(())
        enforce_tree_consistency(tree)
        assert abs(tree.count(()) - root_before) < 1e-9


class TestSketchProperties:
    @SETTINGS
    @given(keys=st.lists(st.integers(min_value=0, max_value=200), min_size=1, max_size=300))
    def test_countmin_never_underestimates(self, keys):
        sketch = CountMinSketch(width=16, depth=4, seed=0)
        cells, counts = np.unique(keys, return_counts=True)
        sketch.update_batch(cell_keys(8, cells), counts.astype(float))
        for key, count in zip(cell_keys(8, cells).tolist(), counts):
            assert sketch.query(key) >= count - 1e-9

    @SETTINGS
    @given(keys=st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=200))
    def test_countmin_total_preserved(self, keys):
        sketch = CountMinSketch(width=8, depth=3, seed=1)
        cells, counts = np.unique(keys, return_counts=True)
        sketch.update_batch(cell_keys(6, cells), counts.astype(float))
        # Every row holds the full stream mass.
        table = sketch.table
        for row in range(3):
            assert table[row].sum() == len(keys)

    @SETTINGS
    @given(key_a=bits, key_b=bits)
    def test_cell_keys_injective_on_short_bit_tuples(self, key_a, key_b):
        def key(cell):
            return int(cell_keys(len(cell), Domain.pack_paths(np.array([cell]).reshape(1, -1)))[0])

        assert (key(key_a) == key(key_b)) == (tuple(key_a) == tuple(key_b))


class TestDomainProperties:
    @SETTINGS
    @given(point=unit_floats, level=st.integers(min_value=0, max_value=16))
    def test_interval_locate_cell_contains_point(self, point, level):
        domain = UnitInterval()
        theta = domain.locate(point, level)
        lower, upper = domain.cell_bounds(theta)
        assert lower <= point <= upper
        assert len(theta) == level

    @SETTINGS
    @given(coords=st.lists(unit_floats, min_size=3, max_size=3),
           level=st.integers(min_value=0, max_value=12))
    def test_hypercube_locate_cell_contains_point(self, coords, level):
        domain = Hypercube(3)
        point = np.array(coords)
        theta = domain.locate(point, level)
        lower, upper = domain.cell_bounds(theta)
        assert np.all(point >= lower - 1e-12)
        assert np.all(point <= upper + 1e-12)

    @SETTINGS
    @given(theta=bits, seed=st.integers(min_value=0, max_value=1000))
    def test_sample_cell_round_trips_through_locate(self, theta, seed):
        domain = UnitInterval()
        point = domain.sample_cell(tuple(theta), np.random.default_rng(seed))
        assert domain.locate(point, len(theta)) == tuple(theta)


class TestMetricProperties:
    @SETTINGS
    @given(a=st.lists(unit_floats, min_size=1, max_size=60),
           b=st.lists(unit_floats, min_size=1, max_size=60))
    def test_wasserstein_symmetry_and_nonnegativity(self, a, b):
        forward = wasserstein1_1d(a, b)
        backward = wasserstein1_1d(b, a)
        assert forward >= 0.0
        assert abs(forward - backward) < 1e-9
        assert forward <= 1.0 + 1e-9

    @SETTINGS
    @given(a=st.lists(unit_floats, min_size=1, max_size=40),
           b=st.lists(unit_floats, min_size=1, max_size=40),
           c=st.lists(unit_floats, min_size=1, max_size=40))
    def test_wasserstein_triangle_inequality(self, a, b, c):
        assert wasserstein1_1d(a, c) <= wasserstein1_1d(a, b) + wasserstein1_1d(b, c) + 1e-9

    @SETTINGS
    @given(counts=st.lists(st.floats(min_value=0.0, max_value=1000.0, allow_nan=False),
                           min_size=0, max_size=50),
           k=st.integers(min_value=0, max_value=60))
    def test_tail_equals_the_sorted_suffix_sum(self, counts, k):
        expected = sum(sorted(counts, reverse=True)[k:])
        assert abs(tail_norm_from_counts(counts, k) - expected) < 1e-6

    @SETTINGS
    @given(counts=st.lists(st.floats(min_value=0.0, max_value=1000.0, allow_nan=False),
                           min_size=1, max_size=50))
    def test_tail_monotone_decreasing_in_k(self, counts):
        values = [tail_norm_from_counts(counts, k) for k in range(len(counts) + 1)]
        assert all(a >= b - 1e-9 for a, b in zip(values, values[1:]))


class TestTopKProperties:
    @SETTINGS
    @given(values=st.dictionaries(
        keys=st.integers(0, 7),
        values=st.floats(min_value=-100, max_value=100, allow_nan=False),
        min_size=0, max_size=8),
        k=st.integers(min_value=0, max_value=10))
    def test_top_k_returns_largest_values(self, values, k):
        codes = np.array(sorted(values), dtype=np.int64)
        selected = select_top_k(codes, np.array([values[code] for code in codes]), k).tolist()
        assert len(selected) == min(k, len(values))
        assert selected == sorted(selected)
        if selected:
            worst_selected = min(values[code] for code in selected)
            unselected = [count for code, count in values.items() if code not in selected]
            if unselected:
                assert worst_selected >= max(unselected) - 1e-12

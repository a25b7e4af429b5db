"""Every vectorised ``cell_bounds_batch`` equals the scalar geometry, bit for bit.

The compiled query tables and the sampler take cell geometry from one
``cell_bounds_batch(level, codes)`` call, while the scalar ``cell_bounds``
(interval, hypercube, geo) and ``cell_range`` (IPv4, discrete) walk one bit
tuple at a time.  Each case compares the two at every level from 0 to 62
(IPv4: 0 to 32) on codes 0, ``2^l - 1`` and random codes.  Levels 54 to 62
are where the interval's halving loop starts to round; discrete levels past
``max_depth`` are where cells hold a single item.  Floats are compared by
their bytes, so ``-0.0`` against ``0.0`` would fail too.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api.registry import make_domain

SPECS = (
    "interval",
    "hypercube:1",
    "hypercube:2",
    "hypercube:3",
    "geo",
    "ipv4",
    "discrete:2",
    "discrete:100",
    "discrete:4096",
)


def _top(spec: str) -> int:
    return 32 if spec == "ipv4" else 62


def _cell(level: int, code: int) -> tuple[int, ...]:
    return tuple((code >> shift) & 1 for shift in range(level - 1, -1, -1))


def _scalar(domain, level: int, code: int):
    scalar = getattr(domain, "cell_bounds", None) or domain.cell_range
    return scalar(_cell(level, code))


def _codes(level: int, rng: np.random.Generator) -> np.ndarray:
    """Code 0, the last code ``2^l - 1``, then random codes of the level."""
    random = rng.integers(0, 1 << level, size=16, dtype=np.int64)
    return np.concatenate([np.array([0, (1 << level) - 1], dtype=np.int64), random])


def _assert_rows_match(domain, levels, codes, low, high):
    for index, (level, code) in enumerate(zip(levels.tolist(), codes.tolist())):
        expected_low, expected_high = _scalar(domain, level, code)
        expected_low = np.asarray(expected_low, dtype=low.dtype)
        expected_high = np.asarray(expected_high, dtype=high.dtype)
        assert low[index].tobytes() == expected_low.tobytes(), (level, code)
        assert high[index].tobytes() == expected_high.tobytes(), (level, code)


_CASES = [(spec, level) for spec in SPECS for level in range(_top(spec) + 1)]


@pytest.mark.parametrize("spec, level", _CASES)
def test_cell_bounds_batch_matches_scalar_geometry(spec, level):
    domain = make_domain(spec)
    codes = _codes(level, np.random.default_rng(level))
    low, high = domain.cell_bounds_batch(level, codes)
    assert low.shape == high.shape
    assert low.shape[0] == codes.size
    integer = spec == "ipv4" or spec.startswith("discrete")
    assert low.dtype == (np.int64 if integer else np.float64)
    _assert_rows_match(domain, np.full(codes.size, level), codes, low, high)


@pytest.mark.parametrize("spec", SPECS)
def test_mixed_levels_in_one_call(spec):
    domain = make_domain(spec)
    rng = np.random.default_rng(5)
    levels = rng.integers(0, _top(spec) + 1, size=300)
    codes = np.array([rng.integers(0, 1 << level) for level in levels.tolist()], dtype=np.int64)
    low, high = domain.cell_bounds_batch(levels, codes)
    _assert_rows_match(domain, levels, codes, low, high)


def test_discrete_cells_past_max_depth_hold_one_item():
    domain = make_domain("discrete:100")
    assert domain.max_depth == 7
    levels = np.arange(domain.max_depth, 63)
    # The all-zeros and all-ones paths end on the first and last items and
    # keep them at every deeper level.
    first = np.zeros(levels.size, dtype=np.int64)
    last = (np.int64(1) << levels) - 1
    for codes, item in ((first, 0), (last, 99)):
        low, high = domain.cell_bounds_batch(levels, codes)
        assert np.all(low == item) and np.all(high == item)
        _assert_rows_match(domain, levels, codes, low, high)


@pytest.mark.parametrize("spec", SPECS)
def test_empty_batch_keeps_shape_and_dtype(spec):
    domain = make_domain(spec)
    low, high = domain.cell_bounds_batch(3, np.empty(0, dtype=np.int64))
    full_low, _ = domain.cell_bounds_batch(3, np.zeros(1, dtype=np.int64))
    assert low.shape == (0, *full_low.shape[1:]) == high.shape
    assert low.dtype == full_low.dtype


@pytest.mark.parametrize("spec", SPECS)
def test_invalid_cells_are_rejected(spec):
    domain = make_domain(spec)
    top = _top(spec)
    with pytest.raises(ValueError, match="levels must lie"):
        domain.cell_bounds_batch(top + 1, np.zeros(1, dtype=np.int64))
    with pytest.raises(ValueError, match="levels must lie"):
        domain.cell_bounds_batch(-1, np.zeros(1, dtype=np.int64))
    with pytest.raises(ValueError, match="codes must lie"):
        domain.cell_bounds_batch(3, np.array([8]))
    with pytest.raises(ValueError, match="codes must lie"):
        domain.cell_bounds_batch(3, np.array([-1]))
    with pytest.raises(ValueError, match="1-d array"):
        domain.cell_bounds_batch(3, np.zeros((2, 2), dtype=np.int64))

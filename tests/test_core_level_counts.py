"""The ingest kernel, :func:`repro.core.base.level_counts`, against a Counter.

Level ``l`` of a segment holds ``Counter(code >> (depth - l))`` of its
full-depth codes.  Levels ``0 .. cutoff`` come back as dense float64
histograms of length ``2^l``; the levels below as ascending distinct cells
with int64 counts.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.base import level_counts


@st.composite
def segments(draw):
    """``(codes, depth, cutoff)``: a segment of 0, 1, a few or a few
    thousand full-depth codes, drawn from a pool of a few or many distinct
    codes so that cells repeat and share prefixes, with the end codes 0 and
    ``2^depth - 1`` in every segment of two or more."""
    depth = draw(st.integers(1, 40))
    cutoff = draw(st.integers(0, min(depth, 16)))
    size = draw(st.sampled_from([0, 1, 2, 17, 3000]))
    distinct = draw(st.sampled_from([1, 3, 64, 4096]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = rng.integers(0, 1 << depth, size=distinct, dtype=np.int64)
    codes = rng.choice(pool, size=size)
    codes[:2] = [0, (1 << depth) - 1][: min(size, 2)]
    return codes, depth, cutoff


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(segment=segments())
def test_every_level_holds_the_counter_of_its_prefixes(segment):
    codes, depth, cutoff = segment
    exact, deep = level_counts(codes, depth, cutoff)
    assert len(exact) == cutoff + 1
    assert len(deep) == depth - cutoff
    for level in range(depth + 1):
        expected = Counter((codes >> (depth - level)).tolist())
        if level <= cutoff:
            histogram = exact[level]
            assert histogram.dtype == np.float64
            assert histogram.shape == (1 << level,)
            occupied = np.flatnonzero(histogram)
            assert dict(zip(occupied.tolist(), histogram[occupied].tolist())) == expected
        else:
            cells, counts = deep[level - cutoff - 1]
            assert counts.dtype == np.int64
            assert np.all(cells[1:] > cells[:-1]), level
            assert dict(zip(cells.tolist(), counts.tolist())) == expected


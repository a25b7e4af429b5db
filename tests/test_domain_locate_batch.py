"""Every vectorised ``locate_batch`` equals the scalar ``locate``, bit for bit.

Batched ingestion derives every exact level's cells from one
``locate_batch`` call, while ``PrivHP.update`` walks each point through
``locate``.  Each case compares the two on edge points (corners, dyadic
boundaries and the doubles just below them) and random points, at levels on
both sides of the boundaries that matter: the 32-bit addresses, the 53-bit
mantissa and the 62 levels whose cell codes fit the int64 codes
:meth:`Domain.pack_paths` returns.  Past level 62 the vectorised paths of
the continuous domains raise instead of answering, while ``locate`` still
answers.

``Domain.level_frequencies`` counts cells from one ``locate_batch`` pass; a
property checks it against a ``Counter`` of the scalar ``locate`` cells.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.registry import make_domain

LEVELS = (0, 1, 2, 7, 8, 31, 32, 33, 52, 53, 54, 61, 62)
CONTINUOUS = ("interval", "hypercube:1", "hypercube:2", "hypercube:3", "geo")

# Unit coordinates on and just below the dyadic boundaries, down to the
# smallest subnormal, and one with an infinite binary expansion.
_UNIT_EDGES = np.array(
    [
        0.0,
        1.0,
        0.5,
        np.nextafter(0.5, 0.0),
        np.nextafter(1.0, 0.0),
        0.25,
        0.75,
        2.0**-53,
        2.0**-62,
        2.0**-63,
        5e-324,
        1.0 / 3.0,
    ]
)


def _unit_points(dimension: int, rng: np.random.Generator) -> np.ndarray:
    """Each edge on every axis, edges mixed across axes, then random points."""
    edges = _UNIT_EDGES.size
    diagonal = np.repeat(_UNIT_EDGES[:, None], dimension, axis=1)
    mixed = _UNIT_EDGES[rng.integers(0, edges, size=(4 * edges, dimension))]
    return np.vstack([diagonal, mixed, rng.random((200, dimension))])


def _points(spec: str, domain) -> np.ndarray:
    rng = np.random.default_rng(7)
    if spec == "interval":
        return _unit_points(1, rng)[:, 0]
    if spec.startswith("hypercube"):
        return _unit_points(domain.dimension, rng)
    if spec == "geo":
        unit = _unit_points(2, rng)
        return np.column_stack([
            domain.lat_min + unit[:, 0] * (domain.lat_max - domain.lat_min),
            domain.lon_min + unit[:, 1] * (domain.lon_max - domain.lon_min),
        ])
    if spec == "ipv4":
        edges = [0, 1, (1 << 31) - 1, 1 << 31, (1 << 32) - 1]
        fill = rng.integers(0, 1 << 32, size=200, dtype=np.int64)
        return np.concatenate([np.array(edges, dtype=np.int64), fill])
    return np.arange(domain.size, dtype=np.int64)


_CASES = [
    (spec, level)
    for spec in CONTINUOUS + ("discrete:100", "ipv4")
    for level in LEVELS
    if not (spec == "ipv4" and level > 32)
]


@pytest.mark.parametrize("spec, level", _CASES)
def test_locate_batch_matches_scalar_locate(spec, level):
    domain = make_domain(spec)
    points = _points(spec, domain)
    bits = domain.locate_batch(points, level)
    expected = np.array(
        [domain.locate(point, level) for point in points], dtype=np.uint8
    ).reshape(len(points), level)
    assert bits.dtype == np.uint8
    assert bits.shape == expected.shape
    assert np.array_equal(bits, expected)


@pytest.mark.parametrize("level", [63, 64, 124])
@pytest.mark.parametrize("spec", CONTINUOUS)
def test_locate_batch_raises_past_62_levels(spec, level):
    domain = make_domain(spec)
    points = _points(spec, domain)
    with pytest.raises(ValueError, match="deeper than 62 levels"):
        domain.locate_batch(points, level)
    assert len(domain.locate(points[0], level)) == level


FIVE_DOMAINS = ("interval", "hypercube:2", "ipv4", "discrete:1000", "geo")


def _edges_and_points(spec: str, domain):
    """Each domain's edge points and a strategy for further points."""
    unit = st.floats(min_value=0.0, max_value=1.0)
    if spec == "interval":
        return [0.0, 1.0, 0.5], unit
    if spec == "hypercube:2":
        return [(0.0, 0.0), (1.0, 1.0), (0.0, 1.0)], st.tuples(unit, unit)
    if spec == "ipv4":
        return [0, 1, 1 << 31, (1 << 32) - 1], st.integers(0, (1 << 32) - 1)
    if spec == "geo":
        corners = [(domain.lat_min, domain.lon_min), (domain.lat_max, domain.lon_max)]
        return corners, st.tuples(
            st.floats(min_value=domain.lat_min, max_value=domain.lat_max),
            st.floats(min_value=domain.lon_min, max_value=domain.lon_max),
        )
    return [0, 1, domain.size - 1], st.integers(0, domain.size - 1)


@pytest.mark.parametrize("spec", FIVE_DOMAINS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_level_frequencies_count_the_scalar_cells(spec, data):
    domain = make_domain(spec)
    edges, point = _edges_and_points(spec, domain)
    points = edges + data.draw(st.lists(point, max_size=40))
    level = data.draw(st.integers(0, 32 if spec == "ipv4" else 62))
    codes, counts = domain.level_frequencies(np.array(points), level)
    oracle = Counter(domain.locate(item, level) for item in points)
    expected = sorted((int("".join(map(str, cell)) or "0", 2), n) for cell, n in oracle.items())
    assert codes.dtype == counts.dtype == np.int64
    assert list(zip(codes.tolist(), counts.tolist())) == expected

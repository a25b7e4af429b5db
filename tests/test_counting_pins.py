"""Pinned outputs of the code that counts cells from raw points.

Tail norms, the exactly pruned tree ``T_exact``, the PrivTree baseline, the
hierarchical Wasserstein bound and the sketch ablation all count the points
of a dataset per cell.  These pins fix their outputs on all five domains, so
a change of how the cells are counted cannot move them.  Integer counts and
the trees built from them must match exactly.  The Wasserstein bound and the
ablation's mean errors are float sums whose order is the counting code's
choice, so they match within ``RELATIVE_BOUND``.

The datasets are drawn from fixed seeds and include each domain's edge
points (0 and 1, the corners of the box, addresses 0 and 2^32 - 1, items 0
and ``size - 1``).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.analysis.decomposition import build_exact_pruned_tree
from repro.baselines.privtree import PrivTreeMethod
from repro.domain import DiscreteDomain, GeoDomain, Hypercube, IPv4Domain, UnitInterval
from repro.experiments.ablations import sketch_ablation
from repro.metrics.tail import tail_norm
from repro.metrics.wasserstein import hierarchical_wasserstein

#: Relative bound for the two float sums whose summation order may change.
RELATIVE_BOUND = 1e-12

DOMAINS = ("interval", "hypercube:2", "ipv4", "discrete", "geo")

#: ``(level, k)`` pairs of the pinned tail norms.
TAIL_CASES = ((0, 0), (3, 1), (6, 4), (10, 8), (16, 16), (20, 64))

#: ``(pruning_k, level_cutoff, depth)`` of the pinned ``T_exact`` trees.
EXACT_CASES = ((8, 6, 16), (2, 0, 10), (3, 4, 4))


def _data(name: str, size: int, seed: int):
    """``(domain, points)``: a skewed fixed-seed dataset with the domain's edges."""
    rng = np.random.default_rng(seed)
    if name == "interval":
        points = rng.beta(2.0, 5.0, size)
        points[:2] = (0.0, 1.0)
        return UnitInterval(), points
    if name == "hypercube:2":
        centres = np.array([[0.25, 0.25], [0.75, 0.7]])
        points = centres[rng.integers(0, 2, size)] + rng.normal(0.0, 0.05, (size, 2))
        points = np.clip(points, 0.0, 1.0)
        points[:3] = ((0.0, 0.0), (1.0, 1.0), (0.0, 1.0))
        return Hypercube(2), points
    if name == "ipv4":
        heavy = (rng.integers(0, 6, size) * 37 + 10) << 24
        heavy |= rng.integers(0, 1 << 12, size) << 8
        points = np.where(rng.random(size) < 0.8, heavy, rng.integers(0, 1 << 32, size))
        points[:2] = (0, (1 << 32) - 1)
        return IPv4Domain(), points.astype(np.int64)
    if name == "discrete":
        points = rng.binomial(999, 0.3, size).astype(np.int64)
        points[:2] = (0, 999)
        return DiscreteDomain(1000), points
    if name == "geo":
        domain = GeoDomain(lat_min=24.0, lat_max=49.0, lon_min=-125.0, lon_max=-66.0)
        centres = np.array([[40.7, -74.0], [34.0, -118.2], [41.9, -87.6]])
        points = centres[rng.integers(0, 3, size)] + rng.normal(0.0, 0.5, (size, 2))
        points[:, 0] = np.clip(points[:, 0], domain.lat_min, domain.lat_max)
        points[:, 1] = np.clip(points[:, 1], domain.lon_min, domain.lon_max)
        points[:2] = ((24.0, -125.0), (49.0, -66.0))
        return domain, points
    raise ValueError(name)


def _tree_digest(tree) -> str:
    """sha256 of every level's codes and counts, top down."""
    digest = hashlib.sha256()
    for level in range(tree.depth() + 1):
        codes, counts = tree.level(level)
        digest.update(np.ascontiguousarray(codes, dtype=np.int64).tobytes())
        digest.update(np.ascontiguousarray(counts, dtype=np.float64).tobytes())
    return digest.hexdigest()[:24]


def _samples_digest(samples) -> str:
    """sha256 of a sample array's dtype, shape and bytes."""
    samples = np.ascontiguousarray(samples)
    digest = hashlib.sha256(f"{samples.dtype.str}{samples.shape}".encode())
    digest.update(samples.tobytes())
    return digest.hexdigest()[:24]


TAIL = {
    "interval": [3000.0, 2085.0, 2519.0, 2903.0, 2967.0, 2930.0],
    "hypercube:2": [3000.0, 2240.0, 1101.0, 2343.0, 2928.0, 2872.0],
    "ipv4": [3000.0, 2503.0, 1342.0, 599.0, 2475.0, 2712.0],
    "discrete": [3000.0, 2.0, 94.0, 2309.0, 1709.0, 82.0],
    "geo": [3000.0, 1053.0, 368.0, 530.0, 2724.0, 2792.0],
}

EXACT = {
    "interval": [
        "14d23493ce42e576c0ef3986", "6df9d4351bb71ca4c8b70ba4", "04cdec36aa1647f71eed1bd5",
    ],
    "hypercube:2": [
        "fc62144ee9832aa059e313d5", "7e1ccda4620700e0834f30d7", "5db48fce8282f7d3134fbf5b",
    ],
    "ipv4": ["a56446708dbf3b36c388e404", "7399d547867dcdcbfd53f353", "966effb22e5c8cc1b6b743cc"],
    "discrete": [
        "854178c7ecc0156076568b42", "aa8d27143ed2a53d38e472b3", "f6ebc5e8f6b4f84518d65f57",
    ],
    "geo": ["4c7716aade940f64ccaaa29f", "e9c847d6a42d5b2577506209", "e048800e7dfe83d5fd4640e8"],
}

#: ``(tree digest, digest of 1,000 samples)`` per domain.
PRIVTREE = {
    "interval": ("2eaaebde51822615bbcb57b4", "ef42dce88898cf02e7f1be7b"),
    "hypercube:2": ("f92870e355a9fe0d40c9f0a6", "049e950ae25f65e6fabae98a"),
    "ipv4": ("53b0b4d1a9f927fa7736e598", "2604fda6ac3c8b0407917deb"),
    "discrete": ("138b6de899e9123327c4c393", "8c817c33768d1fde5e2cf07d"),
    "geo": ("e09ed4026a238895ee56ef7f", "0928d30f0e76456005340825"),
}

WASSERSTEIN = {
    "interval": [
        0.2601666666666667, 0.03589062500000006, 0.03215787760416671, 0.032305257161458364,
    ],
    "hypercube:2": [
        0.5463333333333333, 0.24243750000000003, 0.1760416666666667, 0.18896484374999958,
    ],
    "ipv4": [0.3035000000000001, 0.08572135416666671, 0.08049348958333338, 0.08037891133626307],
    "discrete": [
        0.2494991658324992, 0.012733066399733112, 0.006686353019686398, 0.006686353019686398,
    ],
    "geo": [0.54, 0.2055625, 0.11340104166666665, 0.11117447916666665],
}

SKETCH = {
    "width_sweep": [
        {"width": 4, "depth": 6, "mean_abs_error": 365.04137931034484},
        {"width": 16, "depth": 6, "mean_abs_error": 57.747126436781606},
        {"width": 64, "depth": 6, "mean_abs_error": 8.25287356321839},
    ],
    "depth_sweep": [
        {"width": 16, "depth": 2, "mean_abs_error": 98.49425287356321},
        {"width": 16, "depth": 8, "mean_abs_error": 53.714942528735634},
    ],
    "sketch_comparison": [
        {"sketch": "CountMin(w=16,j=6)", "mean_abs_error": 57.747126436781606},
        {"sketch": "MisraGries(c=16)", "mean_abs_error": 5.002298850574713},
    ],
    "distinct_cells": 435,
}


@pytest.mark.parametrize("name", DOMAINS)
def test_tail_norms_are_pinned(name):
    domain, data = _data(name, 3000, 1)
    assert [tail_norm(data, domain, level, k) for level, k in TAIL_CASES] == TAIL[name]


@pytest.mark.parametrize("name", DOMAINS)
def test_exact_pruned_trees_are_pinned(name):
    domain, data = _data(name, 3000, 2)
    digests = [
        _tree_digest(build_exact_pruned_tree(data, domain, k, cutoff, depth))
        for k, cutoff, depth in EXACT_CASES
    ]
    assert digests == EXACT[name]


@pytest.mark.parametrize("name", DOMAINS)
def test_privtree_tree_and_samples_are_pinned(name):
    domain, data = _data(name, 400, 3)
    generator = PrivTreeMethod(domain, epsilon=2.0, max_depth=14).fit(data, rng=7)
    tree_digest = _tree_digest(generator.tree)
    assert (tree_digest, _samples_digest(generator.sample(1000))) == PRIVTREE[name]


@pytest.mark.parametrize("name", DOMAINS)
def test_hierarchical_wasserstein_is_pinned(name):
    domain, a = _data(name, 2000, 4)
    _, b = _data(name, 1500, 5)
    values = [hierarchical_wasserstein(a, b, domain, depth) for depth in (2, 7, 12, 16)]
    assert values == pytest.approx(WASSERSTEIN[name], rel=RELATIVE_BOUND, abs=0.0)


def test_sketch_ablation_tables_are_pinned():
    report = sketch_ablation(widths=(4, 16, 64), depths=(2, 8), stream_size=3000, level=10, seed=3)
    assert report["distinct_cells"] == SKETCH["distinct_cells"]
    for table in ("width_sweep", "depth_sweep", "sketch_comparison"):
        rows, pinned = report[table], SKETCH[table]
        assert [{**row, "mean_abs_error": None} for row in rows] == [
            {**row, "mean_abs_error": None} for row in pinned
        ]
        assert [row["mean_abs_error"] for row in rows] == pytest.approx(
            [row["mean_abs_error"] for row in pinned], rel=RELATIVE_BOUND, abs=0.0
        )

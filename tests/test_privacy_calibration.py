"""PrivHP's noise calibration, checked against its own state.

PrivHP adds ``Laplace(1/sigma_l)`` to every exact counter of level ``l`` and
``Laplace(j/sigma_l)`` to every cell of the level-``l`` Count-Min sketch with
``j`` rows.  Those scales are right only if one item more moves each exact
level's counts by exactly 1 in L1 and each sketch table by exactly ``j``:
the sensitivities under add/remove neighbouring streams.  Each case feeds two
raw (shard-mode) summarizers built from one config a stream and the same
stream plus one item, and measures both differences on their own tables.
The exact tree is cut at level 4 so every domain, the 100-item universe
included, has sketch levels.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api.registry import make_domain
from repro.core.config import PrivHPConfig
from repro.core.privhp import PrivHP

ITEMS = 3000


def _stream(spec: str, size: int) -> np.ndarray:
    """``size`` skewed points of the domain."""
    rng = np.random.default_rng(11)
    if spec == "interval":
        return rng.beta(2.0, 5.0, size)
    if spec == "hypercube:2":
        return rng.random((size, 2)) ** 2
    if spec == "geo":
        return np.column_stack([rng.normal(40.0, 10.0, size), rng.normal(-70.0, 20.0, size)])
    if spec == "ipv4":
        return (rng.beta(2.0, 6.0, size) * (2**32 - 1)).astype(np.int64)
    return (rng.random(size) ** 3 * 100).astype(np.int64)


@pytest.mark.parametrize("ingest", ["update_batch", "update_segments"])
@pytest.mark.parametrize("spec", ["interval", "hypercube:2", "geo", "ipv4", "discrete:100"])
def test_one_more_item_moves_each_level_by_its_noise_numerator(spec, ingest):
    domain = make_domain(spec)
    config = PrivHPConfig.from_stream_size(
        ITEMS, epsilon=1.0, pruning_k=4, seed=0, domain=domain, level_cutoff=4
    )
    base, neighbour = (PrivHP(domain, config, add_noise=False) for _ in range(2))
    data = _stream(spec, ITEMS + 1)
    if ingest == "update_batch":
        base.update_batch(data[:ITEMS])
        neighbour.update_batch(data)
    else:
        base.update_segments(data[:ITEMS], [ITEMS])
        neighbour.update_segments(data, [ITEMS, 1])

    for level in range(config.level_cutoff + 1):
        (codes, counts), (neighbour_codes, neighbour_counts) = (
            summarizer.tree.level(level) for summarizer in (base, neighbour)
        )
        assert np.array_equal(codes, neighbour_codes)
        assert np.abs(neighbour_counts - counts).sum() == 1.0
    assert base.sketches
    for level, sketch in base.sketches.items():
        difference = np.abs(neighbour.sketches[level].table - sketch.table).sum()
        assert difference == sketch.sensitivity == config.sketch_depth

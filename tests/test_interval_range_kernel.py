"""Interval range answers pinned bit for bit at every batch shape.

``CompiledLeafTable.mass_many`` evaluates a batch of interval queries block
by block, and the order in which a block's terms are summed decides the last
bits of each answer.  These pins cover the shapes where that order is most
easily lost: batches of one, two and three queries, blocks on either side of
the size at which the covered-leaf kernel takes over, a batch whose last
block holds a single query, both bounds inside one leaf, and bounds at or
past the ends of the domain.  Every answer must equal the retired per-leaf loop, run
over the table's own arrays, in every bit -- on private releases, about half
of whose leaves carry no mass, and on the same tables with some of their
cells collapsed to zero width.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import PrivHPBuilder
from repro.core.tree import PartitionTree
from repro.domain.interval import UnitInterval
from repro.queries import compiled
from repro.queries.compiled import CompiledLeafTable

INF = float("inf")


def _reference_mass(table: CompiledLeafTable, lower: float, upper: float) -> float:
    """The retired scalar loop, over the table's arrays in table order."""
    total = 0.0
    for probability, low, high in zip(
        table.probabilities.tolist(), table.low.tolist(), table.high.tolist()
    ):
        if probability <= 0:
            continue
        width = high - low
        if width <= 0:
            fraction = 0.0
        else:
            fraction = max(0.0, min(high, upper) - max(low, lower)) / width
        total += probability * fraction
    return float(min(max(total, 0.0), 1.0))


def _bits(values) -> list[str]:
    """Each float's exact bits (``float.hex`` tells ``-0.0`` from ``0.0``)."""
    return [float(value).hex() for value in values]


def _release_table(items: int, seed: int) -> CompiledLeafTable:
    rng = np.random.default_rng(seed)
    release = (
        PrivHPBuilder("interval")
        .epsilon(1.0)
        .pruning_k(8)
        .stream_size(items)
        .seed(seed)
        .build()
        .update_batch(rng.beta(2.0, 5.0, items))
        .release()
    )
    return CompiledLeafTable(release.tree, UnitInterval())


def _collapsed(table: CompiledLeafTable, seed: int) -> CompiledLeafTable:
    """The table rebuilt with a tenth of its massive cells at zero width."""
    arrays = {name: np.array(array) for name, array in table.export_arrays().items()}
    massive = np.flatnonzero(arrays["probabilities"] > 0)
    rng = np.random.default_rng(seed)
    picked = rng.choice(massive, size=max(1, len(massive) // 10), replace=False)
    arrays["high"][picked] = arrays["low"][picked]
    return CompiledLeafTable.from_arrays(
        table.domain, kind="interval", root_count=table.root_count, arrays=arrays
    )


def _kept(table: CompiledLeafTable) -> int:
    """Leaves with mass and a cell of positive width."""
    return int(np.count_nonzero((table.probabilities > 0) & (table.high > table.low)))


@pytest.fixture(scope="module")
def tables() -> dict[str, CompiledLeafTable]:
    large = _release_table(1 << 14, seed=3)
    small = _release_table(1 << 9, seed=5)
    return {
        "large": large,
        "large-collapsed": _collapsed(large, seed=1),
        "small-collapsed": _collapsed(small, seed=2),
        "uniform": CompiledLeafTable(PartitionTree(0.0), UnitInterval()),
    }


def _bounds(table: CompiledLeafTable, seed: int) -> list[tuple[float, float]]:
    """Random ranges, leaf cells, both bounds inside one leaf, and bounds of
    ``±inf`` or past 0 and 1, in a seeded shuffle."""
    rng = np.random.default_rng(seed)
    pairs = [tuple(sorted(rng.random(2).tolist())) for _ in range(30)]
    low, high = table.low.tolist(), table.high.tolist()
    massive = np.flatnonzero(table.probabilities > 0)
    for leaf in rng.choice(massive, size=min(8, len(massive)), replace=False).tolist():
        a, b = low[leaf], high[leaf]
        pairs += [(a, b), (a + (b - a) / 4, a + 3 * (b - a) / 4), (a, a), (b, b)]
    pairs += [
        (-INF, 0.3), (0.3, INF), (-INF, INF), (-INF, -INF), (INF, INF),
        (-0.5, 1.5), (-0.5, 0.25), (0.75, 1.5), (1.0, 2.0), (-1.0, -0.0),
        (-0.0, 0.5), (0.0, 0.0), (-0.0, -0.0), (1.0, 1.0),
    ]
    order = rng.permutation(len(pairs))
    return [pairs[i] for i in order]


@pytest.mark.parametrize("name", ["large", "large-collapsed", "small-collapsed", "uniform"])
@pytest.mark.parametrize("size", [1, 2, 3])
def test_batches_of_one_two_and_three(tables, name, size):
    table = tables[name]
    pairs = _bounds(table, seed=size)
    expected = [_reference_mass(table, lower, upper) for lower, upper in pairs]
    answers = []
    for start in range(0, len(pairs), size):
        group = pairs[start : start + size]
        answers.extend(
            table.mass_many(
                np.array([lower for lower, _ in group]), np.array([upper for _, upper in group])
            ).tolist()
        )
    assert _bits(answers) == _bits(expected)


@pytest.mark.parametrize("name", ["large", "large-collapsed", "small-collapsed", "uniform"])
@pytest.mark.parametrize("offset", [-1, 0])
def test_blocks_on_either_side_of_the_kernel_choice(tables, name, offset):
    """Blocks one query short of ``_COVERED_MIN_QUERIES`` take the formula
    kernel and blocks of exactly that many the covered-leaf kernel; both
    answer like the loop."""
    test_batches_of_one_two_and_three(tables, name, compiled._COVERED_MIN_QUERIES + offset)


@pytest.mark.parametrize("name", ["large", "large-collapsed"])
def test_a_last_block_of_one_query(tables, name):
    """At the default block size, ``block + 1`` queries leave one for the
    last block; every answer, that one included, matches the loop."""
    table = tables[name]
    kept = _kept(table)
    assert kept >= 1000
    block = max(1, compiled._BLOCK_ELEMENTS // kept)
    rng = np.random.default_rng(17)
    pairs = (_bounds(table, seed=4) * (block // 40 + 2))[: block + 1]
    pairs[-1] = tuple(sorted(rng.random(2).tolist()))
    lowers = np.array([lower for lower, _ in pairs])
    uppers = np.array([upper for _, upper in pairs])
    expected = [_reference_mass(table, lower, upper) for lower, upper in pairs]
    assert _bits(table.mass_many(lowers, uppers)) == _bits(expected)


def test_overlapping_cells_are_rejected():
    """The covered-leaf kernel needs disjoint cells; a table loaded from
    arrays whose kept cells overlap is refused."""
    arrays = {
        "probabilities": np.array([0.5, 0.5]),
        "low": np.array([0.0, 0.25]),
        "high": np.array([0.5, 1.0]),
    }
    with pytest.raises(ValueError, match="overlap"):
        CompiledLeafTable.from_arrays(UnitInterval(), kind="interval", root_count=2.0, arrays=arrays)

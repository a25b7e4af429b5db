"""PrivHP's memory is fixed before the stream starts (Corollary 1).

The bounded-memory claim holds because a summarizer's footprint is set by
its config: complete exact levels down to the cut-off ``L*``, then
fixed-size sketches (the continual variant: counter banks, then continual
sketches).  These tests pin that property on all five domains for both
summarizer kinds -- ``memory_words()`` does not move under ingest,
snapshots or a checkpoint round trip -- and check the one-shot footprint
against Corollary 1's ``M = k log2(n)^2`` with one stated constant.  The
ingest service's memory ledger records each tenant's words once, at
residency, and relies on this.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.continual.privhp import PrivHPContinual
from repro.core.config import PrivHPConfig
from repro.core.privhp import PrivHP
from repro.domain.discrete import DiscreteDomain
from repro.domain.geo import GeoDomain
from repro.domain.hypercube import Hypercube
from repro.domain.interval import UnitInterval
from repro.domain.ipv4 import IPv4Domain
from repro.io.serialization import load_checkpoint, save_checkpoint
from repro.theory.bounds import memory_words_bound

#: name -> (domain, draw(rng, n) -> n points)
DOMAINS = {
    "interval": (UnitInterval(), lambda rng, n: rng.beta(2.0, 5.0, n)),
    "hypercube": (Hypercube(2), lambda rng, n: rng.random((n, 2))),
    "ipv4": (IPv4Domain(), lambda rng, n: rng.integers(0, 2**32, n)),
    "discrete": (DiscreteDomain(97), lambda rng, n: rng.integers(0, 97, n)),
    "geo": (
        GeoDomain(lat_min=24.0, lat_max=49.0, lon_min=-125.0, lon_max=-66.0),
        lambda rng, n: np.column_stack(
            [24.0 + 25.0 * rng.random(n), -125.0 + 59.0 * rng.random(n)]
        ),
    ),
}

STREAM_SIZE = 4096

#: Segment runs with empty and one-item segments and one above 512 items.
SEGMENT_LENGTHS = [0, 1, 0, 57, 1, 600]

#: ``memory_words() <= MEMORY_CONSTANT * memory_words_bound(n, k)`` for the
#: paper's defaults at epsilon = 1.  It holds by construction: the exact
#: levels stop at ``L* = floor(log2 M)``, so the tree holds under ``4M``
#: words, and the ``L - L*`` sketches of ``2k x log2 n`` cells hold at most
#: ``2M`` more.  The sweep below peaks at 5.09 (k = 1, n = 2^23).
MEMORY_CONSTANT = 6

PRUNING_KS = [*range(1, 33), 48, 64, 96, 128, 256]


def _build(name: str, continual: bool):
    domain, _ = DOMAINS[name]
    config = PrivHPConfig.from_stream_size(
        STREAM_SIZE, epsilon=1.0, pruning_k=4, seed=7, domain=domain
    )
    if continual:
        return PrivHPContinual(domain, config, horizon=STREAM_SIZE)
    return PrivHP(domain, config)


@pytest.mark.parametrize("continual", [False, True], ids=["one-shot", "continual"])
@pytest.mark.parametrize("name", sorted(DOMAINS))
def test_words_are_fixed_at_construction(name, continual, tmp_path):
    _, draw = DOMAINS[name]
    rng = np.random.default_rng(11)
    summarizer = _build(name, continual)
    words = summarizer.memory_words()
    if not continual:
        assert words == summarizer.config.memory_budget_words()

    summarizer.update_batch(draw(rng, 300))
    assert summarizer.memory_words() == words
    summarizer.update_segments(draw(rng, sum(SEGMENT_LENGTHS)), SEGMENT_LENGTHS)
    assert summarizer.memory_words() == words
    if continual:
        summarizer.snapshot(sampling_seed=1)
        assert summarizer.memory_words() == words

    for suffix in ("binary", "json"):
        path = save_checkpoint(summarizer, tmp_path / f"state.{suffix}", format=suffix)
        restored = load_checkpoint(path)
        assert restored.memory_words() == words
        restored.update_batch(draw(rng, 1))
        assert restored.memory_words() == words
    assert summarizer.items_processed == 300 + sum(SEGMENT_LENGTHS)
    assert summarizer.memory_words() == words


@pytest.mark.parametrize("exponent", range(10, 25))
def test_one_shot_words_meet_corollary_1(exponent):
    stream_size = 1 << exponent
    for pruning_k in PRUNING_KS:
        config = PrivHPConfig.from_stream_size(
            stream_size, epsilon=1.0, pruning_k=pruning_k, seed=0
        )
        words = PrivHP(UnitInterval(), config).memory_words()
        assert words == config.memory_budget_words()
        assert words <= MEMORY_CONSTANT * memory_words_bound(stream_size, pruning_k), pruning_k

"""repro: a reproduction of "Private Synthetic Data Generation in Bounded Memory".

The package implements PrivHP -- a one-pass, bounded-memory, epsilon-
differentially-private synthetic data generator over arbitrary metric-space
domains -- together with every substrate it depends on (private sketches, the
partition tree, consistency enforcement, budget allocation), the baselines it
is compared against (PMM, SRRW, Smooth, PrivTree, DP quantiles), utility
metrics (1-Wasserstein distances, tail norms) and the experiment harness that
regenerates the paper's Table 1 and trade-off analyses.

The public surface is the Summarizer/Release split of :mod:`repro.api`:
a fluent builder resolves the paper defaults, ``update_batch`` ingests the
stream in vectorised batches, and ``release()`` returns a
:class:`~repro.api.release.Release` bundling the synthetic data generator
with its privacy and memory metadata.  Raw shard summaries merge linearly
(noise is injected exactly once at the merged release) and full mid-stream
state checkpoints through :mod:`repro.io`.

Released summaries also answer analytic queries directly -- range counts,
CDFs, quantiles, marginals (:mod:`repro.queries`) -- and :mod:`repro.serve`
serves whole directories of them over JSON/HTTP and batch workload files,
all as zero-budget post-processing.

Quickstart::

    import numpy as np
    from repro import PrivHPBuilder

    data = np.random.default_rng(0).beta(2, 5, size=5000)
    release = (
        PrivHPBuilder("interval")
        .epsilon(1.0)
        .pruning_k(8)
        .stream_size(len(data))
        .seed(0)
        .build()
        .update_batch(data)
        .release()
    )
    synthetic = release.sample(5000)

The original single-shot surface
(``PrivHP(domain, config).process(data).finalize()``) has been removed: feed
batches through ``update_batch`` (or ``update`` per item) and call
``release()``; README's migration table maps each old call to its
replacement.
"""

from repro.api.builder import PrivHPBuilder
from repro.api.registry import make_domain, make_method, register_domain, register_method
from repro.api.release import Release
from repro.api.summarizer import StreamSummarizer
from repro.core.config import PrivHPConfig
from repro.core.privhp import PrivHP
from repro.core.sampler import SyntheticDataGenerator
from repro.core.tree import PartitionTree
from repro.domain import (
    DiscreteDomain,
    Domain,
    GeoDomain,
    Hypercube,
    IPv4Domain,
    UnitInterval,
)
from repro.metrics.wasserstein import empirical_wasserstein
from repro.metrics.tail import tail_norm

__version__ = "1.1.0"

__all__ = [
    "DiscreteDomain",
    "Domain",
    "GeoDomain",
    "Hypercube",
    "IPv4Domain",
    "PartitionTree",
    "PrivHP",
    "PrivHPBuilder",
    "PrivHPConfig",
    "Release",
    "StreamSummarizer",
    "SyntheticDataGenerator",
    "UnitInterval",
    "empirical_wasserstein",
    "make_domain",
    "make_method",
    "register_domain",
    "register_method",
    "tail_norm",
    "__version__",
]

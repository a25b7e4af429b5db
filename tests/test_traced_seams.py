"""The traced benchmark still finds every seam it wraps.

``perfbench/layers.py`` wraps each traced method through its class's own
``__dict__``, so renaming, deleting or inheriting a traced method crashes
every traced benchmark run.  Installing the tracer here, and taking it out
again, checks the seams in the test suite as well.
"""

from __future__ import annotations

import pathlib
import sys

import numpy as np

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

import layers  # noqa: E402
import spans  # noqa: E402

from repro.core.base import cell_keys  # noqa: E402
from repro.sketch.countmin import CountMinSketch  # noqa: E402
from repro.sketch.private import PrivateCountMinSketch  # noqa: E402


def test_every_traced_seam_installs_and_restores():
    original = CountMinSketch.__dict__["update_batch"]
    tracer = spans.Tracer()
    patcher = layers.install(tracer)
    try:
        assert CountMinSketch.__dict__["update_batch"] is not original
        # The private sketch inherits the plain sketch's write, so its
        # writes are traced through the same seam.
        keys = cell_keys(3, np.arange(5))
        for sketch in (
            CountMinSketch(8, 2, seed=0),
            PrivateCountMinSketch(8, 2, epsilon=1.0, seed=0, apply_noise=False),
        ):
            sketch.update_batch(keys, np.ones(5))
        traced = tracer.totals("setup")["sketch.update_batch"]
        assert (traced.calls, traced.work) == (2, 10.0)
    finally:
        patcher.restore()
    assert CountMinSketch.__dict__["update_batch"] is original

"""Sketching substrate: compact frequency summaries used by PrivHP.

PrivHP stores, for every hierarchy level below the exact-counter cut-off
``L*``, a *private* Count-Min sketch of the level's subdomain frequencies.
This package provides the non-private Count-Min sketch with its seeded hash
family, the oblivious-noise private wrapper of Section 3.4, and the
counter-based Misra-Gries summary the sketch ablation compares against.
"""

from repro.sketch.hashing import HashFamily, PairwiseHash
from repro.sketch.countmin import CountMinSketch
from repro.sketch.misra_gries import MisraGries
from repro.sketch.private import PrivateCountMinSketch

__all__ = [
    "CountMinSketch",
    "HashFamily",
    "MisraGries",
    "PairwiseHash",
    "PrivateCountMinSketch",
]

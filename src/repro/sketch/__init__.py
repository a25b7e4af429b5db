"""Sketching substrate: compact frequency summaries used by PrivHP.

PrivHP stores, for every hierarchy level below the exact-counter cut-off
``L*``, a *private* Count-Min sketch of the level's subdomain frequencies.
This package provides the non-private Count-Min sketch with its seeded hash
family, its oblivious-noise private subclass of Section 3.4, and the
counter-based Misra-Gries summary the sketch ablation compares against.
The Count-Min sketches take the canonical integer cell keys of
:func:`repro.core.base.cell_keys` only.
"""

from repro.sketch.hashing import HashFamily
from repro.sketch.countmin import CountMinSketch
from repro.sketch.misra_gries import MisraGries
from repro.sketch.private import PrivateCountMinSketch

__all__ = [
    "CountMinSketch",
    "HashFamily",
    "MisraGries",
    "PrivateCountMinSketch",
]

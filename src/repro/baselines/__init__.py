"""Baseline private synthetic data generators compared against PrivHP.

Each baseline implements the common
:class:`~repro.baselines.base.SyntheticDataMethod` protocol so the evaluation
harness and Table-1 benchmark treat them interchangeably:

* :class:`PMMMethod` -- the hierarchical Private Measure Mechanism of
  He et al. (state of the art in the static setting; memory Theta(eps*n)).
* :class:`SRRWMethod` -- a private measure built from noisy dyadic CDF
  increments, standing in for the super-regular random walk construction of
  Boedihardjo et al.: PMM with a uniform budget split (see
  :mod:`repro.baselines.srrw` for the substitution argument).
* :class:`SmoothMethod` -- perturbed trigonometric-moment density estimation,
  standing in for the smooth-query mechanism of Wang et al.
* :class:`PrivTreeMethod` -- the static adaptive decomposition of Zhang et al.
* :class:`QuantileMethod` -- bounded-space DP quantiles (Alabi et al.) used as
  an inverse-CDF generator on ordered domains.
* :class:`NonPrivateHistogramMethod` -- a non-private reference point.
* :class:`PrivHPMethod` -- adapter exposing PrivHP through the same protocol.
"""

from repro.baselines.base import PrivHPMethod, SyntheticDataMethod
from repro.baselines.nonprivate import NonPrivateHistogramMethod
from repro.baselines.pmm import PMMMethod
from repro.baselines.privtree import PrivTreeMethod
from repro.baselines.quantile import QuantileMethod
from repro.baselines.smooth import SmoothMethod
from repro.baselines.srrw import SRRWMethod

__all__ = [
    "NonPrivateHistogramMethod",
    "PMMMethod",
    "PrivHPMethod",
    "PrivTreeMethod",
    "QuantileMethod",
    "SRRWMethod",
    "SmoothMethod",
    "SyntheticDataMethod",
]

"""Continual-observation extension of PrivHP.

The paper focuses on the 1-pass model (the release happens once, after the
stream) but notes that "our method can be adapted to continual observation by
replacing the counters and sketches with their continual observation
counterparts" (Section 3.1).  This package implements that adaptation as a
first-class, batch-native production path:

* :class:`BinaryMechanismCounter` -- the classic binary-tree (Chan-Shi-Song /
  Dwork et al.) counter releasing a running count at every step under
  epsilon-DP for the whole stream; the scalar reference for the banks.
* :class:`BinaryMechanismCounterBank` -- a vector of those counters sharing
  one event-driven time axis, the vectorised layout behind the continual tree
  levels and sketches.
* :class:`ContinualPrivateCountMinSketch` -- a Count-Min sketch whose cells
  are continual counters, so frequency estimates can be read at any time
  during the stream; batched updates advance the whole table in one step.
* :class:`PrivHPContinual` -- PrivHP with those primitives substituted in.
  It satisfies the :class:`repro.api.summarizer.StreamSummarizer` protocol
  (batched ingestion, shard merge, checkpoint/restore, release), and
  :meth:`~repro.continual.privhp.PrivHPContinual.snapshot` can be called at
  any point (and repeatedly) to obtain a full
  :class:`repro.api.release.Release` for the prefix of the stream seen so
  far, without spending additional budget -- the primitive behind live
  snapshot serving in :mod:`repro.serve`.
"""

from repro.continual.counter import BinaryMechanismCounter, BinaryMechanismCounterBank
from repro.continual.sketch import ContinualPrivateCountMinSketch
from repro.continual.privhp import PrivHPContinual

__all__ = [
    "BinaryMechanismCounter",
    "BinaryMechanismCounterBank",
    "ContinualPrivateCountMinSketch",
    "PrivHPContinual",
]

"""Learned cardinality-correction subsystem.

Closes the loop PR 4's feedback subsystem opened: instead of only
*scheduling* refreshes from observed (estimate, actual) pairs, maintain
online correction factors and apply them inside selectivity estimation
before plan choice.  See ``docs/learned.md`` for the model and its
invalidation semantics.
"""

from repro.learned.model import MultiplicativeCorrection
from repro.learned.store import CorrectionStore

__all__ = [
    "CorrectionStore",
    "MultiplicativeCorrection",
]

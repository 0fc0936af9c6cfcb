"""The ``conf()`` aggregate's result row.

The confidence of a tuple ``t`` in (the result of a query on) a probabilistic
database is the combined probability weight of all possible worlds in which
``t`` is present.  On U-relations this is the probability of the ws-set of all
row descriptors carrying the value of ``t`` — exactly the quantity computed by
the exact engine of :mod:`repro.core.probability`.  Sessions compute it
(:meth:`~repro.db.session.Session.confidence_batch` and friends, obtained
with ``repro.connect(database)`` or ``database.session()``); this module holds
the row type they return.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass


@dataclass(frozen=True)
class ConfidenceRow:
    """One row of a ``select A..., conf() from ...`` result."""

    values: tuple
    confidence: float

    def as_dict(self, attributes: Sequence[str]) -> dict:
        """``attribute -> value`` mapping plus the ``conf`` column."""
        row = dict(zip(attributes, self.values))
        row["conf"] = self.confidence
        return row

"""The one definition of what answers a query of each kind (`explain`).

The tree and diagram walk (`restriction`) and the oracles (`tables`)
subclass `Definitions`; rule-list branching (`dslist`) answers without
it, so a request on that route never compiles it.
"""

from __future__ import annotations

import itertools
from typing import Callable, Optional

from .explain import LOCAL_KINDS, ExplanationQuery, Witness, check_witness, deletions
from .models import _bit


class Definitions:
    """The four query kinds over one question.

    A subclass supplies `features`, the sorted universe; `example_class(e)`,
    refusing an example that misses a feature of it; and `reaches(tau, z)`:
    some completion of `tau` (feature name -> bit) gets class z.  lAXp and
    gAXp leave the other class unreachable and gCXp the target class; lCXp
    reaches the other class with the example fixed outside the set.
    Validity only grows with the witness, so one deletion at a time
    decides subset-minimality.  Candidates come smallest first,
    lexicographic over `features`, an assignment's values counted in
    binary with the first feature most significant: the frozen tie-break.
    """

    def validity(self, q: ExplanationQuery):
        """The rule of `q` over a candidate: its feature names (local
        kinds) or its assignment as a dict (global kinds)."""
        if q.kind not in LOCAL_KINDS:
            avoid = q.target if q.kind == "gCXp" else 1 - q.target
            return lambda tau: not self.reaches(tau, avoid)
        e = q.target
        other = 1 - self.example_class(e)
        if q.kind == "lAXp":
            return lambda names: not self.reaches({f: e[f] for f in names}, other)
        return lambda names: self.reaches({f: e[f] for f in self.features if f not in names}, other)

    def _passes(self, q: ExplanationQuery, w: Witness) -> bool:
        # a witness's bits are read here, once per check, into the ints every
        # engine trusts; the message is built only for a value that is not a bit
        tau = {str(f): int(z) if z in (0, 1) else _bit(z, f"assignment of {f!r}")
               for f, z in w.assignment or ()}
        return self.validity(q)(w.features if w.assignment is None else tau)

    def check(self, q: ExplanationQuery, w: Witness) -> bool:
        """`w` keeps to the budget and passes; its names are the caller's to check."""
        return (q.k is None or w.size <= q.k) and self._passes(q, w)

    def holds(self, q: ExplanationQuery, w: Witness) -> bool:
        """`w` fits `q` and passes, whatever its size."""
        check_witness(q, w, self.features)
        return self._passes(q, w)

    def subset_minimal(self, q: ExplanationQuery, w: Witness) -> bool:
        return self.holds(q, w) and not any(self.holds(q, rest) for rest in deletions(w))

    def minimum(self, q: ExplanationQuery) -> Optional[Witness]:
        """The first valid candidate within the budget, or None."""
        valid = self.validity(q)
        if self._rules_out(q, valid):
            return None
        n = len(self.features)
        limit = n if q.k is None else min(q.k, n)
        first = self._first(q, valid)
        for size in range(1 if q.kind == "lCXp" else 0, limit + 1):
            found = first(size)
            if found is not None:
                return found
        return None

    def _rules_out(self, q: ExplanationQuery, valid) -> bool:
        """True when `q` surely has no witness, decided before the search."""
        return False

    def _first(self, q: ExplanationQuery, valid) -> Callable[[int], Optional[Witness]]:
        """The search for the first valid candidate of a given size."""
        local = q.is_local

        def first(size: int) -> Optional[Witness]:
            for combo in itertools.combinations(self.features, size):
                if local:
                    if valid(combo):
                        return Witness(features=combo)
                    continue
                for values in itertools.product((0, 1), repeat=size):
                    tau = dict(zip(combo, values))
                    if valid(tau):
                        return Witness(assignment=tuple(tau.items()))
            return None

        return first

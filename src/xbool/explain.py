"""Explanation queries and witnesses, their JSON forms, and the one
definition of what answers a query.

Four query kinds over a model M with feature set F:

* lAXp(e): a set A of features such that every example agreeing with e
  on A gets the same class as e.
* lCXp(e): a set A such that some example differing from e only inside
  A gets a different class (the empty set is never one).
* gAXp(c): a partial assignment forcing class c on all completions.
* gCXp(c): a partial assignment forcing class != c on all completions.

`Definitions` writes these rules, the candidate order and minimality
once, over one question an engine answers: can a class still be
reached under a partial assignment?  The tree and diagram walk
(`restriction`) and the oracles (`tables`) subclass it; the oracle's
names resolve here too, though a route that runs none never compiles it.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, Iterable, Mapping, Optional, Tuple, Union

from . import _forward
from .errors import ModelError, UndefinedFeature
from .models import _bit, _strings, example_to_json
from .records import Frozen

KINDS = ("lAXp", "lCXp", "gAXp", "gCXp")
LOCAL_KINDS = ("lAXp", "lCXp")
DEFAULT_GUARD = 20


class ExplanationQuery(Frozen):
    __slots__ = ("kind", "minimality", "target", "k")

    def __init__(
        self,
        kind: str,
        minimality: str,
        target: Union[Mapping[str, int], int],
        k: Optional[int] = None,
    ):
        if kind not in KINDS:
            raise ModelError(f"unknown query kind {kind!r}")
        if minimality not in ("subset", "cardinality"):
            raise ModelError(f"unknown minimality {minimality!r}")
        if (k is not None) != (minimality == "cardinality"):
            raise ModelError("budget k goes with cardinality queries only")
        if k is not None and (isinstance(k, bool) or not isinstance(k, int) or k < 0):
            raise ModelError(f"budget must be a non-negative integer, got {k!r}")
        if kind in LOCAL_KINDS:
            if not isinstance(target, Mapping):
                raise ModelError("local queries target an example")
            target = {str(f): _bit(z, f"value of feature {f!r}") for f, z in target.items()}
        else:
            target = _bit(target, "target class")
        self._fill(kind, minimality, target, k)

    @property
    def is_local(self) -> bool:
        return self.kind in LOCAL_KINDS


class Witness(Frozen):
    __slots__ = ("features", "assignment")

    def __init__(
        self,
        features: Optional[Tuple[str, ...]] = None,
        assignment: Optional[Tuple[Tuple[str, int], ...]] = None,
    ):
        if (features is None) == (assignment is None):
            raise ModelError("witness carries either a feature set or an assignment")
        self._fill(features, assignment)

    @classmethod
    def of_features(cls, features: Iterable[str]) -> "Witness":
        return cls(features=tuple(sorted(set(str(f) for f in features))))

    @classmethod
    def of_assignment(cls, tau: Mapping[str, int]) -> "Witness":
        items = tuple(
            sorted((str(f), _bit(z, f"assignment of {f!r}")) for f, z in tau.items())
        )
        if len({f for f, _ in items}) != len(items):
            raise ModelError("assignment repeats a feature")
        return cls(assignment=items)

    @property
    def size(self) -> int:
        payload = self.features if self.features is not None else self.assignment
        return len(payload)


def check_witness(q: ExplanationQuery, w: Witness, features) -> None:
    """Refuse a witness of the wrong shape for `q`, or one that mentions a
    feature outside `features`."""
    if q.is_local and w.features is None:
        raise ModelError("local queries take a feature-set witness")
    if not q.is_local and w.assignment is None:
        raise ModelError("global queries take an assignment witness")
    mentioned = w.features if q.is_local else [f for f, _ in w.assignment]
    for f in mentioned:
        if f not in features:
            raise UndefinedFeature(f"witness mentions unknown feature {f!r}")


def deletions(w: Witness):
    """The witnesses one feature smaller than `w`, in `w`'s order."""
    if w.features is not None:
        return (Witness(features=tuple(g for g in w.features if g != f)) for f in w.features)
    return (Witness(assignment=tuple(p for p in w.assignment if p[0] != f)) for f, _ in w.assignment)


class Definitions:
    """The four query kinds over one question.

    A subclass supplies `features`, the sorted universe; `example_class(e)`,
    refusing an example that misses a feature of it; and `_reaches(tau, z)`:
    some completion of `tau` (feature -> bit) gets class z.  lAXp and gAXp
    leave the other class unreachable and gCXp the target class; lCXp
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
            return lambda tau: not self._reaches(tau, avoid)
        e = q.target
        other = 1 - self.example_class(e)
        if q.kind == "lAXp":
            return lambda names: not self._reaches({f: e[f] for f in names}, other)
        return lambda names: self._reaches({f: e[f] for f in self.features if f not in names}, other)

    def _passes(self, q: ExplanationQuery, w: Witness) -> bool:
        # a witness's bits are read here, once per check: the walks trust
        # theirs; the message is built only for a value that is not a bit
        tau = {str(f): z if z in (0, 1) else _bit(z, f"assignment of {f!r}")
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


# ---------------------------------------------------------------------------
# JSON interchange


def query_to_json(q: ExplanationQuery) -> Dict:
    data: Dict = {"kind": q.kind, "minimality": q.minimality}
    data["target"] = example_to_json(q.target) if q.is_local else q.target
    if q.k is not None:
        data["k"] = q.k
    return data


def query_from_json(data: Mapping) -> ExplanationQuery:
    if not isinstance(data, Mapping):
        raise ModelError("query must be a JSON object")
    for key in ("kind", "minimality", "target"):
        if key not in data:
            raise ModelError(f"query object misses {key!r}")
    return ExplanationQuery(
        kind=data["kind"],
        minimality=data["minimality"],
        target=data["target"],
        k=data.get("k"),
    )


def witness_to_json(w: Witness):
    if w.features is not None:
        return list(w.features)
    return {f: z for f, z in w.assignment}


def witness_from_json(data) -> Witness:
    if isinstance(data, Mapping):
        return Witness.of_assignment(data)
    if isinstance(data, (list, tuple)):
        return Witness.of_features(_strings(list(data), "the witness"))
    raise ModelError("witness must be a feature array or a feature->bit object")


# the oracles live in `tables`, beside the tables they read; their names
# resolve here too, for callers that import them from this module
__getattr__ = _forward(__name__, "tables")

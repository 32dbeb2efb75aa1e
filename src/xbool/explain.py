"""Explanation queries, witnesses, and the brute-force ground-truth oracle.

Four query kinds over a model M with feature set F:

* lAXp(e): a set A of features such that every example agreeing with e
  on A gets the same class as e.
* lCXp(e): a set A such that some example differing from e only inside
  A gets a different class (the empty set is never one).
* gAXp(c): a partial assignment forcing class c on all completions.
* gCXp(c): a partial assignment forcing class != c on all completions.

The oracle enumerates candidate witnesses smallest-first with a fixed
tie-break (lexicographic over the sorted feature universe, assignments
counted binary with the first chosen feature most significant), so its
answers are deterministic and usable as frozen expected values.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, Iterable, Mapping, Optional, Tuple, Union

from .errors import ModelError, TooLarge, UndefinedFeature
from .models import Example, Model, _bit, _strings, example_to_json, model_features
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


class FunctionOracle:
    """Brute-force query evaluation for an arbitrary total 0/1 classifier.

    Classifications are memoized per feature vector, so repeated candidate
    checks against the same function stay cheap.  Every check asks one
    question, `reaches`; this class answers it by enumeration, which only
    callers holding a bare function need: a model's oracle is the
    `TableOracle` that `_oracle_for` fills from the model's structure.
    """

    def __init__(self, features: Iterable[str], classify_fn: Callable[[Dict[str, int]], int], guard: int = DEFAULT_GUARD):
        self.features = _universe(features, guard)
        self._pos = {f: i for i, f in enumerate(self.features)}
        self._fn = classify_fn
        self._memo: Dict[Tuple[int, ...], int] = {}

    # -- plumbing

    def label(self, bits: Tuple[int, ...]) -> int:
        got = self._memo.get(bits)
        if got is None:
            got = _bit(
                self._fn({f: bits[i] for i, f in enumerate(self.features)}),
                "classifier output",
            )
            self._memo[bits] = got
        return got

    def bits_of(self, e: Example) -> Tuple[int, ...]:
        try:
            return tuple(_bit(e[f], f"value of feature {f!r}") for f in self.features)
        except KeyError as missing:
            raise UndefinedFeature(f"example does not assign feature {missing}") from None

    def _completions(self, fixed: Dict[int, int]):
        free = [i for i in range(len(self.features)) if i not in fixed]
        base = [fixed.get(i, 0) for i in range(len(self.features))]
        for values in itertools.product((0, 1), repeat=len(free)):
            for i, v in zip(free, values):
                base[i] = v
            yield tuple(base)

    # -- the one question behind the four definitions

    def reaches(self, fixed: Dict[int, int], z: int) -> bool:
        """Some completion of `fixed` (position -> bit) gets label z."""
        return any(self.label(b) == z for b in self._completions(fixed))

    def _validity(self, q: ExplanationQuery) -> Callable[[Iterable], bool]:
        """Validity of a witness given by its features (local kinds) or its
        (feature, bit) pairs (global kinds): lCXp must reach the other
        class with the example fixed outside the set; every other kind
        must leave the class it rules out unreachable."""
        pos = self._pos
        if not q.is_local:
            avoid = q.target if q.kind == "gCXp" else 1 - q.target
            return lambda pairs: not self.reaches({pos[f]: z for f, z in pairs}, avoid)
        e_bits = self.bits_of(q.target)
        other = 1 - self.label(e_bits)

        def valid(names) -> bool:
            if q.kind == "lAXp":
                return not self.reaches({pos[f]: e_bits[pos[f]] for f in names}, other)
            inside = {pos[f] for f in names}
            return self.reaches({i: z for i, z in enumerate(e_bits) if i not in inside}, other)

        return valid

    # -- public checks

    def holds(self, q: ExplanationQuery, w: Witness) -> bool:
        check_witness(q, w, self._pos)
        return self._validity(q)(w.features if q.is_local else w.assignment)

    def _rules_out(self, q: ExplanationQuery, valid) -> bool:
        """True when `q` surely has no witness, decided before the search;
        an enumerating oracle does not try."""
        return False

    def minimum(self, q: ExplanationQuery) -> Optional[Witness]:
        valid = self._validity(q)
        if self._rules_out(q, valid):
            return None
        n = len(self.features)
        limit = n if q.k is None else min(q.k, n)
        for size in range(1 if q.kind == "lCXp" else 0, limit + 1):
            for combo in itertools.combinations(self.features, size):
                if q.is_local:
                    if valid(combo):
                        return Witness(features=combo)
                    continue
                for values in itertools.product((0, 1), repeat=size):
                    pairs = tuple(zip(combo, values))
                    if valid(pairs):
                        return Witness(assignment=pairs)
        return None

    def subset_minimal(self, q: ExplanationQuery, w: Witness) -> bool:
        if not self.holds(q, w):
            return False
        if q.is_local:
            rests = (Witness.of_features(g for g in w.features if g != f) for f in w.features)
        else:
            tau = dict(w.assignment)
            rests = (
                Witness.of_assignment({g: z for g, z in tau.items() if g != f}) for f in tau
            )
        return not any(self.holds(q, rest) for rest in rests)


class TableOracle(FunctionOracle):
    """The oracle over a truth table given up front: `table` is one
    2^n-bit int whose bit i is the class of the point where feature j
    (in sorted order) takes bit j of i.  `reaches` ANDs one literal mask
    per fixed feature with the class's points and tests for any left
    (Knuth, TAOCP 4A, 7.1.3); the candidate order is the inherited one.
    The table and its masks hold 2^n bits each, 128 KiB at the guard.
    """

    def __init__(self, features: Iterable[str], table: int, guard: int = DEFAULT_GUARD):
        self.features = _universe(features, guard)
        self._pos = {f: i for i, f in enumerate(self.features)}
        width = 1 << len(self.features)
        full = (1 << width) - 1
        if not 0 <= table <= full:
            raise ModelError(f"a table over {len(self.features)} features must fit in {width} bits")
        from .tables import literals

        self._points = (full ^ table, table)  # the points of class 0, of class 1
        self._literals = literals(len(self.features))  # per position: (0s, 1s)

    def label(self, bits: Tuple[int, ...]) -> int:
        index = sum(bit << j for j, bit in enumerate(bits))
        return self._points[1] >> index & 1

    def reaches(self, fixed: Dict[int, int], z: int) -> bool:
        points = self._points[z]
        for i, bit in fixed.items():
            points &= self._literals[i][bit]
        return points != 0

    def _rules_out(self, q: ExplanationQuery, valid) -> bool:
        # validity only grows with the witness, and a check here is a few
        # ANDs, so first rule out the queries no candidate can answer: the
        # full feature set fails (lCXp), or the class a global witness must
        # force is reached nowhere
        if q.kind == "lCXp":
            return not valid(self.features)
        return not q.is_local and not self.reaches({}, q.target if q.kind == "gAXp" else 1 - q.target)


def _universe(features: Iterable[str], guard: int) -> Tuple[str, ...]:
    feats = tuple(sorted(set(str(f) for f in features)))
    if len(feats) > guard:
        raise TooLarge(
            f"{len(feats)} features exceed the exhaustive-check guard of {guard}"
        )
    return feats


def _oracle_for(model: Model, guard: int) -> TableOracle:
    """The oracle over `model`'s truth table, filled from its structure."""
    from .tables import model_table

    features = _universe(model_features(model), guard)
    return TableOracle(features, model_table(model, features), guard)


def is_explanation(model: Model, q: ExplanationQuery, w: Witness, guard: int = DEFAULT_GUARD) -> bool:
    if q.k is not None and w.size > q.k:
        return False
    return _oracle_for(model, guard).holds(q, w)


def oracle_min(model: Model, q: ExplanationQuery, guard: int = DEFAULT_GUARD) -> Optional[Witness]:
    return _oracle_for(model, guard).minimum(q)


def verify_subset_minimal(model: Model, q: ExplanationQuery, w: Witness, guard: int = DEFAULT_GUARD) -> bool:
    if q.k is not None and w.size > q.k:
        return False
    return _oracle_for(model, guard).subset_minimal(q, w)


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

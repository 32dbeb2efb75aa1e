"""Truth tables, and the exhaustive oracles that answer queries from them.

A table is a model over all 2^n points at once, as one 2^n-bit int:
bit i is the class at the point where feature j (in sorted order) takes
bit j of i.  A literal is a mask of points, a cube the AND
of its literals, and each family is filled from its own structure with a
few big-int operations per node, term or rule (Knuth, TAOCP 4A, 7.1.3);
no point is enumerated and `models.classify` is never called, so the
table referees the tree and diagram walks independently.

The oracle (`FunctionOracle`, `TableOracle`, `oracle_min`,
`is_explanation`, `verify_subset_minimal`) enumerates candidate
witnesses smallest-first with a fixed tie-break (lexicographic over the
sorted feature universe, assignments counted binary with the first
chosen feature most significant), so its answers are deterministic and
usable as frozen expected values.  The CLI imports this module only on a
route that runs the oracle, and `circuits` for its own tables, so a tree
or diagram request never loads it.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .errors import ModelError, TooLarge, UndefinedFeature
from .explain import DEFAULT_GUARD, ExplanationQuery, Witness, check_witness
from .models import Example, Model, _bit, model_features

Literals = Tuple[Tuple[int, int], ...]


def feature_mask(j: int, n: int) -> int:
    """The points of a 2^n-point table whose index has bit j set: a run
    of 2^j zeros and a run of 2^j ones, doubled until it fills the
    table, so one mask costs O(2^n) bit operations."""
    run = 1 << j
    mask, period = ((1 << run) - 1) << run, 2 * run
    while period < 1 << n:
        mask |= mask << period
        period *= 2
    return mask


@lru_cache(maxsize=1)
def literals(n: int) -> Literals:
    """Per feature j of n: (points where j is 0, points where j is 1).
    The last n asked for stays cached, since a table and its oracle
    share the masks."""
    full = (1 << (1 << n)) - 1
    ones = [feature_mask(j, n) for j in range(n)]
    return tuple((full ^ one, one) for one in ones)


def at_least(values: Iterable[int], threshold: int, full: int) -> int:
    """Points where at least `threshold` of `values` are set: add the
    values into a bit-sliced counter, then compare it with the threshold
    from the top bit down (Knuth, TAOCP 4A, 7.1.3).  `values` is read
    once, so a generator keeps one value live at a time."""
    count: List[int] = []  # count[b] holds bit b of every point's count
    for carry in values:
        for b in range(len(count)):
            if not carry:
                break
            count[b], carry = count[b] ^ carry, count[b] & carry
        if carry:
            count.append(carry)
    above, equal = 0, full
    for b in reversed(range(max(len(count), threshold.bit_length()))):
        bit = count[b] if b < len(count) else 0
        if threshold >> b & 1:
            equal &= bit
        else:
            above |= equal & bit
            equal &= ~bit
    return above | equal


def model_table(model, features: Sequence[str]) -> int:
    """The table of `model` over `features`, sorted and covering every
    feature the model reads."""
    lits = literals(len(features))
    lit = {f: lits[j] for j, f in enumerate(features)}
    return _fill(model, lit, (1 << (1 << len(features))) - 1)


def _fill(model, lit: Mapping[str, Tuple[int, int]], full: int) -> int:
    if model.kind == "ensemble":
        votes = (_fill(el, lit, full) for el in model.elements)
        return at_least(votes, len(model.elements) // 2 + 1, full)
    return _FILLS[model.kind](model, lit, full)


def _cube(term, lit, points: int) -> int:
    for f, z in term:
        points &= lit[f][z]
    return points


def _fill_dt(t, lit, full: int) -> int:
    """The OR of the path cubes of the 1-leaves; a path that tests a
    feature both ways has an empty cube and is dropped."""
    out = 0
    stack = [(t.root, full)]
    while stack:
        nid, cube = stack.pop()
        label = t.leaf_labels.get(nid)
        if label is None:
            node = t.nodes[nid]
            zero, one = lit[node.feature]
            for child, side in ((node.zero, zero), (node.one, one)):
                sub = cube & side
                if sub:
                    stack.append((child, sub))
        elif label:
            out |= cube
    return out


def _fill_ds(s, lit, full: int) -> int:
    fires = 0
    for term in s.terms:
        fires |= _cube(term, lit, full)
    return full ^ fires if s.default else fires


def _fill_dl(dl, lit, full: int) -> int:
    """First match wins: each rule takes what is left of its cube."""
    out, rest = 0, full
    for rule in dl.rules:
        hit = _cube(rule.term, lit, rest)
        if rule.label:
            out |= hit
        rest ^= hit
        if not rest:
            break
    return out


def _fill_obdd(o, lit, full: int) -> int:
    """Bottom-up in reverse level order, so both children come first; a
    skipped level needs no padding.  A node's value is dropped once its
    last parent is done."""
    value = {o.t0: 0, o.t1: full}
    readers = dict.fromkeys(o.nodes, 0)
    for node in o.nodes.values():
        for child in (node.zero, node.one):
            if child in readers:
                readers[child] += 1
    for nid in sorted(o.nodes, key=o.level, reverse=True):
        node = o.nodes[nid]
        zero, one = lit[node.feature]
        value[nid] = (zero & value[node.zero]) | (one & value[node.one])
        for child in (node.zero, node.one):
            if child in readers:
                readers[child] -= 1
                if not readers[child]:
                    del value[child]
    return value[o.source]


_FILLS = {"dt": _fill_dt, "ds": _fill_ds, "dl": _fill_dl, "obdd": _fill_obdd}


# ---------------------------------------------------------------------------
# The oracle


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

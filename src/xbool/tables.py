"""Truth tables, and the exhaustive oracles that answer queries from them.

A table is a model over all 2^n points at once, as one 2^n-bit int:
bit i is the class at the point where feature j (in sorted order) takes
bit j of i.  A literal is a mask of points, a cube the AND
of its literals, and each family is filled from its own structure with a
few big-int operations per node, term or rule (Knuth, TAOCP 4A, 7.1.3):
rule sets and lists by cubes, trees and diagrams by one bottom-up fill
over the raw model in the parents-first order its constructor learned.
No point is enumerated, and neither `models.classify` nor the walk nor
the simplified or completed model is used, so the table referees the
tree and diagram walks independently.

The oracles (`FunctionOracle`, `TableOracle`, and `oracle_min`,
`is_explanation`, `verify_subset_minimal` over them) answer
`definitions.Definitions`' one question, `reaches`: by enumeration over
a bare function, or by ANDs of masks over a table.  Their answers,
candidates in the definitions' tie-break, are the frozen expected
values.  The CLI imports this module only on a route that runs the
oracle, and `circuits` for its own tables, so a tree or diagram request
never loads it.
"""

from __future__ import annotations

import itertools
from functools import lru_cache, partial
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .errors import ModelError, TooLarge
from .definitions import Definitions
from .explain import DEFAULT_GUARD, ExplanationQuery, Witness
from .models import Example, Model, _bit, _lookup, model_features

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


def _fill_graph(g, lit, full: int) -> int:
    """A tree or diagram bottom-up, its parents-first order read
    backwards so both children come first; a repeated test or a skipped
    level needs nothing of its own.  A child's value is dropped once its
    last reader, the parent listed first, is done; an order that lists a
    parent after its child misses the child's value and raises
    `KeyError`."""
    nodes, parents_first = g.nodes, g.parents_first
    value = {nid: full if label else 0 for nid, label in g.terminals.items()}
    last = {}
    for nid in parents_first:
        node = nodes[nid]
        last.setdefault(node.zero, nid)
        last.setdefault(node.one, nid)
    for nid in reversed(parents_first):
        node = nodes[nid]
        zero, one = lit[node.feature]
        a, b = node.zero, node.one
        value[nid] = (zero & value[a]) | (one & value[b])
        if last[a] == nid:
            del value[a]
        if b != a and last[b] == nid:
            del value[b]
    return value[g.start]


_FILLS = {"dt": _fill_graph, "ds": _fill_ds, "dl": _fill_dl, "obdd": _fill_graph}


# ---------------------------------------------------------------------------
# The oracle


class FunctionOracle(Definitions):
    """The definitions over an arbitrary total 0/1 classifier, which the
    constructor stores without calling (`TableOracle` fills after it).
    `reaches` enumerates the completions of a partial assignment by
    feature name and keeps its last answer, and classifications are
    memoized per feature vector, so a repeated check makes no classifier
    call.  Only callers holding a bare function need this: a model's
    oracle is the `TableOracle` that `_oracle_for` fills from the model's
    structure.
    """

    def __init__(self, features: Iterable[str], classify_fn: Callable[[Dict[str, int]], int], guard: int = DEFAULT_GUARD):
        self.features = _universe(features, guard)
        self._fn, self._last = classify_fn, (None, None)  # `reaches`' last question and answer
        self._memo: Dict[Tuple[int, ...], int] = {}

    def label(self, bits: Tuple[int, ...]) -> int:
        got = self._memo.get(bits)
        if got is None:
            got = _bit(self._fn(dict(zip(self.features, bits))), "classifier output")
            self._memo[bits] = got
        return got

    def bits_of(self, e: Example) -> Tuple[int, ...]:
        return tuple(_lookup(e, f) for f in self.features)

    def example_class(self, e: Example) -> int:
        return self.label(self.bits_of(e))

    def reaches(self, tau: Mapping[str, int], z: int) -> bool:
        """Some completion of `tau` (feature name -> bit) gets label z, counted in binary over the
        free features, first most significant.  The last answer is kept (`subset_minimal` checks
        its witness again): the points up to the first z-point are memoized, so a repeat adds none."""
        if (key := (*tau.items(), z)) != self._last[0]:
            points = itertools.product(*[(tau[f],) if f in tau else (0, 1) for f in self.features])
            self._last = key, any(map(z.__eq__, map(self.label, points)))
        return self._last[1]


class TableOracle(FunctionOracle):
    """The oracle over a truth table: `table` is one 2^n-bit int whose
    bit i is the class of the point where feature j (in sorted order)
    takes bit j of i, or a function filling it from the sorted features.
    It defines its own `reaches`, which ANDs each named feature's
    literal mask with the class's points and tests for any left (Knuth,
    TAOCP 4A, 7.1.3); `minimum` walks the inherited candidates in the
    inherited order, sharing each prefix's AND (`_first`).  The table
    and its masks hold 2^n bits each, 128 KiB at the guard."""

    def __init__(self, features: Iterable[str], table: int | Callable[..., int], guard: int = DEFAULT_GUARD):
        # a point's class is its bit of the table, at the index its bits spell (filled next: the base never labels)
        super().__init__(features, lambda point: filled >> sum(
            bit << j for j, bit in enumerate(point.values())) & 1, guard)
        filled = table(self.features) if callable(table) else table
        width = 1 << len(self.features)
        full = (1 << width) - 1
        if not 0 <= filled <= full:
            raise ModelError(f"a table over {len(self.features)} features must fit in {width} bits")
        self._points = (full ^ filled, filled)  # the points of class 0, of class 1
        self._literals = literals(len(self.features))  # per position: (0s, 1s)
        self._named = dict(zip(self.features, self._literals))  # per feature name: (0s, 1s)

    def reaches(self, tau: Mapping[str, int], z: int) -> bool:
        points = self._points[z]
        for f, bit in tau.items():
            points &= self._named[f][bit]
        return points != 0

    def _first(self, q: ExplanationQuery, valid) -> Callable[[int], Optional[Witness]]:
        """The inherited candidates in the inherited order, on a stack of
        prefix ANDs: `zero[d]` is the class to rule out ANDed with the
        literals of the first d chosen features at 0 (lAXp: at the
        example's values), so a new combination recomputes only from the
        position that moved, and the last position sweeps its range at
        one AND each.  A global kind counts each combination's values in
        binary on a copy, from the bit that turned 1 down: about two ANDs
        per candidate.  Either walk holds O(size) masks; keeping every
        value prefix would hold 2^size.  lCXp fixes the features outside
        the set, which share no prefix, so it keeps the enumeration."""
        if q.kind == "lCXp":
            return super()._first(q, valid)
        lit, local = self._literals, q.is_local
        if local:
            e_bits = self.bits_of(q.target)
            root = self._points[1 - self.label(e_bits)]
            lit = [(pair[bit],) for pair, bit in zip(lit, e_bits)]
        else:
            root = self._points[q.target if q.kind == "gCXp" else 1 - q.target]
        feats, n = self.features, len(self.features)

        def found(combo, values) -> Witness:
            names = tuple(feats[i] for i in combo)
            return Witness(features=names) if local else Witness(assignment=tuple(zip(names, values)))

        def first(size: int) -> Optional[Witness]:
            if not size:
                return None if root else found((), ())
            combo, zero, d, last = list(range(size)), [root] * size, 0, size - 1
            while True:
                for j in range(d, last):
                    zero[j + 1] = zero[j] & lit[combo[j]][0]
                for i in range(combo[last], n):
                    if local:
                        if not zero[last] & lit[i][0]:
                            return found(combo[:last] + [i], ())
                        continue
                    zeros, ones = lit[i]
                    stack, values = zero[:], [0] * last
                    while True:
                        if not stack[last] & zeros:
                            return found(combo[:last] + [i], values + [0])
                        if not stack[last] & ones:
                            return found(combo[:last] + [i], values + [1])
                        p = last - 1
                        while p >= 0 and values[p]:
                            values[p] = 0
                            p -= 1
                        if p < 0:
                            break
                        values[p] = 1
                        stack[p + 1] = stack[p] & lit[combo[p]][1]
                        for j in range(p + 1, last):
                            stack[j + 1] = stack[j] & lit[combo[j]][0]
                d = last - 1
                while d >= 0 and combo[d] == n - size + d:
                    d -= 1
                if d < 0:
                    return None
                combo[d:] = range(combo[d] + 1, combo[d] + 1 + size - d)

        return first

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
    return TableOracle(model_features(model), partial(model_table, model), guard)


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

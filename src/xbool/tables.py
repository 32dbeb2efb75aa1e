"""Truth tables: a model over all 2^n points at once, as one 2^n-bit int.

Bit i of a table is the class at the point where feature j (in sorted
order) takes bit j of i.  A literal is a mask of points, a cube the AND
of its literals, and each family is filled from its own structure with a
few big-int operations per node, term or rule (Knuth, TAOCP 4A, 7.1.3);
no point is enumerated and `models.classify` is never called, so the
table referees the tree and diagram walks independently.  The oracle
imports this module at call time and `circuits` for its own tables, so
a tree or diagram request never loads it.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, List, Mapping, Sequence, Tuple

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

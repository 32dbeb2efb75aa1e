"""Decision sets and decision lists: terms, rules and their classifiers.

Loaded when a request first meets a rule set or list
(`models.model_from_json`); importing it adds both classifiers to
`models._CLASSIFIERS`.  A tree or diagram request never compiles it.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Tuple

from .errors import ContradictoryTerm, ModelError
from .models import _CLASSIFIERS, Example, _bit, _lookup
from .records import Frozen

Literal = Tuple[str, int]
Term = FrozenSet[Literal]


def make_term(literals: Iterable[Literal]) -> Term:
    term = frozenset((str(f), _bit(z, f"literal on {f!r}")) for f, z in literals)
    by_feature: Dict[str, int] = {}
    for f, z in term:
        if by_feature.setdefault(f, z) != z:
            raise ContradictoryTerm(f"term assigns feature {f!r} both ways")
    return term


def term_applies(term: Term, e: Example) -> bool:
    return all(_lookup(e, f) == z for f, z in term)


class DecisionSet:
    """Unordered terms plus a default class; any applicable term flips it."""

    kind = "ds"

    def __init__(self, terms: Iterable[Iterable[Literal]], default: int):
        self.terms: Tuple[Term, ...] = tuple(make_term(t) for t in terms)
        self.default = _bit(default, "default class")

    def features(self) -> FrozenSet[str]:
        return frozenset(f for term in self.terms for f, _ in term)


def _classify_ds(s: DecisionSet, e: Example) -> int:
    if any(term_applies(term, e) for term in s.terms):
        return 1 - s.default
    return s.default


class Rule(Frozen):
    __slots__ = ("term", "label")

    def __init__(self, term: Term, label: int):
        self._fill(term, label)


class DecisionList:
    """Ordered rules; the first applicable term decides.  Last term is empty."""

    kind = "dl"

    def __init__(self, rules: Iterable[Tuple[Iterable[Literal], int]]):
        built = tuple(
            Rule(make_term(term), _bit(label, "rule class")) for term, label in rules
        )
        if not built:
            raise ModelError("decision list needs at least the default rule")
        if built[-1].term:
            raise ModelError("the last rule's term must be empty")
        self.rules: Tuple[Rule, ...] = built

    def features(self) -> FrozenSet[str]:
        return frozenset(f for rule in self.rules for f, _ in rule.term)


def _classify_dl(dl: DecisionList, e: Example) -> int:
    for rule in dl.rules:
        if term_applies(rule.term, e):
            return rule.label
    raise AssertionError("unreachable: last rule always applies")


_CLASSIFIERS["ds"] = _classify_ds
_CLASSIFIERS["dl"] = _classify_dl


def ds_size(s: DecisionSet) -> int:
    return sum(len(t) for t in s.terms) + 1


def dl_size(dl: DecisionList) -> int:
    return sum(len(r.term) + 1 for r in dl.rules)

"""Transparent binary classifiers over named 0/1 features.

Five model families share one example algebra: decision trees, decision
sets, decision lists, ordered binary decision diagrams, and odd-size
majority ensembles of a single family.  Values are validated when
constructed and treated as immutable afterwards; every operation here is
pure, so models can be shared freely across threads.

This module holds what every request shares: bits and terms, rule sets
and lists, ensembles, the `classify` dispatch, the structural parameters
and the JSON boundary.  Trees live in `dt` and diagrams in `obdd`, each
loaded when a request first meets one, and each adds its classifier to
`_CLASSIFIERS`; their names resolve here too.

Classification requires the example to cover the model's feature
universe.  Extra features are ignored: ensemble elements typically read
only a slice of the shared universe and still get handed the full
example.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Dict, FrozenSet, Iterable, Mapping, Optional, Sequence, Tuple, Union

from . import _forward
from .errors import (
    ContradictoryTerm,
    EvenEnsemble,
    ModelError,
    NotOrdered,
    UndefinedFeature,
)
from .records import Frozen, Record

if TYPE_CHECKING:
    from .dt import DecisionTree
    from .obdd import Obdd

Example = Mapping[str, int]
PartialExample = Mapping[str, int]
Literal = Tuple[str, int]
Term = FrozenSet[Literal]

# largest tree or diagram a product, graft or generator may build
DEFAULT_NODE_CAP = 10**6


def _bit(value, what: str) -> int:
    if value not in (0, 1):
        raise ModelError(f"{what} must be 0 or 1, got {value!r}")
    return int(value)


def _lookup(e: Example, feature: str) -> int:
    try:
        value = e[feature]
    except KeyError:
        raise UndefinedFeature(f"example does not assign feature {feature!r}") from None
    return _bit(value, f"value of feature {feature!r}")


def make_term(literals: Iterable[Literal]) -> Term:
    term = frozenset((str(f), _bit(z, f"literal on {f!r}")) for f, z in literals)
    by_feature: Dict[str, int] = {}
    for f, z in term:
        if by_feature.setdefault(f, z) != z:
            raise ContradictoryTerm(f"term assigns feature {f!r} both ways")
    return term


def term_applies(term: Term, e: Example) -> bool:
    return all(_lookup(e, f) == z for f, z in term)


def require_total(e: Example, features: Sequence[str]) -> None:
    """Raise UndefinedFeature naming the least feature e leaves unassigned;
    `features` comes sorted."""
    for f in features:
        if f not in e:
            raise UndefinedFeature(f"example does not assign feature {f!r}")


# ---------------------------------------------------------------------------
# Decision sets and decision lists


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


# ---------------------------------------------------------------------------
# Ensembles

Model = Union["DecisionTree", DecisionSet, DecisionList, "Obdd", "Ensemble"]


def _is_subsequence(sub: Sequence[str], full: Sequence[str]) -> bool:
    it = iter(full)
    return all(any(x == y for y in it) for x in sub)


class Ensemble:
    """Odd-size majority vote over elements of a single model family."""

    kind = "ensemble"

    def __init__(self, elements: Sequence[Model], shared_order: Optional[Sequence[str]] = None):
        elements = tuple(elements)
        if not elements:
            raise ModelError("ensemble needs at least one element")
        if len(elements) % 2 == 0:
            raise EvenEnsemble(f"ensemble of {len(elements)} elements can tie")
        kinds = {el.kind for el in elements}
        if kinds - {"dt", "ds", "dl", "obdd"}:
            raise ModelError("ensemble elements must be plain models")
        if len(kinds) != 1:
            raise ModelError(f"ensemble mixes model kinds {sorted(kinds)}")
        if shared_order is not None:
            shared_order = tuple(str(f) for f in shared_order)
            if len(set(shared_order)) != len(shared_order):
                raise ModelError("shared order has duplicates")
            if kinds != {"obdd"}:
                raise ModelError("shared order only applies to OBDD ensembles")
            allowed = set(shared_order)
            for i, el in enumerate(elements):
                if not set(el.order) <= allowed:
                    raise ModelError(f"element {i} reads outside the shared order")
                if not _is_subsequence(el.order, shared_order):
                    raise NotOrdered(f"element {i} does not respect the shared order")
        self.elements: Tuple[Model, ...] = elements
        self.shared_order = shared_order

    def features(self) -> FrozenSet[str]:
        out: FrozenSet[str] = frozenset()
        for el in self.elements:
            out = out | el.features()
        return out


def _classify_ensemble(ens: Ensemble, e: Example) -> int:
    votes = sum(classify(el, e) for el in ens.elements)
    return 1 if votes >= len(ens.elements) // 2 + 1 else 0


# ---------------------------------------------------------------------------
# Shared entry points

# kind -> classifier; `dt` and `obdd` add theirs when loaded, which is
# before any tree or diagram can exist
_CLASSIFIERS = {
    "ds": _classify_ds,
    "dl": _classify_dl,
    "ensemble": _classify_ensemble,
}


def classify(model: Model, e: Example) -> int:
    return _CLASSIFIERS[model.kind](model, e)


def model_features(model: Model) -> FrozenSet[str]:
    return model.features()


def feature_order(model: Model) -> Tuple[str, ...]:
    """Canonical feature indexing: names sorted ascending."""
    return tuple(sorted(model.features()))


def flip(e: Example, features: Iterable[str]) -> Dict[str, int]:
    flipped = dict(e)
    for f in features:
        flipped[f] = 1 - _lookup(e, f)
    return flipped


# ---------------------------------------------------------------------------
# Table-style parameter measurement


class Parameters(Record):
    __slots__ = (
        "ens_size",
        "mnl_size",
        "terms_elem",
        "term_size",
        "width_elem",
        "size_elem",
    )

    def __init__(
        self,
        ens_size: Optional[int] = None,
        mnl_size: Optional[int] = None,
        terms_elem: Optional[int] = None,
        term_size: Optional[int] = None,
        width_elem: Optional[int] = None,
        size_elem: Optional[int] = None,
    ):
        self._fill(ens_size, mnl_size, terms_elem, term_size, width_elem, size_elem)

    def to_json(self) -> Dict[str, int]:
        return {
            name: value
            for name, value in zip(self.__slots__, self._values())
            if value is not None
        }


def ds_size(s: DecisionSet) -> int:
    return sum(len(t) for t in s.terms) + 1


def dl_size(dl: DecisionList) -> int:
    return sum(len(r.term) + 1 for r in dl.rules)


def measure_parameters(model: Model) -> Parameters:
    elements = model.elements if isinstance(model, Ensemble) else (model,)
    kind = elements[0].kind
    params = Parameters(ens_size=len(elements))
    if kind == "dt":
        from .dt import dt_mnl, dt_size

        params.mnl_size = max(dt_mnl(t) for t in elements)
        params.size_elem = max(dt_size(t) for t in elements)
    elif kind == "ds":
        params.terms_elem = max(len(s.terms) for s in elements)
        params.term_size = max(
            (len(t) for s in elements for t in s.terms), default=0
        )
        params.size_elem = max(ds_size(s) for s in elements)
    elif kind == "dl":
        params.terms_elem = max(len(dl.rules) for dl in elements)
        params.term_size = max(
            len(r.term) for dl in elements for r in dl.rules
        )
        params.size_elem = max(dl_size(dl) for dl in elements)
    elif kind == "obdd":
        from .obdd import obdd_width

        params.width_elem = max(obdd_width(o) for o in elements)
        params.size_elem = max(o.size() for o in elements)
    return params


# ---------------------------------------------------------------------------
# JSON interchange


def model_to_json(model: Model) -> Dict:
    kind = getattr(model, "kind", None)
    if kind == "dt":
        nodes = {}
        for nid, node in model.nodes.items():
            if nid in model.leaf_labels:
                nodes[nid] = {"leaf": node.label}
            else:
                nodes[nid] = {"feature": node.feature, "zero": node.zero, "one": node.one}
        return {"kind": "dt", "root": model.root, "nodes": nodes}
    if kind == "ds":
        return {
            "kind": "ds",
            "terms": [[[f, z] for f, z in sorted(t)] for t in model.terms],
            "default": model.default,
        }
    if kind == "dl":
        return {
            "kind": "dl",
            "rules": [[[[f, z] for f, z in sorted(r.term)], r.label] for r in model.rules],
        }
    if kind == "obdd":
        nodes = {
            nid: {"feature": n.feature, "zero": n.zero, "one": n.one}
            for nid, n in model.nodes.items()
        }
        return {
            "kind": "obdd",
            "nodes": nodes,
            "source": model.source,
            "t0": model.t0,
            "t1": model.t1,
            "order": list(model.order),
        }
    if kind == "ensemble":
        data: Dict = {
            "kind": "ensemble",
            "elements": [model_to_json(el) for el in model.elements],
        }
        if model.shared_order is not None:
            data["shared_order"] = list(model.shared_order)
        return data
    raise ModelError(f"cannot serialize {type(model).__name__}")


_JSON_TYPES = {dict: "an object", list: "an array", str: "a string"}


def _wrong_type(what: str, kind: type, value) -> ModelError:
    return ModelError(f"{what} must be {_JSON_TYPES[kind]}, got {type(value).__name__}")


def _require(data: Mapping, key: str, kind: type = object, noun: str = "model"):
    """`data[key]` of type `kind`; an error names the `noun` read."""
    if key not in data:
        raise ModelError(f"{noun} object misses {key!r}")
    value = data[key]
    if not isinstance(value, kind):
        raise _wrong_type(f"{noun} field {key!r}", kind, value)
    return value


def _strings(value, what: str) -> list:
    if not isinstance(value, list):
        raise _wrong_type(what, list, value)
    for item in value:
        if not isinstance(item, str):
            raise _wrong_type(f"each entry of {what}", str, item)
    return value


def _pairs(value, what: str) -> list:
    """An array of [name, value] pairs, such as a term's [feature, bit]
    literals; the caller checks the values."""
    if not isinstance(value, list):
        raise _wrong_type(what, list, value)
    for pair in value:
        if not (isinstance(pair, list) and len(pair) == 2 and isinstance(pair[0], str)):
            raise ModelError(f"{what} must hold [name, value] pairs, got {pair!r}")
    return value


def _arc_specs(data: Mapping) -> Dict[str, Mapping]:
    nodes = _require(data, "nodes", dict)
    for nid, spec in nodes.items():
        if not isinstance(spec, dict):
            raise _wrong_type(f"node {nid!r}", dict, spec)
    return nodes


def _arcs(spec: Mapping) -> Tuple[str, str, str]:
    return _require(spec, "feature", str), _require(spec, "zero", str), _require(spec, "one", str)


def model_from_json(data: Mapping) -> Model:
    """Model from its JSON object; every shape error is a ModelError."""
    if not isinstance(data, dict):
        raise _wrong_type("a model", dict, data)
    kind = _require(data, "kind")
    if kind == "dt":
        from .dt import DecisionTree, DtInner, DtLeaf, simplify_dt

        nodes = {}
        for nid, spec in _arc_specs(data).items():
            if "leaf" in spec:
                nodes[nid] = DtLeaf(_bit(spec["leaf"], "leaf label"))
            else:
                nodes[nid] = DtInner(*_arcs(spec))
        return simplify_dt(DecisionTree(nodes, _require(data, "root", str)))
    if kind == "ds":
        terms = [_pairs(t, "a term") for t in _require(data, "terms", list)]
        return DecisionSet(terms, _require(data, "default"))
    if kind == "dl":
        rules = []
        for rule in _require(data, "rules", list):
            if not (isinstance(rule, list) and len(rule) == 2):
                raise ModelError(f"a rule must be a [term, class] pair, got {rule!r}")
            rules.append((_pairs(rule[0], "a rule's term"), rule[1]))
        return DecisionList(rules)
    if kind == "obdd":
        from .obdd import Obdd, ObddNode, _infer_order

        nodes = {nid: ObddNode(*_arcs(spec)) for nid, spec in _arc_specs(data).items()}
        source, t0, t1 = (_require(data, key, str) for key in ("source", "t0", "t1"))
        order = data.get("order")
        if order is None:
            order = _infer_order(nodes, source, t0, t1)
        return Obdd(nodes, source, t0, t1, _strings(order, "the order"))
    if kind == "ensemble":
        raw = _require(data, "elements", list)
        if any(isinstance(el, dict) and el.get("kind") == "ensemble" for el in raw):
            raise ModelError("ensembles cannot nest")
        shared_order = data.get("shared_order")
        if shared_order is not None:
            _strings(shared_order, "the shared order")
        return Ensemble([model_from_json(el) for el in raw], shared_order)
    raise ModelError(f"unknown model kind {kind!r}")


def example_to_json(e: Example) -> Dict[str, int]:
    return {f: int(z) for f, z in sorted(e.items())}


def dumps_canonical(data) -> str:
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def dumps_model(model: Model) -> str:
    return dumps_canonical(model_to_json(model))


def _load_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as err:
        raise ModelError(f"{path!r} is not UTF-8 text ({err.reason} at byte {err.start})") from None


def loads_json(text: str):
    """Parse JSON given from outside; nesting past the parser's depth
    limit and integers past the interpreter's digit limit are refused
    like any other bad input, and malformed text stays a JSONDecodeError."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ModelError("JSON input nests too deeply") from None
    except json.JSONDecodeError:
        raise
    except ValueError as err:
        raise ModelError(f"JSON input is unreadable: {err}") from None


def loads_model(text: str) -> Model:
    return model_from_json(loads_json(text))


# tree and diagram names resolve here from `dt` and `obdd`, and the walk
# from `restriction`, for callers that import them from this module
__getattr__ = _forward(__name__, "dt", "obdd", "restriction")

"""Transparent binary classifiers over named 0/1 features.

Five model families share one example algebra: decision trees, decision
sets, decision lists, ordered binary decision diagrams, and odd-size
majority ensembles of a single family.  Values are validated when
constructed and treated as immutable afterwards; every operation here is
pure, so models can be shared freely across threads.

Classification requires the example to cover the model's feature
universe.  Extra features are ignored: ensemble elements typically read
only a slice of the shared universe and still get handed the full
example.
"""

from __future__ import annotations

import json
from typing import Dict, FrozenSet, Iterable, Mapping, Optional, Sequence, Tuple, Union

from .errors import (
    ContradictoryTerm,
    EvenEnsemble,
    ModelError,
    NotOrdered,
    UndefinedFeature,
)
from .records import Frozen, Record

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


# ---------------------------------------------------------------------------
# Decision trees


class DtLeaf(Frozen):
    __slots__ = ("label",)

    def __init__(self, label: int):
        self._fill(label)


class DtInner(Frozen):
    __slots__ = ("feature", "zero", "one")

    def __init__(self, feature: str, zero: str, one: str):
        self._fill(feature, zero, one)


DtNode = Union[DtLeaf, DtInner]


class DecisionTree:
    """Rooted binary tree; inner nodes test a feature, leaves carry a class."""

    kind = "dt"

    def __init__(self, nodes: Mapping[str, DtNode], root: str):
        nodes = dict(nodes)
        if root not in nodes:
            raise ModelError(f"root {root!r} is not a node")
        parent: Dict[str, str] = {}
        labels: Dict[str, int] = {}
        for nid, node in nodes.items():
            if isinstance(node, DtLeaf):
                _bit(node.label, "leaf label")
                labels[nid] = node.label
            elif isinstance(node, DtInner):
                for child in (node.zero, node.one):
                    if child not in nodes:
                        raise ModelError(f"child {child!r} of {nid!r} is not a node")
                    if child in parent:
                        raise ModelError(f"node {child!r} has two parents")
                    parent[child] = nid
            else:
                raise ModelError(f"node {nid!r} is neither leaf nor inner")
        if root in parent:
            raise ModelError("root must not have a parent")
        # unique parents rule out sharing; a full walk rules out stray components
        seen = 0
        stack = [root]
        while stack:
            node = nodes[stack.pop()]
            seen += 1
            if isinstance(node, DtInner):
                stack.append(node.zero)
                stack.append(node.one)
        if seen != len(nodes):
            raise ModelError("tree contains nodes unreachable from the root")
        self.nodes: Dict[str, DtNode] = nodes
        self.root = root
        # leaf id -> class label, the terminals of a restriction walk
        self.leaf_labels: Dict[str, int] = labels
        self._repeat_free: Optional[bool] = None  # memo of simplify_dt

    def features(self) -> FrozenSet[str]:
        return frozenset(
            n.feature for n in self.nodes.values() if isinstance(n, DtInner)
        )

    def leaves(self) -> Tuple[Tuple[str, int], ...]:
        return tuple(self.leaf_labels.items())


def _classify_dt(t: DecisionTree, e: Example) -> int:
    node = t.nodes[t.root]
    while isinstance(node, DtInner):
        node = t.nodes[node.one if _lookup(e, node.feature) else node.zero]
    return node.label


def _dt_has_repeats(t: DecisionTree) -> bool:
    stack = [(t.root, frozenset())]
    while stack:
        nid, seen = stack.pop()
        node = t.nodes[nid]
        if isinstance(node, DtInner):
            if node.feature in seen:
                return True
            seen = seen | {node.feature}
            stack.append((node.zero, seen))
            stack.append((node.one, seen))
    return False


def _emit_tree(start, expand) -> DecisionTree:
    """The tree unfolded from `start`; the one place tree node ids are made.

    `expand(state)` gives a leaf label or `(feature, zero_state,
    one_state)`.  Ids run n0, n1, ... in preorder, the 0-child first,
    and an explicit stack keeps depth off the call stack.
    """
    nodes: Dict[str, DtNode] = {}
    inner = []
    work = [(start, [None], 0)]
    while work:
        state, slots, side = work.pop()
        slots[side] = nid = f"n{len(nodes) + len(inner)}"
        got = expand(state)
        if isinstance(got, tuple):
            slots = list(got)  # [feature, zero, one] until the ids are in
            inner.append((nid, slots))
            work += ((got[2], slots, 2), (got[1], slots, 1))
        else:
            nodes[nid] = DtLeaf(got)
    for nid, slots in inner:
        nodes[nid] = DtInner(*slots)
    return DecisionTree(nodes, "n0")


def _project(
    trees: Sequence[DecisionTree], fixed: Mapping[str, int], accumulate: bool
) -> DecisionTree:
    """The majority vote of `trees`, read one after another, each path
    ending in the majority of the leaves it crosses (one tree keeps its
    labels).  A node whose feature the path context decides follows the
    decided arc.  The context is `fixed`, plus every branch decision
    when `accumulate`, which leaves no feature tested twice on a path.
    """
    majority = len(trees) // 2 + 1

    def expand(state):
        ti, nid, votes, path = state
        node = trees[ti].nodes[nid]
        while True:
            if isinstance(node, DtLeaf):
                votes += node.label
                ti += 1
                if ti == len(trees):
                    return 1 if votes >= majority else 0
                nid = trees[ti].root
            elif node.feature in path:
                nid = node.one if path[node.feature] else node.zero
            else:
                break
            node = trees[ti].nodes[nid]
        one = path
        if accumulate:
            one = dict(path)
            one[node.feature] = 1
            path[node.feature] = 0
        return node.feature, (ti, node.zero, votes, path), (ti, node.one, votes, one)

    out = _emit_tree((0, trees[0].root, 0, dict(fixed)), expand)
    if accumulate:
        out._repeat_free = True
    return out


def simplify_dt(t: DecisionTree) -> DecisionTree:
    """Drop re-tests of features already decided on the path; same classifier."""
    if t._repeat_free is None:
        t._repeat_free = not _dt_has_repeats(t)
    if t._repeat_free:
        return t
    return _project([t], {}, accumulate=True)


def restrict_dt(t: DecisionTree, tau: PartialExample) -> DecisionTree:
    """Keep only the tau(f)-subtree below every node testing f in dom(tau)."""
    if not tau:
        return t
    fixed = {str(f): _bit(z, f"assignment of {f!r}") for f, z in tau.items()}
    return _project([t], fixed, accumulate=False)


def require_total(e: Example, features: Iterable[str]) -> None:
    """Raise UndefinedFeature naming the least feature e leaves unassigned."""
    for f in sorted(features):
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
# Ordered binary decision diagrams


class ObddNode(Frozen):
    __slots__ = ("feature", "zero", "one")

    def __init__(self, feature: str, zero: str, one: str):
        self._fill(feature, zero, one)


class Obdd:
    """DAG reading features along a fixed order, ending in sinks t0/t1.

    The `order` is the feature universe: completion pads every path so it
    reads each feature of the order exactly once.  Every node must be
    reachable from the source, and arcs must move strictly forward in the
    order, which also guarantees acyclicity.
    """

    kind = "obdd"

    def __init__(
        self,
        nodes: Mapping[str, ObddNode],
        source: str,
        t0: str,
        t1: str,
        order: Sequence[str],
    ):
        nodes = dict(nodes)
        order = tuple(str(f) for f in order)
        if len(set(order)) != len(order):
            raise ModelError("feature order has duplicates")
        if t0 == t1:
            raise ModelError("t0 and t1 must differ")
        for sink in (t0, t1):
            if sink in nodes:
                raise ModelError(f"sink {sink!r} also appears as an inner node")
        index = {f: i for i, f in enumerate(order)}
        sinks = {t0, t1}
        if source not in nodes and source not in sinks:
            raise ModelError(f"source {source!r} is not a node")
        for nid, node in nodes.items():
            if node.feature not in index:
                raise NotOrdered(f"feature {node.feature!r} of {nid!r} is not in the order")
            for child in (node.zero, node.one):
                if child in sinks:
                    continue
                if child not in nodes:
                    raise ModelError(f"child {child!r} of {nid!r} is not a node")
                if index[nodes[child].feature] <= index[node.feature]:
                    raise NotOrdered(
                        f"arc {nid!r} -> {child!r} does not advance in the order"
                    )
        reached = set()
        stack = [source]
        while stack:
            nid = stack.pop()
            if nid in sinks or nid in reached:
                continue
            reached.add(nid)
            node = nodes[nid]
            stack.append(node.zero)
            stack.append(node.one)
        if reached != set(nodes):
            raise ModelError("OBDD contains nodes unreachable from the source")
        self.nodes: Dict[str, ObddNode] = nodes
        self.source = source
        self.t0 = t0
        self.t1 = t1
        self.order: Tuple[str, ...] = order
        self._index = index
        self.sink_labels: Dict[str, int] = {t0: 0, t1: 1}
        self._complete: Optional[bool] = None  # memo of is_complete

    def features(self) -> FrozenSet[str]:
        return frozenset(self.order)

    def level(self, nid: str) -> int:
        if nid == self.t0 or nid == self.t1:
            return len(self.order)
        return self._index[self.nodes[nid].feature]

    def sink_label(self, nid: str) -> Optional[int]:
        return self.sink_labels.get(nid)

    def present_sinks(self) -> Tuple[str, ...]:
        referenced = {self.source}
        for node in self.nodes.values():
            referenced.add(node.zero)
            referenced.add(node.one)
        return tuple(s for s in (self.t0, self.t1) if s in referenced)

    def size(self) -> int:
        return len(self.nodes) + len(self.present_sinks())


def _classify_obdd(o: Obdd, e: Example) -> int:
    nid = o.source
    label = o.sink_label(nid)
    while label is None:
        node = o.nodes[nid]
        nid = node.one if _lookup(e, node.feature) else node.zero
        label = o.sink_label(nid)
    return label


def is_complete(o: Obdd) -> bool:
    if o._complete is None:
        o._complete = _levels_complete(o)
    return o._complete


def _levels_complete(o: Obdd) -> bool:
    if o.level(o.source) != 0 and len(o.order) > 0:
        return False
    for nid, node in o.nodes.items():
        lv = o.level(nid)
        if o.level(node.zero) != lv + 1 or o.level(node.one) != lv + 1:
            return False
    return True


def complete_obdd(o: Obdd) -> Obdd:
    """Pad skipped levels so every path reads the whole order; same classifier."""
    if is_complete(o):
        return o
    extra: Dict[str, ObddNode] = {}
    memo: Dict[Tuple[str, int], str] = {}

    def pad(target: str, lv: int) -> str:
        # node at level lv whose both arcs lead onward to target, through
        # one padding node per level; the chain is built bottom-up, so
        # deeper padding nodes get their ids first
        top = o.level(target)
        low = lv
        while low < top and (target, low) not in memo:
            low += 1
        nxt = memo.get((target, low), target)
        for level in range(low - 1, lv - 1, -1):
            nid = f"pad:{target}:{level}"
            while nid in o.nodes or nid in extra:
                nid += "~"
            extra[nid] = ObddNode(o.order[level], nxt, nxt)
            memo[(target, level)] = nxt = nid
        return nxt

    rebuilt: Dict[str, ObddNode] = {}
    for nid, node in o.nodes.items():
        lv = o.level(nid)
        rebuilt[nid] = ObddNode(
            node.feature, pad(node.zero, lv + 1), pad(node.one, lv + 1)
        )
    source = pad(o.source, 0)
    rebuilt.update(extra)
    done = Obdd(rebuilt, source, o.t0, o.t1, o.order)
    done._complete = True
    return done


def walk_labels(
    nodes: Mapping[str, object],
    terminals: Mapping[str, int],
    start: str,
    tau: PartialExample,
) -> FrozenSet[int]:
    """Labels reachable from `start` once arcs disagreeing with tau are cut.

    The one restriction primitive of trees and diagrams: `terminals` maps
    leaf or sink ids to their class, `nodes` maps every other id to a
    node with `feature`, `zero` and `one`.  An assigned feature follows
    its fixed arc, a free one both; the walk stops as soon as both labels
    are seen and builds no model.
    """
    fixed = {str(f): _bit(z, f"assignment of {f!r}") for f, z in tau.items()}
    labels = set()
    seen = set()
    stack = [start]
    while stack:
        nid = stack.pop()
        label = terminals.get(nid)
        if label is not None:
            labels.add(label)
            if len(labels) == 2:
                break
            continue
        if nid in seen:
            continue
        seen.add(nid)
        node = nodes[nid]
        z = fixed.get(node.feature)
        if z is None:
            stack.append(node.one)
            stack.append(node.zero)
        else:
            stack.append(node.one if z else node.zero)
    return frozenset(labels)


def reachable_sinks(o: Obdd, tau: PartialExample) -> FrozenSet[int]:
    """Labels of sinks reachable once arcs disagreeing with tau are removed."""
    return walk_labels(o.nodes, o.sink_labels, o.source, tau)


# ---------------------------------------------------------------------------
# Ensembles

Model = Union[DecisionTree, DecisionSet, DecisionList, Obdd, "Ensemble"]


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

_CLASSIFIERS = {
    "dt": _classify_dt,
    "ds": _classify_ds,
    "dl": _classify_dl,
    "obdd": _classify_obdd,
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
        "xp_size",
    )

    def __init__(
        self,
        ens_size: Optional[int] = None,
        mnl_size: Optional[int] = None,
        terms_elem: Optional[int] = None,
        term_size: Optional[int] = None,
        width_elem: Optional[int] = None,
        size_elem: Optional[int] = None,
        xp_size: Optional[int] = None,
    ):
        self._fill(ens_size, mnl_size, terms_elem, term_size, width_elem, size_elem, xp_size)

    def to_json(self) -> Dict[str, int]:
        return {
            name: value
            for name, value in zip(self.__slots__, self._values())
            if value is not None
        }


def dt_mnl(t: DecisionTree) -> int:
    labels = [label for _, label in t.leaves()]
    return min(labels.count(0), labels.count(1))


def dt_size(t: DecisionTree) -> int:
    return len(t.leaves())


def ds_size(s: DecisionSet) -> int:
    return sum(len(t) for t in s.terms) + 1


def dl_size(dl: DecisionList) -> int:
    return sum(len(r.term) + 1 for r in dl.rules)


def obdd_width(o: Obdd) -> int:
    full = complete_obdd(o)
    per_feature: Dict[str, int] = {}
    for node in full.nodes.values():
        per_feature[node.feature] = per_feature.get(node.feature, 0) + 1
    return max(per_feature.values(), default=0)


def measure_parameters(model: Model) -> Parameters:
    elements = model.elements if isinstance(model, Ensemble) else (model,)
    kind = elements[0].kind
    params = Parameters(ens_size=len(elements))
    if kind == "dt":
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
        params.width_elem = max(obdd_width(o) for o in elements)
        params.size_elem = max(o.size() for o in elements)
    return params


# ---------------------------------------------------------------------------
# JSON interchange


def model_to_json(model: Model) -> Dict:
    if isinstance(model, DecisionTree):
        nodes = {}
        for nid, node in model.nodes.items():
            if isinstance(node, DtLeaf):
                nodes[nid] = {"leaf": node.label}
            else:
                nodes[nid] = {"feature": node.feature, "zero": node.zero, "one": node.one}
        return {"kind": "dt", "root": model.root, "nodes": nodes}
    if isinstance(model, DecisionSet):
        return {
            "kind": "ds",
            "terms": [[[f, z] for f, z in sorted(t)] for t in model.terms],
            "default": model.default,
        }
    if isinstance(model, DecisionList):
        return {
            "kind": "dl",
            "rules": [[[[f, z] for f, z in sorted(r.term)], r.label] for r in model.rules],
        }
    if isinstance(model, Obdd):
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
    if isinstance(model, Ensemble):
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
        nodes: Dict[str, DtNode] = {}
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


def _infer_order(nodes: Mapping[str, ObddNode], source: str, t0: str, t1: str):
    # walk the 0-arcs once, then append the leftover features sorted; the
    # Obdd constructor re-checks the guess against every arc
    order = []
    nid = source
    while nid not in (t0, t1):
        if nid not in nodes:
            raise ModelError(f"node {nid!r} missing while inferring the order")
        node = nodes[nid]
        if node.feature in order:
            raise NotOrdered("feature repeats along the first path")
        order.append(node.feature)
        nid = node.zero
    rest = sorted(
        {n.feature for n in nodes.values()} - set(order)
    )
    return order + rest


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

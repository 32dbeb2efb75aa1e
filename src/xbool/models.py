"""Transparent binary classifiers over named 0/1 features.

Five model families share one example algebra: decision trees, decision
sets, decision lists, ordered binary decision diagrams, and odd-size
majority ensembles of a single family.  Values are validated when
constructed and treated as immutable afterwards; every operation here is
pure, so models can be shared freely across threads.

This module holds what every request shares: bits, the `classify`
dispatch, the structural parameters and the JSON reader.  Each family
lives in a module of its own, loaded when a request first meets one:
trees in `dt`, diagrams in `obdd`, rule sets and lists in `rules` and
ensembles in `ensemble`; each adds its classifier to `_CLASSIFIERS`.
The model writer (`writer`) is loaded only by what writes models.
Their names resolve here too.

Classification requires the example to cover the model's feature
universe.  Extra features are ignored: ensemble elements typically read
only a slice of the shared universe and still get handed the full
example.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Dict, FrozenSet, Iterable, Mapping, Optional, Sequence, Tuple, Union

from . import _forward
from .errors import ModelError, UndefinedFeature
from .records import Record

if TYPE_CHECKING:
    from .dt import DecisionTree
    from .ensemble import Ensemble
    from .obdd import Obdd
    from .rules import DecisionList, DecisionSet

Example = Mapping[str, int]
PartialExample = Mapping[str, int]
Model = Union["DecisionTree", "DecisionSet", "DecisionList", "Obdd", "Ensemble"]

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


def require_total(e: Example, features: Sequence[str]) -> None:
    """Raise UndefinedFeature naming the least feature e leaves unassigned;
    `features` comes sorted."""
    for f in features:
        if f not in e:
            raise UndefinedFeature(f"example does not assign feature {f!r}")


# ---------------------------------------------------------------------------
# Shared entry points

# kind -> classifier; each family's module adds its own when loaded,
# which is before any model of the family can exist
_CLASSIFIERS = {}


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


def measure_parameters(model: Model) -> Parameters:
    elements = model.elements if model.kind == "ensemble" else (model,)
    kind = elements[0].kind
    params = Parameters(ens_size=len(elements))
    if kind == "dt":
        from .dt import dt_mnl, dt_size

        params.mnl_size = max(dt_mnl(t) for t in elements)
        params.size_elem = max(dt_size(t) for t in elements)
    elif kind == "ds":
        from .rules import ds_size

        params.terms_elem = max(len(s.terms) for s in elements)
        params.term_size = max(
            (len(t) for s in elements for t in s.terms), default=0
        )
        params.size_elem = max(ds_size(s) for s in elements)
    elif kind == "dl":
        from .rules import dl_size

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
        from .rules import DecisionSet

        terms = [_pairs(t, "a term") for t in _require(data, "terms", list)]
        return DecisionSet(terms, _require(data, "default"))
    if kind == "dl":
        from .rules import DecisionList

        rules = []
        for rule in _require(data, "rules", list):
            if not (isinstance(rule, list) and len(rule) == 2):
                raise ModelError(f"a rule must be a [term, class] pair, got {rule!r}")
            rules.append((_pairs(rule[0], "a rule's term"), rule[1]))
        return DecisionList(rules)
    if kind == "obdd":
        from .obdd import Obdd, ObddNode

        nodes = {nid: ObddNode(*_arcs(spec)) for nid, spec in _arc_specs(data).items()}
        source, t0, t1 = (_require(data, key, str) for key in ("source", "t0", "t1"))
        order = data.get("order")
        if order is None:
            from .obdd_order import _infer_order

            order = _infer_order(nodes, source, t0, t1)
        return Obdd(nodes, source, t0, t1, _strings(order, "the order"))
    if kind == "ensemble":
        from .ensemble import Ensemble

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


# the names of each family's module, the writer's and the walk's resolve
# here, for callers that import them from this module
__getattr__ = _forward(
    __name__, "dt", "obdd", "obdd_product", "obdd_order", "rules", "ensemble", "writer",
    "restriction",
)

"""Ordered binary decision diagrams: the model and its explanation algorithms.

The primitive here is sink reachability under a partial assignment:
drop every arc that disagrees with the assignment and see which sinks
survive.  The completed diagram is a graph view (`restriction.Restriction`)
like a tree, so the query procedures, the seed path and the minimum
contrastive search are shared with trees.  A diagram learns whether it
is complete in the arc loop its constructor runs to validate it, so no
later scan asks again; `_padded` completes a sparse one.
The diagram classes live here rather than in `models`, so only a
request that meets a diagram compiles them.  The ensemble product
(`obdd_product`) and order inference (`obdd_order`) live in modules of
their own, which a single diagram that names its order never loads;
their names resolve here too.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

from . import _forward
from .errors import ModelError, NotOrdered
from .explain import ExplanationQuery, Witness
from .models import _CLASSIFIERS, Example, PartialExample, _lookup
from .records import Frozen
from .restriction import Restriction, walk_labels


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
        # complete: the source reads level 0 and no arc skips a level; a
        # sink sits one past the last level
        last = len(order) - 1
        complete = True
        for nid, node in nodes.items():
            lv = index.get(node.feature)
            if lv is None:
                raise NotOrdered(f"feature {node.feature!r} of {nid!r} is not in the order")
            for child in (node.zero, node.one):
                if child in sinks:
                    if lv != last:
                        complete = False
                    continue
                if child not in nodes:
                    raise ModelError(f"child {child!r} of {nid!r} is not a node")
                # a child whose feature is off the order does not advance either
                step = index.get(nodes[child].feature, -1) - lv
                if step <= 0:
                    raise NotOrdered(
                        f"arc {nid!r} -> {child!r} does not advance in the order"
                    )
                if step > 1:
                    complete = False
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
        # complete_obdd's answer: this diagram when it is complete, else
        # its padded copy once asked
        complete = complete and (index[nodes[source].feature] if nodes else len(order)) == 0
        self._complete: Optional[Obdd] = self if complete else None
        self._view: Optional[Restriction] = None  # the view Restriction keeps

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


_CLASSIFIERS["obdd"] = _classify_obdd


def is_complete(o: Obdd) -> bool:
    return o._complete is o


def complete_obdd(o: Obdd) -> Obdd:
    """Pad skipped levels so every path reads the whole order; same classifier.

    The padded copy is built once per diagram and kept on it.
    """
    if o._complete is None:
        o._complete = _padded(o)
    return o._complete


def _padded(o: Obdd) -> Obdd:
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
        lv = o._index[node.feature]
        rebuilt[nid] = ObddNode(
            node.feature, pad(node.zero, lv + 1), pad(node.one, lv + 1)
        )
    source = pad(o.source, 0)
    rebuilt.update(extra)
    return Obdd(rebuilt, source, o.t0, o.t1, o.order)


def reachable_sinks(o: Obdd, tau: PartialExample) -> FrozenSet[int]:
    """Labels of sinks reachable once arcs disagreeing with tau are removed."""
    return walk_labels(o.nodes, o.sink_labels, o.source, tau)


def obdd_width(o: Obdd) -> int:
    full = complete_obdd(o)
    per_feature: Dict[str, int] = {}
    for node in full.nodes.values():
        per_feature[node.feature] = per_feature.get(node.feature, 0) + 1
    return max(per_feature.values(), default=0)


# ---------------------------------------------------------------------------
# Explanation procedures


def _restriction(o: Obdd) -> Restriction:
    o = complete_obdd(o)
    return o._view or Restriction(o, o.nodes, o.sink_labels, o.source, _level_order)


def _level_order(o: Obdd) -> List[str]:
    """Inner node ids by level: parents first in a complete diagram."""
    return sorted(o.nodes, key=o.level)


def obdd_check(o: Obdd, q: ExplanationQuery, w: Witness) -> bool:
    """Polynomial witness check via sink reachability, for all four kinds."""
    return _restriction(o).check(q, w)


def obdd_lcxp_check(o: Obdd, e: Example, features) -> bool:
    """True iff flipping inside the set can change the class: fix the
    example outside it and ask whether the opposite sink stays reachable."""
    return _restriction(o).validity(ExplanationQuery("lCXp", "subset", e))(frozenset(features))


def obdd_subset_min(o: Obdd, q: ExplanationQuery) -> Optional[Witness]:
    """Greedy subset-minimal witness; deletions tried in ascending name order."""
    return _restriction(o).subset_min(q)


def obdd_min_lcxp(o: Obdd, e: Example) -> Witness:
    """Cheapest flip set driving the walk into the opposite sink."""
    return _restriction(o).min_lcxp(e)


def obdd_xp_search(o: Obdd, q: ExplanationQuery) -> Optional[Witness]:
    """Exhaustive size-bounded search matching the oracle's tie-break."""
    return _restriction(o).xp_search(q)


# the product's and order inference's names resolve here too, for
# callers that import them from this module
__getattr__ = _forward(__name__, "obdd_product", "obdd_order")

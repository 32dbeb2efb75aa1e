"""Ordered binary decision diagrams: the model and its explanation algorithms.

The primitive here is sink reachability under a partial assignment:
drop every arc that disagrees with the assignment and see which sinks
survive.  The completed diagram is a graph view (`restriction.Restriction`)
like a tree, so the query procedures, the seed path and the minimum
contrastive search are shared with trees.  Completeness makes the
diagram leveled, which turns the ensemble product into a lockstep walk;
a diagram learns whether it is complete in the arc loop its constructor
runs to validate it, so no later scan asks again.
The diagram classes live here rather than in `models`, so only a
request that meets a diagram compiles them.
"""

from __future__ import annotations

from collections import Counter, deque
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

from .errors import BudgetExceeded, ModelError, NotOrdered
from .explain import ExplanationQuery, Witness
from .models import (
    _CLASSIFIERS,
    DEFAULT_NODE_CAP,
    Ensemble,
    Example,
    PartialExample,
    _lookup,
)
from .records import Frozen
from .restriction import Restriction, walk_labels

if TYPE_CHECKING:
    from .dt import DecisionTree

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


def _infer_order(nodes: Mapping[str, ObddNode], source: str, t0: str, t1: str):
    # walk the 0-arcs once, then sort the features along the arcs, those
    # of the 0-path first in path order, then by name
    path: Dict[str, int] = {}
    nid = source
    while nid not in (t0, t1):
        if nid not in nodes:
            raise ModelError(f"node {nid!r} missing while inferring the order")
        node = nodes[nid]
        if node.feature in path:
            raise NotOrdered("feature repeats along the first path")
        path[node.feature] = len(path)
        nid = node.zero
    return _arc_order(nodes, lambda f: (path.get(f, len(path)), f))


def _arc_order(inner: Mapping[str, ObddNode], key) -> List[str]:
    """The features `inner` (id -> node with `feature`, `zero`, `one`)
    tests, each before every feature an arc between two of its nodes
    leads to, the least by `key` first among the ready ones (Kahn).  The
    features no order fits, on a cycle or on an arc between two tests of
    one feature, come last by `key`, for the Obdd constructor to refuse."""
    after: Dict[str, set] = {node.feature: set() for node in inner.values()}
    for node in inner.values():
        for child in (node.zero, node.one):
            if child in inner:
                after[node.feature].add(inner[child].feature)
    indegree = Counter(g for later in after.values() for g in later)
    ready = sorted((key(f), f) for f in after if not indegree[f])
    order = []
    while ready:
        f = ready.pop(0)[1]
        order.append(f)
        for g in after[f]:
            indegree[g] -= 1
            if not indegree[g]:
                ready.append((key(g), g))
        ready.sort()
    return order + sorted(set(after) - set(order), key=key)


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


def _rebase(ens: Ensemble) -> Tuple[Tuple[str, ...], List[Obdd]]:
    """The order a diagram ensemble shares, and its members over it.

    The order is the ensemble's shared order if it declares one, else
    the one order all members read; members reading different orders
    raise NotOrdered.  A member already reading that order is kept as
    it is, so its completion memo serves every later caller; only the
    others are rebuilt.
    """
    if any(el.kind != "obdd" for el in ens.elements):
        raise ModelError("expected an ensemble of diagrams")
    if ens.shared_order is not None:
        order = ens.shared_order
    else:
        orders = {el.order for el in ens.elements}
        if len(orders) > 1:
            raise NotOrdered("elements disagree on the variable order")
        order = orders.pop()
    return order, [
        el if el.order == order else Obdd(dict(el.nodes), el.source, el.t0, el.t1, order)
        for el in ens.elements
    ]


def obdd_ensemble_product(ens: Ensemble, node_cap: int = DEFAULT_NODE_CAP) -> Obdd:
    """Single complete diagram computing the ensemble vote.

    Elements are first rebuilt over the ensemble's order
    (`_rebase`) and completed, so the walk
    can advance all members one level at a time.  A product state is a
    tuple of member nodes; all-sink states collapse into the two sinks
    by majority vote.  Size is bounded by the product of member sizes.
    """
    order, elems = _rebase(ens)
    elems = [complete_obdd(el) for el in elems]
    majority = len(elems) // 2 + 1
    depth = len(order)

    def resolve(state: Tuple[str, ...]) -> Optional[str]:
        votes = 0
        for el, nid in zip(elems, state):
            label = el.sink_label(nid)
            if label is None:
                return None
            votes += label
        return "t1" if votes >= majority else "t0"

    start = tuple(el.source for el in elems)
    source = resolve(start)
    ids: Dict[Tuple[str, ...], str] = {}
    nodes: Dict[str, ObddNode] = {}
    if source is None:
        ids[start] = source = "m0"
        queue = deque([start])
        while queue:
            state = queue.popleft()
            level = elems[0].level(state[0])
            feature = order[level]
            children = []
            for bit in (0, 1):
                nxt = tuple(
                    el.nodes[nid].one if bit else el.nodes[nid].zero
                    for el, nid in zip(elems, state)
                )
                sink = resolve(nxt)
                if sink is not None:
                    children.append(sink)
                    continue
                if nxt not in ids:
                    if len(ids) >= node_cap:
                        raise BudgetExceeded(f"product would exceed {node_cap} nodes")
                    ids[nxt] = f"m{len(ids)}"
                    queue.append(nxt)
                children.append(ids[nxt])
            nodes[ids[state]] = ObddNode(feature, children[0], children[1])
    return Obdd(nodes, source, "t0", "t1", order)


def dt_to_obdd(t: DecisionTree) -> Obdd:
    """Rebuild an ordered tree as a complete diagram over a consistent order.

    The order is the topological sort of the parent-before-child feature
    constraints, smallest name first among the ready (`_arc_order`); a
    cycle means no single order fits every branch, and the diagram's
    constructor raises NotOrdered.
    """
    from .dt import DtInner, DtLeaf

    inner = {nid: node for nid, node in t.nodes.items() if isinstance(node, DtInner)}
    order = _arc_order(inner, lambda f: f)
    t0, t1 = "t0", "t1"
    while t0 in t.nodes:
        t0 += "~"
    while t1 in t.nodes:
        t1 += "~"

    def slot(nid: str) -> str:
        node = t.nodes[nid]
        if isinstance(node, DtLeaf):
            return t1 if node.label == 1 else t0
        return nid

    nodes = {
        nid: ObddNode(node.feature, slot(node.zero), slot(node.one)) for nid, node in inner.items()
    }
    return complete_obdd(Obdd(nodes, slot(t.root), t0, t1, tuple(order)))

"""Ordered binary decision diagrams: the model and its explanation algorithms.

The primitive here is sink reachability under a partial assignment:
drop every arc that disagrees with the assignment and see which sinks
survive.  The completed diagram is a graph view (`restriction.Restriction`)
like a tree, so the query procedures, the seed path and the minimum
contrastive search are shared with trees.  Completeness makes the
diagram leveled, which turns the ensemble product into a lockstep walk.
The diagram classes live here rather than in `models`, so only a
request that meets a diagram compiles them.
"""

from __future__ import annotations

from collections import deque
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


_CLASSIFIERS["obdd"] = _classify_obdd


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


# ---------------------------------------------------------------------------
# Explanation procedures


def _restriction(o: Obdd) -> Restriction:
    o = complete_obdd(o)
    return Restriction(o, o.nodes, o.sink_labels, o.source, lambda: sorted(o.nodes, key=o.level))


def obdd_check(o: Obdd, q: ExplanationQuery, w: Witness) -> bool:
    """Polynomial witness check via sink reachability; no lCXp variant."""
    if q.kind == "lCXp":
        raise ModelError("lCXp has no reachability test; use obdd_min_lcxp")
    return _restriction(o).check(q, w)


def obdd_lcxp_check(o: Obdd, e: Example, features) -> bool:
    """True iff flipping inside the set can change the class: fix the
    example outside it and ask whether the opposite sink stays reachable."""
    return _restriction(o).lcxp_check(e, features)


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
    """The order a diagram ensemble shares, and its members rebuilt over it.

    The order is the ensemble's shared order if it declares one, else
    the one order all members read; members reading different orders
    raise NotOrdered.
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
    return order, [Obdd(dict(el.nodes), el.source, el.t0, el.t1, order) for el in ens.elements]


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
    constraints, smallest name first among the unconstrained; a cycle
    means no single order fits every branch and raises NotOrdered.
    """
    from .dt import DtInner, DtLeaf

    after: Dict[str, set] = {f: set() for f in t.features()}
    indegree = {f: 0 for f in after}
    for node in t.nodes.values():
        if not isinstance(node, DtInner):
            continue
        for child_id in (node.zero, node.one):
            child = t.nodes[child_id]
            if isinstance(child, DtInner) and child.feature not in after[node.feature]:
                after[node.feature].add(child.feature)
                indegree[child.feature] += 1
    order: List[str] = []
    ready = sorted(f for f, d in indegree.items() if d == 0)
    while ready:
        f = ready.pop(0)
        order.append(f)
        for g in sorted(after[f]):
            indegree[g] -= 1
            if indegree[g] == 0:
                ready.append(g)
        ready.sort()
    if len(order) < len(after):
        raise NotOrdered("branches test features in conflicting orders")
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
        nid: ObddNode(node.feature, slot(node.zero), slot(node.one))
        for nid, node in t.nodes.items()
        if isinstance(node, DtInner)
    }
    return complete_obdd(Obdd(nodes, slot(t.root), t0, t1, tuple(order)))

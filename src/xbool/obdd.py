"""Explanation algorithms for complete ordered binary decision diagrams.

The primitive here is sink reachability under a partial assignment:
drop every arc that disagrees with the assignment and see which sinks
survive.  The completed diagram is a graph view (`restriction.Restriction`)
like a tree, so the query procedures, the seed path and the minimum
contrastive search are shared with trees.  Completeness makes the
diagram leveled, which turns the ensemble product into a lockstep walk.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Tuple

from .errors import BudgetExceeded, ModelError, NotOrdered
from .explain import ExplanationQuery, Witness
from .models import (
    DEFAULT_NODE_CAP,
    DecisionTree,
    DtInner,
    DtLeaf,
    Ensemble,
    Example,
    Obdd,
    ObddNode,
    complete_obdd,
)
from .restriction import Restriction


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

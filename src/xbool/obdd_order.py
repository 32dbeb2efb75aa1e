"""Variable orders for diagrams that do not declare one.

`models.model_from_json` imports this module only for a diagram without
an `"order"`, and `dt_to_obdd` rebuilds an ordered tree as a diagram
over the order its arcs imply; a diagram that names its order, as every
diagram the model writer writes does, never compiles it.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING, Dict, List, Mapping

from .errors import ModelError, NotOrdered
from .obdd import Obdd, ObddNode, complete_obdd

if TYPE_CHECKING:
    from .dt import DecisionTree


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


def dt_to_obdd(t: DecisionTree) -> Obdd:
    """Rebuild an ordered tree as a complete diagram over a consistent order.

    The order is the topological sort of the parent-before-child feature
    constraints, smallest name first among the ready (`_arc_order`); a
    cycle means no single order fits every branch, and the diagram's
    constructor raises NotOrdered.
    """
    inner = {nid: node for nid, node in t.nodes.items() if nid not in t.terminals}
    order = _arc_order(inner, lambda f: f)
    t0, t1 = "t0", "t1"
    while t0 in t.nodes:
        t0 += "~"
    while t1 in t.nodes:
        t1 += "~"

    def slot(nid: str) -> str:
        label = t.terminals.get(nid)
        return nid if label is None else (t1 if label else t0)

    nodes = {
        nid: ObddNode(node.feature, slot(node.zero), slot(node.one)) for nid, node in inner.items()
    }
    return complete_obdd(Obdd(nodes, slot(t.start), t0, t1, tuple(order)))

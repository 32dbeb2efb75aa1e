"""The diagram ensemble product: one complete diagram computing the vote.

Completeness makes every member leveled, so the product advances all
members one level at a time.  Only an ensemble of diagrams (and the
circuit compilers, for `_rebase`) loads this module, so a single
diagram request never compiles it.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from .errors import BudgetExceeded, ModelError, NotOrdered
from .models import DEFAULT_NODE_CAP
from .obdd import Obdd, ObddNode, complete_obdd

if TYPE_CHECKING:
    from .ensemble import Ensemble


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
        el if el.order == order else Obdd(dict(el.nodes), el.start, el.t0, el.t1, order)
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

    def resolve(state: Tuple[str, ...]) -> Optional[str]:
        votes = 0
        for el, nid in zip(elems, state):
            label = el.terminals.get(nid)
            if label is None:
                return None
            votes += label
        return "t1" if votes >= majority else "t0"

    start = tuple(el.start for el in elems)
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

"""Explanation algorithms for decision trees.

All checks reduce to one primitive: walk the tree under a partial
assignment and ask whether a leaf of a given label stays reachable.  The
tree is a graph view (`restriction.Restriction`) like a diagram, so the
query procedures, the seed path and the minimum contrastive search are
shared with diagrams; this module builds the view of the simplified tree.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .errors import BudgetExceeded, ModelError
from .explain import ExplanationQuery, Witness
from .models import (
    DEFAULT_NODE_CAP,
    DecisionTree,
    DtInner,
    DtLeaf,
    Ensemble,
    Example,
    _project,
    dt_size,
    require_total,
    simplify_dt,
)
from .restriction import Restriction


def _restriction(t: DecisionTree) -> Restriction:
    # a walk over a repeated test would follow both of its arcs once the
    # first test of the feature has picked one; the simplified tree has none
    t = simplify_dt(t)
    return Restriction(t, t.nodes, t.leaf_labels, t.root, lambda: _preorder(t))


def _preorder(t: DecisionTree) -> List[str]:
    """Inner node ids in preorder, the 0-child first."""
    out = []
    stack = [t.root]
    while stack:
        nid = stack.pop()
        node = t.nodes[nid]
        if isinstance(node, DtInner):
            out.append(nid)
            stack.append(node.one)
            stack.append(node.zero)
    return out


def dt_check(t: DecisionTree, q: ExplanationQuery, w: Witness) -> bool:
    """Polynomial witness check via tree restriction; no lCXp variant exists."""
    if q.kind == "lCXp":
        raise ModelError("lCXp has no restriction test; use dt_min_lcxp")
    return _restriction(t).check(q, w)


def dt_lcxp_check(t: DecisionTree, e: Example, features) -> bool:
    """True iff flipping inside the set can change the class: fix the
    example outside it and look for an opposite leaf."""
    return _restriction(t).lcxp_check(e, features)


def _leaf_paths(t: DecisionTree) -> List[Tuple[Dict[str, int], int]]:
    """(path assignment, label) per leaf, in preorder with the 0-child first."""
    out = []
    stack = [(t.root, {})]
    while stack:
        nid, alpha = stack.pop()
        node = t.nodes[nid]
        if isinstance(node, DtLeaf):
            out.append((alpha, node.label))
        else:
            one = dict(alpha)
            one[node.feature] = 1
            alpha[node.feature] = 0
            stack.append((node.one, one))
            stack.append((node.zero, alpha))
    return out


def dt_min_lcxp(t: DecisionTree, e: Example) -> Witness:
    """Smallest flip set reaching a leaf labeled against classify(t, e)."""
    require_total(e, t.features())
    return _restriction(t).min_lcxp(e)


def dt_subset_min(t: DecisionTree, q: ExplanationQuery) -> Optional[Witness]:
    """Greedy subset-minimal witness; deletions tried in ascending name order."""
    return _restriction(t).subset_min(q)


def dt_xp_search(t: DecisionTree, q: ExplanationQuery) -> Optional[Witness]:
    """Exhaustive size-bounded search matching the oracle's tie-break."""
    return _restriction(t).xp_search(q)


def dt_ensemble_to_dt(ens: Ensemble, node_cap: int = DEFAULT_NODE_CAP) -> DecisionTree:
    """Single tree computing the ensemble vote, by grafting trees leaf-wise.

    Every root-to-leaf path of the result crosses one leaf per element;
    the leaf label is the majority of the crossed labels.  The graft
    carries each path's decisions along and follows the decided arc of
    any node whose feature the path has already tested, so it builds only
    the tree `simplify_dt` would leave of the full product.  The cap is
    still checked against the worst case, the product of the elements'
    leaf counts.
    """
    trees = ens.elements
    if any(t.kind != "dt" for t in trees):
        raise ModelError("expected an ensemble of decision trees")
    bound = 1
    for t in trees:
        bound *= dt_size(t)
        if bound > node_cap:
            raise BudgetExceeded(f"product would exceed {node_cap} leaves")
    return simplify_dt(_project(trees, {}, accumulate=True))

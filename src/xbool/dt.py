"""Explanation algorithms for decision trees.

All checks reduce to one primitive: walk the tree under a partial
assignment and ask whether a leaf of a given label stays reachable; the
query procedures around it are shared with diagrams (`restriction`).  Minimum
local contrastive sets come from scanning the disagreement between the
target example and each oppositely-labeled leaf's path.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Tuple

from .errors import BudgetExceeded, Homogeneous, ModelError, UndefinedFeature
from .explain import ExplanationQuery, Witness
from .models import (
    DEFAULT_NODE_CAP,
    DecisionTree,
    DtInner,
    DtLeaf,
    Ensemble,
    Example,
    classify,
    dt_size,
    simplify_dt,
    walk_labels,
)
from .restriction import Restriction


class _TreeRestriction(Restriction):
    """Restriction view of a decision tree."""

    def universe(self) -> Tuple[str, ...]:
        return tuple(sorted(self.model.features()))

    def reaches(self, tau, label: int) -> bool:
        t = self.model
        return label in walk_labels(t.nodes, t.leaf_labels, t.root, tau)

    def seed_path(self, label: int) -> Optional[Dict[str, int]]:
        for alpha, got in _leaf_paths(self.model):
            if got == label:
                return alpha
        return None

    def min_lcxp(self, e: Example) -> Witness:
        return dt_min_lcxp(self.model, e)


def dt_check(t: DecisionTree, q: ExplanationQuery, w: Witness) -> bool:
    """Polynomial witness check via tree restriction; no lCXp variant exists."""
    if q.kind == "lCXp":
        raise ModelError("lCXp has no restriction test; use dt_min_lcxp")
    return _TreeRestriction(t).check(q, w)


def dt_lcxp_check(t: DecisionTree, e: Example, features) -> bool:
    """True iff flipping inside the set can change the class: fix the
    example outside it and look for an opposite leaf."""
    return _TreeRestriction(t).lcxp_check(e, features)


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
    """Smallest flip set, scanning leaves labeled against classify(t, e)."""
    for f in sorted(t.features()):
        if f not in e:
            raise UndefinedFeature(f"example does not assign feature {f!r}")
    c = classify(t, e)
    best: Optional[Tuple[int, Tuple[str, ...]]] = None
    for alpha, label in _leaf_paths(t):
        if label == c:
            continue
        flips = tuple(sorted(f for f, z in alpha.items() if e[f] != z))
        key = (len(flips), flips)
        if best is None or key < best:
            best = key
    if best is None:
        raise Homogeneous(f"every leaf is labeled {c}")
    return Witness.of_features(best[1])


def dt_subset_min(t: DecisionTree, q: ExplanationQuery) -> Optional[Witness]:
    """Greedy subset-minimal witness; deletions tried in ascending name order."""
    return _TreeRestriction(t).subset_min(q)


def dt_xp_search(t: DecisionTree, q: ExplanationQuery) -> Optional[Witness]:
    """Exhaustive size-bounded search matching the oracle's tie-break."""
    return _TreeRestriction(t).xp_search(q)


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
    majority = len(trees) // 2 + 1
    counter = itertools.count()
    leaves: Dict[str, DtLeaf] = {}
    inner: Dict[str, Tuple[str, Dict[str, str]]] = {}
    root_slot: Dict[str, str] = {}
    work = [(0, trees[0].root, 0, {}, root_slot, "root")]
    while work:
        ti, nid, votes, path, slot, key = work.pop()
        node = trees[ti].nodes[nid]
        while True:
            if isinstance(node, DtLeaf):
                votes += node.label
                ti += 1
                if ti == len(trees):
                    break
                node = trees[ti].nodes[trees[ti].root]
            elif node.feature in path:
                node = trees[ti].nodes[node.one if path[node.feature] else node.zero]
            else:
                break
        fresh = f"n{next(counter)}"
        slot[key] = fresh
        if isinstance(node, DtLeaf):
            leaves[fresh] = DtLeaf(1 if votes >= majority else 0)
        else:
            fields: Dict[str, str] = {}
            inner[fresh] = (node.feature, fields)
            one = dict(path)
            one[node.feature] = 1
            path[node.feature] = 0
            work.append((ti, node.one, votes, one, fields, "one"))
            work.append((ti, node.zero, votes, path, fields, "zero"))
    nodes: Dict[str, object] = dict(leaves)
    for fresh, (feature, fields) in inner.items():
        nodes[fresh] = DtInner(feature, fields["zero"], fields["one"])
    return simplify_dt(DecisionTree(nodes, root_slot["root"]))

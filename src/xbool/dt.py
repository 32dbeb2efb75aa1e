"""Decision trees: the model, its one builder, and its explanation algorithms.

All checks reduce to one primitive: walk the tree under a partial
assignment and ask whether a leaf of a given label stays reachable.  A
tree is a `restriction.Graph` like a diagram, its leaves the terminals
and its root the start, so the classify walk, the restriction view's
query procedures, the seed path, the minimum contrastive search, the
table fill and the model writer are shared with diagrams; this module
builds the view of the simplified tree.  A tree learns its feature set,
whether some path tests a feature twice, and its inner ids in preorder
(the 0-child first: parents first, the order the view and the table fill
read) in the walk its constructor makes to validate it, so no later scan
asks again.  The tree classes, which measure themselves, live here, so
only a request that meets a tree compiles them; the graft of a tree
ensemble stays beside the projection it shares with `simplify_dt`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple, Union

from .errors import BudgetExceeded, ModelError
from .explain import ExplanationQuery, Witness
from .models import DEFAULT_NODE_CAP, Example, PartialExample, _bit
from .records import Frozen
from .restriction import Graph, Restriction

if TYPE_CHECKING:
    from .ensemble import Ensemble


class DtLeaf(Frozen):
    __slots__ = ("label",)

    def __init__(self, label: int):
        self._fill(label)


class DtInner(Frozen):
    __slots__ = ("feature", "zero", "one")

    def __init__(self, feature: str, zero: str, one: str):
        self._fill(feature, zero, one)


DtNode = Union[DtLeaf, DtInner]


class DecisionTree(Graph):
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
                labels[nid] = _bit(node.label, "leaf label")
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
        # unique parents rule out sharing, and a full walk rules out stray
        # components; it keeps the features tested above the node in hand
        # in one set, each dropped at its marker once its subtrees are done
        features = set()
        above = set()
        repeat_free = True
        inner: List[str] = []
        seen = 0
        stack = [root]
        while stack:
            nid = stack.pop()
            if nid is None:  # the marker: the entry below it is the feature
                above.discard(stack.pop())
                continue
            seen += 1
            if nid in labels:
                continue
            inner.append(nid)
            node = nodes[nid]
            f = node.feature
            if f in above:
                repeat_free = False
            else:
                above.add(f)
                stack += (f, None)
                features.add(f)
            stack += (node.one, node.zero)
        if seen != len(nodes):
            raise ModelError("tree contains nodes unreachable from the root")
        # inner ids in preorder, the 0-child first: each after its parent
        super().__init__(nodes, labels, root, inner)
        self._features = frozenset(features)
        self._repeat_free = repeat_free  # no path tests a feature twice

    def features(self) -> FrozenSet[str]:
        return self._features

    def leaves(self) -> Tuple[Tuple[str, int], ...]:
        return tuple(self.terminals.items())

    def parameters(self) -> Dict[str, int]:
        return {"mnl_size": dt_mnl(self), "size_elem": dt_size(self)}


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
                nid = trees[ti].start
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

    return _emit_tree((0, trees[0].start, 0, dict(fixed)), expand)


def simplify_dt(t: DecisionTree) -> DecisionTree:
    """Drop re-tests of features already decided on the path; same classifier."""
    if t._repeat_free:
        return t
    return _project([t], {}, accumulate=True)


def restrict_dt(t: DecisionTree, tau: PartialExample) -> DecisionTree:
    """Keep only the tau(f)-subtree below every node testing f in dom(tau)."""
    if not tau:
        return t
    fixed = {str(f): _bit(z, f"assignment of {f!r}") for f, z in tau.items()}
    return _project([t], fixed, accumulate=False)


def dt_mnl(t: DecisionTree) -> int:
    ones = sum(t.terminals.values())
    return min(ones, len(t.terminals) - ones)


def dt_size(t: DecisionTree) -> int:
    return len(t.terminals)


# ---------------------------------------------------------------------------
# Explanation procedures


def _restriction(t: DecisionTree) -> Restriction:
    # a walk over a repeated test would follow both of its arcs once the
    # first test of the feature has picked one; the simplified tree has none
    t = simplify_dt(t)
    return t._view or Restriction(t)


def dt_check(t: DecisionTree, q: ExplanationQuery, w: Witness) -> bool:
    """Polynomial witness check via tree restriction, for all four kinds."""
    return _restriction(t).check(q, w)


def dt_lcxp_check(t: DecisionTree, e: Example, features) -> bool:
    """True iff flipping inside the set can change the class: fix the
    example outside it and look for an opposite leaf."""
    return _restriction(t).validity(ExplanationQuery("lCXp", "subset", e))(frozenset(features))


def dt_min_lcxp(t: DecisionTree, e: Example) -> Witness:
    """Smallest flip set reaching a leaf labeled against classify(t, e)."""
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

"""The graph of a tree or diagram and the restriction walk over it.

A tree is a diagram that shares no node, so both families are one
`Graph`: inner nodes testing a feature, terminals carrying a class, one
start, the inner ids parents first (preorder for a tree, level order for
a diagram, as the constructor learned them), and one `classify` walk.
Every query asks whether a class is still reached once the model is
restricted by a partial assignment; a graph answers by a walk
(`walk_labels`, the one restriction primitive).  On that answer the
graph's view (`Restriction`) builds, through `definitions.Definitions`,
the four queries, their checks and the size-bounded search, and adds a
greedy subset search seeded by the least path into a label and the
minimum local contrastive set, each one parents-first pass over the
graph in memory linear in it.  `walk_labels` reads the bits of the
assignment it is handed; the view's own walk trusts its callers, whose
candidates are built from read bits (`Definitions` reads a witness's
once per check).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Set

from .errors import Homogeneous, ModelError
from .definitions import Definitions
from .explain import ExplanationQuery, Witness
from .models import Example, PartialExample, _bit, _lookup, classify, require_total


class Graph:
    """A tree or diagram: `terminals` maps leaf or sink ids to their class
    (read as ints), `nodes` inner ids (and a tree's leaves) to nodes with
    `feature`, `zero` and `one`, `start` reaches every id, and
    `parents_first` lists the inner ids, each after all of its parents, so
    one backward pass over it answers `hits` on any graph, completed or not."""

    _view: Optional[Restriction] = None  # the view Restriction keeps

    def __init__(self, nodes, terminals: Dict[str, int], start: str, parents_first: List[str]):
        self.nodes = nodes
        self.terminals = terminals
        self.start = start
        self.parents_first = parents_first

    def classify(self, e: Example) -> int:
        nodes, terminals = self.nodes, self.terminals
        nid = self.start
        while nid not in terminals:
            node = nodes[nid]
            nid = node.one if _lookup(e, node.feature) else node.zero
        return terminals[nid]

    def hits(self, label: int) -> Set[str]:
        """Ids from which some terminal of `label` is reachable."""
        hit = {nid for nid, got in self.terminals.items() if got == label}
        for nid in reversed(self.parents_first):
            node = self.nodes[nid]
            if node.zero in hit or node.one in hit:
                hit.add(nid)
        return hit


def walk_labels(g: Graph, tau: PartialExample) -> FrozenSet[int]:
    """Labels reachable from `g.start` once arcs disagreeing with tau are
    cut: an assigned feature follows its fixed arc, a free one both.  The
    walk stops as soon as both labels are seen and builds no model."""
    return _walk(g, {str(f): _bit(z, f"assignment of {f!r}") for f, z in tau.items()})


def _walk(g: Graph, fixed: Mapping[str, int]) -> FrozenSet[int]:
    # `walk_labels` over an assignment whose names and bits are already read
    nodes, terminals = g.nodes, g.terminals
    labels = set()
    seen = set()
    stack = [g.start]
    while stack:
        nid = stack.pop()
        label = terminals.get(nid)
        if label is not None:
            labels.add(label)
            if len(labels) == 2:
                break
            continue
        if nid in seen:
            continue
        seen.add(nid)
        node = nodes[nid]
        z = fixed.get(node.feature)
        if z is None:
            stack.append(node.one)
            stack.append(node.zero)
        else:
            stack.append(node.one if z else node.zero)
    return frozenset(labels)


class Restriction(Definitions):
    """The view of one tree or diagram, answering `reaches` by the walk;
    it keeps itself on the model as `_view`.  A tree must be free of
    repeated tests and a diagram complete, as the walk, the seed path and
    the flip masks assume."""

    def __init__(self, model: Graph):
        self.model = model
        self.features = tuple(sorted(model.features()))
        model._view = self  # kept, so a model builds one view

    def example_class(self, e: Example) -> int:
        require_total(e, self.features)
        return classify(self.model, e)

    def reaches(self, tau: Mapping[str, int], label: int) -> bool:
        return label in _walk(self.model, tau)

    def seed_path(self, label: int) -> Optional[Dict[str, int]]:
        """Full assignment along the least (0-preferring) path into `label`."""
        g = self.model
        hit = g.hits(label)
        if g.start not in hit:
            return None
        alpha: Dict[str, int] = {}
        nid = g.start
        while nid not in g.terminals:
            node = g.nodes[nid]
            bit = 0 if node.zero in hit else 1
            alpha[node.feature] = bit
            nid = node.one if bit else node.zero
        return alpha

    def min_lcxp(self, e: Example) -> Witness:
        """Cheapest flip set driving the walk into the other class.

        Arcs agreeing with the example cost nothing, disagreeing arcs one
        flip.  One parents-first relaxation keeps the least `(flips,
        -mask)` per node, where the mask holds the flipped features with
        the least one as the most significant bit: among sets of one size
        the larger mask is the lexicographically least sorted set, the
        oracle's order.  A node's entry is final, and dropped, once its
        arcs are relaxed; the terminals keep one entry, the best of the
        other class.
        """
        g = self.model
        c = self.example_class(e)
        shift = {f: i for i, f in enumerate(reversed(self.features))}
        best = {g.start: (0, 0)}
        for nid in g.parents_first:
            cost, neg = best.pop(nid)
            node = g.nodes[nid]
            for bit, child in ((0, node.zero), (1, node.one)):
                key = (cost, neg) if bit == e[node.feature] else (cost + 1, neg - (1 << shift[node.feature]))
                label = g.terminals.get(child)
                if label is not None:
                    if label == c:
                        continue
                    child = None  # the terminals of the other class share one entry
                if child not in best or key < best[child]:
                    best[child] = key
        if None not in best:
            raise Homogeneous(f"every input is classified {c}")
        bits = format(-best[None][1], f"0{len(shift)}b")
        return Witness.of_features(f for f, b in zip(self.features, bits) if b == "1")

    def _min_lcxp_or_none(self, e: Example) -> Optional[Witness]:
        """`min_lcxp`, or None when no flip set changes the class."""
        try:
            return self.min_lcxp(e)
        except Homogeneous:
            return None

    # -- the query procedures

    def subset_min(self, q: ExplanationQuery) -> Optional[Witness]:
        """Greedy subset-minimal witness; deletions tried in ascending name order."""
        if q.kind == "lCXp":
            return self._min_lcxp_or_none(q.target)
        valid = self.validity(q)
        if q.kind == "lAXp":
            return Witness.of_features(_greedy_shrink(valid, self.features))
        # global kinds: start from a full path into an agreeing (gAXp) or
        # disagreeing (gCXp) label, then drop assignments greedily
        seed = self.seed_path(q.target if q.kind == "gAXp" else 1 - q.target)
        if seed is None:
            return None
        kept = _greedy_shrink(lambda names: valid({f: seed[f] for f in names}), sorted(seed))
        return Witness.of_assignment({f: seed[f] for f in kept})

    def xp_search(self, q: ExplanationQuery) -> Optional[Witness]:
        """The oracle's answer to a cardinality query: its own search, but
        lCXp through the minimum contrastive search."""
        if q.k is None:
            raise ModelError("xp search needs a cardinality query with budget k")
        if q.kind != "lCXp":
            return self.minimum(q)
        w = self._min_lcxp_or_none(q.target)
        return w if w is not None and w.size <= q.k else None


def _greedy_shrink(valid, items: Sequence[str]) -> List[str]:
    # validity of all four query kinds only grows with the witness, so one
    # ascending deletion pass lands on a subset-minimal set
    kept = list(items)
    for f in sorted(items):
        trial = [g for g in kept if g != f]
        if valid(trial):
            kept = trial
    return kept

"""The restriction walk, and the query procedures trees and diagrams share.

A tree and a diagram answer every check with one question: can a given
class still be reached once the model is restricted by a partial
assignment (`walk_labels`, the one restriction primitive, defined here)?
lAXp and gAXp rule out the other class and gCXp the target class; lCXp
must reach the other class.  Local abductive sets restrict by the target
example, global queries by the witness itself, and local contrastive
sets by the example outside the set.  Both families are one graph to
every search (`Restriction`): inner nodes testing a feature, terminals
carrying a class, one start.  The least path into a label, which seeds
the global subset search, and the minimum local contrastive set are
each one pass over that graph, parents first.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, FrozenSet, List, Mapping, Optional, Set

from .errors import Homogeneous, ModelError
from .explain import ExplanationQuery, Witness
from .models import Example, PartialExample, _bit, _lookup, classify, require_total


def walk_labels(
    nodes: Mapping[str, object],
    terminals: Mapping[str, int],
    start: str,
    tau: PartialExample,
) -> FrozenSet[int]:
    """Labels reachable from `start` once arcs disagreeing with tau are cut.

    The one restriction primitive of trees and diagrams: `terminals` maps
    leaf or sink ids to their class, `nodes` maps every other id to a
    node with `feature`, `zero` and `one`.  An assigned feature follows
    its fixed arc, a free one both; the walk stops as soon as both labels
    are seen and builds no model.
    """
    fixed = {str(f): _bit(z, f"assignment of {f!r}") for f, z in tau.items()}
    labels = set()
    seen = set()
    stack = [start]
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


class Restriction:
    """The graph view of one tree or diagram.

    `terminals` maps leaf or sink ids to their class, `nodes` maps every
    other id to a node with `feature`, `zero` and `one`, and `start` is
    the root or source; every node is reachable from `start`.
    `parents_first()` lists the inner ids with each after all of its
    parents (preorder for a tree, level order for a complete diagram);
    like the universe, only the searches that need it ask for it.  A tree
    must be free of repeated tests and a diagram complete, as the walk
    and the seed path assume.
    """

    def __init__(self, model, nodes, terminals: Mapping[str, int], start: str, parents_first):
        self.model = model
        self.nodes = nodes
        self.terminals = terminals
        self.start = start
        self.parents_first = parents_first

    def universe(self) -> List[str]:
        """Every feature, sorted; built only when a search asks for it."""
        return sorted(self.model.features())

    def reaches(self, tau: Mapping[str, int], label: int) -> bool:
        """Some completion of `tau` gets `label`."""
        return label in walk_labels(self.nodes, self.terminals, self.start, tau)

    def hits(self, label: int) -> Set[str]:
        """Ids from which some terminal of `label` is reachable."""
        hit = {nid for nid, got in self.terminals.items() if got == label}
        for nid in reversed(self.parents_first()):
            node = self.nodes[nid]
            if node.zero in hit or node.one in hit:
                hit.add(nid)
        return hit

    def seed_path(self, label: int) -> Optional[Dict[str, int]]:
        """Full assignment along the least (0-preferring) path into `label`."""
        hit = self.hits(label)
        if self.start not in hit:
            return None
        alpha: Dict[str, int] = {}
        nid = self.start
        while nid not in self.terminals:
            node = self.nodes[nid]
            bit = 0 if node.zero in hit else 1
            alpha[node.feature] = bit
            nid = node.one if bit else node.zero
        return alpha

    def min_lcxp(self, e: Example) -> Witness:
        """Cheapest flip set driving the walk into the other class.

        Arcs agreeing with the example cost nothing, disagreeing arcs one
        flip; one parents-first relaxation keeps the least `(flips, sorted
        flip tuple)` per node, so ties go to the lexicographically least
        sorted flip set, the oracle's order among sets of one size.
        """
        require_total(e, self.model.features())
        c = classify(self.model, e)
        best = {self.start: (0, ())}
        for nid in self.parents_first():
            cost, flips = best[nid]
            node = self.nodes[nid]
            for bit, child in ((0, node.zero), (1, node.one)):
                if bit == e[node.feature]:
                    key = (cost, flips)
                else:
                    key = (cost + 1, tuple(sorted(flips + (node.feature,))))
                if child not in best or key < best[child]:
                    best[child] = key
        ends = [best[t] for t, got in self.terminals.items() if got != c and t in best]
        if not ends:
            raise Homogeneous(f"every input is classified {c}")
        return Witness.of_features(min(ends)[1])

    # -- the query procedures

    def _valid_under(self, q: ExplanationQuery) -> Callable[[Mapping[str, int]], bool]:
        """Validity of a restriction for the abductive and global kinds:
        the class to rule out stays unreachable."""
        if q.kind == "lAXp":
            avoid = 1 - classify(self.model, q.target)
        elif q.kind == "gAXp":
            avoid = 1 - q.target
        else:
            avoid = q.target
        return lambda tau: not self.reaches(tau, avoid)

    def check(self, q: ExplanationQuery, w: Witness) -> bool:
        if q.k is not None and w.size > q.k:
            return False
        if q.kind == "lAXp":
            tau = {f: _lookup(q.target, f) for f in w.features}
        else:
            tau = dict(w.assignment)
        return self._valid_under(q)(tau)

    def lcxp_check(self, e: Example, features) -> bool:
        """True iff flipping inside the set can change the class: fix the
        example outside it and look for the opposite label."""
        names = frozenset(str(f) for f in features)
        if not names:
            return False
        universe = self.universe()
        require_total(e, universe)
        tau = {f: e[f] for f in universe if f not in names}
        return self.reaches(tau, 1 - classify(self.model, e))

    def subset_min(self, q: ExplanationQuery) -> Optional[Witness]:
        """Greedy subset-minimal witness; deletions tried in ascending name order."""
        if q.kind == "lCXp":
            try:
                return self.min_lcxp(q.target)
            except Homogeneous:
                return None
        valid = self._valid_under(q)
        if q.kind == "lAXp":
            e = q.target
            kept = _greedy_shrink(lambda names: valid({f: e[f] for f in names}), self.universe())
            return Witness.of_features(kept)
        # global kinds: start from a full path into an agreeing (gAXp) or
        # disagreeing (gCXp) label, then drop assignments greedily
        seed = self.seed_path(q.target if q.kind == "gAXp" else 1 - q.target)
        if seed is None:
            return None
        kept = _greedy_shrink(lambda names: valid({f: seed[f] for f in names}), sorted(seed))
        return Witness.of_assignment({f: seed[f] for f in kept})

    def xp_search(self, q: ExplanationQuery) -> Optional[Witness]:
        """Exhaustive size-bounded search matching the oracle's tie-break."""
        if q.k is None:
            raise ModelError("xp search needs a cardinality query with budget k")
        names = self.universe()
        limit = min(q.k, len(names))
        if q.kind == "lCXp":
            try:
                w = self.min_lcxp(q.target)
            except Homogeneous:
                return None
            return w if w.size <= limit else None
        valid = self._valid_under(q)
        for size in range(0, limit + 1):
            for combo in itertools.combinations(names, size):
                if q.kind == "lAXp":
                    if valid({f: q.target[f] for f in combo}):
                        return Witness.of_features(combo)
                    continue
                for values in itertools.product((0, 1), repeat=size):
                    tau = dict(zip(combo, values))
                    if valid(tau):
                        return Witness.of_assignment(tau)
        return None


def _greedy_shrink(valid, items: List[str]) -> List[str]:
    # validity of all four query kinds only grows with the witness, so one
    # ascending deletion pass lands on a subset-minimal set
    kept = list(items)
    for f in sorted(items):
        trial = [g for g in kept if g != f]
        if valid(trial):
            kept = trial
    return kept

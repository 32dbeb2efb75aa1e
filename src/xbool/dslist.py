"""Branch-and-bound search for minimum contrastive sets on rule lists.

A flip set A is contrastive iff after flipping A some rule of the
opposite class becomes the first applicable one.  The search tries each
opposite-class rule as that classifying rule: seed with the flips the
rule's own term forces, then repeatedly knock out the earliest earlier
rule that still fires, branching on which of its features to flip.
Ensembles do the same with one candidate rule per member, keeping only
combinations that flip the majority; a single list is the one-member case.
"""

from __future__ import annotations

import itertools
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from .errors import ModelError
from .explain import Witness
from .models import (
    DecisionList,
    DecisionSet,
    Ensemble,
    Example,
    classify,
    flip,
    require_total,
    term_applies,
)
from .records import Record


def ds_to_dl(s: DecisionSet) -> DecisionList:
    """Equivalent list: one rule per term for class 1 - default, then default."""
    rules: List[Tuple[tuple, int]] = [(tuple(t), 1 - s.default) for t in s.terms]
    rules.append(((), s.default))
    return DecisionList(rules)


class BranchStats(Record):
    """Search-leaf counts, one entry per candidate rule examined."""

    __slots__ = ("leaves_per_rule",)

    def __init__(self, leaves_per_rule: Optional[List[int]] = None):
        self._fill([] if leaves_per_rule is None else leaves_per_rule)


def _branch_ensemble(
    lists: Sequence[DecisionList],
    e: Example,
    k: int,
    combo: Tuple[int, ...],
    fixed: FrozenSet[str],
    seed: FrozenSet[str],
    leaves: List[int],
) -> Optional[FrozenSet[str]]:
    """Smallest flip set, grown from `seed`, under which every rule
    before the guessed ones stays silent.  The branches are walked
    depth first in ascending feature order with an explicit stack, and
    only a strictly smaller set replaces the best, so ties go to the
    first set found."""
    best = None
    stack = [seed]
    while stack:
        flips = stack.pop()
        if len(flips) > k:
            leaves[0] += 1
            continue
        moved = flip(e, flips)
        blocker = None
        for i, dl in enumerate(lists):
            for l in range(combo[i]):
                if term_applies(dl.rules[l].term, moved):
                    blocker = dl.rules[l].term
                    break
            if blocker is not None:
                break
        if blocker is None:
            leaves[0] += 1
            if best is None or len(flips) < len(best):
                best = flips
            continue
        branch = sorted({f for f, _ in blocker} - flips - fixed)
        if not branch or len(flips) == k:
            leaves[0] += 1
            continue
        stack.extend(flips | {f} for f in reversed(branch))
    return best


def _min_lcxp(
    ens: Ensemble, e: Example, k: int, stats: Optional[BranchStats]
) -> Optional[Witness]:
    """The search behind both public names; a list is a one-element ensemble.

    One classifying rule is guessed per member, in lexicographic
    rule-index order; a combination survives only if the guessed labels
    outvote the current class and the guessed terms do not contradict
    each other.
    """
    if k < 0:
        raise ModelError("budget must be non-negative")
    lists = ens.elements
    if any(dl.kind != "dl" for dl in lists):
        raise ModelError("expected an ensemble of decision lists")
    require_total(e, ens.features())
    c = classify(ens, e)
    best: Optional[FrozenSet[str]] = None
    for combo in itertools.product(*(range(len(dl.rules)) for dl in lists)):
        flipped = sum(1 for i, j in enumerate(combo) if lists[i].rules[j].label != c)
        if flipped <= len(lists) - flipped:
            continue
        union: Dict[str, int] = {}
        conflict = False
        for i, j in enumerate(combo):
            for f, v in lists[i].rules[j].term:
                if union.setdefault(f, v) != v:
                    conflict = True
                    break
            if conflict:
                break
        if conflict:
            continue
        seed = frozenset(f for f, v in union.items() if v != e[f])
        leaves = [0]
        got = _branch_ensemble(lists, e, k, combo, frozenset(union), seed, leaves)
        if stats is not None:
            stats.leaves_per_rule.append(leaves[0])
        if got is not None and (best is None or len(got) < len(best)):
            best = got
    return None if best is None else Witness.of_features(best)


def dl_min_lcxp_branch(
    dl: DecisionList,
    e: Example,
    k: int,
    stats: Optional[BranchStats] = None,
) -> Optional[Witness]:
    """Minimum flip set of size ≤ k changing the list's verdict, or None.

    The list is searched as a one-element ensemble: candidate rules are
    tried in list order and only a strictly smaller result replaces the
    current best, so ties go to the earliest rule.
    """
    return _min_lcxp(Ensemble([dl]), e, k, stats)


def dle_min_lcxp_branch(
    ens: Ensemble,
    e: Example,
    k: int,
    stats: Optional[BranchStats] = None,
) -> Optional[Witness]:
    """Minimum flip set of size ≤ k changing the ensemble vote, or None."""
    return _min_lcxp(ens, e, k, stats)

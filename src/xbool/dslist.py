"""Branch-and-bound search for minimum contrastive sets on rule lists.

A flip set A is contrastive iff after flipping A some rule of the
opposite class becomes the first applicable one.  The search tries each
opposite-class rule as that classifying rule: seed with the flips the
rule's own term forces, then repeatedly knock out the earliest earlier
rule that still fires, branching on which of its features to flip.
Ensembles do the same with one candidate rule per member, keeping only
combinations that flip the majority; a single list is the one-member case,
and a rule set is searched as its equivalent list (`ds_to_dl`).

Everything runs on ints over the sorted feature names: the example is one
int, a flip set is a mask, and a rule with mask `vars` and literal values
`values` fires under A iff ((e ^ A) & vars) == values.  The best size found
so far is carried as the budget, so once a set of size s is found only
sets of size at most s - 1 are searched for.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from .errors import ModelError
from .explain import Witness
from .models import Example, Model, _lookup, classify, require_total
from .records import Record
from .rules import DecisionList, DecisionSet

Rules = Tuple[Tuple[int, int, int], ...]  # (vars, values, votes against the class)


def ds_to_dl(s: DecisionSet) -> DecisionList:
    """Equivalent list: one rule per term for class 1 - default, then default."""
    rules: List[Tuple[tuple, int]] = [(tuple(t), 1 - s.default) for t in s.terms]
    rules.append(((), s.default))
    return DecisionList(rules)


class BranchStats(Record):
    """Search-leaf counts, one entry per candidate rule combination searched."""

    __slots__ = ("leaves_per_rule",)

    def __init__(self, leaves_per_rule: Optional[List[int]] = None):
        self._fill([] if leaves_per_rule is None else leaves_per_rule)


def _branch(
    x: int, silent: Rules, fixed: int, seed: int, budget: int
) -> Tuple[Optional[int], int]:
    """(first smallest flip set of size ≤ budget, grown from `seed`, under
    which every rule in `silent` stays silent; the leaves searched).

    The branches are walked depth first in ascending bit order with an
    explicit stack; each set found lowers the budget below its own size,
    so only a strictly smaller set replaces it."""
    best = None
    leaves = 0
    stack = [seed]
    while stack:
        flips = stack.pop()
        size = flips.bit_count()
        if size > budget:
            leaves += 1
            continue
        moved = x ^ flips
        blocker = None
        for vars_, values, _ in silent:
            if moved & vars_ == values:
                blocker = vars_
                break
        if blocker is None:  # an empty term's mask is 0 but still blocks
            leaves += 1
            best, budget = flips, size - 1
            continue
        branch = blocker & ~flips & ~fixed
        if not branch or size == budget:
            leaves += 1
            continue
        while branch:  # highest bit pushed first, so the lowest pops first
            top = 1 << (branch.bit_length() - 1)
            stack.append(flips | top)
            branch ^= top
    return best, leaves


def _min_lcxp(
    model: Model, e: Example, k: int, stats: Optional[BranchStats]
) -> Optional[Witness]:
    """The search behind both public names; sets, lists and their ensembles.

    One classifying rule is guessed per member, in lexicographic
    rule-index order, member by member with an explicit stack.  A partial
    combination is dropped as soon as a guessed term contradicts an
    earlier one, the guessed labels can no longer outvote the current
    class, or the flips the guessed terms force exceed the budget.
    """
    if isinstance(k, bool) or not isinstance(k, int) or k < 0:  # as a query's budget
        raise ModelError(f"budget must be a non-negative integer, got {k!r}")
    elements = model.elements if model.kind == "ensemble" else (model,)
    if any(el.kind not in ("ds", "dl") for el in elements):
        raise ModelError("expected rule sets or rule lists")
    lists = [ds_to_dl(el) if el.kind == "ds" else el for el in elements]
    names = sorted(model.features())
    require_total(e, names)
    index = {f: 1 << i for i, f in enumerate(names)}
    x = sum(index[f] for f in names if _lookup(e, f))
    c = classify(model, e)
    members = [
        tuple(
            (
                sum(index[f] for f, _ in rule.term),
                sum(index[f] for f, v in rule.term if v),
                int(rule.label != c),
            )
            for rule in dl.rules
        )
        for dl in lists
    ]
    m = len(members)
    need = m // 2 + 1
    best = None
    budget = k
    # (next member, guessed vars, guessed values, votes, rules to keep silent)
    stack: List[Tuple[int, int, int, int, Rules]] = [(0, 0, 0, 0, ())]
    while stack:
        i, fixed, values, votes, silent = stack.pop()
        seed = (x ^ values) & fixed
        if seed.bit_count() > budget:
            continue
        if i == m:
            got, leaves = _branch(x, silent, fixed, seed, budget)
            if stats is not None:
                stats.leaves_per_rule.append(leaves)
            if got is not None:
                best, budget = got, got.bit_count() - 1
            continue
        rules = members[i]
        for j in range(len(rules) - 1, -1, -1):
            vars_, vals, against = rules[j]
            if votes + against + m - i - 1 < need or (values ^ vals) & fixed & vars_:
                continue
            stack.append(
                (i + 1, fixed | vars_, values | vals, votes + against, silent + rules[:j])
            )
    if best is None:
        return None
    return Witness.of_features(f for f in names if best & index[f])


def dl_min_lcxp_branch(
    dl: DecisionList,
    e: Example,
    k: int,
    stats: Optional[BranchStats] = None,
) -> Optional[Witness]:
    """Minimum flip set of size ≤ k changing the list's verdict, or None.

    Candidate rules are tried in list order and only a strictly smaller
    result replaces the current best, so ties go to the earliest rule.
    """
    return _min_lcxp(dl, e, k, stats)


def dle_min_lcxp_branch(
    ens: Model,
    e: Example,
    k: int,
    stats: Optional[BranchStats] = None,
) -> Optional[Witness]:
    """Minimum flip set of size ≤ k changing the vote of an ensemble of
    rule sets or lists (or of a lone one), or None."""
    return _min_lcxp(ens, e, k, stats)

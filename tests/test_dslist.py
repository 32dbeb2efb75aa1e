"""Bounded-depth branching for lists, sets, and their majority ensembles."""

import hashlib
import itertools
import random

import pytest

from xbool.dslist import (
    BranchStats,
    dl_min_lcxp_branch,
    dle_min_lcxp_branch,
    ds_to_dl,
)
from xbool.errors import ModelError, UndefinedFeature
from xbool.explain import ExplanationQuery, Witness, is_explanation, oracle_min
from xbool.models import (
    DecisionList,
    DecisionSet,
    Ensemble,
    classify,
    flip,
    model_features,
    term_applies,
)

from helpers import all_examples, models_equal, rand_dl, rand_ds, rand_example, rand_term


# ---------------------------------------------------------------------------
# ds_to_dl


def test_single_term_set_to_list():
    dl = ds_to_dl(DecisionSet([[("x", 1)]], 0))
    assert [(tuple(r.term), r.label) for r in dl.rules] == [
        ((("x", 1),), 1),
        ((), 0),
    ]


def test_empty_set_to_constant_list():
    dl = ds_to_dl(DecisionSet([], 0))
    assert len(dl.rules) == 1 and dl.rules[0].label == 0
    assert classify(dl, {}) == 0


def test_set_to_list_equivalence():
    rng = random.Random(107)
    for _ in range(40):
        feats = tuple(f"x{i}" for i in range(rng.randint(1, 6)))
        s = rand_ds(rng, feats)
        dl = ds_to_dl(s)
        assert models_equal(s, dl, feats)


# ---------------------------------------------------------------------------
# single-list branching


def test_fig1_budget_one_flips_z(fig1, fig1_e):
    got = dl_min_lcxp_branch(fig1, fig1_e, 1)
    assert got == Witness.of_features(("z",))


def test_fig1_budget_zero_finds_nothing(fig1, fig1_e):
    assert dl_min_lcxp_branch(fig1, fig1_e, 0) is None


def test_constant_list_has_no_contrastive():
    dl = DecisionList([([], 0)])
    assert dl_min_lcxp_branch(dl, {}, 5) is None


def test_branch_rejects_negative_budget(fig1, fig1_e):
    with pytest.raises(ModelError):
        dl_min_lcxp_branch(fig1, fig1_e, -1)


def test_branch_requires_total_example(fig1):
    with pytest.raises(UndefinedFeature):
        dl_min_lcxp_branch(fig1, {"x": 0}, 1)


def test_branch_matches_oracle_for_every_budget():
    rng = random.Random(109)
    for _ in range(40):
        feats = tuple(f"x{i}" for i in range(rng.randint(1, 6)))
        dl = rand_dl(rng, feats)
        e = rand_example(rng, feats)
        nf = len(model_features(dl))
        best = oracle_min(dl, ExplanationQuery("lCXp", "cardinality", e, k=max(nf, 1)))
        for k in range(0, nf + 1):
            got = dl_min_lcxp_branch(dl, e, k)
            want = best if best is not None and best.size <= k else None
            assert (got is None) == (want is None), (k, got, want)
            if got is not None:
                assert got.size == want.size
                q = ExplanationQuery("lCXp", "cardinality", e, k=k)
                assert is_explanation(dl, q, got)


def test_branch_leaf_counts_stay_within_fpt_bound():
    rng = random.Random(113)
    for _ in range(40):
        feats = tuple(f"x{i}" for i in range(rng.randint(1, 6)))
        dl = rand_dl(rng, feats)
        e = rand_example(rng, feats)
        width = max((len(r.term) for r in dl.rules), default=0)
        for k in range(0, len(feats) + 1):
            stats = BranchStats()
            dl_min_lcxp_branch(dl, e, k, stats)
            bound = max(1, width) ** k
            assert all(count <= bound for count in stats.leaves_per_rule)


# ---------------------------------------------------------------------------
# ensemble branching


def test_singleton_ensemble_degenerates(fig1, fig1_e):
    got = dle_min_lcxp_branch(Ensemble([fig1]), fig1_e, 1)
    assert got == dl_min_lcxp_branch(fig1, fig1_e, 1) == Witness.of_features(("z",))


def test_three_single_rule_lists():
    def voter(f):
        return DecisionList([([(f, 1)], 1), ([], 0)])

    ens = Ensemble([voter("f1"), voter("f2"), voter("f3")])
    e = {"f1": 1, "f2": 1, "f3": 0}
    got = dle_min_lcxp_branch(ens, e, 1)
    assert got is not None and got.size == 1


def test_all_constant_ensemble_has_no_contrastive():
    ens = Ensemble([DecisionList([([], 0)]) for _ in range(3)])
    assert dle_min_lcxp_branch(ens, {}, 3) is None


def test_ensemble_branch_rejects_wrong_kind(and_tree):
    with pytest.raises(ModelError):
        dle_min_lcxp_branch(Ensemble([and_tree]), {"f1": 0, "f2": 0}, 1)


def test_ensemble_branch_matches_oracle_for_every_budget():
    rng = random.Random(127)
    for _ in range(20):
        feats = tuple(f"x{i}" for i in range(rng.randint(2, 5)))
        ens = Ensemble([rand_dl(rng, feats, max_rules=3) for _ in range(3)])
        e = rand_example(rng, feats)
        nf = len(model_features(ens))
        best = oracle_min(ens, ExplanationQuery("lCXp", "cardinality", e, k=max(nf, 1)))
        for k in range(0, nf + 1):
            got = dle_min_lcxp_branch(ens, e, k)
            want = best if best is not None and best.size <= k else None
            assert (got is None) == (want is None), (k, got, want)
            if got is not None:
                assert got.size == want.size


def test_ensemble_branch_leaf_counts_stay_within_bound():
    rng = random.Random(131)
    for _ in range(15):
        feats = tuple(f"x{i}" for i in range(rng.randint(2, 5)))
        ens = Ensemble([rand_dl(rng, feats, max_rules=3) for _ in range(3)])
        e = rand_example(rng, feats)
        width = max(
            (len(r.term) for dl in ens.elements for r in dl.rules), default=0
        )
        for k in range(0, len(feats) + 1):
            stats = BranchStats()
            dle_min_lcxp_branch(ens, e, k, stats)
            bound = max(1, width) ** k
            assert all(count <= bound for count in stats.leaves_per_rule)


def test_set_ensembles_via_conversion():
    # sets turn into lists, then the ensemble branching applies unchanged;
    # the search converts a set, or an ensemble of them, itself
    rng = random.Random(137)
    for _ in range(15):
        feats = tuple(f"x{i}" for i in range(rng.randint(2, 4)))
        sets = [rand_ds(rng, feats, max_terms=2) for _ in range(3)]
        ens_raw = Ensemble(sets)
        ens_dl = Ensemble([ds_to_dl(s) for s in sets])
        e = rand_example(rng, feats)
        assert models_equal(ens_raw, ens_dl, feats)
        nf = len(feats)
        for k in range(0, nf + 1):
            got = dle_min_lcxp_branch(ens_dl, e, k)
            want = oracle_min(ens_raw, ExplanationQuery("lCXp", "cardinality", e, k=k))
            assert (got is None) == (want is None)
            if got is not None:
                assert got.size == want.size
            assert dle_min_lcxp_branch(ens_raw, e, k) == got
            alone = dl_min_lcxp_branch(ds_to_dl(sets[0]), e, k)
            assert dle_min_lcxp_branch(sets[0], e, k) == alone
            assert dle_min_lcxp_branch(Ensemble(sets[:1]), e, k) == alone


# ---------------------------------------------------------------------------
# exact witnesses and the carried budget


def _with_empty_term(rng, dl):
    rules = [(r.term, r.label) for r in dl.rules]
    rules.insert(rng.randint(0, len(rules) - 1), ((), rng.randint(0, 1)))
    return DecisionList(rules)


def _witness_corpus(rng):
    """(ensemble, example, feature count): lists, sets through ds_to_dl,
    ensembles of 1, 3 and 5 members, and lists with an empty term before
    the last rule."""
    for n_cases, make in [
        (900, lambda feats: [rand_dl(rng, feats, max_rules=6)]),
        (600, lambda feats: [ds_to_dl(rand_ds(rng, feats))]),
        (400, lambda feats: [rand_dl(rng, feats, max_rules=4) for _ in range(3)]),
        (300, lambda feats: [ds_to_dl(rand_ds(rng, feats, max_terms=3)) for _ in range(3)]),
        (300, lambda feats: [rand_dl(rng, feats, max_rules=4) for _ in range(5)]),
        (500, lambda feats: [_with_empty_term(rng, rand_dl(rng, feats, max_rules=5))]),
    ]:
        for _ in range(n_cases):
            feats = tuple(f"x{i}" for i in range(rng.randint(1, 6)))
            yield Ensemble(make(feats)), rand_example(rng, feats), len(feats)


# recorded from the search as it stood before it moved onto bitmasks
WITNESS_DIGEST = "82644162370b634d8eb740ddb09cee988751203c77fcfb762b0fce1f0be20f30"


def test_branch_witnesses_match_the_pinned_digest():
    # not only the sizes: which of several minimum sets comes back is pinned too
    digest = hashlib.sha256()
    cases = 0
    for ens, e, n in _witness_corpus(random.Random(139)):
        cases += 1
        for k in range(n + 1):
            got = dle_min_lcxp_branch(ens, e, k)
            digest.update(repr(None if got is None else got.features).encode() + b"\n")
    assert cases == 3000
    assert digest.hexdigest() == WITNESS_DIGEST


def test_empty_term_blocks_every_later_rule():
    # the empty term has mask 0 yet always fires: rule 2 can never classify
    dl = DecisionList([([("a", 1)], 1), ([], 0), ([("b", 1)], 1), ([], 1)])
    e = {"a": 0, "b": 1}
    assert classify(dl, e) == 0
    assert dl_min_lcxp_branch(dl, e, 0) is None
    for k in (1, 2):
        got = dl_min_lcxp_branch(dl, e, k)
        assert got == Witness.of_features(("a",))
        assert got == oracle_min(dl, ExplanationQuery("lCXp", "cardinality", e, k=k))


def _first_combination_one_flip_completes(lists, e):
    """Index, among the rule combinations that outvote the current class
    and do not contradict themselves, of the first one that a single flip
    makes classify: every guessed rule fires, every earlier rule is silent."""
    c = classify(Ensemble(lists), e)
    feats = sorted(Ensemble(lists).features())
    searched = 0
    for combo in itertools.product(*(range(len(dl.rules)) for dl in lists)):
        guessed = [dl.rules[j] for dl, j in zip(lists, combo)]
        if 2 * sum(r.label != c for r in guessed) <= len(lists):
            continue
        terms = [lit for r in guessed for lit in r.term]
        if len({f for f, _ in terms}) != len(set(terms)):
            continue
        for f in feats:
            moved = flip(e, [f])
            if all(term_applies(r.term, moved) for r in guessed) and not any(
                term_applies(r.term, moved)
                for dl, j in zip(lists, combo)
                for r in dl.rules[:j]
            ):
                return searched
        searched += 1
    raise AssertionError("no single flip changes the vote")


def test_found_size_becomes_the_budget():
    rng = random.Random(100)
    feats = tuple(f"x{i}" for i in range(8))
    lists = [
        DecisionList(
            [(rand_term(rng, feats, 3), rng.randint(0, 1)) for _ in range(size - 1)]
            + [([], rng.randint(0, 1))]
        )
        for size in (6, 6, 7)
    ]
    e = rand_example(rng, feats)
    stats = BranchStats()
    got = dle_min_lcxp_branch(Ensemble(lists), e, len(feats), stats)
    assert got is not None and got.size == 1
    first = _first_combination_one_flip_completes(lists, e)
    after = stats.leaves_per_rule[first + 1:]
    assert after and all(count <= 1 for count in after)

"""Polynomial tree algorithms checked against the exhaustive oracle."""

import itertools
import random

import pytest

from xbool.dt import (
    dt_check,
    dt_ensemble_to_dt,
    dt_lcxp_check,
    dt_min_lcxp,
    dt_subset_min,
    dt_xp_search,
)
from xbool.errors import BudgetExceeded, Homogeneous, ModelError
from xbool.explain import (
    ExplanationQuery,
    FunctionOracle,
    Witness,
    is_explanation,
    oracle_min,
    verify_subset_minimal,
)
from xbool.models import DecisionTree, DtInner, DtLeaf, Ensemble, classify, dt_size

from helpers import (
    all_examples,
    models_equal,
    rand_dt,
    rand_dt_with_repeats,
    rand_example,
    rand_partial,
)


def _single(f: str) -> DecisionTree:
    return DecisionTree(
        {"r": DtInner(f, "z", "o"), "z": DtLeaf(0), "o": DtLeaf(1)}, "r"
    )


# ---------------------------------------------------------------------------
# dt_check


def test_check_and_tree_laxp(and_tree):
    e = {"f1": 1, "f2": 1}
    q = ExplanationQuery("lAXp", "subset", e)
    assert dt_check(and_tree, q, Witness.of_features(("f1", "f2")))
    assert not dt_check(and_tree, q, Witness.of_features(("f1",)))
    assert not dt_check(and_tree, q, Witness.of_features(("f2",)))


def test_check_and_tree_gaxp(and_tree):
    q = ExplanationQuery("gAXp", "subset", 1)
    assert not dt_check(and_tree, q, Witness.of_assignment({"f1": 1}))
    assert dt_check(and_tree, q, Witness.of_assignment({"f1": 1, "f2": 1}))


def test_check_empty_gcxp_iff_no_such_leaf(and_tree):
    empty = Witness.of_assignment({})
    assert not dt_check(and_tree, ExplanationQuery("gCXp", "subset", 0), empty)
    assert not dt_check(and_tree, ExplanationQuery("gCXp", "subset", 1), empty)
    const = DecisionTree({"r": DtLeaf(0)}, "r")
    assert dt_check(const, ExplanationQuery("gCXp", "subset", 1), empty)


def test_check_answers_lcxp_like_lcxp_check(and_tree):
    # dt_check is total over the four kinds: lCXp takes the walk of
    # dt_lcxp_check, and the empty set never changes the class
    rng = random.Random(17)
    for t in [and_tree] + [rand_dt(rng, ("x0", "x1", "x2")) for _ in range(10)]:
        names = sorted(t.features())
        for e in all_examples(names):
            q = ExplanationQuery("lCXp", "subset", e)
            assert not dt_check(t, q, Witness.of_features(()))
            for size in range(len(names) + 1):
                for combo in itertools.combinations(names, size):
                    w = Witness.of_features(combo)
                    got = dt_check(t, q, w)
                    assert got == dt_lcxp_check(t, e, combo) == is_explanation(t, q, w)


def test_lcxp_check_matches_oracle():
    rng = random.Random(13)
    for _ in range(40):
        feats = tuple(f"x{i}" for i in range(rng.randint(1, 5)))
        t = rand_dt(rng, feats)
        e = rand_example(rng, feats)
        q = ExplanationQuery("lCXp", "subset", e)
        names = sorted(t.features())
        for size in range(0, len(names) + 1):
            for combo in itertools.combinations(names, size):
                got = dt_lcxp_check(t, e, combo)
                want = is_explanation(t, q, Witness.of_features(combo))
                assert got == want, (combo, e)


def test_check_matches_oracle_randomly():
    rng = random.Random(29)
    for _ in range(30):
        feats = tuple(f"x{i}" for i in range(rng.randint(1, 5)))
        t = rand_dt(rng, feats)
        e = rand_example(rng, feats)
        names = sorted(t.features())
        qa = ExplanationQuery("lAXp", "subset", e)
        for _ in range(6):
            sub = Witness.of_features(rng.sample(names, rng.randint(0, len(names))))
            assert dt_check(t, qa, sub) == is_explanation(t, qa, sub)
        for cls in (0, 1):
            for kind in ("gAXp", "gCXp"):
                q = ExplanationQuery(kind, "subset", cls)
                chosen = rng.sample(names, rng.randint(0, len(names)))
                tau = Witness.of_assignment({f: rng.randint(0, 1) for f in chosen})
                assert dt_check(t, q, tau) == is_explanation(t, q, tau)


# ---------------------------------------------------------------------------
# dt_min_lcxp


def test_min_lcxp_and_tree(and_tree):
    assert dt_min_lcxp(and_tree, {"f1": 1, "f2": 1}).size == 1
    got = dt_min_lcxp(and_tree, {"f1": 0, "f2": 0})
    assert got == Witness.of_features(("f1", "f2"))


def test_min_lcxp_constant_raises():
    with pytest.raises(Homogeneous):
        dt_min_lcxp(DecisionTree({"r": DtLeaf(1)}, "r"), {})


def test_min_lcxp_matches_oracle():
    rng = random.Random(31)
    for _ in range(50):
        feats = tuple(f"x{i}" for i in range(rng.randint(1, 6)))
        t = rand_dt(rng, feats)
        e = rand_example(rng, feats)
        q = ExplanationQuery("lCXp", "subset", e)
        want = oracle_min(t, q)
        try:
            got = dt_min_lcxp(t, e)
        except Homogeneous:
            got = None
        assert (got is None) == (want is None)
        if got is not None:
            assert got.size == want.size
            assert is_explanation(t, q, got)
            least = ExplanationQuery("lCXp", "cardinality", e, k=len(feats))
            assert got == oracle_min(t, least)


# ---------------------------------------------------------------------------
# dt_subset_min


def test_subset_min_and_tree(and_tree):
    e = {"f1": 1, "f2": 1}
    got = dt_subset_min(and_tree, ExplanationQuery("lAXp", "subset", e))
    assert got == Witness.of_features(("f1", "f2"))
    got = dt_subset_min(and_tree, ExplanationQuery("gAXp", "subset", 1))
    assert got == Witness.of_assignment({"f1": 1, "f2": 1})
    got = dt_subset_min(and_tree, ExplanationQuery("gCXp", "subset", 1))
    assert got == Witness.of_assignment({"f1": 0})


def test_subset_min_globals_none_when_class_missing():
    const = DecisionTree({"r": DtLeaf(0)}, "r")
    assert dt_subset_min(const, ExplanationQuery("gAXp", "subset", 1)) is None
    got = dt_subset_min(const, ExplanationQuery("gCXp", "subset", 1))
    assert got is not None and got.size == 0


def test_subset_min_verified_by_oracle():
    rng = random.Random(43)
    for _ in range(40):
        feats = tuple(f"x{i}" for i in range(rng.randint(1, 6)))
        t = rand_dt(rng, feats)
        e = rand_example(rng, feats)
        queries = [
            ExplanationQuery("lAXp", "subset", e),
            ExplanationQuery("lCXp", "subset", e),
            ExplanationQuery("gAXp", "subset", rng.randint(0, 1)),
            ExplanationQuery("gCXp", "subset", rng.randint(0, 1)),
        ]
        for q in queries:
            got = dt_subset_min(t, q)
            if got is None:
                assert oracle_min(t, q) is None
            else:
                assert verify_subset_minimal(t, q, got), (q.kind, got)


# ---------------------------------------------------------------------------
# dt_xp_search


def test_xp_search_needs_budget(and_tree):
    with pytest.raises(ModelError):
        dt_xp_search(and_tree, ExplanationQuery("lAXp", "subset", {"f1": 1, "f2": 1}))


def test_xp_search_and_tree(and_tree):
    e = {"f1": 1, "f2": 1}
    assert dt_xp_search(and_tree, ExplanationQuery("lAXp", "cardinality", e, k=1)) is None
    got = dt_xp_search(and_tree, ExplanationQuery("gCXp", "cardinality", 1, k=1))
    assert got == Witness.of_assignment({"f1": 0})


def test_xp_search_zero_budget_detects_constants():
    const = DecisionTree({"r": DtLeaf(1)}, "r")
    q = ExplanationQuery("lAXp", "cardinality", {}, k=0)
    assert dt_xp_search(const, q) == Witness.of_features(())
    q2 = ExplanationQuery("lAXp", "cardinality", {"f1": 0, "f2": 0}, k=0)
    assert dt_xp_search(DecisionTree(
        {"r": DtInner("f1", "z", "o"), "z": DtLeaf(0), "o": DtLeaf(1)}, "r"
    ), q2) is None


def test_xp_search_sizes_match_oracle():
    rng = random.Random(47)
    for _ in range(25):
        feats = tuple(f"x{i}" for i in range(rng.randint(1, 5)))
        t = rand_dt(rng, feats)
        e = rand_example(rng, feats)
        k = rng.randint(0, len(feats))
        queries = [
            ExplanationQuery("lAXp", "cardinality", e, k=k),
            ExplanationQuery("lCXp", "cardinality", e, k=k),
            ExplanationQuery("gAXp", "cardinality", rng.randint(0, 1), k=k),
            ExplanationQuery("gCXp", "cardinality", rng.randint(0, 1), k=k),
        ]
        for q in queries:
            got = dt_xp_search(t, q)
            want = oracle_min(t, q)
            assert (got is None) == (want is None), q.kind
            if got is not None:
                assert got.size == want.size
                assert is_explanation(t, q, got)


# ---------------------------------------------------------------------------
# trees that test a feature again below itself


def test_constant_tree_with_a_repeated_test():
    # x ? (x ? 0 : 1) : 0 is constant 0: the inner 1-leaf needs x both ways
    t = DecisionTree(
        {
            "r": DtInner("x", "z", "i"),
            "i": DtInner("x", "p", "q"),
            "z": DtLeaf(0),
            "p": DtLeaf(1),
            "q": DtLeaf(0),
        },
        "r",
    )
    assert dt_check(t, ExplanationQuery("gAXp", "subset", 0), Witness.of_assignment({}))
    with pytest.raises(Homogeneous):
        dt_min_lcxp(t, {"x": 1})


def test_procedures_match_oracle_on_repeat_trees():
    rng = random.Random(5)
    feats = tuple("abcde")
    for _ in range(120):
        t = rand_dt_with_repeats(rng, feats)
        e = rand_example(rng, feats)
        names = sorted(t.features())
        qa = ExplanationQuery("lAXp", "subset", e)
        qc = ExplanationQuery("lCXp", "subset", e)
        for _ in range(4):
            sub = Witness.of_features(rng.sample(names, rng.randint(0, len(names))))
            assert dt_check(t, qa, sub) == is_explanation(t, qa, sub)
            assert dt_lcxp_check(t, e, sub.features) == is_explanation(t, qc, sub)
            tau = Witness.of_assignment(rand_partial(rng, names))
            for cls in (0, 1):
                for kind in ("gAXp", "gCXp"):
                    q = ExplanationQuery(kind, "subset", cls)
                    assert dt_check(t, q, tau) == is_explanation(t, q, tau)
        want = oracle_min(t, qc)
        try:
            got = dt_min_lcxp(t, e)
        except Homogeneous:
            got = None
        assert (got is None) == (want is None)
        assert got is None or got.size == want.size
        k = rng.randint(0, len(feats))
        targets = {"lAXp": e, "lCXp": e, "gAXp": rng.randint(0, 1), "gCXp": rng.randint(0, 1)}
        for kind, target in targets.items():
            q = ExplanationQuery(kind, "subset", target)
            got = dt_subset_min(t, q)
            if got is None:
                assert oracle_min(t, q) is None, kind
            else:
                assert verify_subset_minimal(t, q, got), (kind, got)
            q = ExplanationQuery(kind, "cardinality", target, k=k)
            assert dt_xp_search(t, q) == oracle_min(t, q), (kind, t.nodes)


# ---------------------------------------------------------------------------
# dt_ensemble_to_dt


def test_product_of_three_singletons_is_majority():
    ens = Ensemble([_single("f1"), _single("f2"), _single("f3")])
    t = dt_ensemble_to_dt(ens)
    for e in all_examples(("f1", "f2", "f3")):
        assert classify(t, e) == classify(ens, e)


def test_product_of_one_is_a_copy(and_tree):
    t = dt_ensemble_to_dt(Ensemble([and_tree]))
    assert models_equal(and_tree, t, ("f1", "f2"))
    assert dt_size(t) <= dt_size(and_tree)


def test_product_leaf_bound():
    rng = random.Random(59)
    for _ in range(25):
        feats = tuple(f"x{i}" for i in range(rng.randint(1, 6)))
        ell = rng.choice((1, 3))
        trees = [rand_dt(rng, feats) for _ in range(ell)]
        ens = Ensemble(trees)
        t = dt_ensemble_to_dt(ens)
        assert models_equal(t, ens, feats)
        m = max(dt_size(el) for el in trees)
        assert dt_size(t) <= m ** ell


def test_product_rejects_wrong_kind(fig1):
    with pytest.raises(ModelError):
        dt_ensemble_to_dt(Ensemble([fig1]))


def test_product_respects_node_cap():
    rng = random.Random(61)
    feats = tuple(f"x{i}" for i in range(8))
    trees = [rand_dt(rng, feats, split=0.95) for _ in range(3)]
    with pytest.raises(BudgetExceeded):
        dt_ensemble_to_dt(Ensemble(trees), node_cap=4)

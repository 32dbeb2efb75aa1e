"""Query plumbing and the exhaustive ground-truth oracle."""

import hashlib
import random

import pytest

from xbool.errors import ModelError, TooLarge, UndefinedFeature
from xbool.explain import (
    KINDS,
    ExplanationQuery,
    FunctionOracle,
    Witness,
    is_explanation,
    oracle_min,
    query_from_json,
    query_to_json,
    verify_subset_minimal,
    witness_from_json,
    witness_to_json,
)
from xbool.models import DecisionList, DecisionTree, DtLeaf, classify, model_features

from helpers import rand_dl, rand_dt, rand_example


# ---------------------------------------------------------------------------
# construction rules


def test_query_rejects_unknown_kind():
    with pytest.raises(ModelError):
        ExplanationQuery("axp", "subset", {"x": 0})


def test_budget_goes_with_cardinality_only():
    with pytest.raises(ModelError):
        ExplanationQuery("lAXp", "subset", {"x": 0}, k=1)
    with pytest.raises(ModelError):
        ExplanationQuery("lAXp", "cardinality", {"x": 0})
    with pytest.raises(ModelError):
        ExplanationQuery("lAXp", "cardinality", {"x": 0}, k=-1)


def test_local_queries_take_examples_global_take_classes():
    with pytest.raises(ModelError):
        ExplanationQuery("lAXp", "subset", 0)
    with pytest.raises(ModelError):
        ExplanationQuery("gAXp", "subset", {"x": 0})
    assert ExplanationQuery("gCXp", "subset", 1).target == 1


def test_witness_is_features_xor_assignment():
    with pytest.raises(ModelError):
        Witness()
    with pytest.raises(ModelError):
        Witness(features=("a",), assignment=(("a", 1),))
    assert Witness.of_features(["b", "a", "a"]).features == ("a", "b")
    assert Witness.of_assignment({"b": 1, "a": 0}).assignment == (("a", 0), ("b", 1))


def test_oracle_guard():
    feats = [f"x{i}" for i in range(21)]
    with pytest.raises(TooLarge):
        FunctionOracle(feats, lambda e: 0)
    FunctionOracle(feats, lambda e: 0, guard=21)


# ---------------------------------------------------------------------------
# running-example ground truth


def test_fig1_laxp_yz_is_valid(fig1, fig1_e):
    q = ExplanationQuery("lAXp", "subset", fig1_e)
    assert is_explanation(fig1, q, Witness.of_features(("y", "z")))
    assert verify_subset_minimal(fig1, q, Witness.of_features(("y", "z")))


def test_fig1_min_lcxp_is_y_lex_first(fig1, fig1_e):
    q = ExplanationQuery("lCXp", "subset", fig1_e)
    got = oracle_min(fig1, q)
    assert got == Witness.of_features(("y",))


def test_fig1_global_witnesses(fig1):
    tau1 = Witness.of_assignment({"x": 1, "y": 1})
    tau2 = Witness.of_assignment({"x": 0, "z": 0})
    qa = ExplanationQuery("gAXp", "subset", 0)
    qc = ExplanationQuery("gCXp", "subset", 0)
    assert is_explanation(fig1, qa, tau1)
    assert is_explanation(fig1, qc, tau2)
    assert verify_subset_minimal(fig1, qa, tau1)
    assert verify_subset_minimal(fig1, qc, tau2)


def test_fig1_laxp_budget_two_unique(fig1, fig1_e):
    q = ExplanationQuery("lAXp", "cardinality", fig1_e, k=2)
    assert oracle_min(fig1, q) == Witness.of_features(("y", "z"))
    # nothing smaller works
    for single in ("x", "y", "z"):
        assert not is_explanation(
            fig1, ExplanationQuery("lAXp", "subset", fig1_e), Witness.of_features((single,))
        )


def test_empty_lcxp_never_valid(fig1, fig1_e, and_tree):
    q = ExplanationQuery("lCXp", "subset", fig1_e)
    assert not is_explanation(fig1, q, Witness.of_features(()))
    q2 = ExplanationQuery("lCXp", "subset", {"f1": 1, "f2": 1})
    assert not is_explanation(and_tree, q2, Witness.of_features(()))


def test_and_tree_anchors(and_tree):
    e11 = {"f1": 1, "f2": 1}
    q = ExplanationQuery("lAXp", "subset", e11)
    got = oracle_min(and_tree, q)
    assert got == Witness.of_features(("f1", "f2"))
    assert oracle_min(and_tree, ExplanationQuery("lCXp", "subset", e11)).size == 1
    e00 = {"f1": 0, "f2": 0}
    assert oracle_min(and_tree, ExplanationQuery("lCXp", "subset", e00)).size == 2


def test_constant_model_has_no_gaxp_for_other_class():
    t = DecisionTree({"r": DtLeaf(0)}, "r")
    assert oracle_min(t, ExplanationQuery("gAXp", "subset", 1)) is None
    got = oracle_min(t, ExplanationQuery("gAXp", "subset", 0))
    assert got is not None and got.size == 0


def test_budget_overflow_invalidates(fig1, fig1_e):
    q = ExplanationQuery("lAXp", "cardinality", fig1_e, k=1)
    assert not is_explanation(fig1, q, Witness.of_features(("y", "z")))
    assert not verify_subset_minimal(fig1, q, Witness.of_features(("y", "z")))


def test_witness_with_unknown_feature_raises(fig1, fig1_e):
    q = ExplanationQuery("lAXp", "subset", fig1_e)
    with pytest.raises(UndefinedFeature):
        is_explanation(fig1, q, Witness.of_features(("nope",)))


def test_local_witness_shape_enforced(fig1, fig1_e):
    with pytest.raises(ModelError):
        is_explanation(
            fig1,
            ExplanationQuery("lAXp", "subset", fig1_e),
            Witness.of_assignment({"y": 0}),
        )
    with pytest.raises(ModelError):
        is_explanation(
            fig1, ExplanationQuery("gAXp", "subset", 0), Witness.of_features(("y",))
        )


# ---------------------------------------------------------------------------
# oracle self-consistency on random models


def test_oracle_minimum_is_valid_and_tight():
    rng = random.Random(101)
    for _ in range(25):
        nf = rng.randint(1, 5)
        feats = tuple(f"x{i}" for i in range(nf))
        t = rand_dt(rng, feats)
        e = rand_example(rng, feats)
        for kind in ("lAXp", "lCXp"):
            q = ExplanationQuery(kind, "subset", e)
            got = oracle_min(t, q)
            if got is None:
                assert kind == "lCXp"
                continue
            assert is_explanation(t, q, got)
            # nothing strictly smaller is valid
            if got.size:
                smaller = ExplanationQuery(kind, "cardinality", e, k=got.size - 1)
                assert oracle_min(t, smaller) is None
        for kind, cls in (("gAXp", 0), ("gAXp", 1), ("gCXp", 0), ("gCXp", 1)):
            q = ExplanationQuery(kind, "subset", cls)
            got = oracle_min(t, q)
            if got is not None:
                assert is_explanation(t, q, got)


def test_global_duality():
    # a class-c abductive assignment is exactly a contrastive one for 1-c
    rng = random.Random(55)
    for _ in range(20):
        feats = tuple(f"x{i}" for i in range(rng.randint(1, 4)))
        t = rand_dt(rng, feats)
        for c in (0, 1):
            ga = oracle_min(t, ExplanationQuery("gAXp", "subset", c))
            gc = oracle_min(t, ExplanationQuery("gCXp", "subset", 1 - c))
            assert (ga is None) == (gc is None)
            if ga is not None:
                assert ga == gc


def test_monotone_validity():
    rng = random.Random(77)
    for _ in range(15):
        feats = tuple(f"x{i}" for i in range(rng.randint(2, 5)))
        t = rand_dt(rng, feats)
        e = rand_example(rng, feats)
        have = sorted(t.features())
        if not have:
            continue
        q = ExplanationQuery("lAXp", "subset", e)
        got = oracle_min(t, q)
        assert got is not None
        supers = set(got.features) | {have[0], have[-1]}
        assert is_explanation(t, q, Witness.of_features(supers))


# ---------------------------------------------------------------------------
# JSON


def test_query_round_trip(fig1_e):
    for q in (
        ExplanationQuery("lAXp", "subset", fig1_e),
        ExplanationQuery("lCXp", "cardinality", fig1_e, k=2),
        ExplanationQuery("gAXp", "subset", 1),
        ExplanationQuery("gCXp", "cardinality", 0, k=0),
    ):
        assert query_from_json(query_to_json(q)) == q
    with pytest.raises(ModelError):
        query_from_json({"kind": "lAXp", "minimality": "subset"})


def test_witness_round_trip():
    w1 = Witness.of_features(("a", "b"))
    w2 = Witness.of_assignment({"a": 1})
    assert witness_from_json(witness_to_json(w1)) == w1
    assert witness_from_json(witness_to_json(w2)) == w2
    assert witness_to_json(w1) == ["a", "b"]
    assert witness_to_json(w2) == {"a": 1}
    with pytest.raises(ModelError):
        witness_from_json("ab")


# (sha256, label calls) of test_oracle_calls_are_pinned; changes only when
# the oracle asks its classifier or its label for other points, or answers
# otherwise
ORACLE_CALLS = ("a84c358aeeb7071583e771c4776678335ea0e842b8f2b84cc67a20ee0ebea7b2", 4914)


def test_oracle_calls_are_pinned(monkeypatch):
    """Seeded queries of all four kinds through `minimum`, `holds` and
    `subset_minimal` on oracles over random trees and lists: a sha256 of
    every point each classifier receives (in order, as the dict it gets)
    and every answer, and the number of `label` calls, counted by a
    `label` patched on the class after the oracles are built."""
    rng = random.Random(223)
    feats = [f"x{i}" for i in range(5)]
    h = hashlib.sha256()

    def oracle_over(model):
        def classify_fn(e):
            h.update(repr(list(e.items())).encode())
            return classify(model, e)

        return FunctionOracle(feats, classify_fn)

    oracles = [oracle_over((rand_dt if i % 2 else rand_dl)(rng, feats)) for i in range(8)]
    calls = []
    label = FunctionOracle.label

    def counted_label(self, bits):
        calls.append(bits)
        return label(self, bits)

    monkeypatch.setattr(FunctionOracle, "label", counted_label)
    for oracle in oracles:
        for kind in KINDS:
            for k in (None, rng.randint(0, 5)):
                local = kind in ("lAXp", "lCXp")
                target = rand_example(rng, feats) if local else rng.randint(0, 1)
                q = ExplanationQuery(kind, "subset" if k is None else "cardinality", target, k)
                picked = [f for f in feats if rng.random() < 0.5]
                w = (Witness.of_features(picked) if local
                     else Witness.of_assignment({f: rng.randint(0, 1) for f in picked}))
                answers = (oracle.minimum(q), oracle.holds(q, w), oracle.subset_minimal(q, w))
                h.update(repr(answers).encode())
    assert (h.hexdigest(), len(calls)) == ORACLE_CALLS


def test_oracle_lcxp_minimum_costs_three_lookups_per_candidate(monkeypatch):
    # a constant list over 12 features: each of the 12 singleton candidates
    # looks up the target and its 2 completions, and none is a witness
    feats = [f"f{i:02d}" for i in range(12)]
    const = DecisionList([([(f, 1) for f in feats], 0), ([], 0)])
    oracle = FunctionOracle(model_features(const), lambda e: classify(const, e))
    lookups = []
    label = FunctionOracle.label

    def counted_label(self, bits):
        lookups.append(bits)
        return label(self, bits)

    monkeypatch.setattr(FunctionOracle, "label", counted_label)
    q = ExplanationQuery("lCXp", "cardinality", {f: 0 for f in feats}, k=1)
    assert oracle.minimum(q) is None
    assert len(lookups) <= 1 + 12 * 3


def test_table_oracle_lcxp_minimum_labels_the_target_once(fig1, fig1_e, monkeypatch):
    from xbool.explain import TableOracle
    from xbool.tables import _oracle_for

    oracle = _oracle_for(fig1, 20)
    labelled = []
    label = TableOracle.label

    def counted_label(self, bits):
        labelled.append(bits)
        return label(self, bits)

    monkeypatch.setattr(TableOracle, "label", counted_label)
    q = ExplanationQuery("lCXp", "cardinality", fig1_e, k=3)
    assert oracle.minimum(q) == Witness.of_features(["y"])
    assert labelled == [oracle.bits_of(fig1_e)]

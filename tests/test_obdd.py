"""Diagram algorithms checked against the exhaustive oracle."""

import itertools
import json
import random

import pytest

from xbool.circuits import compile_obdd, compile_obdd_ensemble_ordered
from xbool.cli import main
from xbool.errors import BudgetExceeded, Homogeneous, ModelError, NotOrdered
from xbool.explain import (
    ExplanationQuery,
    Witness,
    is_explanation,
    oracle_min,
    verify_subset_minimal,
)
from xbool.models import (
    DecisionTree,
    DtInner,
    DtLeaf,
    Ensemble,
    Obdd,
    ObddNode,
    classify,
    dumps_model,
    is_complete,
    loads_model,
    obdd_width,
)
from xbool.obdd import (
    complete_obdd,
    dt_to_obdd,
    obdd_check,
    obdd_ensemble_product,
    obdd_lcxp_check,
    obdd_min_lcxp,
    obdd_subset_min,
    obdd_xp_search,
)
from xbool.obdd_product import _rebase

from helpers import all_examples, models_equal, rand_example, rand_obdd, rand_sparse_obdd


def _single(f: str) -> Obdd:
    return Obdd({"s": ObddNode(f, "t0", "t1")}, "s", "t0", "t1", (f,))


def _const(label: int) -> Obdd:
    return Obdd({}, "t1" if label else "t0", "t0", "t1", ())


# ---------------------------------------------------------------------------
# obdd_check


def test_check_xor_laxp(xor_obdd):
    e = {"f1": 0, "f2": 0}
    q = ExplanationQuery("lAXp", "subset", e)
    assert obdd_check(xor_obdd, q, Witness.of_features(("f1", "f2")))
    assert not obdd_check(xor_obdd, q, Witness.of_features(("f1",)))


def test_check_empty_gcxp_iff_sink_unreachable(xor_obdd):
    empty = Witness.of_assignment({})
    assert not obdd_check(xor_obdd, ExplanationQuery("gCXp", "subset", 0), empty)
    assert obdd_check(_const(0), ExplanationQuery("gCXp", "subset", 1), empty)


def test_check_answers_lcxp_like_lcxp_check(xor_obdd):
    # obdd_check is total over the four kinds: lCXp takes the walk of
    # obdd_lcxp_check, and the empty set never changes the class
    rng = random.Random(19)
    feats = ("x0", "x1", "x2")
    diagrams = [xor_obdd] + [make(rng, feats) for make in (rand_obdd, rand_sparse_obdd) * 6]
    for o in diagrams:
        names = sorted(o.features())
        for e in all_examples(names):
            q = ExplanationQuery("lCXp", "subset", e)
            assert not obdd_check(o, q, Witness.of_features(()))
            for size in range(len(names) + 1):
                for combo in itertools.combinations(names, size):
                    w = Witness.of_features(combo)
                    got = obdd_check(o, q, w)
                    assert got == obdd_lcxp_check(o, e, combo) == is_explanation(o, q, w)


def test_check_completes_sparse_input():
    o = Obdd({"s": ObddNode("f1", "t0", "t1")}, "s", "t0", "t1", ("f1", "f2"))
    q = ExplanationQuery("lAXp", "subset", {"f1": 1, "f2": 0})
    assert obdd_check(o, q, Witness.of_features(("f1",)))


def test_lcxp_check_matches_oracle():
    rng = random.Random(67)
    for _ in range(30):
        feats = tuple(f"x{i}" for i in range(rng.randint(1, 5)))
        o = rand_obdd(rng, feats)
        e = rand_example(rng, feats)
        q = ExplanationQuery("lCXp", "subset", e)
        names = sorted(o.features())
        for size in range(0, len(names) + 1):
            for combo in itertools.combinations(names, size):
                got = obdd_lcxp_check(o, e, combo)
                want = is_explanation(o, q, Witness.of_features(combo))
                assert got == want


def test_check_matches_oracle_randomly():
    rng = random.Random(71)
    for _ in range(25):
        feats = tuple(f"x{i}" for i in range(rng.randint(1, 5)))
        o = rand_obdd(rng, feats)
        e = rand_example(rng, feats)
        names = sorted(o.features())
        qa = ExplanationQuery("lAXp", "subset", e)
        for _ in range(6):
            sub = Witness.of_features(rng.sample(names, rng.randint(0, len(names))))
            assert obdd_check(o, qa, sub) == is_explanation(o, qa, sub)
        for cls in (0, 1):
            for kind in ("gAXp", "gCXp"):
                q = ExplanationQuery(kind, "subset", cls)
                chosen = rng.sample(names, rng.randint(0, len(names)))
                tau = Witness.of_assignment({f: rng.randint(0, 1) for f in chosen})
                assert obdd_check(o, q, tau) == is_explanation(o, q, tau)


# ---------------------------------------------------------------------------
# obdd_min_lcxp


def test_min_lcxp_anchors(xor_obdd, and_obdd):
    assert obdd_min_lcxp(xor_obdd, {"f1": 0, "f2": 0}).size == 1
    got = obdd_min_lcxp(and_obdd, {"f1": 0, "f2": 0})
    assert got == Witness.of_features(("f1", "f2"))
    with pytest.raises(Homogeneous):
        obdd_min_lcxp(_const(1), {})


def test_min_lcxp_matches_oracle():
    rng = random.Random(73)
    for _ in range(50):
        feats = tuple(f"x{i}" for i in range(rng.randint(1, 6)))
        for o in (rand_obdd(rng, feats), rand_sparse_obdd(rng, feats)):
            e = rand_example(rng, feats)
            q = ExplanationQuery("lCXp", "subset", e)
            want = oracle_min(o, q)
            try:
                got = obdd_min_lcxp(o, e)
            except Homogeneous:
                got = None
            assert (got is None) == (want is None)
            if got is not None:
                assert got.size == want.size
                assert is_explanation(o, q, got)
                least = ExplanationQuery("lCXp", "cardinality", e, k=len(feats))
                assert got == oracle_min(o, least)


# ---------------------------------------------------------------------------
# obdd_subset_min


def test_subset_min_anchors(xor_obdd):
    got = obdd_subset_min(xor_obdd, ExplanationQuery("gAXp", "subset", 1))
    assert got is not None and got.size == 2
    got = obdd_subset_min(_single("f"), ExplanationQuery("gAXp", "subset", 1))
    assert got == Witness.of_assignment({"f": 1})
    e = {"f1": 0, "f2": 0}
    got = obdd_subset_min(xor_obdd, ExplanationQuery("lAXp", "subset", e))
    assert got == Witness.of_features(("f1", "f2"))


def test_subset_min_verified_by_oracle():
    rng = random.Random(79)
    for _ in range(40):
        feats = tuple(f"x{i}" for i in range(rng.randint(1, 6)))
        for o in (rand_obdd(rng, feats), rand_sparse_obdd(rng, feats)):
            e = rand_example(rng, feats)
            queries = [
                ExplanationQuery("lAXp", "subset", e),
                ExplanationQuery("lCXp", "subset", e),
                ExplanationQuery("gAXp", "subset", rng.randint(0, 1)),
                ExplanationQuery("gCXp", "subset", rng.randint(0, 1)),
            ]
            for q in queries:
                got = obdd_subset_min(o, q)
                if got is None:
                    assert oracle_min(o, q) is None
                else:
                    assert verify_subset_minimal(o, q, got), (q.kind, got)


# ---------------------------------------------------------------------------
# obdd_xp_search


def test_xp_search_anchors(xor_obdd):
    e = {"f1": 0, "f2": 0}
    assert obdd_xp_search(xor_obdd, ExplanationQuery("lAXp", "cardinality", e, k=1)) is None
    got = obdd_xp_search(xor_obdd, ExplanationQuery("gAXp", "cardinality", 0, k=2))
    assert got == Witness.of_assignment({"f1": 0, "f2": 0})
    q = ExplanationQuery("lAXp", "cardinality", {}, k=0)
    assert obdd_xp_search(_const(1), q) == Witness.of_features(())
    with pytest.raises(ModelError):
        obdd_xp_search(xor_obdd, ExplanationQuery("lAXp", "subset", e))


def test_xp_search_sizes_match_oracle():
    rng = random.Random(83)
    for _ in range(25):
        feats = tuple(f"x{i}" for i in range(rng.randint(1, 5)))
        for o in (rand_obdd(rng, feats), rand_sparse_obdd(rng, feats)):
            e = rand_example(rng, feats)
            k = rng.randint(0, len(feats))
            queries = [
                ExplanationQuery("lAXp", "cardinality", e, k=k),
                ExplanationQuery("lCXp", "cardinality", e, k=k),
                ExplanationQuery("gAXp", "cardinality", rng.randint(0, 1), k=k),
                ExplanationQuery("gCXp", "cardinality", rng.randint(0, 1), k=k),
            ]
            for q in queries:
                got = obdd_xp_search(o, q)
                want = oracle_min(o, q)
                assert (got is None) == (want is None), q.kind
                if got is not None:
                    assert got.size == want.size
                    assert is_explanation(o, q, got)


# ---------------------------------------------------------------------------
# obdd_ensemble_product


def test_product_of_three_singletons_is_majority():
    ens = Ensemble(
        [_single("f1"), _single("f2"), _single("f3")],
        shared_order=("f1", "f2", "f3"),
    )
    prod = obdd_ensemble_product(ens)
    assert is_complete(prod)
    for e in all_examples(("f1", "f2", "f3")):
        assert classify(prod, e) == int(sum(e.values()) >= 2)


def test_product_of_one_is_a_completed_copy(xor_obdd):
    prod = obdd_ensemble_product(Ensemble([xor_obdd]))
    assert is_complete(prod)
    assert models_equal(prod, xor_obdd, ("f1", "f2"))
    assert prod.size() <= xor_obdd.size()


def test_product_size_bound_and_equivalence():
    rng = random.Random(89)
    for _ in range(25):
        feats = tuple(f"x{i}" for i in range(rng.randint(1, 6)))
        ell = rng.choice((1, 3))
        elems = [rand_obdd(rng, feats) for _ in range(ell)]
        ens = Ensemble(elems)
        prod = obdd_ensemble_product(ens)
        assert is_complete(prod)
        assert models_equal(prod, ens, feats)
        m = max(el.size() for el in elems)
        assert prod.size() <= m ** ell


def test_product_requires_common_or_shared_order():
    a = _single("a")
    b = _single("b")
    c = _single("c")
    with pytest.raises(NotOrdered):
        obdd_ensemble_product(Ensemble([a, b, c]))
    prod = obdd_ensemble_product(Ensemble([a, b, c], shared_order=("a", "b", "c")))
    for e in all_examples(("a", "b", "c")):
        assert classify(prod, e) == int(sum(e.values()) >= 2)


def test_product_rejects_wrong_kind(and_tree):
    with pytest.raises(ModelError):
        obdd_ensemble_product(Ensemble([and_tree]))


def test_product_respects_node_cap():
    rng = random.Random(97)
    feats = tuple(f"x{i}" for i in range(8))
    elems = [rand_obdd(rng, feats, width=4) for _ in range(3)]
    with pytest.raises(BudgetExceeded):
        obdd_ensemble_product(Ensemble(elems), node_cap=2)


# ---------------------------------------------------------------------------
# dt_to_obdd


def test_tree_conversion_and(and_tree):
    o = dt_to_obdd(and_tree)
    assert is_complete(o)
    assert models_equal(and_tree, o, ("f1", "f2"))


def test_tree_conversion_constant():
    o = dt_to_obdd(DecisionTree({"r": DtLeaf(1)}, "r"))
    assert classify(o, {}) == 1
    assert o.start == o.t1


def test_tree_conversion_random():
    rng = random.Random(103)
    from helpers import rand_dt, rand_ordered_dt

    for _ in range(30):
        feats = tuple(f"x{i}" for i in range(rng.randint(1, 6)))
        t = rand_ordered_dt(rng, feats)
        o = dt_to_obdd(t)
        assert is_complete(o)
        assert models_equal(t, o, sorted(t.features()))
    # branch-order conflicts are detected
    conflicted = DecisionTree(
        {
            "r": DtInner("a", "p", "q"),
            "p": DtInner("b", "l0", "l1"),
            "q": DtInner("c", "m0", "m1"),
            "l0": DtLeaf(0),
            "l1": DtInner("c", "c0", "c1"),
            "m0": DtLeaf(0),
            "m1": DtInner("b", "b0", "b1"),
            "c0": DtLeaf(0),
            "c1": DtLeaf(1),
            "b0": DtLeaf(1),
            "b1": DtLeaf(0),
        },
        "r",
    )
    with pytest.raises(NotOrdered):
        dt_to_obdd(conflicted)


def test_a_diagram_is_completed_once(monkeypatch, capsys, tmp_path):
    # "s" reads a and skips b on its 1-arc, so completion pads one node
    skips = Obdd(
        {"s": ObddNode("a", "t0", "c"), "c": ObddNode("c", "t0", "t1")},
        "s", "t0", "t1", ("a", "b", "c"),
    )
    path = tmp_path / "skips.json"
    path.write_text(dumps_model(skips))
    built = []
    init = Obdd.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Obdd, "__init__", counted)
    q = {"kind": "lAXp", "minimality": "subset", "target": {"a": 1, "b": 0, "c": 1}}
    assert main(["explain", "--model", str(path), "--query", json.dumps(q)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["algorithm"] == "obdd" and payload["witness"] == ["a", "c"]
    assert len(built) == 2  # the load and one completion
    loaded = loads_model(path.read_text())
    built.clear()
    compile_obdd(loaded, 1)
    assert len(built) == 1  # the walk and the width share one completion
    done = complete_obdd(loaded)
    assert len(built) == 1 and is_complete(done) and not is_complete(loaded)
    assert complete_obdd(done) is done


def test_ensemble_members_are_rebased_only_off_the_shared_order(monkeypatch):
    # members already reading the ensemble's order are walked as they
    # are, so each one's completion is built once and then remembered
    order = ("a", "b", "c")
    members = [
        Obdd({"s": ObddNode("a", "t0", "c"), "c": ObddNode("c", "t0", "t1")},
             "s", "t0", "t1", order),
        Obdd({"s": ObddNode("b", "t0", "t1")}, "s", "t0", "t1", order),
        Obdd({"s": ObddNode("a", "c", "t1"), "c": ObddNode("c", "t1", "t0")},
             "s", "t0", "t1", order),
    ]
    ens = Ensemble(members)
    built = []
    init = Obdd.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Obdd, "__init__", counted)
    compile_obdd_ensemble_ordered(ens, 1)
    assert len(built) == 3  # one completion per member
    built.clear()
    compile_obdd_ensemble_ordered(ens, 0)
    assert built == []
    product = obdd_ensemble_product(ens)
    assert len(built) == 1  # the product itself
    assert models_equal(product, ens, order)
    wider = order + ("d",)
    built.clear()
    got, rebased = _rebase(Ensemble(members, shared_order=wider))
    assert got == wider and len(built) == 3
    assert all(el.order == wider for el in rebased)

"""Hard-instance generators checked against exhaustive ground truth."""

import hashlib
import itertools
import random
import re

import pytest

from xbool.dslist import dl_min_lcxp_branch
from xbool.dt import dt_check
from xbool.errors import BudgetExceeded, ModelError, SharedFeature
from xbool.explain import ExplanationQuery, Witness, is_explanation, oracle_min
from xbool.gadgets import (
    GENERATORS,
    MccInstance,
    _pair_leaves,
    _pair_state,
    _unfold,
    dt_from_examples,
    gen_hitting_set_laxp,
    gen_laxp_to_gaxp,
    gen_maj_hom,
    gen_mcc_ds,
    gen_mcc_ds_ensemble,
    gen_mcc_dt_ensemble,
    gen_mcc_gaxp_dt,
    gen_mcc_obdd_maj,
    gen_taut_ds,
    mcc_from_json,
    mcc_to_json,
    obdd_agreement_counter,
    obdd_conjoin,
    obdd_primitive,
    vertex_feature,
)
from xbool.models import (
    DecisionList,
    DtLeaf,
    Obdd,
    classify,
    dumps_canonical,
    dumps_model,
    is_complete,
    model_to_json,
    obdd_width,
)

from helpers import (
    all_examples,
    gaxp_within,
    has_multicolored_clique,
    min_hitting_set,
    rand_obdd,
    random_mcc,
)

K3 = MccInstance(
    [("a", 0), ("b", 1), ("c", 2)], [("a", "b"), ("a", "c"), ("b", "c")]
)
PATH3 = MccInstance([("a", 0), ("b", 1), ("c", 2)], [("a", "b"), ("b", "c")])
EDGE2 = MccInstance([("a", 0), ("b", 1)], [("a", "b")])
ISO2 = MccInstance([("a", 0), ("b", 1)], [])


def _clique_indicator(g: MccInstance, e) -> int:
    ones = [v for v in g.vertices if e[vertex_feature(v)] == 1]
    return int(
        len(ones) == g.k
        and len({g.part[v] for v in ones}) == g.k
        and all(g.has_edge(u, v) for u, v in itertools.combinations(ones, 2))
    )


# ---------------------------------------------------------------------------
# graph instances


def test_mcc_validation():
    with pytest.raises(ModelError):
        MccInstance([("a", 0), ("a", 1)])
    with pytest.raises(ModelError):
        MccInstance([("a", 0), ("b", 0)], [("a", "b")])  # same part
    with pytest.raises(ModelError):
        MccInstance([("a", 0)], [("a", "a")])
    with pytest.raises(ModelError):
        MccInstance([("a", 0)], [("a", "b")])


def test_mcc_normalizes_edges():
    g = MccInstance([("a", 0), ("b", 1)], [("b", "a"), ("a", "b")])
    assert g.edges == (("a", "b"),)
    assert g.has_edge("b", "a")
    assert g.k == 2


def test_mcc_neighbours_and_edges_read_one_adjacency():
    g = MccInstance([("c", 2), ("a", 0), ("b", 1)], [("b", "c"), ("a", "c"), ("c", "b")])
    assert g.edges == (("c", "b"), ("c", "a"))
    assert g.neighbors("c") == ("a", "b") and g.neighbors("b") == ("c",)
    assert g.has_edge("a", "c") and g.has_edge("c", "a") and not g.has_edge("a", "b")
    assert g.non_edges() == [("a", "b")]


def test_mcc_json_round_trip():
    rng = random.Random(3)
    g = random_mcc(rng, 5, 2)
    assert mcc_to_json(mcc_from_json(mcc_to_json(g))) == mcc_to_json(g)


# ---------------------------------------------------------------------------
# dt_from_examples


def test_dt_from_examples_accepts_exactly_the_listed_rows():
    rng = random.Random(7)
    for _ in range(60):
        nf = rng.randint(1, 5)
        feats = tuple(f"x{i}" for i in range(nf))
        pool = list(itertools.product((0, 1), repeat=nf))
        rng.shuffle(pool)
        rows = [dict(zip(feats, bits)) for bits in pool[: rng.randint(0, 6)]]
        t = dt_from_examples(rows, feats)
        accept = {tuple(r[f] for f in feats) for r in rows}
        for e in all_examples(feats):
            assert classify(t, e) == (tuple(e[f] for f in feats) in accept)
        n_leaves = sum(1 for n in t.nodes.values() if isinstance(n, DtLeaf))
        assert n_leaves <= 2 * max(1, len(rows)) * nf + 1


def test_dt_from_empty_example_list_is_constant_zero():
    t = dt_from_examples([], ("x",))
    assert classify(t, {"x": 0}) == 0 and classify(t, {"x": 1}) == 0


# ---------------------------------------------------------------------------
# hitting set


def test_hitting_set_anchors():
    tree, e0, k = gen_hitting_set_laxp(["1", "2"], [["1"], ["2"]])
    assert classify(tree, e0) == 0 and k == 2
    got = oracle_min(tree, ExplanationQuery("lAXp", "cardinality", e0, k=k))
    assert got is not None and got.size == 2
    tree, e0, k = gen_hitting_set_laxp(["1", "2"], [["1"]])
    got = oracle_min(tree, ExplanationQuery("lAXp", "cardinality", e0, k=k))
    assert got == Witness.of_features(("f1",))
    # a common element is a singleton hitting set
    tree, e0, k = gen_hitting_set_laxp(["1", "2", "3"], [["1", "2"], ["1", "3"]])
    got = oracle_min(tree, ExplanationQuery("lAXp", "cardinality", e0, k=k))
    assert got is not None and got.size == 1


def test_hitting_set_matches_bruteforce():
    rng = random.Random(17)
    for _ in range(30):
        nu = rng.randint(1, 6)
        universe = [str(i) for i in range(nu)]
        sets = [
            rng.sample(universe, rng.randint(1, nu))
            for _ in range(rng.randint(1, 5))
        ]
        tree, e0, k = gen_hitting_set_laxp(universe, sets)
        got = oracle_min(tree, ExplanationQuery("lAXp", "cardinality", e0, k=k))
        want = min_hitting_set(universe, sets)
        assert got is not None and got.size == want


def test_hitting_set_validates_input():
    with pytest.raises(ModelError):
        gen_hitting_set_laxp(["1", "1"], [["1"]])
    with pytest.raises(ModelError):
        gen_hitting_set_laxp(["1"], [[]])
    with pytest.raises(ModelError):
        gen_hitting_set_laxp(["1"], [["2"]])


# ---------------------------------------------------------------------------
# global-abductive tree build


def test_gaxp_tree_anchors():
    tree, cls, k = gen_mcc_gaxp_dt(K3)
    assert cls == 0 and k == 3
    tau = {vertex_feature(v): 1 for v in ("a", "b", "c")}
    q = ExplanationQuery("gAXp", "cardinality", 0, k=3)
    assert dt_check(tree, q, Witness.of_assignment(tau))
    assert gaxp_within(tree, 3)
    assert not gaxp_within(gen_mcc_gaxp_dt(PATH3)[0], 3)
    assert gaxp_within(gen_mcc_gaxp_dt(EDGE2)[0], 2)
    assert not gaxp_within(gen_mcc_gaxp_dt(ISO2)[0], 2)


def test_gaxp_tree_matches_clique_truth():
    rng = random.Random(19)
    for _ in range(8):
        g = random_mcc(rng, rng.randint(2, 4), 2)
        tree, _, k = gen_mcc_gaxp_dt(g)
        assert gaxp_within(tree, k) == has_multicolored_clique(g)


def test_gaxp_tree_budget_guard():
    with pytest.raises(BudgetExceeded):
        gen_mcc_gaxp_dt(K3, max_k=2)


@pytest.mark.parametrize("generate, args, cap", [
    (gen_mcc_gaxp_dt, (K3,), "max_k"),
    (gen_mcc_gaxp_dt, (K3,), "node_cap"),
    (gen_laxp_to_gaxp, (obdd_primitive("exists", ("a", "b")), {"a": 1, "b": 0}, 1), "node_cap"),
], ids=["gaxp max_k", "gaxp node_cap", "lift node_cap"])
def test_a_generator_refuses_a_negative_cap(generate, args, cap):
    # a negative cap is a malformed input, as the `generate` params say,
    # not a construction over its budget
    with pytest.raises(ModelError) as refused:
        generate(*args, **{cap: -1})
    assert str(refused.value) == f"{cap} must be non-negative, got -1"


def test_gaxp_pair_leaves_are_counted_without_building():
    rng = random.Random(47)
    cases = []
    for _ in range(60):
        k = rng.randint(2, 4)
        g = random_mcc(rng, rng.randint(k, 9), k, density=rng.random())
        cases += [(g, i, j) for i, j in itertools.permutations(range(k), 2)]
    # one part-1 vertex joined to 1,100 part-0 vertices: a pair tree
    # deeper than the default recursion limit
    deep = MccInstance(
        [(f"a{i}", 0) for i in range(1100)] + [("b0", 1)],
        [(f"a{i}", "b0") for i in range(1100)],
    )
    cases.append((deep, 1, 0))
    for g, i, j in cases:
        assert _pair_leaves(g, i, j) == len(_unfold(_pair_state(g, i, j)).leaves())


def _generated_trees():
    """The trees of the four tree generators on seeded inputs, among them
    empty parts, duplicate examples and vertices without neighbours."""
    rng = random.Random(1313)
    for _ in range(40):
        nf = rng.randint(0, 5)
        feats = [f"x{i}" for i in range(nf)]
        pool = [dict(zip(feats, bits)) for bits in itertools.product((0, 1), repeat=nf)]
        rows = [rng.choice(pool) for _ in range(rng.randint(0, 8))] if pool else []
        yield dt_from_examples(rows, feats)
    # True, False, 1.0 and 0.0 pass the 0/1 check and are read by truthiness
    yield dt_from_examples([{"a": True, "b": 0.0}, {"a": 1.0, "b": False}], ("b", "a"))
    for _ in range(30):
        universe = [str(u) for u in range(rng.randint(1, 7))]
        sets = [rng.sample(universe, rng.randint(1, len(universe)))
                for _ in range(rng.randint(1, 6))]
        sets += rng.sample(sets, rng.randint(0, len(sets)))
        yield gen_hitting_set_laxp(universe, sets)[0]
    graphs = [
        # part 1 empty; c and d have no neighbours
        MccInstance([("a", 0), ("b", 2), ("c", 2), ("d", 0)], [("a", "b")]),
        MccInstance([("a", 0), ("b", 1), ("c", 1)], []),
        K3, PATH3, EDGE2, ISO2,
    ]
    for _ in range(30):
        k = rng.randint(2, 4)
        graphs.append(random_mcc(rng, rng.randint(k, 8), k, density=rng.random()))
    for g in graphs:
        yield gen_mcc_dt_ensemble(g)
        yield gen_mcc_gaxp_dt(g)[0]


def test_tree_generators_match_the_pinned_digest():
    digest = hashlib.sha256()
    for model in _generated_trees():
        digest.update(dumps_model(model).encode())
    assert digest.hexdigest() == "fd72c4f9b9fa4419a823065614de8d7c6b71089bf836c0096e5e17d3006e723e"


# ---------------------------------------------------------------------------
# tree-ensemble reduction


def test_dt_ensemble_counts_and_semantics():
    rng = random.Random(23)
    for _ in range(12):
        k = rng.choice((2, 3))
        g = random_mcc(rng, rng.randint(k, 5), k)
        ens = gen_mcc_dt_ensemble(g)
        assert len(ens.elements) == 2 * (k + k * (k - 1) // 2) - 1
        feats = sorted(ens.features())
        seen_pos = False
        for e in all_examples(feats):
            got = classify(ens, e)
            assert got == _clique_indicator(g, e)
            seen_pos = seen_pos or got
        assert seen_pos == has_multicolored_clique(g)


def test_dt_ensemble_k2_edge_has_five_elements():
    ens = gen_mcc_dt_ensemble(EDGE2)
    assert len(ens.elements) == 5
    e = {vertex_feature(v): 1 for v in ("a", "b")}
    assert classify(ens, e) == 1


# ---------------------------------------------------------------------------
# homogeneity ensembles


def test_maj_hom_families_agree_and_track_cliques():
    rng = random.Random(29)
    for _ in range(12):
        k = rng.choice((1, 2, 3))
        g = random_mcc(rng, rng.randint(max(1, k), 5), k)
        fams = {fam: gen_maj_hom(g, family=fam) for fam in ("dt", "ds", "obdd")}
        n = len(g.vertices)
        nonedges = sum(
            1
            for u, v in itertools.combinations(g.vertices, 2)
            if not g.has_edge(u, v)
        )
        base = nonedges - n + 2 * k - 1
        feats = [vertex_feature(v) for v in g.vertices]
        clique_seen = False
        for e in all_examples(feats):
            labels = {fam: classify(ens, e) for fam, ens in fams.items()}
            assert len(set(labels.values())) == 1
            ones = [v for v in g.vertices if e[vertex_feature(v)] == 1]
            if labels["dt"] == 1 and len(ones) <= k:
                clique_seen = True
                assert len(ones) == k
                assert all(
                    g.has_edge(u, v) for u, v in itertools.combinations(ones, 2)
                )
        for ens in fams.values():
            assert len(ens.elements) == nonedges + n + abs(base)
            assert classify(ens, {f: 0 for f in feats}) == 0
        assert clique_seen == has_multicolored_clique(g)


def test_maj_hom_anchor_counts():
    assert len(gen_maj_hom(K3, family="dt").elements) == 5
    assert len(gen_maj_hom(PATH3, family="ds").elements) == 7
    with pytest.raises(ModelError):
        gen_maj_hom(K3, family="nope")


# ---------------------------------------------------------------------------
# decision-set reductions


def test_taut_ds():
    one_var = gen_taut_ds([[("x", 0)], [("x", 1)]])
    assert classify(one_var, {"x": 0}) == 1
    assert classify(one_var, {"x": 1}) == 1
    not_taut = gen_taut_ds([[("x", 0), ("y", 0)]])
    assert classify(not_taut, {"x": 0, "y": 0}) == 1
    assert classify(not_taut, {"x": 1, "y": 0}) == 0
    empty = gen_taut_ds([])
    assert classify(empty, {}) == 0


def test_mcc_ds_and_ensemble_semantics():
    rng = random.Random(31)
    for _ in range(12):
        k = rng.choice((2, 3))
        g = random_mcc(rng, rng.randint(k, 5), k)
        s = gen_mcc_ds(g)
        ens = gen_mcc_ds_ensemble(g)
        assert len(ens.elements) == 2 * k + 1
        assert (
            max((len(t) for el in ens.elements for t in el.terms), default=0) <= 2
        )
        feats = [vertex_feature(v) for v in g.vertices]
        for e in all_examples(feats):
            want = _clique_indicator(g, e)
            assert classify(s, e) == want
            assert classify(ens, e) == want
        assert classify(s, {f: 0 for f in feats}) == 0


def test_mcc_ds_single_vertex_single_flip():
    dot = MccInstance([("a", 0)])
    s = gen_mcc_ds(dot)
    f = vertex_feature("a")
    assert classify(s, {f: 0}) == 0 and classify(s, {f: 1}) == 1
    ens = gen_mcc_ds_ensemble(dot)
    assert len(ens.elements) == 3
    assert classify(ens, {f: 0}) == 0 and classify(ens, {f: 1}) == 1


# ---------------------------------------------------------------------------
# diagram primitives


@pytest.mark.parametrize(
    "kind,accept",
    [
        ("exactly_one", lambda ones, nf: ones == 1),
        ("exists", lambda ones, nf: ones >= 1),
        ("all_equal", lambda ones, nf: ones in (0, nf)),
    ],
)
def test_primitive_truth_tables(kind, accept):
    for nf in range(1, 6):
        feats = tuple(f"x{i}" for i in range(nf))
        o = obdd_primitive(kind, feats)
        assert is_complete(o) and o.order == feats
        assert obdd_width(o) <= 3
        for e in all_examples(feats):
            assert classify(o, e) == int(accept(sum(e.values()), nf))


def test_primitive_iff_exists():
    for nf in range(0, 5):
        feats = tuple(f"x{i}" for i in range(nf))
        o = obdd_primitive("iff_exists", feats, "y")
        assert is_complete(o) and o.order == feats + ("y",)
        assert obdd_width(o) <= 3
        for e in all_examples(feats + ("y",)):
            assert classify(o, e) == int(e["y"] == int(any(e[f] for f in feats)))
    with pytest.raises(SharedFeature):
        obdd_primitive("iff_exists", ("a", "b"), "a")


def test_primitive_rejects_bad_input():
    with pytest.raises(ModelError):
        obdd_primitive("exists", ())
    with pytest.raises(ModelError):
        obdd_primitive("exists", ("a", "a"))
    with pytest.raises(ModelError):
        obdd_primitive("never_heard_of_it", ("a",))


# ---------------------------------------------------------------------------
# conjunction chaining


def test_conjoin_semantics_and_width():
    rng = random.Random(37)
    for _ in range(25):
        pieces = []
        offset = 0
        for _ in range(rng.randint(1, 4)):
            nf = rng.randint(1, 3)
            feats = tuple(f"x{offset + i}" for i in range(nf))
            offset += nf
            pieces.append(
                obdd_primitive(
                    rng.choice(("exactly_one", "exists", "all_equal")), feats
                )
            )
        o = obdd_conjoin(pieces)
        assert is_complete(o)
        assert obdd_width(o) <= max(obdd_width(p) for p in pieces) + 1
        assert o.order == tuple(f for p in pieces for f in p.order)
        for e in all_examples(o.order):
            assert classify(o, e) == int(all(classify(p, e) for p in pieces))


def test_conjoin_width_anchor():
    a = obdd_primitive("exactly_one", ("a1", "a2", "a3"))
    b = obdd_primitive("exactly_one", ("b1", "b2", "b3"))
    assert obdd_width(a) == 3
    assert obdd_width(obdd_conjoin([a, b])) == 4


def test_conjoin_rejects_shared_features():
    a = obdd_primitive("exactly_one", ("a1", "a2"))
    with pytest.raises(SharedFeature):
        obdd_conjoin([a, obdd_primitive("exists", ("a1",))])


def test_conjoin_of_nothing_accepts_everything():
    o = obdd_conjoin([])
    assert classify(o, {}) == 1


# ---------------------------------------------------------------------------
# diagram-ensemble reduction


def test_obdd_maj_k2_exhaustive():
    ens = gen_mcc_obdd_maj(EDGE2)
    assert len(ens.elements) == 3
    assert all(obdd_width(el) <= 4 for el in ens.elements)
    feats = sorted(ens.features())
    n, k, m = 2, 2, 1
    assert len(feats) == n * (k + 2) + 3 * m
    positives = []
    for e in all_examples(feats):
        if classify(ens, e):
            positives.append(sum(e.values()))
    assert positives == [3 * (k * (k - 1) // 2) + k * (k + 2)]
    assert classify(ens, {f: 0 for f in feats}) == 0


def test_obdd_maj_without_cross_edges_is_constant_zero():
    ens = gen_mcc_obdd_maj(ISO2)
    for e in all_examples(sorted(ens.features())):
        assert classify(ens, e) == 0


# ---------------------------------------------------------------------------
# agreement counter and the local-to-global lift


def test_agreement_counter_semantics():
    rng = random.Random(41)
    for _ in range(30):
        nf = rng.randint(0, 5)
        order = tuple(f"x{i}" for i in range(nf))
        e = {f: rng.randint(0, 1) for f in order}
        k = rng.randint(0, nf)
        out = rng.randint(0, 1)
        o = obdd_agreement_counter(e, k, order, out)
        assert is_complete(o) and obdd_width(o) <= k + 1
        for e2 in all_examples(order):
            agree = sum(1 for f in order if e2[f] == e[f])
            assert classify(o, e2) == (out if agree >= k else 1 - out)
    with pytest.raises(ModelError):
        obdd_agreement_counter({"x": 0}, 2, ("x",))


def test_agreement_counter_anchors():
    order = ("a", "b")
    e = {"a": 1, "b": 1}
    exact = obdd_agreement_counter(e, 2, order)
    assert [classify(exact, e2) for e2 in all_examples(order)] == [0, 0, 0, 1]
    loose = obdd_agreement_counter(e, 1, order)
    assert [classify(loose, e2) for e2 in all_examples(order)] == [0, 1, 1, 1]
    vacuous = obdd_agreement_counter(e, 0, order)
    assert all(classify(vacuous, e2) for e2 in all_examples(order))


@pytest.mark.parametrize("e, out_class, message", [
    ({"a": 2, "b": 1}, 1, "example value for 'a' must be 0 or 1"),
    ({"a": 1, "b": None}, 0, "example value for 'b' must be 0 or 1"),
    ({"a": 1}, 1, "example does not assign feature 'b'"),
    ({"a": 1, "b": 0}, 5, "out_class must be 0 or 1, got 5"),
    ({"a": 1, "b": 0}, None, "out_class must be 0 or 1, got None"),
])
def test_agreement_counter_refuses_a_non_bit(e, out_class, message):
    with pytest.raises(ModelError, match=re.escape(message)):
        obdd_agreement_counter(e, 1, ("a", "b"), out_class)


# every taker of a budget refuses what a query refuses, with its message
BUDGET_TAKERS = {
    "query": lambda k: ExplanationQuery("lAXp", "cardinality", {"x": 0}, k),
    "hitting_set": lambda k: gen_hitting_set_laxp(["1"], [["1"]], k=k),
    "lift": lambda k: gen_laxp_to_gaxp(obdd_primitive("exists", ("x",)), {"x": 0}, k),
    "branching": lambda k: dl_min_lcxp_branch(DecisionList([([("x", 1)], 1), ([], 0)]), {"x": 0}, k),
}


@pytest.mark.parametrize("k", [True, False, 1.5, "2", -1])
@pytest.mark.parametrize("taker", sorted(BUDGET_TAKERS))
def test_every_budget_taker_refuses_what_a_query_refuses(taker, k):
    message = f"budget must be a non-negative integer, got {k!r}"
    with pytest.raises(ModelError, match=re.escape(message)):
        BUDGET_TAKERS[taker](k)


def test_lift_preserves_answer_both_ways():
    rng = random.Random(43)
    for _ in range(30):
        nf = rng.randint(1, 4)
        feats = tuple(f"x{i}" for i in range(nf))
        o = rand_obdd(rng, feats, width=3)
        e = {f: rng.randint(0, 1) for f in feats}
        k = rng.randint(0, nf + 1)
        prod, c, kk = gen_laxp_to_gaxp(o, e, k)
        assert c == classify(o, e) and kk == k
        want = (
            oracle_min(o, ExplanationQuery("lAXp", "cardinality", e, k=k)) is not None
        )
        got_a = oracle_min(prod, ExplanationQuery("gAXp", "cardinality", c, k=k))
        got_c = oracle_min(prod, ExplanationQuery("gCXp", "cardinality", 1 - c, k=k))
        assert (got_a is not None) == want
        assert (got_c is not None) == want


def test_lift_anchors(xor_obdd, and_obdd):
    e = {"f1": 1, "f2": 1}
    prod, c, _ = gen_laxp_to_gaxp(and_obdd, e, 2)
    assert c == 1
    got = oracle_min(prod, ExplanationQuery("gAXp", "cardinality", 1, k=2))
    assert got is not None and got.size == 2
    prod, c, _ = gen_laxp_to_gaxp(xor_obdd, {"f1": 0, "f2": 0}, 1)
    assert oracle_min(prod, ExplanationQuery("gAXp", "cardinality", c, k=1)) is None


# ---------------------------------------------------------------------------
# pinned outputs of the diagram, rule-set and ensemble gadgets


def _gadget_outputs():
    """Text of what the gadgets other than the tree generators build on
    seeded inputs: each graph maker's model and printed query (or its
    refusal) on graphs with an empty part, a pair of parts without an
    edge or a single part, maj_hom in every family, conjunctions with
    constant pieces, primitives and agreement counters over zero to three
    features, the lift into either class, and the hitting-set and
    tautology makers' queries."""
    rng = random.Random(2601)
    graphs = [
        MccInstance([("a", 0)]),
        MccInstance([("a", 0), ("b", 0), ("c", 0)]),
        # part 1 empty; c and d have no neighbours
        MccInstance([("a", 0), ("b", 2), ("c", 2), ("d", 0)], [("a", "b")]),
        # no edge joins parts 0 and 2
        MccInstance([("a", 0), ("b", 1), ("c", 2), ("d", 1)], [("a", "b"), ("c", "d")]),
        K3, PATH3, EDGE2, ISO2,
    ]
    for _ in range(20):
        k = rng.randint(1, 3)
        graphs.append(random_mcc(rng, rng.randint(k, 6), k, density=rng.random()))
    graph_params = [(name, {}) for name in (
        "mcc_gaxp_dt", "mcc_dt_ensemble", "mcc_ds", "mcc_ds_ensemble", "mcc_obdd_maj")]
    graph_params += [("maj_hom", {"family": family})
                     for family in ("dt", "ds", "obdd", "nope", [])]
    for g in graphs:
        for name, extra in graph_params:
            try:
                model, query = GENERATORS[name]({"graph": mcc_to_json(g), **extra})
            except ModelError as refused:
                yield f"{name}: {refused}"
                continue
            yield dumps_model(model) + dumps_canonical(query)
    for _ in range(12):
        universe = [str(u) for u in range(rng.randint(1, 5))]
        sets = [rng.sample(universe, rng.randint(1, len(universe)))
                for _ in range(rng.randint(1, 4))]
        params = {"universe": universe, "sets": sets}
        if rng.random() < 0.5:
            params["k"] = rng.randint(0, 6)
        yield dumps_canonical(GENERATORS["hitting_set"](params)[1])
        terms = [[[f"x{rng.randint(0, 3)}", rng.randint(0, 1)]
                  for _ in range(rng.randint(1, 3))] for _ in range(rng.randint(0, 3))]
        try:
            model, query = GENERATORS["taut_ds"]({"terms": terms})
        except ModelError as refused:  # a term that sets a feature both ways
            yield f"taut_ds: {refused}"
            continue
        yield dumps_model(model) + dumps_canonical(query)
    zero, one = Obdd({}, "t0", "t0", "t1", ()), Obdd({}, "t1", "t0", "t1", ())
    for nf in range(4):
        feats = tuple(f"x{i}" for i in range(nf))
        for kind in ("exactly_one", "exists", "all_equal"):
            try:
                yield dumps_model(obdd_primitive(kind, feats))
            except ModelError as refused:
                yield f"{kind}: {refused}"
        yield dumps_model(obdd_primitive("iff_exists", feats, "y"))
        e = {f: rng.randint(0, 1) for f in feats}
        for k in range(nf + 1):
            for out in (0, 1):
                yield dumps_model(obdd_agreement_counter(e, k, feats, out))
    piece = obdd_primitive("exists", ("p0", "p1"))
    fixed = Obdd({}, "t1", "t0", "t1", ("q",))
    for pieces in ([], [zero], [one], [one, one], [zero, one], [one, piece], [piece, zero],
                   [one, piece, one], [piece, fixed], [fixed, one]):
        yield dumps_model(obdd_conjoin(pieces))
    lifted = set()
    for _ in range(16):
        feats = tuple(f"x{i}" for i in range(rng.randint(0, 3)))
        o = rand_obdd(rng, feats, width=3)
        e = {f: rng.randint(0, 1) for f in feats}
        for k in range(len(feats) + 2):
            params = {"model": model_to_json(o), "example": e, "k": k}
            model, query = GENERATORS["laxp_to_gaxp"](params)
            lifted.add(query["target"])
            yield dumps_model(model) + dumps_canonical(query)
    assert lifted == {0, 1}


def test_gadgets_match_the_pinned_digest():
    digest = hashlib.sha256()
    for text in _gadget_outputs():
        digest.update(text.encode())
    assert digest.hexdigest() == "94f5c748eeeec0a65c1cba7172c7c00fb50a176939c193785a0a9bcac4a0aad6"

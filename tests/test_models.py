"""Model construction, semantics, measurements, JSON round trips, and the
refusals and edge branches of the model and gadget builders."""

import json
import random

import pytest

from xbool.circuits import compile_obdd, eval_circuit
from xbool.errors import (
    ContradictoryTerm,
    EvenEnsemble,
    ModelError,
    NotOrdered,
    UndefinedFeature,
)
from xbool.explain import ExplanationQuery, Witness
from xbool.gadgets import (
    MccInstance,
    dt_from_examples,
    gen_hitting_set_laxp,
    gen_mcc_dt_ensemble,
    obdd_agreement_counter,
    obdd_primitive,
)
from xbool.models import (
    DecisionList,
    DecisionSet,
    DecisionTree,
    DtInner,
    DtLeaf,
    Ensemble,
    Obdd,
    ObddNode,
    Parameters,
    classify,
    complete_obdd,
    dumps_canonical,
    dumps_model,
    feature_order,
    flip,
    is_complete,
    loads_model,
    make_term,
    measure_parameters,
    model_features,
    model_from_json,
    model_to_json,
    obdd_width,
    reachable_sinks,
    restrict_dt,
    simplify_dt,
)
from xbool.obdd_order import dt_to_obdd

from helpers import all_examples, models_equal, rand_dt, rand_obdd, rand_sparse_obdd


# ---------------------------------------------------------------------------
# classify


def test_fig1_classifies_running_example(fig1, fig1_e):
    assert classify(fig1, fig1_e) == 0


def test_fig1_truth_table(fig1):
    # r1 catches x=y=1, r2 catches x=z=0, r3 catches y=0,z=1, else 1
    expected = {
        (0, 0, 0): 1,
        (0, 0, 1): 0,
        (0, 1, 0): 1,
        (0, 1, 1): 1,
        (1, 0, 0): 1,
        (1, 0, 1): 0,
        (1, 1, 0): 0,
        (1, 1, 1): 0,
    }
    for (x, y, z), want in expected.items():
        assert classify(fig1, {"x": x, "y": y, "z": z}) == want


def test_and_tree_semantics(and_tree):
    assert classify(and_tree, {"f1": 1, "f2": 1}) == 1
    for e in ({"f1": 0, "f2": 0}, {"f1": 0, "f2": 1}, {"f1": 1, "f2": 0}):
        assert classify(and_tree, e) == 0


def test_majority_of_three_trees():
    def single(f):
        return DecisionTree(
            {"r": DtInner(f, "z", "o"), "z": DtLeaf(0), "o": DtLeaf(1)}, "r"
        )

    ens = Ensemble([single("f1"), single("f2"), single("f3")])
    assert classify(ens, {"f1": 1, "f2": 1, "f3": 0}) == 1
    for e in all_examples(("f1", "f2", "f3")):
        assert classify(ens, e) == int(sum(e.values()) >= 2)


def test_classify_requires_assignment(and_tree):
    with pytest.raises(UndefinedFeature):
        classify(and_tree, {"f1": 1})


def test_decision_set_semantics():
    s = DecisionSet([[("a", 1)], [("b", 1), ("c", 0)]], 0)
    assert classify(s, {"a": 1, "b": 0, "c": 0}) == 1
    assert classify(s, {"a": 0, "b": 1, "c": 0}) == 1
    assert classify(s, {"a": 0, "b": 1, "c": 1}) == 0
    assert classify(DecisionSet([], 1), {}) == 1


def test_make_term_rejects_contradiction():
    with pytest.raises(ContradictoryTerm):
        make_term([("a", 0), ("a", 1)])


def test_decision_list_needs_trailing_default():
    with pytest.raises(ModelError):
        DecisionList([([("a", 1)], 1)])


# ---------------------------------------------------------------------------
# tree surgery


def test_simplify_prunes_repeated_test():
    t = DecisionTree(
        {
            "r": DtInner("f1", "z", "a"),
            "a": DtInner("f1", "dead", "one"),
            "dead": DtLeaf(0),
            "one": DtLeaf(1),
            "z": DtLeaf(0),
        },
        "r",
    )
    s = simplify_dt(t)
    assert models_equal(t, s, ("f1",))
    assert all(
        len({n.feature for n in path}) == len(path) for path in _paths_of(s)
    )


def _paths_of(t: DecisionTree):
    out = []
    stack = [(t.root, [])]
    while stack:
        nid, acc = stack.pop()
        node = t.nodes[nid]
        if isinstance(node, DtLeaf):
            out.append(acc)
        else:
            stack.append((node.zero, acc + [node]))
            stack.append((node.one, acc + [node]))
    return out


def test_simplify_identity_on_clean_tree(and_tree):
    s = simplify_dt(and_tree)
    assert models_equal(and_tree, s, ("f1", "f2"))


def test_simplify_random_trees_with_repeats():
    rng = random.Random(11)
    feats = tuple(f"x{i}" for i in range(6))
    for _ in range(20):
        counter = [0]
        nodes = {}

        def build(depth):
            nid = f"n{counter[0]}"
            counter[0] += 1
            if depth == 0 or rng.random() < 0.3:
                nodes[nid] = DtLeaf(rng.randint(0, 1))
            else:
                f = rng.choice(feats)  # repeats allowed on purpose
                nodes[nid] = DtInner(f, build(depth - 1), build(depth - 1))
            return nid

        root = build(4)
        t = DecisionTree(nodes, root)
        assert models_equal(t, simplify_dt(t), feats)


def test_restrict_and_tree(and_tree):
    zero = restrict_dt(and_tree, {"f1": 0})
    assert zero.leaves() and all(lab == 0 for _, lab in zero.leaves())
    assert restrict_dt(and_tree, {}).nodes == and_tree.nodes
    one = restrict_dt(and_tree, {"f1": 1})
    assert "f1" not in one.features()
    assert sorted(lab for _, lab in one.leaves()) == [0, 1]


def test_flip_semantics():
    e = {"x": 0, "y": 0, "z": 1}
    assert flip(e, {"y"}) == {"x": 0, "y": 1, "z": 1}
    assert flip(e, set()) == e
    assert flip(flip(e, {"x", "z"}), {"x", "z"}) == e


# ---------------------------------------------------------------------------
# diagrams


def test_obdd_semantics(xor_obdd, and_obdd):
    for e in all_examples(("f1", "f2")):
        assert classify(xor_obdd, e) == e["f1"] ^ e["f2"]
        assert classify(and_obdd, e) == e["f1"] & e["f2"]


def test_obdd_rejects_duplicate_order():
    with pytest.raises(ModelError):
        Obdd({"s": ObddNode("a", "t0", "t1")}, "s", "t0", "t1", ("a", "a"))


def test_obdd_rejects_backward_arc():
    nodes = {
        "s": ObddNode("b", "a", "t1"),
        "a": ObddNode("a", "t0", "t1"),
    }
    with pytest.raises(NotOrdered):
        Obdd(nodes, "s", "t0", "t1", ("a", "b"))


def test_obdd_rejects_unknown_feature():
    with pytest.raises(NotOrdered):
        Obdd({"s": ObddNode("q", "t0", "t1")}, "s", "t0", "t1", ("a",))
    # the unknown feature sits below an arc the constructor reads first
    nodes = {"s": ObddNode("a", "c", "t1"), "c": ObddNode("q", "t0", "t1")}
    with pytest.raises(NotOrdered):
        Obdd(nodes, "s", "t0", "t1", ("a",))


def test_obdd_rejects_unreachable_node():
    nodes = {
        "s": ObddNode("a", "t0", "t1"),
        "lost": ObddNode("b", "t0", "t1"),
    }
    with pytest.raises(ModelError):
        Obdd(nodes, "s", "t0", "t1", ("a", "b"))


def test_completion_pads_skipped_level():
    o = Obdd({"s": ObddNode("f1", "t0", "t1")}, "s", "t0", "t1", ("f1", "f2"))
    assert not is_complete(o)
    c = complete_obdd(o)
    assert is_complete(c)
    assert models_equal(o, c, ("f1", "f2"))
    assert len(c.nodes) == 3  # source plus one pad per skipping arc


def test_completion_is_identity_when_complete(xor_obdd):
    c = complete_obdd(xor_obdd)
    assert c.size() == xor_obdd.size()
    assert models_equal(xor_obdd, c, ("f1", "f2"))


def test_completion_random_sparse_diagrams():
    rng = random.Random(23)
    feats = tuple(f"x{i}" for i in range(5))
    for _ in range(30):
        o = rand_sparse_obdd(rng, feats)
        c = complete_obdd(o)
        assert is_complete(c)
        assert models_equal(o, c, feats)


def test_reachable_sinks(xor_obdd):
    assert reachable_sinks(xor_obdd, {"f1": 0, "f2": 0}) == frozenset({0})
    assert reachable_sinks(xor_obdd, {}) == frozenset({0, 1})
    assert reachable_sinks(xor_obdd, {"f1": 1}) == frozenset({0, 1})


def test_random_complete_obdds_are_complete():
    rng = random.Random(5)
    for _ in range(30):
        nf = rng.randint(1, 6)
        feats = tuple(f"x{i}" for i in range(nf))
        o = rand_obdd(rng, feats, width=4)
        assert is_complete(o)
        assert obdd_width(o) <= 4


# ---------------------------------------------------------------------------
# ensembles


def test_even_ensemble_rejected(and_tree):
    with pytest.raises(EvenEnsemble):
        Ensemble([and_tree, and_tree])


def test_mixed_kind_ensemble_rejected(and_tree, fig1):
    with pytest.raises(ModelError):
        Ensemble([and_tree, fig1, fig1])


def test_shared_order_must_cover_elements(xor_obdd):
    with pytest.raises(NotOrdered):
        Ensemble([xor_obdd], shared_order=("f2", "f1"))
    ens = Ensemble([xor_obdd], shared_order=("f1", "mid", "f2"))
    assert ens.shared_order == ("f1", "mid", "f2")


# ---------------------------------------------------------------------------
# measurements


def test_and_tree_parameters(and_tree):
    p = measure_parameters(and_tree)
    assert p.mnl_size == 1
    assert p.size_elem == 3
    assert p.ens_size == 1


def test_fig1_parameters(fig1):
    p = measure_parameters(fig1)
    assert p.terms_elem == 4
    assert p.term_size == 2


def _tree(spec) -> DecisionTree:
    """Tree from nested (feature, zero, one) triples over 0/1 leaves."""
    nodes = {}

    def add(spec) -> str:
        nid = f"n{len(nodes)}"
        nodes[nid] = None  # holds the id while the children take theirs
        if isinstance(spec, int):
            nodes[nid] = DtLeaf(spec)
        else:
            nodes[nid] = DtInner(spec[0], add(spec[1]), add(spec[2]))
        return nid

    return DecisionTree(nodes, add(spec))


# leaves 0, 0, 1: one minority leaf out of three
TREE_AND = _tree(("x", 0, ("y", 0, 1)))
# leaves 0, 1, 0, 1: two minority leaves out of four
TREE_XY_Z = _tree(("x", ("z", 0, 1), ("y", 0, 1)))
TREE_LEAF = _tree(1)
SET_TWO = DecisionSet([[("a", 1), ("b", 0)], [("c", 1)]], 0)
SET_EMPTY = DecisionSet([], 1)
SET_LONG = DecisionSet([[("a", 0), ("b", 1), ("c", 1)]], 1)
LIST_THREE = DecisionList([([("a", 1)], 1), ([("b", 0), ("c", 1)], 0), ([], 1)])
LIST_DEFAULT = DecisionList([([], 0)])
LIST_LONG = DecisionList([([("a", 0), ("b", 0), ("c", 0)], 1), ([], 0)])
# skips b on both arcs: padding puts two nodes on b and two on c
DIAGRAM_SPARSE = Obdd(
    {"na": ObddNode("a", "t0", "nc"), "nc": ObddNode("c", "t0", "t1")},
    "na", "t0", "t1", ("a", "b", "c"),
)
DIAGRAM_SINK = Obdd({}, "t1", "t0", "t1", ("a",))
DIAGRAM_XOR = Obdd(
    {"na": ObddNode("a", "nb0", "nb1"), "nb0": ObddNode("b", "t0", "t1"),
     "nb1": ObddNode("b", "t1", "t0")},
    "na", "t0", "t1", ("a", "b"),
)


@pytest.mark.parametrize("model,expected", [
    (TREE_XY_Z, dict(mnl_size=2, size_elem=4)),
    (TREE_LEAF, dict(mnl_size=0, size_elem=1)),
    (SET_TWO, dict(terms_elem=2, term_size=2, size_elem=4)),
    (SET_EMPTY, dict(terms_elem=0, term_size=0, size_elem=1)),
    (LIST_THREE, dict(terms_elem=3, term_size=2, size_elem=6)),
    (LIST_DEFAULT, dict(terms_elem=1, term_size=0, size_elem=1)),
    (DIAGRAM_SPARSE, dict(width_elem=2, size_elem=4)),
    (DIAGRAM_SINK, dict(width_elem=1, size_elem=1)),
    (DIAGRAM_XOR, dict(width_elem=2, size_elem=5)),
    (Ensemble([TREE_AND, TREE_XY_Z, TREE_LEAF]), dict(ens_size=3, mnl_size=2, size_elem=4)),
    (Ensemble([SET_TWO, SET_EMPTY, SET_LONG]),
     dict(ens_size=3, terms_elem=2, term_size=3, size_elem=4)),
    (Ensemble([LIST_THREE, LIST_DEFAULT, LIST_LONG]),
     dict(ens_size=3, terms_elem=3, term_size=3, size_elem=6)),
    (Ensemble([DIAGRAM_SPARSE, DIAGRAM_SINK, DIAGRAM_XOR]),
     dict(ens_size=3, width_elem=2, size_elem=5)),
], ids=["tree", "tree leaf", "set", "set no terms", "list", "list default only",
        "diagram sparse", "diagram sink source", "diagram complete", "tree ensemble",
        "set ensemble", "list ensemble", "diagram ensemble"])
def test_measure_parameters_per_family(model, expected):
    assert measure_parameters(model) == Parameters(**{"ens_size": 1, **expected})


def test_parameters_json_drops_inapplicable(fig1):
    data = measure_parameters(fig1).to_json()
    assert data["ens_size"] == 1
    assert data["terms_elem"] == 4 and data["term_size"] == 2
    # tree and diagram measures have no meaning for a list
    assert "mnl_size" not in data and "width_elem" not in data


# ---------------------------------------------------------------------------
# serialization


@pytest.mark.parametrize("kind", ["dt", "ds", "dl", "obdd", "ens"])
def test_json_round_trip(kind, fig1, and_tree, xor_obdd):
    rng = random.Random(37)
    model = {
        "dt": and_tree,
        "ds": DecisionSet([[("a", 1), ("b", 0)]], 1),
        "dl": fig1,
        "obdd": xor_obdd,
        "ens": Ensemble([rand_dt(rng, ("p", "q")) for _ in range(3)]),
    }[kind]
    back = loads_model(dumps_model(model))
    feats = sorted(model_features(model))
    assert models_equal(model, back, feats)
    assert dumps_model(back) == dumps_model(model)


def test_loads_dt_simplifies_repeats():
    data = {
        "kind": "dt",
        "root": "r",
        "nodes": {
            "r": {"feature": "a", "zero": "x", "one": "y"},
            "y": {"feature": "a", "zero": "dead", "one": "one"},
            "x": {"leaf": 0},
            "dead": {"leaf": 1},
            "one": {"leaf": 1},
        },
    }
    t = model_from_json(data)
    assert classify(t, {"a": 1}) == 1
    assert classify(t, {"a": 0}) == 0
    paths = _paths_of(t)
    assert all(len({n.feature for n in p}) == len(p) for p in paths)


def test_obdd_json_infers_order(xor_obdd):
    data = model_to_json(xor_obdd)
    del data["order"]
    back = model_from_json(data)
    assert feature_order(back) == ("f1", "f2")
    assert models_equal(xor_obdd, back, ("f1", "f2"))


def test_a_diagram_without_order_whose_0_path_skips_a_feature_loads():
    # the 0-path reads a then c, yet b sits between them on the 1-arcs
    data = {
        "kind": "obdd", "source": "n1", "t0": "t0", "t1": "t1",
        "nodes": {
            "n1": {"feature": "a", "zero": "n3", "one": "n2"},
            "n2": {"feature": "b", "zero": "n3", "one": "t1"},
            "n3": {"feature": "c", "zero": "t0", "one": "t1"},
        },
    }
    o = model_from_json(data)
    assert o.order == ("a", "b", "c")
    assert model_to_json(o) == dict(data, order=["a", "b", "c"])


def _path_then_sorted(o: Obdd):
    """The order inferred before the arcs were sorted: the source's
    0-path, then every other feature by name."""
    order, nid = [], o.source
    while nid not in (o.t0, o.t1):
        order.append(o.nodes[nid].feature)
        nid = o.nodes[nid].zero
    return order + sorted({n.feature for n in o.nodes.values()} - set(order))


def test_inferred_orders_keep_every_order_the_0_path_guess_found():
    rng = random.Random(7)
    guessed = refused = 0
    for i in range(400):
        feats = [f"x{j}" for j in range(rng.randint(2, 9))]
        o = (rand_obdd if i % 2 else rand_sparse_obdd)(rng, feats)
        data = model_to_json(o)
        del data["order"]
        back = model_from_json(data)
        assert models_equal(o, back, feats)
        try:
            guess = Obdd(o.nodes, o.source, o.t0, o.t1, _path_then_sorted(o)).order
        except NotOrdered:
            refused += 1
            continue
        assert back.order == guess
        guessed += 1
    assert guessed > 100 and refused > 20, (guessed, refused)


def test_an_inferred_order_still_refuses_a_cycle():
    # b before c on one branch, c before b on the other
    data = {
        "kind": "obdd", "source": "s", "t0": "t0", "t1": "t1",
        "nodes": {
            "s": {"feature": "a", "zero": "u", "one": "v"},
            "u": {"feature": "b", "zero": "t0", "one": "w"},
            "w": {"feature": "c", "zero": "t0", "one": "t1"},
            "v": {"feature": "c", "zero": "t0", "one": "x"},
            "x": {"feature": "b", "zero": "t0", "one": "t1"},
        },
    }
    with pytest.raises(NotOrdered):
        model_from_json(data)
    data["nodes"]["w"]["feature"] = "b"  # a test of b right below one
    data["nodes"]["v"]["feature"] = "b"
    with pytest.raises(NotOrdered):
        model_from_json(data)


def test_canonical_dump_is_sorted_and_newline_terminated(fig1):
    text = dumps_model(fig1)
    assert text.endswith("\n")
    assert json.loads(text) == model_to_json(fig1)
    assert text == dumps_canonical(model_to_json(fig1))


def test_model_from_json_requires_kind():
    with pytest.raises(ModelError):
        model_from_json({"root": "r", "nodes": {}})


# ---------------------------------------------------------------------------
# refusals and edge branches no other test names


def _sinks_renamed(o):
    # the tree's leaves t0 (class 1) and t1 (class 0) keep their classes
    assert (o.t0, o.t1) == ("t0~", "t1~")
    assert [classify(o, {"x": bit}) for bit in (0, 1)] == [0, 1]


def _constant_circuits(circuits):
    # [o(e) = 0] and [o(e) = 1] of a diagram whose source is the sink t1
    assert [[eval_circuit(c, {"x": bit}) for bit in (0, 1)] for c in circuits] == [[0, 0], [1, 1]]


LEAF = DecisionTree({"l": DtLeaf(1)}, "l")
EDGES = [
    (lambda: gen_mcc_dt_ensemble(MccInstance([("a", 0), ("b", 1)]), 3),
     "graph has 2 parts, not 3"),
    (lambda: gen_mcc_dt_ensemble(MccInstance([("a", 0)])), "need at least 2 parts"),
    (lambda: dt_from_examples([{"x": 1}], ["x", "y"]), "example does not assign feature 'y'"),
    (lambda: dt_from_examples([{"x": 2}], ["x"]), "example value for 'x' must be 0 or 1"),
    (lambda: gen_hitting_set_laxp([1], []), "need at least one set"),
    (lambda: obdd_primitive("iff_exists", ["a"]), "iff_exists needs the extra feature"),
    (lambda: obdd_primitive("exists", ["a"], f="b"), "exists takes no extra feature"),
    (lambda: obdd_agreement_counter({"x": 1}, 1, ["x", "y"]),
     "example does not assign feature 'y'"),
    (lambda: Ensemble([Ensemble([LEAF])]), "ensemble elements must be plain models"),
    (lambda: Obdd({}, "s", "t0", "t1", ()), "source 's' is not a node"),
    (lambda: dt_to_obdd(DecisionTree(
        {"r": DtInner("x", "t1", "t0"), "t1": DtLeaf(0), "t0": DtLeaf(1)}, "r")),
     _sinks_renamed),
    (lambda: [compile_obdd(Obdd({}, "t1", "t0", "t1", ("x",)), c) for c in (0, 1)],
     _constant_circuits),
]


@pytest.mark.parametrize("make, want", EDGES)
def test_an_edge_branch_refuses_with_its_message_or_answers(make, want):
    # `want` is the refusal's message, or a check of the answer
    if isinstance(want, str):
        with pytest.raises(ModelError) as refused:
            make()
        assert str(refused.value) == want
    else:
        want(make())


def _delete_a_field():
    del DtLeaf(1).label


# (refused call, error type, message): refusals no other test names
REFUSALS = {
    "leaf label": (lambda: DecisionTree({"r": DtLeaf(2)}, "r"), ModelError,
                   "leaf label must be 0 or 1, got 2"),
    "node kind": (lambda: DecisionTree({"r": "leaf"}, "r"), ModelError,
                  "node 'r' is neither leaf nor inner"),
    "minimality": (lambda: ExplanationQuery("lAXp", "minimal", {"x": 1}), ModelError,
                   "unknown minimality 'minimal'"),
    "repeated feature": (lambda: Witness.of_assignment({1: 0, "1": 1}), ModelError,
                         "assignment repeats a feature"),
    "unknown model": (lambda: model_to_json(object()), ModelError, "cannot serialize object"),
    "field deletion": (_delete_a_field, AttributeError, "cannot delete field 'label'"),
    "empty graph": (lambda: MccInstance([]), ModelError, "graph needs at least one vertex"),
}


@pytest.mark.parametrize("make, error, message", REFUSALS.values(), ids=list(REFUSALS))
def test_a_refusal_names_its_cause(make, error, message):
    with pytest.raises(error) as refused:
        make()
    assert str(refused.value) == message

"""The shared restriction walk, the pruned graft and diagram completion,
each checked against the construction it replaces or a brute-force
reference; plus counts of the models the checks build."""

import itertools
import random

from xbool import dt
from xbool.dt import dt_ensemble_to_dt, dt_xp_search
from xbool.explain import ExplanationQuery
from xbool.models import (
    DecisionTree,
    DtInner,
    DtLeaf,
    Ensemble,
    Obdd,
    ObddNode,
    classify,
    complete_obdd,
    dt_size,
    is_complete,
    reachable_sinks,
    restrict_dt,
    simplify_dt,
    walk_labels,
)
from xbool.obdd import obdd_xp_search

from helpers import (
    all_examples,
    graft_unpruned,
    models_equal,
    rand_dt,
    rand_dt_with_repeats,
    rand_example,
    rand_obdd,
    rand_partial,
    rand_sparse_obdd,
)


def _tree_walk(t: DecisionTree, tau):
    return walk_labels(t.nodes, t.leaf_labels, t.root, tau)


# ---------------------------------------------------------------------------
# the walk


def test_tree_walk_matches_restriction():
    rng = random.Random(71)
    feats = tuple(f"x{i}" for i in range(6))
    for i in range(60):
        t = rand_dt(rng, feats) if i % 2 else rand_dt_with_repeats(rng, feats)
        for _ in range(8):
            tau = rand_partial(rng, feats)
            expected = {label for _, label in restrict_dt(t, tau).leaves()}
            assert _tree_walk(t, tau) == expected, (t.nodes, tau)


def test_diagram_walk_matches_completions():
    rng = random.Random(73)
    feats = tuple(f"x{i}" for i in range(5))
    for _ in range(60):
        o = rand_sparse_obdd(rng, feats)
        for _ in range(8):
            tau = rand_partial(rng, feats)
            free = [f for f in feats if f not in tau]
            expected = {classify(o, {**tau, **e}) for e in all_examples(free)}
            assert reachable_sinks(o, tau) == expected, (o.nodes, tau)


# ---------------------------------------------------------------------------
# the graft


def _small_ensemble(rng, feats, size):
    return Ensemble([rand_dt(rng, feats, split=0.6) for _ in range(size)])


def test_pruned_graft_equals_simplified_full_product():
    rng = random.Random(79)
    for size, nf in ((3, 6), (5, 5)):
        feats = tuple(f"x{i}" for i in range(nf))
        for _ in range(15):
            ens = _small_ensemble(rng, feats, size)
            got = dt_ensemble_to_dt(ens)
            ref = simplify_dt(graft_unpruned(ens))
            assert got.root == ref.root
            assert got.nodes == ref.nodes
            assert list(got.nodes) == list(ref.nodes)
            assert models_equal(got, ens, feats)


def _project_loop(t: DecisionTree, fixed, accumulate: bool) -> DecisionTree:
    """The per-function rebuild loop that simplify and restrict ran on
    before trees got one emitter, kept verbatim as their reference."""
    counter = itertools.count()
    leaves, inner, root_slot = {}, {}, {}
    work = [(t.root, dict(fixed), root_slot, "root")]
    while work:
        orig, ctx, slot, key = work.pop()
        node = t.nodes[orig]
        while isinstance(node, DtInner) and node.feature in ctx:
            node = t.nodes[node.one if ctx[node.feature] else node.zero]
        nid = f"n{next(counter)}"
        slot[key] = nid
        if isinstance(node, DtLeaf):
            leaves[nid] = node
        else:
            fields = {}
            inner[nid] = (node.feature, fields)
            ctx1 = dict(ctx)
            ctx0 = ctx
            if accumulate:
                ctx0 = dict(ctx)
                ctx0[node.feature] = 0
                ctx1[node.feature] = 1
            work.append((node.one, ctx1, fields, "one"))
            work.append((node.zero, ctx0, fields, "zero"))
    nodes = dict(leaves)
    for nid, (feature, fields) in inner.items():
        nodes[nid] = DtInner(feature, fields["zero"], fields["one"])
    return DecisionTree(nodes, root_slot["root"])


def _graft_loop(trees) -> DecisionTree:
    """The graft's own pruned loop from before the shared emitter."""
    majority = len(trees) // 2 + 1
    counter = itertools.count()
    leaves, inner, root_slot = {}, {}, {}
    work = [(0, trees[0].root, 0, {}, root_slot, "root")]
    while work:
        ti, nid, votes, path, slot, key = work.pop()
        node = trees[ti].nodes[nid]
        while True:
            if isinstance(node, DtLeaf):
                votes += node.label
                ti += 1
                if ti == len(trees):
                    break
                node = trees[ti].nodes[trees[ti].root]
            elif node.feature in path:
                node = trees[ti].nodes[node.one if path[node.feature] else node.zero]
            else:
                break
        fresh = f"n{next(counter)}"
        slot[key] = fresh
        if isinstance(node, DtLeaf):
            leaves[fresh] = DtLeaf(1 if votes >= majority else 0)
        else:
            fields = {}
            inner[fresh] = (node.feature, fields)
            one = dict(path)
            one[node.feature] = 1
            path[node.feature] = 0
            work.append((ti, node.one, votes, one, fields, "one"))
            work.append((ti, node.zero, votes, path, fields, "zero"))
    nodes = dict(leaves)
    for fresh, (feature, fields) in inner.items():
        nodes[fresh] = DtInner(feature, fields["zero"], fields["one"])
    return DecisionTree(nodes, root_slot["root"])


def _same_tree(got: DecisionTree, ref: DecisionTree) -> None:
    assert got.root == ref.root
    assert got.nodes == ref.nodes
    assert list(got.nodes) == list(ref.nodes)


def test_one_emitter_builds_the_trees_of_the_loops_it_replaced():
    rng = random.Random(103)
    feats = tuple(f"x{i}" for i in range(5))
    for _ in range(150):
        t = rand_dt_with_repeats(rng, feats, depth=5)
        simple = simplify_dt(t)
        if simple is not t:
            _same_tree(simple, _project_loop(t, {}, True))
        tau = rand_partial(rng, feats)
        if tau:
            _same_tree(restrict_dt(t, tau), _project_loop(t, tau, False))
    for size in (1, 3, 5):
        for i in range(15):
            make = rand_dt if i % 2 else rand_dt_with_repeats
            trees = [make(rng, feats) for _ in range(size)]
            _same_tree(dt_ensemble_to_dt(Ensemble(trees)), _graft_loop(trees))


def test_simplified_trees_are_marked_repeat_free(monkeypatch):
    rng = random.Random(107)
    feats = tuple(f"x{i}" for i in range(5))
    trees = [rand_dt_with_repeats(rng, feats) for _ in range(20)]
    done = [simplify_dt(t) for t in trees]
    done.append(dt_ensemble_to_dt(Ensemble(trees[:3])))
    walks = []
    monkeypatch.setattr(dt, "_dt_has_repeats", lambda t: walks.append(t))
    for t in done:
        assert simplify_dt(t) is t
    assert walks == []


# ---------------------------------------------------------------------------
# completion


def test_completion_of_complete_diagram_is_itself():
    rng = random.Random(83)
    feats = tuple(f"x{i}" for i in range(5))
    o = rand_obdd(rng, feats)
    assert complete_obdd(o) is o
    padded = complete_obdd(rand_sparse_obdd(rng, feats))
    assert complete_obdd(padded) is padded


def test_completion_ids_and_node_order():
    # the source skips a level, and one padding id is already taken
    o = Obdd(
        {
            "s": ObddNode("b", "t0", "n"),
            "n": ObddNode("d", "t1", "pad:t0:3"),
            "pad:t0:3": ObddNode("e", "t1", "t0"),
        },
        "s",
        "t0",
        "t1",
        ("a", "b", "c", "d", "e"),
    )
    c = complete_obdd(o)
    assert c.source == "pad:s:0"
    assert [(nid, n.feature, n.zero, n.one) for nid, n in c.nodes.items()] == [
        ("s", "b", "pad:t0:2", "pad:n:2"),
        ("n", "d", "pad:t1:4", "pad:t0:3"),
        ("pad:t0:3", "e", "t1", "t0"),
        ("pad:t0:4", "e", "t0", "t0"),
        ("pad:t0:3~", "d", "pad:t0:4", "pad:t0:4"),
        ("pad:t0:2", "c", "pad:t0:3~", "pad:t0:3~"),
        ("pad:n:2", "c", "n", "n"),
        ("pad:t1:4", "e", "t1", "t1"),
        ("pad:s:0", "a", "s", "s"),
    ]


def test_completion_of_long_skip_needs_no_recursion():
    order = tuple(f"x{i}" for i in range(3000))
    o = Obdd({"s": ObddNode("x2999", "t0", "t1")}, "s", "t0", "t1", order)
    c = complete_obdd(o)
    assert is_complete(c)
    assert len(c.nodes) == 3000
    assert c.source == "pad:s:0" and c.nodes["pad:s:0"].feature == "x0"
    e = {f: 0 for f in order}
    assert classify(c, e) == 0
    e["x2999"] = 1
    assert classify(c, e) == 1


# ---------------------------------------------------------------------------
# work counts: the checks walk, they do not build


def _count_constructions(monkeypatch, cls, leaves=False):
    built = []
    init = cls.__init__

    def counted(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(len(self.leaves()) if leaves else 1)

    monkeypatch.setattr(cls, "__init__", counted)
    return built


def test_tree_xp_search_builds_no_tree(monkeypatch):
    rng = random.Random(89)
    feats = tuple(f"x{i:02d}" for i in range(12))
    t = rand_dt(rng, feats, split=0.7)
    e = rand_example(rng, feats)
    queries = [
        ExplanationQuery("lAXp", "cardinality", e, k=3),
        ExplanationQuery("gAXp", "cardinality", classify(t, e), k=2),
        ExplanationQuery("gCXp", "cardinality", 1 - classify(t, e), k=2),
    ]
    built = _count_constructions(monkeypatch, DecisionTree)
    for q in queries:
        dt_xp_search(t, q)
    assert built == []


def test_diagram_xp_search_builds_at_most_one_diagram(monkeypatch):
    rng = random.Random(97)
    feats = tuple(f"x{i}" for i in range(8))
    for o in (rand_sparse_obdd(rng, feats), rand_obdd(rng, feats)):
        e = rand_example(rng, feats)
        for q in (
            ExplanationQuery("lAXp", "cardinality", e, k=3),
            ExplanationQuery("gAXp", "cardinality", 1, k=2),
        ):
            built = _count_constructions(monkeypatch, Obdd)
            obdd_xp_search(o, q)
            monkeypatch.undo()
            assert len(built) <= 1


def test_graft_builds_no_more_leaves_than_it_returns(monkeypatch):
    rng = random.Random(101)
    feats = tuple(f"x{i}" for i in range(8))
    while True:
        trees = [rand_dt(rng, feats, split=0.7) for _ in range(5)]
        bound = 1
        for t in trees:
            bound *= dt_size(t)
        if 10**4 < bound <= 10**6:
            break
    built = _count_constructions(monkeypatch, DecisionTree, leaves=True)
    out = dt_ensemble_to_dt(Ensemble(trees))
    assert sum(built) == dt_size(out)

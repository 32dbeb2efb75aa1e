"""The shared restriction walk, the pruned graft and diagram completion,
each checked against the construction it replaces or a brute-force
reference; the shape a constructor learns, against the scans it
replaced; plus counts of the models the checks build and the memory
deep chains take."""

import hashlib
import itertools
import pickle
import random
import tracemalloc
from collections import Counter

import pytest

from xbool import dt, obdd
from xbool.dt import dt_ensemble_to_dt, dt_xp_search
from xbool.errors import ModelError
from xbool.explain import KINDS, ExplanationQuery, Witness
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
    obdd_width,
    reachable_sinks,
    restrict_dt,
    simplify_dt,
    walk_labels,
)
from xbool.obdd import obdd_xp_search
from xbool.restriction import Restriction

from helpers import (
    all_examples,
    chain_dt,
    chain_obdd,
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


def test_a_check_refuses_a_witness_bit_the_walk_no_longer_reads():
    t = DecisionTree({"r": DtInner("a", "z", "o"), "z": DtLeaf(0), "o": DtLeaf(1)}, "r")
    o = Obdd({"s": ObddNode("a", "t0", "t1")}, "s", "t0", "t1", ("a",))
    w = Witness(assignment=(("a", 2),))
    for model, check in ((t, dt.dt_check), (o, obdd.obdd_check)):
        for kind in ("gAXp", "gCXp"):
            with pytest.raises(ModelError, match="assignment of 'a' must be 0 or 1"):
                check(model, ExplanationQuery(kind, "subset", 1), w)
    with pytest.raises(ModelError):
        walk_labels(t.nodes, t.leaf_labels, t.root, {"a": 2})


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


def test_simplified_trees_are_marked_repeat_free():
    rng = random.Random(107)
    feats = tuple(f"x{i}" for i in range(5))
    trees = [rand_dt_with_repeats(rng, feats) for _ in range(20)]
    done = [simplify_dt(t) for t in trees]
    done.append(dt_ensemble_to_dt(Ensemble(trees[:3])))
    for t in done:
        assert t._repeat_free and not _has_repeats(t)
        assert simplify_dt(t) is t


def _has_repeats(t: DecisionTree) -> bool:
    # the whole-tree scan the constructor's flag replaced: one frozenset
    # of the path's features per pending node
    stack = [(t.root, frozenset())]
    while stack:
        nid, seen = stack.pop()
        node = t.nodes[nid]
        if isinstance(node, DtInner):
            if node.feature in seen:
                return True
            seen = seen | {node.feature}
            stack.append((node.zero, seen))
            stack.append((node.one, seen))
    return False


def test_a_tree_knows_its_repeats_and_features_from_its_constructor():
    rng = random.Random(109)
    feats = tuple(f"x{i}" for i in range(5))
    repeating = 0
    for i in range(400):
        t = rand_dt_with_repeats(rng, feats, depth=5) if i % 2 else rand_dt(rng, feats)
        assert t._repeat_free == (not _has_repeats(t))
        assert t.features() == {n.feature for n in t.nodes.values() if isinstance(n, DtInner)}
        repeating += not t._repeat_free
    assert 50 < repeating < 200
    # siblings testing one feature repeat nothing; a test below itself does
    siblings = DecisionTree(
        {"r": DtInner("a", "z", "o"), "z": DtInner("b", "z0", "z1"),
         "o": DtInner("b", "o0", "o1"), "z0": DtLeaf(0), "z1": DtLeaf(1),
         "o0": DtLeaf(1), "o1": DtLeaf(0)},
        "r",
    )
    assert siblings._repeat_free and siblings.features() == {"a", "b"}
    below = DecisionTree(
        {"r": DtInner("a", "z", "o"), "z": DtLeaf(0), "o": DtInner("b", "p", "q"),
         "p": DtLeaf(1), "q": DtInner("a", "q0", "q1"), "q0": DtLeaf(0), "q1": DtLeaf(1)},
        "r",
    )
    assert not below._repeat_free and below.features() == {"a", "b"}


def _levels_complete(o: Obdd) -> bool:
    # the whole-diagram scan the constructor's flag replaced
    if o.level(o.source) != 0 and len(o.order) > 0:
        return False
    for nid, node in o.nodes.items():
        lv = o.level(nid)
        if o.level(node.zero) != lv + 1 or o.level(node.one) != lv + 1:
            return False
    return True


def test_a_diagram_knows_it_is_complete_from_its_constructor():
    rng = random.Random(127)
    counts = [0, 0]
    for i in range(400):
        feats = tuple(f"x{j}" for j in range(rng.randint(0, 6)))
        o = rand_sparse_obdd(rng, feats) if i % 2 else rand_obdd(rng, feats)
        for d in (o, complete_obdd(o)):
            assert is_complete(d) == _levels_complete(d)
            counts[is_complete(d)] += 1
        assert is_complete(complete_obdd(o))
    assert min(counts) > 100
    # a source below level 0, and a sink source over a non-empty order
    late = Obdd({"s": ObddNode("b", "t0", "t1")}, "s", "t0", "t1", ("a", "b"))
    assert not is_complete(late) and not _levels_complete(late)
    for order in ((), ("a",)):
        sink = Obdd({}, "t1", "t0", "t1", order)
        assert is_complete(sink) == _levels_complete(sink) == (not order)


def _preorder_walk(t: DecisionTree):
    # the walk the tree's learned order replaced: inner ids in preorder,
    # the 0-child first
    out, stack = [], [t.root]
    while stack:
        nid = stack.pop()
        node = t.nodes[nid]
        if isinstance(node, DtInner):
            out.append(nid)
            stack += (node.one, node.zero)
    return out


def test_a_tree_learns_its_parents_first_order_from_its_constructor():
    rng = random.Random(131)
    feats = tuple(f"x{i}" for i in range(5))
    trees = [DecisionTree({"l": DtLeaf(1)}, "l"), chain_dt(40, along=0),
             chain_dt(40, along=1, repeat=True)]
    trees += [rand_dt_with_repeats(rng, feats, depth=5) if i % 2 else rand_dt(rng, feats)
              for i in range(200)]
    for t in trees:
        assert t.parents_first == _preorder_walk(t)
        view = dt._restriction(t)
        assert view.parents_first() is view.model.parents_first
        assert view.model.parents_first == _preorder_walk(view.model)
    assert trees[0].parents_first == [] and len(trees[1].parents_first) == 40


def test_a_diagram_learns_its_levels_size_and_width_from_its_constructor():
    rng = random.Random(137)
    diagrams = [Obdd({}, "t1", "t0", "t1", order) for order in ((), ("a",))]
    diagrams.append(chain_obdd(40))
    for i in range(200):
        feats = tuple(f"x{j}" for j in range(rng.randint(0, 6)))
        o = rand_sparse_obdd(rng, feats) if i % 2 else rand_obdd(rng, feats)
        shuffled = list(o.nodes.items())
        rng.shuffle(shuffled)
        diagrams += [o, Obdd(dict(shuffled), o.source, o.t0, o.t1, o.order)]
    for o in diagrams:
        full = complete_obdd(o)
        for d in (o, full):
            # the sort, the sink scan and the per-feature count each replaced
            assert d.parents_first == sorted(d.nodes, key=d.level)
            ends = {d.source} | {child for n in d.nodes.values() for child in (n.zero, n.one)}
            assert d.size() == len(d.nodes) + len(ends & {d.t0, d.t1})
        per_feature = Counter(n.feature for n in full.nodes.values())
        assert obdd_width(o) == max(per_feature.values(), default=0)
        assert obdd._restriction(o).parents_first() is full.parents_first
    assert [d.size() for d in diagrams[:3]] == [1, 1, 42]
    assert obdd_width(diagrams[1]) == 1 and obdd_width(diagrams[2]) == 2  # t0 padded


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
# memory linear in the model: a chain twice as deep costs about twice,
# where a copy of the path per node would cost four times


def _peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _assert_linear(peaks) -> None:
    (_, small_peak), (large, large_peak) = peaks
    assert large_peak < 3 * small_peak, peaks
    assert large_peak < 1000 * large, peaks


def test_building_a_deep_chain_tree_takes_memory_linear_in_it():
    for along in (0, 1):
        for repeat in (False, True):
            peaks = []
            for depth in (2000, 4000):
                nodes = dict(chain_dt(depth, along, repeat).nodes)
                # a repeat-free tree is loaded as it is; the projection
                # that simplifies a repeating one is not measured here
                build = DecisionTree if repeat else (lambda *a: simplify_dt(DecisionTree(*a)))
                peaks.append((depth, _peak(lambda: build(nodes, "n0"))))
                assert build(nodes, "n0")._repeat_free != repeat
            _assert_linear(peaks)


def test_min_lcxp_on_a_deep_chain_takes_memory_linear_in_it():
    for build, run in ((chain_dt, dt.dt_min_lcxp), (chain_obdd, obdd.obdd_min_lcxp)):
        peaks = []
        for depth in (2000, 4000):
            model = build(depth)
            e = {f: 0 for f in model.features()}
            assert run(model, e).size == depth  # and the view is built
            peaks.append((depth, _peak(lambda: run(model, e))))
        _assert_linear(peaks)


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


# ---------------------------------------------------------------------------
# pinned answers of the tree and diagram procedures


def _pinned_models(rng, feats):
    """(model, its procedures) for seeded trees, repeat-testing trees,
    complete and sparse diagrams, and flattened ensembles of each."""
    tree = (dt.dt_xp_search, dt.dt_subset_min, dt.dt_check)
    diagram = (obdd.obdd_xp_search, obdd.obdd_subset_min, obdd.obdd_check)
    yield rand_dt(rng, feats), tree
    yield rand_dt_with_repeats(rng, feats), tree
    yield rand_obdd(rng, feats), diagram
    yield rand_sparse_obdd(rng, feats), diagram
    yield dt_ensemble_to_dt(Ensemble([rand_dt(rng, feats, split=0.6) for _ in range(3)])), tree
    yield obdd.obdd_ensemble_product(Ensemble([rand_obdd(rng, feats) for _ in range(3)])), diagram
    yield obdd.obdd_ensemble_product(Ensemble([rand_sparse_obdd(rng, feats) for _ in range(3)])), diagram


# (sha256, answers, answers that are None) of
# test_restriction_answers_are_pinned; changes only when some answer does
RESTRICTION_ANSWERS = ("6941f502652cf8d153d2ceb423535922530125d11e8b1de7fe0afe7c6cf5f98b", 16506, 1134)


def test_restriction_answers_are_pinned():
    """Every answer of the tree and diagram `xp_search`, `subset_min` and
    `check` over seeded models: all four kinds, subset and every budget
    from 0 to n, both classes for the global kinds; each found witness
    and three random ones are checked."""
    rng = random.Random(409)
    h, answers, nones = hashlib.sha256(), 0, 0

    def record(got):
        nonlocal answers, nones
        h.update(repr(got).encode() + b"\n")
        answers += 1
        nones += got is None

    for n in (1, 2, 4, 6):
        feats = [f"x{i}" for i in range(n)]
        for _ in range(4):
            for model, (xp_search, subset_min, check) in _pinned_models(rng, feats):
                names = sorted(model.features())
                e = rand_example(rng, feats)
                for kind in KINDS:
                    for target in ((e,) if kind in ("lAXp", "lCXp") else (0, 1)):
                        queries = [ExplanationQuery(kind, "subset", target)]
                        queries += [ExplanationQuery(kind, "cardinality", target, k)
                                    for k in range(n + 1)]
                        for q in queries:
                            search = subset_min if q.k is None else xp_search
                            found = search(model, q)
                            record(found)
                            tries = [] if found is None else [found]
                            for _ in range(3):
                                chosen = [f for f in names if rng.random() < 0.5]
                                tries.append(
                                    Witness.of_features(chosen) if q.is_local
                                    else Witness.of_assignment({f: rng.randint(0, 1) for f in chosen})
                                )
                            for w in tries:
                                record(check(model, q, w))
    assert (h.hexdigest(), answers, nones) == RESTRICTION_ANSWERS


def test_a_model_builds_its_view_once_and_still_pickles(monkeypatch):
    rng = random.Random(113)
    feats = tuple(f"x{i}" for i in range(6))
    models = [rand_dt(rng, feats), rand_sparse_obdd(rng, feats)]
    built = _count_constructions(monkeypatch, Restriction)
    for model, (xp_search, check) in zip(models, ((dt_xp_search, dt.dt_check),
                                                  (obdd_xp_search, obdd.obdd_check))):
        e = rand_example(rng, feats)
        for kind in KINDS:
            q = ExplanationQuery(kind, "cardinality", e if kind[0] == "l" else 1, 2)
            found = xp_search(model, q)
            if found is not None:
                assert check(model, q, found)
            copied = pickle.loads(pickle.dumps(model))
            assert xp_search(copied, q) == found
    assert len(built) == 2  # one per model; a pickled copy brings its own

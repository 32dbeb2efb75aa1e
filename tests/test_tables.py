"""Truth tables filled from model structure, checked point by point
against `classify`, and the table oracle against the enumeration one."""

import hashlib
import random
import time
import tracemalloc
from math import comb

import pytest

from xbool import models
from xbool.circuits import circuit_explain_bruteforce
from xbool.explain import (
    KINDS,
    ExplanationQuery,
    FunctionOracle,
    TableOracle,
    Witness,
)
from xbool.models import (
    DecisionList,
    DecisionSet,
    DecisionTree,
    DtLeaf,
    Ensemble,
    Obdd,
    classify,
    model_features,
)
from xbool.tables import (
    _fill_graph,
    _oracle_for,
    at_least,
    feature_mask,
    literals,
    model_table,
    oracle_min,
)

from helpers import (
    rand_dl,
    rand_ds,
    rand_dt,
    rand_dt_with_repeats,
    rand_example,
    rand_obdd,
    rand_sparse_obdd,
    six_compiled,
)

FEATS = ["a", "b", "c", "d", "e"]


def test_masks_match_their_definition():
    for n in range(11):
        full = (1 << (1 << n)) - 1
        pairs = literals(n)
        assert len(pairs) == n
        for j in range(n):
            want = sum(1 << i for i in range(1 << n) if i >> j & 1)
            assert feature_mask(j, n) == want, (n, j)
            assert pairs[j] == (full ^ want, want), (n, j)


def test_a_guard_size_table_oracle_builds_fast():
    feats = [f"x{i:02d}" for i in range(20)]
    literals.cache_clear()
    started = time.perf_counter()
    oracle = TableOracle(feats, 1 << (1 << 20) - 1)  # only the all-ones point is 1
    assert oracle.reaches({j: 1 for j in range(20)}, 1)
    assert time.perf_counter() - started < 0.5


def test_at_least_counts_every_threshold():
    rng = random.Random(5)
    for m in (1, 2, 3, 5, 8):
        values = [rng.getrandbits(64) for _ in range(m)]
        full = (1 << 64) - 1
        for threshold in range(m + 2):
            want = sum(
                1 << i for i in range(64) if sum(v >> i & 1 for v in values) >= threshold
            )
            assert at_least(iter(values), threshold, full) == want, (m, threshold)


def _table_by_points(model, feats):
    return sum(
        classify(model, e) << i for i, e in enumerate(_points(feats))
    )


def _points(feats):
    """The points in table order: feature j (sorted) is bit j of the index."""
    feats = sorted(feats)
    for i in range(1 << len(feats)):
        yield {f: i >> j & 1 for j, f in enumerate(feats)}


def _models(rng):
    feats = FEATS[: rng.randint(1, 5)]
    yield rand_dt(rng, feats)
    yield rand_dt_with_repeats(rng, feats)
    ds = rand_ds(rng, feats)
    yield ds
    yield DecisionSet(ds.terms, 1 - ds.default)
    yield rand_dl(rng, feats)
    yield rand_obdd(rng, feats)
    yield rand_sparse_obdd(rng, feats)
    size = rng.choice((1, 3, 5))
    for make in (rand_dt, rand_ds, rand_dl, rand_obdd):
        yield Ensemble([make(rng, feats) for _ in range(size)])


NO_FEATURES = [
    DecisionTree({"l": DtLeaf(1)}, "l"),
    DecisionSet([], 1),
    DecisionSet([[]], 1),
    DecisionList([([], 1)]),
    Obdd({}, "t1", "t0", "t1", ()),
    Ensemble([DecisionSet([[]], 0), DecisionSet([], 1), DecisionSet([], 0)]),
]


def test_every_family_fills_its_table_point_by_point():
    rng = random.Random(2024)
    checked = 0
    for _ in range(60):
        for model in _models(rng):
            feats = sorted(model_features(model))
            assert model_table(model, feats) == _table_by_points(model, feats), model.kind
            checked += 1
    for model in NO_FEATURES:
        assert model_table(model, []) == classify(model, {}), model.kind
    assert checked == 60 * 11


def test_a_fill_in_a_wrong_order_raises_rather_than_fills_a_wrong_table():
    rng = random.Random(12)
    lits = literals(len(FEATS))
    lit = {f: lits[j] for j, f in enumerate(FEATS)}
    full = (1 << (1 << len(FEATS))) - 1
    for _ in range(5):
        t, o = rand_dt(rng, FEATS, split=1.0), rand_obdd(rng, FEATS)
        for model, graph in ((t, (t.nodes, t.leaf_labels, t.root)),
                             (o, (o.nodes, o.sink_labels, o.source))):
            with pytest.raises(KeyError):
                _fill_graph(*graph, model.parents_first[::-1], lit, full)


def test_a_table_over_a_wider_universe_ignores_the_extra_features():
    rng = random.Random(8)
    for _ in range(30):
        feats = FEATS[:3]
        model = rng.choice((rand_dt, rand_ds, rand_dl, rand_sparse_obdd))(rng, feats)
        assert model_table(model, FEATS) == _table_by_points(model, FEATS)


def _queries(rng, feats):
    e = rand_example(rng, feats)
    for kind in KINDS:
        target = e if kind in ("lAXp", "lCXp") else rng.randint(0, 1)
        yield ExplanationQuery(kind, "subset", target)
        for k in range(len(feats) + 1):
            yield ExplanationQuery(kind, "cardinality", target, k)


def _witnesses(rng, q, feats, found):
    if found is not None:
        yield found
    for _ in range(3):
        chosen = [f for f in feats if rng.random() < 0.5]
        if q.is_local:
            yield Witness.of_features(chosen)
        else:
            yield Witness.of_assignment({f: rng.randint(0, 1) for f in chosen})


def test_the_table_oracle_answers_like_the_enumeration_oracle():
    rng = random.Random(77)
    for _ in range(12):
        for model in _models(rng):
            feats = sorted(model_features(model))
            table = _oracle_for(model, 20)
            assert isinstance(table, TableOracle)
            enum = FunctionOracle(feats, lambda e, m=model: classify(m, e))
            for q in _queries(rng, feats):
                found = table.minimum(q)
                assert found == enum.minimum(q), (model.kind, q)
                for w in _witnesses(rng, q, feats, found):
                    assert table.holds(q, w) == enum.holds(q, w), (model.kind, q, w)
                    assert table.subset_minimal(q, w) == enum.subset_minimal(q, w)


@pytest.mark.parametrize("model", NO_FEATURES, ids=lambda m: m.kind)
def test_a_model_without_features_has_a_one_point_table(model):
    q = ExplanationQuery("gAXp", "subset", classify(model, {}))
    assert _oracle_for(model, 20).minimum(q) == Witness.of_assignment({})


def _every_query(rng, feats):
    """All four kinds, subset and every budget from 0 to n; both classes
    for the global kinds."""
    e = rand_example(rng, feats)
    for kind in KINDS:
        for target in ((e,) if kind in ("lAXp", "lCXp") else (0, 1)):
            yield ExplanationQuery(kind, "subset", target)
            for k in range(len(feats) + 1):
                yield ExplanationQuery(kind, "cardinality", target, k)


# (sha256, answers, answers that are None) of test_oracle_answers_are_pinned;
# changes only when some oracle answer does
ORACLE_ANSWERS = ("4c4844cae5aaaa6a9461f003adbe1815b00e8277dc2a8b099d37d9668683eb30", 7770, 2614)


def test_oracle_answers_are_pinned():
    """Every `TableOracle.minimum` answer over seeded trees, rule sets,
    rule lists, diagrams and their ensembles (through `oracle_min`) and
    over circuits from all six compilers for both classes (through
    `circuit_explain_bruteforce`)."""
    rng = random.Random(307)
    h, answers, nones = hashlib.sha256(), 0, 0
    for n in (1, 3, 5, 7):
        feats = [f"x{i}" for i in range(n)]
        for _ in range(3):
            makes = (rand_dt, rand_ds, rand_dl, rand_obdd)
            seeded = [make(rng, feats) for make in makes]
            seeded += [Ensemble([make(rng, feats) for _ in range(3)]) for make in makes]
            solvers = [(lambda q, m=m: oracle_min(m, q), sorted(model_features(m))) for m in seeded]
            for compile_fn, model in six_compiled(rng, feats):
                if model_features(model):
                    for c in (0, 1):
                        circuit = compile_fn(model, c)
                        solvers.append((lambda q, c=circuit: circuit_explain_bruteforce(c, q),
                                        list(circuit.inputs())))
            for solve, names in solvers:
                for q in _every_query(rng, names):
                    got = solve(q)
                    h.update(repr(got).encode() + b"\n")
                    answers += 1
                    nones += got is None
    assert (h.hexdigest(), answers, nones) == ORACLE_ANSWERS


def _count_ands(oracle):
    """Swap the oracle's class points and literals for ints that count the
    ANDs they take part in; results are plain ints, so an AND of two
    results would go uncounted, and the walk makes none."""
    count = [0]

    class Counted(int):
        def __and__(self, other):
            count[0] += 1
            return int.__and__(self, other)

        __rand__ = __and__

    oracle._points = tuple(map(Counted, oracle._points))
    oracle._literals = tuple(tuple(map(Counted, pair)) for pair in oracle._literals)
    return count


def test_the_table_walk_bounds_its_ands(monkeypatch):
    """In a size-s round, lAXp makes at most one AND per combination of
    size <= s, and gAXp and gCXp at most two per candidate of size <= s;
    the walk labels at most once per query and never calls `reaches` or
    `classify`."""

    def refused(*args):
        raise AssertionError("the walk called a check")

    monkeypatch.setattr(models, "classify", refused)
    rng = random.Random(41)
    rounds = nones = 0
    for n in (0, 1, 4, 6, 8, 8):
        feats = [f"x{i}" for i in range(n)]
        table = sum(1 << i for i in range(1 << n) if rng.random() < rng.choice((0.1, 0.5, 0.9)))
        for q in _every_query(rng, feats):
            if q.kind == "lCXp":
                continue
            oracle = TableOracle(feats, table)
            want = oracle.minimum(q)
            labels = []
            label = oracle.label
            oracle.label = lambda bits: labels.append(bits) or label(bits)
            oracle.reaches = refused
            ands = _count_ands(oracle)
            first = oracle._first(q, None)
            per = 1 if q.kind == "lAXp" else 2
            size, got = 0, None
            while got is None and size <= (n if q.k is None else q.k):
                before = ands[0]
                got = first(size)
                bound = sum(comb(n, j) * (1 if per == 1 else 2 ** j) for j in range(size + 1))
                assert ands[0] - before <= per * bound, (q, size)
                size += 1
                rounds += 1
            assert got == want, q
            assert len(labels) <= (q.kind == "lAXp"), q
            nones += got is None
    assert rounds > 700 and nones > 90, (rounds, nones)


def test_a_global_walk_holds_o_size_masks():
    """gAXp on a 16-feature parity table, which no assignment of at most
    k features forces: the walk tries every candidate, and beyond the
    table and its literals it holds a few masks per size, where keeping
    every value prefix would hold 2^(k+1)."""
    n, k = 16, 5
    parity = 0
    for j in range(n):
        parity ^= feature_mask(j, n)
    oracle = TableOracle([f"x{j:02d}" for j in range(n)], parity)
    tracemalloc.start()
    try:
        assert oracle.minimum(ExplanationQuery("gAXp", "cardinality", 1, k)) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    mask = (1 << n) // 8
    assert peak < 4 * (k + 1) * mask, peak / mask

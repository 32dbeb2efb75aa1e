"""Truth tables filled from model structure, checked point by point
against `classify`, and the table oracle against the enumeration one."""

import random
import time

import pytest

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
from xbool.tables import _oracle_for, at_least, feature_mask, literals, model_table

from helpers import (
    rand_dl,
    rand_ds,
    rand_dt,
    rand_dt_with_repeats,
    rand_example,
    rand_obdd,
    rand_sparse_obdd,
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

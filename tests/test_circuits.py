"""Gate validation, evaluation, compilers, and the compiled-form oracle."""

import copy
import functools
import hashlib
import itertools
import os
import pickle
import random
import subprocess
import sys
import tracemalloc
from collections import defaultdict
from collections.abc import Mapping
from types import MappingProxyType
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import xbool
from xbool import circuits
from xbool.circuits import (
    Circuit,
    Gate,
    circuit_explain_bruteforce,
    circuit_from_json,
    circuit_table,
    circuit_to_dot,
    circuit_to_json,
    compile_dl,
    compile_dl_ensemble,
    compile_dt,
    compile_dt_ensemble,
    compile_obdd,
    compile_obdd_ensemble_ordered,
    dumps_circuit,
    eval_circuit,
)
from xbool.dt import dt_ensemble_to_dt
from xbool.errors import ModelError, NotOrdered, TooLarge, UnassignedInput
from xbool.explain import (
    DEFAULT_GUARD,
    KINDS,
    ExplanationQuery,
    FunctionOracle,
    TableOracle,
    Witness,
    oracle_min,
)
from xbool.models import (
    DecisionList,
    DecisionTree,
    DtInner,
    DtLeaf,
    Ensemble,
    Obdd,
    ObddNode,
    classify,
    dl_size,
    dt_mnl,
    model_features,
    obdd_width,
    simplify_dt,
)
from xbool.obdd import obdd_ensemble_product
from xbool.tables import model_table

from helpers import (
    all_examples,
    eval_digest,
    json_paths,
    rand_dl,
    rand_dt,
    rand_obdd,
    rand_term,
    random_circuit,
    six_compiled,
    with_replaced,
)


def _circuit_matches(circuit: Circuit, model, c: int) -> bool:
    feats = sorted(model_features(model))
    return all(
        eval_circuit(circuit, e) == int(classify(model, e) == c)
        for e in all_examples(feats)
    )


# ---------------------------------------------------------------------------
# gate table validation and evaluation


def test_eval_and_gate():
    c = Circuit(
        {"x": Gate("IN"), "y": Gate("IN"), "o": Gate("AND", ("x", "y"))}, "o"
    )
    assert eval_circuit(c, {"x": 1, "y": 1}) == 1
    assert eval_circuit(c, {"x": 1, "y": 0}) == 0


def test_eval_maj_gate():
    c = Circuit(
        {
            "x": Gate("IN"),
            "y": Gate("IN"),
            "z": Gate("IN"),
            "o": Gate("MAJ", ("x", "y", "z"), threshold=2),
        },
        "o",
    )
    assert eval_circuit(c, {"x": 1, "y": 1, "z": 0}) == 1
    assert eval_circuit(c, {"x": 1, "y": 0, "z": 0}) == 0


def test_eval_maj_unreachable_threshold():
    c = Circuit({"x": Gate("IN"), "o": Gate("MAJ", ("x",), threshold=2)}, "o")
    assert eval_circuit(c, {"x": 0}) == 0
    assert eval_circuit(c, {"x": 1}) == 0


def test_eval_requires_all_inputs():
    c = Circuit({"x": Gate("IN"), "o": Gate("NOT", ("x",))}, "o")
    with pytest.raises(UnassignedInput):
        eval_circuit(c, {})


def test_eval_error_paths():
    c = Circuit(
        {"b": Gate("IN"), "c": Gate("IN"), "a": Gate("IN"), "o": Gate("AND", ("b", "a"))},
        "o",
    )
    # the first missing input in sorted order, unused ones included
    with pytest.raises(UnassignedInput, match="input 'a' is not assigned"):
        eval_circuit(c, {"b": 1})
    with pytest.raises(UnassignedInput, match="input 'c' is not assigned"):
        eval_circuit(c, {"a": 1, "b": 1})
    # a used input must be a bit; an unused one is only looked up
    with pytest.raises(ModelError, match="^input 'b' must be 0 or 1$"):
        eval_circuit(c, {"a": 1, "b": 2, "c": 0})
    assert eval_circuit(c, {"a": 1, "b": True, "c": "junk"}) == 1
    # two bad bits: the first in sorted order is named
    with pytest.raises(ModelError, match="^input 'a' must be 0 or 1$"):
        eval_circuit(c, {"a": 2, "b": 3, "c": 0})
    with pytest.raises(ModelError, match="^input 'a' must be 0 or 1$"):
        eval_circuit(c, {"a": None, "b": -1, "c": 0})
    # a missing input wins over a bad bit, even one earlier in sorted order
    with pytest.raises(UnassignedInput, match="input 'c' is not assigned"):
        eval_circuit(c, {"a": 2, "b": 1})
    with pytest.raises(UnassignedInput, match="input 'a' is not assigned"):
        eval_circuit(c, {"b": 2, "c": 0})


class _Bit:
    """Equal to one bit and true as that bit, but no number."""

    def __init__(self, bit):
        self.bit = bit

    def __eq__(self, other):
        return other == self.bit

    def __bool__(self):
        return bool(self.bit)


def test_eval_gives_an_int_for_bool_and_float_bits():
    # a bit is read by its truth, so anything equal to 0 or 1 works in
    # every gate, a MAJ's count included, and the result is an int
    ins = {f: Gate("IN") for f in ("a", "b")}
    shapes = [
        Circuit({**ins, "o": Gate("AND", ("a", "b"))}, "o"),
        Circuit({**ins, "o": Gate("OR", ("a", "b"))}, "o"),
        Circuit({**ins, "o": Gate("MAJ", ("a", "b", "a"), 2)}, "o"),
        Circuit({**ins, "o": Gate("NOT", ("a",))}, "o"),
        Circuit({**ins, "n": Gate("NOT", ("a",)), "o": Gate("NOT", ("n",))}, "o"),
        Circuit(ins, "a"),
    ]
    for c in shapes:
        for a, b in itertools.product((0, 1), repeat=2):
            want = eval_circuit(c, {"a": a, "b": b})
            for alpha in ({"a": bool(a), "b": bool(b)}, {"a": float(a), "b": float(b)},
                          {"a": bool(a), "b": float(b)}, {"a": _Bit(a), "b": _Bit(b)}):
                got = eval_circuit(c, alpha)
                assert type(got) is int and got == want, (c.output, alpha)


def _checked_by_loops(c: Circuit, alpha):
    """The refusal that checking one input at a time gives, as (type, args),
    or None: the reference `eval_circuit`'s one-pass checks must match."""
    for gid in c.inputs():
        if gid not in alpha:
            return UnassignedInput, (f"input {gid!r} is not assigned",)
    for gid in c._read:
        if alpha[gid] not in (0, 1):
            return ModelError, (f"input {gid!r} must be 0 or 1",)
    return None


def _outcome(c: Circuit, alpha):
    """`eval_circuit`'s answer, or its refusal as (type, args)."""
    try:
        return eval_circuit(c, alpha)
    except (UnassignedInput, ModelError) as refused:
        return type(refused), refused.args


class _Plain(Mapping):
    """The least a `Mapping` defines: no dict, no `keys` of its own."""

    def __init__(self, items):
        self._items = dict(items)

    def __getitem__(self, key):
        return self._items[key]

    def __iter__(self):
        return iter(self._items)

    def __len__(self):
        return len(self._items)


def test_eval_checks_refuse_and_accept_what_the_loops_did():
    # 'c' is an IN gate nothing reads: it must be assigned, but not a bit
    ins = {f: Gate("IN") for f in "dcba"}
    c = Circuit({**ins, "o": Gate("MAJ", ("b", "a", "d"), 2)}, "o")
    assert c._read == ("a", "b", "d")
    nan = float("nan")
    for missing, named in (("c", "c"), ("ca", "a"), ("dcba", "a"), ("db", "b"), ("d", "d")):
        alpha = {f: 1 for f in "abcd" if f not in missing}
        for given in (alpha, MappingProxyType(alpha), _Plain(alpha), defaultdict(int, alpha)):
            assert _outcome(c, given) == (UnassignedInput, (f"input '{named}' is not assigned",))
            assert dict(given) == alpha  # nothing looked up, so a defaultdict gains no key
    for bad in (2, nan, None, -1, 0.5, "1", [1]):
        for at, named in (("a", "a"), ("bd", "b"), ("d", "d"), ("abd", "a")):
            alpha = {f: bad if f in at else 1 for f in "abcd"}
            assert _outcome(c, alpha) == (ModelError, (f"input '{named}' must be 0 or 1",))
        # an unread input is looked up, not read
        assert eval_circuit(c, {"a": 1, "b": 0, "c": bad, "d": 1}) == 1
    # a value equal to both 0 and 1 is a bit to the loop, and it must not
    # let a non-bit beside it through
    both = {"a": mock.ANY, "b": 1, "c": 0, "d": 2}
    assert _outcome(c, both) == (ModelError, ("input 'd' must be 0 or 1",))
    assert eval_circuit(c, {**both, "d": 0}) == 1  # ANY is true, so a and b vote
    for a, b, d in itertools.product((0, 1, True, False, 1.0, 0.0, -0.0), repeat=3):
        want = int(bool(a) + bool(b) + bool(d) >= 2)
        alpha = {"a": a, "b": b, "c": nan, "d": d, "extra": 2}
        for given in (alpha, MappingProxyType(alpha), _Plain(alpha), defaultdict(int, alpha)):
            assert eval_circuit(c, given) == want
            assert dict(given) == alpha
    # seeded points over a palette of values, some inputs left out, against the loops
    rng = random.Random(149)
    palette = (0, 1, True, False, 1.0, 0.0, 2, -1, nan, None, "0", _Bit(0), _Bit(1), mock.ANY, [1])
    refused = 0
    for _ in range(400):
        alpha = {f: rng.choice(palette) for f in "abcd" if rng.random() < 0.9}
        want = _checked_by_loops(c, alpha)
        if want is None:
            want = _by_definition(c, {f: int(bool(alpha[f])) for f in c._read})
        refused += type(want) is tuple
        for given in (alpha, MappingProxyType(alpha), _Plain(alpha), defaultdict(int, alpha)):
            assert _outcome(c, given) == want, alpha
            assert dict(given) == alpha
    assert 100 < refused < 350


_WIDE = tuple(f"x{i:05d}" for i in range(20000))


def _wide_gate(kind: str, threshold=None) -> Circuit:
    """One gate of `kind` reading 20,000 inputs."""
    return Circuit({**{f: Gate("IN") for f in _WIDE}, "o": Gate(kind, _WIDE, threshold)}, "o")


def _counting_runs(monkeypatch):
    """The step loop's runs from here on, as the `full` of each."""
    runs, run = [], circuits._run

    def counted(c, full, input_value):
        runs.append(full)
        return run(c, full, input_value)

    monkeypatch.setattr(circuits, "_run", counted)
    return runs


def test_a_refused_evaluation_fills_no_table(monkeypatch):
    # the checks come first, so a refusal runs no program
    rng = random.Random(151)
    runs = _counting_runs(monkeypatch)
    for c in (_wide_gate("AND"), random_circuit(rng, tuple(f"x{i}" for i in range(10)), 40)):
        names, first = c.inputs(), c._read[0]
        assert _outcome(c, {}) == (UnassignedInput, (f"input {names[0]!r} is not assigned",))
        ones = dict.fromkeys(names, 1)
        assert _outcome(c, {**ones, first: 2}) == (ModelError, (f"input {first!r} must be 0 or 1",))
        assert c._table is None and runs == []
        assert eval_circuit(c, ones) == _by_definition(c, ones)
        # the wide gate runs on the point, the small circuit fills its table
        assert (c._table is None) == (len(names) > DEFAULT_GUARD)
        assert len(runs) == 1
        runs.clear()


def test_eval_runs_a_long_chain_without_recursion():
    # 20,002 steps alternating NOT and AND with a second input, and gates
    # of 20,000 inputs, under a recursion limit of 200: only a flat
    # program can build and evaluate them.  Each NOT/AND pair maps f to
    # (not f) and y, so an odd number of pairs leaves (not x) and y, which
    # is not symmetric: a transposed table would not match
    gates = {"x": Gate("IN"), "y": Gate("IN")}
    prev = "x"
    for i in range(20002):
        gid = f"g{i}"
        gates[gid] = Gate("NOT", (prev,)) if i % 2 == 0 else Gate("AND", (prev, "y"))
        prev = gid
    chain = Circuit(gates, prev)
    assert len(chain._steps) == 20002
    wide = {kind: _wide_gate(kind, threshold)
            for kind, threshold in (("AND", None), ("OR", None), ("MAJ", 10001))}
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        # two inputs: `eval_circuit` reads the table, so the step loop is
        # run on each point here directly
        at_point = _run_at(chain)
        points = [{"x": x, "y": y} for x, y in itertools.product((0, 1), repeat=2)]
        got = [eval_circuit(chain, e) for e in points]
        assert [at_point(e) for e in points] == got
        for ones in (0, 1, 10000, 10001, 19999, 20000):
            e = {f: int(i < ones) for i, f in enumerate(_WIDE)}
            assert [eval_circuit(wide[kind], e) for kind in ("AND", "OR", "MAJ")] == [
                int(ones == 20000), int(ones > 0), int(ones >= 10001)], ones
    finally:
        sys.setrecursionlimit(limit)
    for (x, y), out in zip(itertools.product((0, 1), repeat=2), got):
        assert out == (1 - x) & y
    # x sorts first, so it is bit 0 of a point's index
    assert circuit_table(chain) == sum(out << (x + 2 * y) for (x, y), out in zip(
        itertools.product((0, 1), repeat=2), got)) == 0b0100


class _Shouting(int):
    """An int that prints as something else: the threshold must enter
    the evaluation as its value, not as its text."""

    def __str__(self):
        return "0"

    __repr__ = __str__

    def __format__(self, spec):
        return "0 or __import__('os')"


def test_gate_ids_and_thresholds_never_enter_the_program_as_text():
    names = ("v0", "sum", "__import__('os')", "bits")
    gates = {f: Gate("IN") for f in names}
    gates["s0"] = Gate("AND", ("v0", "sum"))
    gates["kernel"] = Gate("NOT", ("s0",))
    gates["a) or (1"] = Gate("MAJ", ("kernel", "__import__('os')", "v0", "bits"), _Shouting(3))
    gates["truth"] = Gate("OR", ("a) or (1", "s0"))
    gates["v9"] = Gate("AND", ("truth",))
    c = Circuit(gates, "v9")
    plain = Circuit({**gates, "a) or (1": Gate("MAJ", gates["a) or (1"].inputs, 3)}, "v9")
    table = circuit_table(plain)
    at_point = _run_at(c)
    for i, e in enumerate(_points(c)):
        assert eval_circuit(c, e) == eval_circuit(plain, e) == _by_definition(plain, e) == table >> i & 1
        assert at_point(e) == table >> i & 1
    assert 0 < table < (1 << 16) - 1


def test_an_evaluated_circuit_fills_its_table_once_and_still_copies(monkeypatch):
    rng = random.Random(131)
    feats = tuple(f"x{i}" for i in range(5))
    runs = _counting_runs(monkeypatch)
    corpus = [compile_fn(model, 1) for compile_fn, model in six_compiled(rng, feats)
              if model_features(model)]
    corpus += [random_circuit(rng, feats, 12) for _ in range(4)]
    # 21 inputs, 16 of them unused, so this one runs its program on each point
    wide = random_circuit(rng, feats, 12)
    corpus.append(Circuit({**wide.gates, **{f"u{i:02d}": Gate("IN") for i in range(16)}}, "out"))
    assert len(corpus[-1].inputs()) == DEFAULT_GUARD + 1
    for c in corpus:
        points = list(_points(c)) if c is not corpus[-1] else _sampled(rng, c, 64)
        want = [eval_circuit(c, e) for e in points]
        assert want == [_by_definition(c, e) for e in points]
        for copied in (pickle.loads(pickle.dumps(c)), copy.copy(c), copy.deepcopy(c)):
            assert copied._table == c._table  # plain bytes, or None when wide
            assert [eval_circuit(copied, e) for e in points] == want
    # one fill per small circuit, which its copies share; the wide one ran
    # once per point, on it and on each of its three copies
    assert runs.count(1) == 4 * 64
    assert len(runs) == len(corpus) - 1 + 4 * 64


def test_the_table_stops_at_the_guard(monkeypatch):
    # at DEFAULT_GUARD inputs the first point fills the table, and every
    # point reads it; one input more and each point runs the step loop
    rng = random.Random(137)
    runs = _counting_runs(monkeypatch)
    for n in (DEFAULT_GUARD, DEFAULT_GUARD + 1):
        names = tuple(f"x{i:02d}" for i in range(n))
        c = random_circuit(rng, names, 60)
        assert len(c.inputs()) == n
        points = _sampled(rng, c, 200)
        want = [_by_definition(c, e) for e in points]
        assert [eval_circuit(c, e) for e in points] == want
        if n == DEFAULT_GUARD:
            assert len(c._table) == 1 << (n - 3)
            assert runs == [(1 << (1 << n)) - 1]
        else:
            assert c._table is None
            assert runs == [1] * 200
        at_point = _run_at(c)
        assert [at_point(e) for e in points] == want
        runs.clear()


def test_unused_input_is_legal_but_dangling_gate_is_not():
    Circuit({"x": Gate("IN"), "y": Gate("IN"), "o": Gate("NOT", ("x",))}, "o")
    with pytest.raises(ModelError):
        Circuit(
            {
                "x": Gate("IN"),
                "dead": Gate("NOT", ("x",)),
                "o": Gate("NOT", ("x",)),
            },
            "o",
        )


def test_cycle_rejected():
    x = Gate("IN")
    loop = {"a": Gate("NOT", ("b",)), "b": Gate("NOT", ("a",))}
    cases = [
        # a cycle through the output
        ({"x": x, "a": Gate("NOT", ("o",)), "o": Gate("AND", ("x", "a"))},
         "circuit contains a cycle"),
        # a cycle the output reads
        ({**loop, "o": Gate("OR", ("a", "b"))}, "circuit contains a cycle"),
        # a cycle the output never reaches
        ({"x": x, **loop, "o": Gate("NOT", ("x",))}, "circuit contains a cycle"),
        # a self-loop
        ({"x": x, "o": Gate("AND", ("x", "o"))}, "circuit contains a cycle"),
        # a gate that feeds nothing is named before the cycle beside it
        ({"x": x, **loop, "d": Gate("NOT", ("x",)), "o": Gate("NOT", ("x",))},
         "gate 'd' feeds nothing"),
    ]
    for gates, message in cases:
        with pytest.raises(ModelError) as refused:
            Circuit(gates, "o")
        assert str(refused.value) == message, gates


def test_threshold_rules():
    with pytest.raises(ModelError):
        Circuit({"x": Gate("IN"), "o": Gate("MAJ", ("x",))}, "o")
    with pytest.raises(ModelError):
        Circuit({"x": Gate("IN"), "o": Gate("AND", ("x",), threshold=1)}, "o")
    with pytest.raises(ModelError):
        Circuit({"x": Gate("IN"), "o": Gate("XOR", ("x",))}, "o")
    for bad in (True, 1.0, "1", None, 0, 4):
        with pytest.raises(ModelError, match="bad threshold"):
            Circuit({"x": Gate("IN"), "o": Gate("MAJ", ("x", "x"), bad)}, "o")
    with pytest.raises(ModelError, match="cannot carry a threshold"):
        Circuit({"x": Gate("IN", threshold=1), "o": Gate("NOT", ("x",))}, "o")


@pytest.mark.parametrize(
    "gates, message",
    [
        ({"x": Gate("IN")}, "^output 'o' is not a gate$"),
        ({"x": Gate("IN", ("x",)), "o": Gate("NOT", ("x",))}, "^IN gate 'x' cannot have inputs$"),
        ({"x": Gate("IN"), "o": Gate("NOT", ("x", "x"))}, "^NOT gate 'o' needs exactly one input$"),
        ({"x": Gate("IN"), "o": Gate("OR", ())}, "^gate 'o' needs at least one input$"),
        ({"x": Gate("IN"), "o": Gate("AND", ("x", "y"))}, "^gate 'o' reads missing gate 'y'$"),
    ],
)
def test_hand_built_circuit_shape_errors(gates, message):
    with pytest.raises(ModelError, match=message):
        Circuit(gates, "o")


def test_circuit_json_errors_are_model_errors():
    x = {"id": "x", "kind": "IN"}
    o = {"id": "o", "kind": "NOT", "inputs": ["x"]}
    for doc in (
        {"output": "o"},
        {"gates": {"x": x}, "output": "o"},
        {"gates": [{"kind": "IN"}, o], "output": "o"},
        {"gates": [x, o]},
        {"gates": [x, {"id": "o", "kind": "MAJ", "inputs": ["x"], "threshold": "2"}], "output": "o"},
        {"gates": [x, {"id": "o", "inputs": ["x"]}], "output": "o"},
        {"gates": [x, {"id": "o", "kind": "NOT", "inputs": "x"}], "output": "o"},
        {"gates": [x, o], "output": "o", "meta": []},
        {"gates": [x, o], "output": "o", "meta": {"target_class": 2}},
        [x, o],
    ):
        with pytest.raises(ModelError):
            circuit_from_json(doc)
    # a repeated id is refused by name, not reported as a cycle
    dup = {"id": "x", "kind": "NOT", "inputs": ["x"]}
    with pytest.raises(ModelError, match="^gate id 'x' appears twice$"):
        circuit_from_json({"gates": [x, dup], "output": "x"})
    # a miss names the object read: the circuit or the gate, not a model
    with pytest.raises(ModelError, match="^circuit object misses 'output'$"):
        circuit_from_json({"gates": []})
    with pytest.raises(ModelError, match="^gate object misses 'id'$"):
        circuit_from_json({"gates": [{"kind": "IN"}], "output": "x"})


@pytest.mark.parametrize(
    "meta, message",
    [
        ({"reported_width_bound": "x"},
         "^the circuit's meta field 'reported_width_bound' must be null or a "
         "non-negative integer, got 'x'$"),
        ({"reported_width_bound": -3}, "^the circuit's meta field 'reported_width_bound' "),
        ({"reported_width_bound": True}, "^the circuit's meta field 'reported_width_bound' "),
        ({"reported_width_bound": 2.0}, "^the circuit's meta field 'reported_width_bound' "),
        ({"source_kind": 7}, "^the circuit's meta field 'source_kind' must be a string, got int$"),
        ({"source_kind": None}, "^the circuit's meta field 'source_kind' must be a string"),
    ],
    ids=["bound-text", "bound-negative", "bound-bool", "bound-float", "kind-int", "kind-null"],
)
def test_circuit_json_refuses_a_malformed_meta(meta, message):
    doc = {"gates": [{"id": "x", "kind": "IN"}], "output": "x", "meta": meta}
    with pytest.raises(ModelError, match=message):
        circuit_from_json(doc)


@pytest.mark.parametrize(
    "meta, message",
    [
        ({"source_kind": 7}, "^the circuit's meta field 'source_kind' must be a string, got int$"),
        ({"reported_width_bound": -1},
         "^the circuit's meta field 'reported_width_bound' must be null or a "
         "non-negative integer, got -1$"),
        ({"reported_width_bound": True}, "^the circuit's meta field 'reported_width_bound' "),
    ],
    ids=["kind-int", "bound-negative", "bound-bool"],
)
def test_a_circuit_built_in_process_refuses_a_malformed_meta(meta, message):
    # the constructor checks what the JSON reader checks, so a circuit
    # never writes a document its reader refuses
    with pytest.raises(ModelError, match=message):
        Circuit({"x": Gate("IN")}, "x", **meta)


def test_circuit_json_keeps_a_well_formed_meta():
    doc = {"gates": [{"id": "x", "kind": "IN"}], "output": "x"}
    for bound in (None, 0, 7):
        meta = {"source_kind": "dt", "target_class": 0, "reported_width_bound": bound}
        assert circuit_to_json(circuit_from_json({**doc, "meta": meta}))["meta"] == meta
    assert circuit_to_json(circuit_from_json(doc))["meta"] == {
        "source_kind": "circuit", "target_class": 1, "reported_width_bound": None}


CIRCUIT_WORDS = st.sampled_from(
    ["x", "y", "o", "g0", "out", "IN", "AND", "OR", "NOT", "MAJ",
     "id", "kind", "inputs", "threshold", "gates", "output", "meta", "target_class"]
)
CIRCUIT_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-1, 4) | st.floats(allow_nan=False) | CIRCUIT_WORDS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(CIRCUIT_WORDS | st.text(max_size=2), inner, max_size=4),
    max_leaves=12,
)


@st.composite
def circuit_documents(draw):
    """A random valid circuit's JSON, with one field replaced half the time."""
    rng = draw(st.randoms(use_true_random=False))
    doc = circuit_to_json(random_circuit(rng, ("x", "y", "z"), rng.randint(0, 5)))
    if draw(st.booleans()):
        path = draw(st.sampled_from(list(json_paths(doc))))
        doc = with_replaced(doc, path, draw(CIRCUIT_JSON))
    return doc


@settings(max_examples=300, deadline=None)
@given(doc=circuit_documents() | CIRCUIT_JSON)
def test_circuit_from_json_returns_a_circuit_or_a_model_error(doc):
    try:
        got = circuit_from_json(doc)
    except ModelError:
        return
    assert isinstance(got, Circuit)


# ---------------------------------------------------------------------------
# tree compilers


def test_compile_and_tree(and_tree):
    c = compile_dt(and_tree, 1)
    assert _circuit_matches(c, and_tree, 1)
    assert c.maj_count() == 0
    assert c.reported_width_bound == 3 * 2 ** dt_mnl(simplify_dt(and_tree))
    assert _circuit_matches(compile_dt(and_tree, 0), and_tree, 0)


def test_ensemble_compilers_refuse_another_family(and_tree, fig1):
    with pytest.raises(ModelError, match="^expected an ensemble of decision trees$"):
        compile_dt_ensemble(Ensemble([fig1]), 1)
    with pytest.raises(ModelError, match="^expected an ensemble of decision lists$"):
        compile_dl_ensemble(Ensemble([and_tree]), 1)


def test_compile_featureless_model_is_an_error():
    const = DecisionTree({"r": DtLeaf(0)}, "r")
    with pytest.raises(ValueError):
        compile_dt(const, 0)


def _leaf(label: int) -> DecisionTree:
    return DecisionTree({"r": DtLeaf(label)}, "r")


def _default(label: int) -> DecisionList:
    return DecisionList([([], label)])


def test_ensembles_with_constant_members_compile_to_their_table(and_tree, fig1):
    # a one-leaf tree tests nothing and a default-only list has no term:
    # such a member votes a constant beside the member that reads features
    for compile_fn, constant, model in (
        (compile_dt_ensemble, _leaf, and_tree),
        (compile_dl_ensemble, _default, fig1),
    ):
        for labels in ((0, 0), (0, 1), (1, 1), (0, 0, 0, 1), (0, 1, 1, 1)):
            for at in range(len(labels) + 1):
                members = [constant(label) for label in labels]
                members.insert(at, model)
                ens = Ensemble(members)
                full = (1 << (1 << len(ens.features()))) - 1
                table = model_table(ens, sorted(ens.features()))
                for c in (0, 1):
                    circuit = compile_fn(ens, c)
                    assert circuit_table(circuit) == (table if c else full ^ table), (labels, at)


def test_compile_random_trees_exhaustively():
    rng = random.Random(139)
    feats = tuple(f"x{i}" for i in range(6))
    for _ in range(10):
        t = rand_dt(rng, feats)
        if not t.features():
            continue
        for c in (0, 1):
            assert _circuit_matches(compile_dt(t, c), t, c)


def test_compile_dt_ensemble_majority():
    def single(f):
        return DecisionTree(
            {"r": DtInner(f, "z", "o"), "z": DtLeaf(0), "o": DtLeaf(1)}, "r"
        )

    ens = Ensemble([single("f1"), single("f2"), single("f3")])
    c = compile_dt_ensemble(ens, 1)
    assert c.maj_count() == 1
    assert _circuit_matches(c, ens, 1)
    lone = Ensemble([single("f1")])
    c1 = compile_dt_ensemble(lone, 1)
    assert c1.maj_count() == 1
    assert c1.gates[c1.output].threshold == 1
    assert _circuit_matches(c1, lone, 1)


def test_compile_dt_ensemble_cross_check_with_product():
    rng = random.Random(149)
    feats = tuple(f"x{i}" for i in range(4))
    for _ in range(8):
        trees = [rand_dt(rng, feats) for _ in range(3)]
        ens = Ensemble(trees)
        if not ens.features():
            continue
        merged = dt_ensemble_to_dt(ens)
        if not merged.features():
            continue
        ce = compile_dt_ensemble(ens, 1)
        cm = compile_dt(merged, 1)
        for e in all_examples(sorted(ens.features())):
            assert eval_circuit(ce, e) == eval_circuit(cm, {f: e[f] for f in cm.inputs()})


# ---------------------------------------------------------------------------
# list compilers


def test_compile_fig1(fig1):
    c = compile_dl(fig1, 0)
    assert _circuit_matches(c, fig1, 0)
    assert c.maj_count() == 0
    assert c.reported_width_bound == 3 * 2 ** (3 * dl_size(fig1))
    assert _circuit_matches(compile_dl(fig1, 1), fig1, 1)


def test_compile_random_lists_exhaustively():
    rng = random.Random(151)
    for _ in range(12):
        feats = tuple(f"x{i}" for i in range(rng.randint(1, 6)))
        dl = rand_dl(rng, feats)
        if not dl.features():
            continue
        for c in (0, 1):
            assert _circuit_matches(compile_dl(dl, c), dl, c)


def test_compile_dl_ensemble(fig1):
    shifted = DecisionList(
        [
            ([("x", 0), ("y", 0)], 0),
            ([("y", 1), ("z", 0)], 1),
            ([], 0),
        ]
    )
    third = DecisionList([([("z", 1)], 1), ([], 0)])
    ens = Ensemble([fig1, shifted, third])
    c = compile_dl_ensemble(ens, 1)
    assert c.maj_count() == 1
    assert _circuit_matches(c, ens, 1)
    # majority of per-element indicator circuits agrees
    parts = [compile_dl(dl, 1) for dl in ens.elements]
    for e in all_examples(("x", "y", "z")):
        votes = sum(
            eval_circuit(p, {f: e[f] for f in p.inputs()}) for p in parts
        )
        assert eval_circuit(c, e) == int(votes >= 2)


# ---------------------------------------------------------------------------
# diagram compilers


def test_compile_xor_obdd(xor_obdd):
    c = compile_obdd(xor_obdd, 1)
    assert _circuit_matches(c, xor_obdd, 1)
    assert c.maj_count() == 0
    assert c.reported_width_bound == 5 * obdd_width(xor_obdd)


def test_compile_constant_obdd_with_declared_order():
    o = Obdd({}, "t1", "t0", "t1", ("f1",))
    c = compile_obdd(o, 1)
    for e in all_examples(("f1",)):
        assert eval_circuit(c, e) == 1
        assert eval_circuit(compile_obdd(o, 0), e) == 0


def test_compile_random_obdds_exhaustively():
    rng = random.Random(157)
    for _ in range(10):
        feats = tuple(f"x{i}" for i in range(rng.randint(1, 6)))
        o = rand_obdd(rng, feats)
        for c in (0, 1):
            assert _circuit_matches(compile_obdd(o, c), o, c)


def test_compile_obdd_ensemble_ordered():
    def single(f, order):
        return Obdd({"s": ObddNode(f, "t0", "t1")}, "s", "t0", "t1", order)

    order = ("f1", "f2", "f3")
    ens = Ensemble([single(f, order) for f in order])
    c = compile_obdd_ensemble_ordered(ens, 1)
    assert c.maj_count() == 1
    assert _circuit_matches(c, ens, 1)
    bound = 3 * 2 ** (3 * 5 * max(obdd_width(el) for el in ens.elements))
    assert c.reported_width_bound == bound
    # rejects order disagreement with the product's error
    bad = Ensemble(
        [single("f1", ("f1", "f2")), single("f2", ("f2", "f1")), single("f1", ("f1", "f2"))]
    )
    with pytest.raises(NotOrdered) as compiled:
        compile_obdd_ensemble_ordered(bad, 1)
    with pytest.raises(NotOrdered) as multiplied:
        obdd_ensemble_product(bad)
    assert str(compiled.value) == str(multiplied.value)


def test_compile_obdd_ensemble_cross_check_with_product():
    rng = random.Random(163)
    feats = tuple(f"x{i}" for i in range(4))
    for _ in range(8):
        elems = [rand_obdd(rng, feats) for _ in range(3)]
        ens = Ensemble(elems)
        prod = obdd_ensemble_product(ens)
        ce = compile_obdd_ensemble_ordered(ens, 1)
        cp = compile_obdd(prod, 1)
        for e in all_examples(feats):
            assert eval_circuit(ce, e) == eval_circuit(cp, {f: e[f] for f in cp.inputs()})


# ---------------------------------------------------------------------------
# truth tables


def _points(c: Circuit):
    """Every input point, in the order of the table's bits."""
    names = c.inputs()
    for i in range(1 << len(names)):
        yield {f: i >> j & 1 for j, f in enumerate(names)}


def _sampled(rng, c: Circuit, count: int):
    """`count` seeded points over the circuit's inputs."""
    return [{f: rng.randint(0, 1) for f in c.inputs()} for _ in range(count)]


def _run_at(c: Circuit):
    """The step loop on one point, as `eval_circuit` runs it over more than
    DEFAULT_GUARD inputs: small circuits never reach it otherwise."""
    return lambda e: 1 if circuits._run(c, 1, e.__getitem__) else 0


def _by_definition(c: Circuit, e) -> int:
    """Each gate read off its definition, recursively from the output,
    once per gate: a diagram's circuit shares its gates along every path."""

    @functools.cache
    def value(gid: str) -> int:
        gate = c.gates[gid]
        if gate.kind == "IN":
            return e[gid]
        ones = sum(value(src) for src in gate.inputs)
        if gate.kind == "NOT":
            return 1 - ones
        need = {"AND": len(gate.inputs), "OR": 1, "MAJ": gate.threshold}[gate.kind]
        return int(ones >= need)

    return value(c.output)


def test_table_equals_eval_at_every_point():
    rng = random.Random(171)
    feats = tuple(f"x{i}" for i in range(5))
    for _ in range(6):
        for compile_fn, model in six_compiled(rng, feats):
            if not model_features(model):
                continue
            for c in (0, 1):
                circuit = compile_fn(model, c)
                table = circuit_table(circuit)
                at_point = _run_at(circuit)
                for i, e in enumerate(_points(circuit)):
                    assert table >> i & 1 == eval_circuit(circuit, e) == at_point(e)
                    assert eval_circuit(circuit, e) == int(classify(model, e) == c)
                assert table >> (1 << len(circuit.inputs())) == 0
    for _ in range(150):
        circuit = random_circuit(rng, feats[: rng.randint(1, 5)], rng.randint(0, 12))
        table = circuit_table(circuit)
        at_point = _run_at(circuit)
        for i, e in enumerate(_points(circuit)):
            assert (table >> i & 1 == eval_circuit(circuit, e) == _by_definition(circuit, e)
                    == at_point(e))


# eval_digest(); changes only when some point evaluates differently
EVAL_DIGEST = "673595cffab96afd60b94da4ced0bc20a2b945e8f7cad72bbe978ec7be3aeb9b"


def test_eval_is_pinned_at_every_point():
    assert eval_digest() == EVAL_DIGEST


def test_maj_at_every_threshold():
    for size in range(1, 6):
        names = tuple(f"x{i}" for i in range(size))
        for srcs in (names, names + names[:1]):
            for t in range(1, len(srcs) + 2):
                gates = {f: Gate("IN") for f in names}
                gates["o"] = Gate("MAJ", srcs, t)
                c = Circuit(gates, "o")
                table = circuit_table(c)
                for i, e in enumerate(_points(c)):
                    want = int(sum(e[f] for f in srcs) >= t)
                    assert eval_circuit(c, e) == want == table >> i & 1, (srcs, t, e)


def test_table_memory_follows_live_values_not_gates():
    gates = {f"x{i}": Gate("IN") for i in range(16)}
    prev = "x0"
    for i in range(3000):
        gates[f"n{i}"] = Gate("NOT", (prev,))
        prev = f"n{i}"
    c = Circuit(gates, prev)
    tracemalloc.start()
    try:
        table = circuit_table(c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table == int("10" * (1 << 15), 2)  # an even chain is x0 itself
    # one table is 2^16 bits; holding every gate's would be 3,000 of them
    assert peak < 8 * (1 << 16) // 8, peak


def _wide_diagram(n: int, width: int) -> Obdd:
    """Complete diagram over n features whose nodes all compute different
    functions: levels widen by doubling from the source up to `width`
    nodes and narrow by halving to two nodes above the sinks, and no two
    nodes of a level share their pair of children."""
    order = tuple(f"x{lv:02d}" for lv in range(n))
    widths = [min(2 ** lv, 2 ** (n - lv), width) for lv in range(n)]
    nodes = {}
    for lv, w in enumerate(widths):
        below = widths[lv + 1] if lv + 1 < n else 0
        for i in range(w):
            if not below:
                zero, one = ("t0", "t1") if i == 0 else ("t1", "t0")
            elif below > w:
                zero, one = f"n{lv + 1}.{2 * i}", f"n{lv + 1}.{2 * i + 1}"
            else:
                zero = f"n{lv + 1}.{i % below}"
                one = f"n{lv + 1}.{(i + 1 + i // below) % below}"
            nodes[f"n{lv}.{i}"] = ObddNode(order[lv], zero, one)
    return Obdd(nodes, "n0.0", "t0", "t1", order)


def test_compiled_table_memory_follows_live_values_not_gates():
    c = compile_obdd(_wide_diagram(16, 8), 1)
    tracemalloc.start()
    try:
        table = circuit_table(c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    points = list(_points(c))
    for i in range(0, len(points), 997):
        assert table >> i & 1 == eval_circuit(c, points[i])
    # one table is 2^16 bits: the program holds two levels of the diagram
    # and the negated inputs at a time, not its 300-odd gates
    assert len(c.gates) > 300
    assert peak < 40 * (1 << 16) // 8, peak


def test_a_long_list_table_spends_each_block_before_the_next():
    # 400 rules over 16 features: in the builder's order every rule's AND
    # is made before any block's OR, and the table held about 340 masks
    # at once; in post-order each block's ANDs are spent at its OR
    rng = random.Random(0)
    feats = [f"x{i:02d}" for i in range(16)]
    rules = [(rand_term(rng, feats, 4), rng.randint(0, 1)) for _ in range(400)]
    c = compile_dl(DecisionList(rules + [([], 1)]), 1)
    tracemalloc.start()
    try:
        table = circuit_table(c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    points = list(_points(c))
    for i in range(0, len(points), 997):
        assert table >> i & 1 == eval_circuit(c, points[i])
    assert peak < 250 * (1 << 16) // 8, peak


def test_table_oracle_agrees_with_the_enumeration_oracle():
    rng = random.Random(173)
    for n in (0, 1, 2, 3, 4, 5, 6, 7, 7, 7):
        feats = [f"x{i}" for i in range(n)]
        table = rng.getrandbits(1 << n)

        def label(e, table=table, feats=feats):
            return table >> sum(e[f] << j for j, f in enumerate(feats)) & 1

        enum, fast = FunctionOracle(feats, label), TableOracle(feats, table)
        e = {f: rng.randint(0, 1) for f in feats}
        for kind in KINDS:
            target = e if kind in ("lAXp", "lCXp") else rng.randint(0, 1)
            q = ExplanationQuery(kind, "subset", target)
            for k in range(n + 1):
                qk = ExplanationQuery(kind, "cardinality", target, k)
                assert fast.minimum(qk) == enum.minimum(qk), (kind, k)
            assert fast.minimum(q) == enum.minimum(q), kind
            for size in range(n + 1):
                for combo in itertools.combinations(feats, size):
                    if kind in ("lAXp", "lCXp"):
                        w = Witness.of_features(combo)
                    else:
                        w = Witness.of_assignment({f: rng.randint(0, 1) for f in combo})
                    assert fast.holds(q, w) == enum.holds(q, w), (kind, w)
                    assert fast.subset_minimal(q, w) == enum.subset_minimal(q, w), (kind, w)
    for bad in (-1, 4):
        with pytest.raises(ModelError, match="must fit in 2 bits"):
            TableOracle(["x"], bad)


# test_circuit_verify_points_are_pinned: sha256 of every point the
# classifier receives and every verdict; changes only when a circuit verify
# asks for other points, in another order, or answers otherwise
VERIFY_POINTS = "e63d6c5674db5256a815a2d595843e58d6809ebc9bea514bfc7766c09ebed7d4"


def test_circuit_verify_points_are_pinned():
    """The benchmark's circuit verify on seeded compiled circuits: one
    `FunctionOracle` over `eval_circuit` checks a subset-minimal witness M,
    M plus one feature and M minus one, each by `holds` then
    `subset_minimal`, over every kind at both minimalities."""
    rng = random.Random(239)
    feats = tuple(f"x{i}" for i in range(7))
    h = hashlib.sha256()
    verdicts = set()

    def classify_fn(c, e):
        h.update(repr(list(e.items())).encode())
        return eval_circuit(c, e)

    for _ in range(3):
        for compile_fn, model in six_compiled(rng, feats):
            if not model_features(model):
                continue
            c = compile_fn(model, 1)
            names, referee = c.inputs(), TableOracle(c.inputs(), circuit_table(c))
            for kind, minimality in itertools.product(KINDS, ("subset", "cardinality")):
                e = {f: rng.randint(0, 1) for f in names}
                local = kind in ("lAXp", "lCXp")
                target = e if local else referee.example_class(e) ^ (kind == "gCXp")

                def wrap(kept):
                    kept = sorted(kept)
                    return (Witness.of_features(kept) if local
                            else Witness.of_assignment({f: e[f] for f in kept}))

                q = ExplanationQuery(kind, "subset", target)
                kept = list(names)
                if referee.holds(q, wrap(kept)):
                    for f in rng.sample(names, len(names)):
                        trial = [g for g in kept if g != f]
                        if referee.holds(q, wrap(trial)):
                            kept = trial
                spare = [f for f in names if f not in kept]
                trio = [wrap(kept), wrap(kept + [rng.choice(spare)]) if spare else wrap(kept),
                        wrap([f for f in kept if f != rng.choice(kept)]) if kept else wrap(kept)]
                if minimality == "cardinality":
                    q = ExplanationQuery(kind, minimality, target, len(kept))
                oracle = FunctionOracle(names, functools.partial(classify_fn, c))
                for w in trio:
                    verdict = (oracle.holds(q, w), oracle.subset_minimal(q, w))
                    verdicts.add(verdict)
                    h.update(repr(verdict).encode())
    assert verdicts == {(True, True), (True, False), (False, False)}
    assert h.hexdigest() == VERIFY_POINTS


# ---------------------------------------------------------------------------
# the compiled program


# compiled_digest(); changes only when compiled output does
COMPILED_DIGEST = "c7780be1f6190d62a4907cd4cf364319bb914e06ce8fcf13edc65bb326076a08"


def test_compiled_output_is_pinned():
    # a child process per string-hash seed: gate numbers must not follow
    # the iteration order of any set of names
    src = os.path.dirname(os.path.dirname(os.path.abspath(xbool.__file__)))
    for hash_seed in ("0", "1"):
        env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join([src, os.path.dirname(os.path.abspath(__file__))]),
            PYTHONHASHSEED=hash_seed,
        )
        proc = subprocess.run(
            [sys.executable, "-c", "from helpers import compiled_digest; print(compiled_digest())"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == COMPILED_DIGEST, hash_seed


def test_compiled_circuits_pass_the_checked_constructor():
    rng = random.Random(193)
    for feats in (("x0", "x1", "x2", "x3", "x4"), ("@0", "@0~", "@1", "x")):
        for _ in range(4):
            for compile_fn, model in six_compiled(rng, feats):
                if not model_features(model):
                    continue
                for c in (0, 1):
                    compiled = compile_fn(model, c)
                    checked = Circuit(
                        compiled.gates,
                        compiled.output,
                        compiled.source_kind,
                        compiled.target_class,
                        compiled.reported_width_bound,
                    )
                    assert checked.inputs() == compiled.inputs()
                    assert circuit_table(checked) == circuit_table(compiled)
                    assert checked.maj_count() == compiled.maj_count()
                    assert dumps_circuit(checked) == dumps_circuit(compiled)
                    for _ in range(8):
                        e = {f: rng.randint(0, 1) for f in compiled.inputs()}
                        assert eval_circuit(checked, e) == eval_circuit(compiled, e)


def test_compile_builds_gate_records_only_when_read(monkeypatch):
    built = []
    init = Gate.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Gate, "__init__", counted)
    rng = random.Random(197)
    for compile_fn, model in six_compiled(rng, tuple(f"x{i}" for i in range(5))):
        if not model_features(model):
            continue
        c = compile_fn(model, 1)
        circuit_table(c)
        eval_circuit(c, {f: 0 for f in c.inputs()})
        circuit_explain_bruteforce(c, ExplanationQuery("gAXp", "subset", 1))
        c.maj_count()
        assert built == []
        gates = c.gates
        assert len(built) == len(gates) and c.gates is gates
        built.clear()


def _min_degree_width(c: Circuit) -> int:
    """Width of a min-degree elimination order (ties by name) on the
    circuit's undirected gate graph: an upper bound on its treewidth."""
    graph = {gid: set() for gid in c.gates}
    for gid, gate in c.gates.items():
        for src in gate.inputs:
            if src != gid:
                graph[gid].add(src)
                graph[src].add(gid)
    width = 0
    while graph:
        gid = min(graph, key=lambda g: (len(graph[g]), g))
        near = graph.pop(gid)
        width = max(width, len(near))
        for other in near:
            graph[other] |= near - {other}
            graph[other].discard(gid)
    return width


def test_reported_width_bound_holds_for_a_min_degree_order():
    # an elimination order's width bounds the treewidth from above, so a
    # compiled circuit whose order stays within its reported bound has a
    # treewidth within it too
    rng = random.Random(199)
    for feats in (("x0", "x1", "x2", "x3", "x4"), ("@0", "@0~", "@1", "x")):
        for _ in range(6):
            for compile_fn, model in six_compiled(rng, feats):
                if not model_features(model):
                    continue
                for c in (0, 1):
                    circuit = compile_fn(model, c)
                    width = _min_degree_width(circuit)
                    assert width <= circuit.reported_width_bound, (compile_fn.__name__, width)


def test_builder_refuses_a_gate_without_inputs():
    b = circuits._Builder(["@0", "x"])
    with pytest.raises(ModelError, match="^gate '@0~' needs at least one input$"):
        b.add("OR", ())


# ---------------------------------------------------------------------------
# explanation over compiled circuits


def test_circuit_explain_reads_the_table_not_points(monkeypatch):
    calls = []
    real = circuits.eval_circuit
    monkeypatch.setattr(circuits, "eval_circuit", lambda c, e: calls.append(e) or real(c, e))
    rng = random.Random(177)
    feats = tuple(f"x{i}" for i in range(4))
    for _ in range(3):
        for compile_fn, model in six_compiled(rng, feats):
            if not model_features(model):
                continue
            e = {f: rng.randint(0, 1) for f in feats}
            for kind in KINDS:
                target = e if kind in ("lAXp", "lCXp") else rng.randint(0, 1)
                for q in (
                    ExplanationQuery(kind, "subset", target),
                    ExplanationQuery(kind, "cardinality", target, 1),
                ):
                    want = oracle_min(model, q)
                    for c in (0, 1):
                        assert circuit_explain_bruteforce(compile_fn(model, c), q) == want
    assert calls == []
    wide = compile_dt(rand_dt(rng, feats, split=1.0), 1)
    with pytest.raises(TooLarge, match="^4 inputs exceed the guard of 3$"):
        circuit_explain_bruteforce(wide, ExplanationQuery("gAXp", "subset", 1), guard=3)


def test_circuit_bruteforce_matches_model_oracle(and_tree, fig1, fig1_e):
    e11 = {"f1": 1, "f2": 1}
    got = circuit_explain_bruteforce(
        compile_dt(and_tree, 1), ExplanationQuery("lAXp", "subset", e11)
    )
    assert got == Witness.of_features(("f1", "f2"))
    got = circuit_explain_bruteforce(
        compile_dl(fig1, 0), ExplanationQuery("lCXp", "subset", fig1_e)
    )
    assert got is not None and got.size == 1
    want = oracle_min(fig1, ExplanationQuery("lCXp", "subset", fig1_e))
    assert got == want


def test_circuit_bruteforce_constant_gaxp():
    o = Obdd({}, "t0", "t0", "t1", ("f1",))
    c = compile_obdd(o, 1)
    got = circuit_explain_bruteforce(c, ExplanationQuery("gAXp", "subset", 0))
    assert got is not None and got.size == 0


def test_circuit_bruteforce_respects_indicator_class():
    # both compilations of the same model answer identically
    rng = random.Random(167)
    feats = tuple(f"x{i}" for i in range(4))
    for _ in range(6):
        o = rand_obdd(rng, feats)
        e = {f: rng.randint(0, 1) for f in feats}
        q = ExplanationQuery("lAXp", "subset", e)
        w0 = circuit_explain_bruteforce(compile_obdd(o, 0), q)
        w1 = circuit_explain_bruteforce(compile_obdd(o, 1), q)
        assert w0 == w1 == oracle_min(o, q)


# ---------------------------------------------------------------------------
# serialization


def test_circuit_json_round_trip(fig1):
    c = compile_dl(fig1, 0)
    back = circuit_from_json(circuit_to_json(c))
    assert dumps_circuit(back) == dumps_circuit(c)
    for e in all_examples(("x", "y", "z")):
        assert eval_circuit(back, e) == eval_circuit(c, e)
    assert back.reported_width_bound == c.reported_width_bound
    assert back.source_kind == c.source_kind


def test_circuit_dot_smoke(and_tree):
    dot = circuit_to_dot(compile_dt(and_tree, 1))
    assert dot.startswith("digraph") and dot.endswith("}\n")
    assert '"f1"' in dot and "->" in dot

"""Command-line behaviors: explain/verify/generate/bench and exit codes."""

import contextlib
import copy
import hashlib
import io
import itertools
import json
import os
import pickle
import random
import resource
import subprocess
import sys
import tempfile
import threading
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import xbool
from xbool.cli import (
    DEFAULT_CAP, ROUTES, _read_plain, _verdicts, build_parser, cmd_verify, main,
)
from xbool.errors import ModelError
from xbool.explain import DEFAULT_GUARD, ExplanationQuery, Witness, verify_subset_minimal
from xbool.models import (
    DecisionList, DecisionSet, DecisionTree, DtInner, DtLeaf, Ensemble, dumps_model,
)

from helpers import chain_dt, json_paths, with_replaced

FIG1 = DecisionList(
    [
        ([("x", 1), ("y", 1)], 0),
        ([("x", 0), ("z", 0)], 1),
        ([("y", 0), ("z", 1)], 0),
        ([], 1),
    ]
)
E = {"x": 0, "y": 0, "z": 1}
Q_LCXP1 = json.dumps(
    {"kind": "lCXp", "minimality": "cardinality", "target": E, "k": 1}
)
Q_LAXP = json.dumps({"kind": "lAXp", "minimality": "subset", "target": E})


@pytest.fixture
def fig1_path(tmp_path):
    path = tmp_path / "fig1.json"
    path.write_text(dumps_model(FIG1))
    return str(path)


def run(capsys, *argv, expect=0):
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == expect, (argv, code, out)
    return out


# ---------------------------------------------------------------------------
# explain


def test_explain_fig1_contrastive(capsys, fig1_path):
    out = run(capsys, "explain", "--model", fig1_path, "--query", Q_LCXP1)
    payload = json.loads(out)
    assert payload["witness"] == ["z"] and payload["size"] == 1
    assert payload["algorithm"] == "branching"
    assert payload["parameters"]["terms_elem"] == 4


def test_explain_budget_zero_exits_3(capsys, fig1_path):
    q0 = json.dumps({"kind": "lCXp", "minimality": "cardinality", "target": E, "k": 0})
    out = run(capsys, "explain", "--model", fig1_path, "--query", q0, expect=3)
    payload = json.loads(out)
    assert payload["witness"] is None and payload["size"] is None


def test_explain_fig1_abductive(capsys, fig1_path):
    out = run(capsys, "explain", "--model", fig1_path, "--query", Q_LAXP)
    payload = json.loads(out)
    assert payload["witness"] == ["y", "z"]
    assert payload["algorithm"] == "bruteforce"


def test_explain_forced_route_mismatch_exits_2(capsys, fig1_path):
    out = run(
        capsys, "explain", "--model", fig1_path, "--query", Q_LCXP1,
        "--route", "dt", expect=2,
    )
    assert json.loads(out)["error"]["type"] == "ModelError"


def test_explain_broken_query_exits_2(capsys, fig1_path):
    out = run(capsys, "explain", "--model", fig1_path, "--query", "{broken", expect=2)
    assert json.loads(out)["error"]["type"] == "JSONDecodeError"


def test_explain_missing_file_exits_2(capsys, tmp_path):
    out = run(
        capsys, "explain", "--model", str(tmp_path / "nope.json"),
        "--query", Q_LCXP1, expect=2,
    )
    assert json.loads(out)["error"]["type"] in ("FileNotFoundError", "OSError")


def test_explain_constant_model_other_class_exits_3(capsys, tmp_path):
    path = tmp_path / "const.json"
    path.write_text(json.dumps({"kind": "dt", "root": "r", "nodes": {"r": {"leaf": 0}}}))
    q = json.dumps({"kind": "gAXp", "minimality": "subset", "target": 1})
    run(capsys, "explain", "--model", str(path), "--query", q, expect=3)


def test_explain_past_guard_exits_1(capsys, tmp_path):
    feats = [f"v{i:02d}" for i in range(25)]
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({
        "kind": "ds",
        "default": 0,
        "terms": [[[f, 1] for f in feats]],
    }))
    q = json.dumps({"kind": "lAXp", "minimality": "subset",
                    "target": {f: 1 for f in feats}})
    out = run(capsys, "explain", "--model", str(path), "--query", q, expect=1)
    assert json.loads(out)["error"]["type"] == "TooLarge"


def test_branching_is_deeper_than_the_recursion_limit(capsys, tmp_path):
    # all rules fire on the all-zero example, so the default is reached
    # only by flipping every feature, one branching level per rule
    m = sys.getrecursionlimit() + 100
    feats = [f"x{i:05d}" for i in range(m)]
    model = {"kind": "dl", "rules": [[[[f, 0]], 0] for f in feats] + [[[], 1]]}
    query = {"kind": "lCXp", "minimality": "cardinality",
             "target": {f: 0 for f in feats}, "k": m}
    model_path, query_path = tmp_path / "deep.json", tmp_path / "q.json"
    model_path.write_text(json.dumps(model))
    query_path.write_text(json.dumps(query))
    out = run(capsys, "explain", "--model", str(model_path), "--query", str(query_path))
    payload = json.loads(out)
    assert payload["algorithm"] == "branching"
    assert payload["size"] == m and payload["witness"] == feats


def test_explain_with_timeout_headroom(capsys, fig1_path):
    out = run(
        capsys, "explain", "--model", fig1_path, "--query", Q_LCXP1,
        "--timeout-ms", "30000",
    )
    assert json.loads(out)["size"] == 1


OBDD_XY = {
    "kind": "obdd",
    "nodes": {"s": {"feature": "x", "zero": "t0", "one": "t1"}},
    "source": "s",
    "t0": "t0",
    "t1": "t1",
}


def _leaves_tree(feature, zero, one):
    return {
        "kind": "dt",
        "root": "r",
        "nodes": {
            "r": {"feature": feature, "zero": "a", "one": "b"},
            "a": {"leaf": zero},
            "b": {"leaf": one},
        },
    }


def _chain_diagram(first, second, order=("x", "y", "z")):
    """Accepts iff `first` and `second` are both set."""
    return {
        "kind": "obdd",
        "source": "s",
        "t0": "t0",
        "t1": "t1",
        "order": list(order),
        "nodes": {
            "s": {"feature": first, "zero": "t0", "one": "a"},
            "a": {"feature": second, "zero": "t0", "one": "t1"},
        },
    }


TREE_ENSEMBLE = {
    "kind": "ensemble",
    "elements": [_leaves_tree("x", 0, 1), _leaves_tree("y", 1, 0), _leaves_tree("z", 0, 1)],
}
# family -> (model, extra arguments); every model reads x, y and z
ROUTE_FAMILIES = {
    "tree": ({
        "kind": "dt",
        "root": "r",
        "nodes": {
            "r": {"feature": "x", "zero": "a", "one": "b"},
            "a": {"feature": "z", "zero": "a0", "one": "a1"},
            "b": {"feature": "y", "zero": "b0", "one": "b1"},
            "a0": {"leaf": 0}, "a1": {"leaf": 1}, "b0": {"leaf": 1}, "b1": {"leaf": 0},
        },
    }, []),
    "diagram": (_chain_diagram("x", "y"), []),
    "set": ({"kind": "ds", "terms": [[["x", 1], ["y", 0]], [["z", 1]]], "default": 0}, []),
    "list": (json.loads(dumps_model(FIG1)), []),
    "tree ensemble": (TREE_ENSEMBLE, []),
    "tree ensemble over the cap": (TREE_ENSEMBLE, ["--cap-nodes", "2"]),
    "diagram ensemble": ({
        "kind": "ensemble",
        "elements": [_chain_diagram("x", "y"), _chain_diagram("y", "z"), _chain_diagram("x", "z")],
    }, []),
    "diagram ensemble out of order": ({
        "kind": "ensemble",
        "elements": [_chain_diagram("x", "y"), _chain_diagram("y", "x", ("y", "x", "z")),
                     _chain_diagram("x", "z", ("x", "z", "y"))],
    }, []),
}
ROUTE_QUERIES = {
    "lCXp": {"kind": "lCXp", "minimality": "cardinality", "target": E, "k": 2},
    "lAXp": {"kind": "lAXp", "minimality": "subset", "target": E},
}
# (family, query) -> one cell per route in ROUTES order: the "algorithm"
# of an answer (exit 0), or "<exit code>:<error type>"
ROUTE_MATRIX = {
    ("tree", "lAXp"): ("dt", "dt", "2:ModelError", "2:ModelError", "2:ModelError", "bruteforce"),
    ("tree", "lCXp"): ("dt", "dt", "2:ModelError", "2:ModelError", "2:ModelError", "bruteforce"),
    ("diagram", "lAXp"): ("obdd", "2:ModelError", "obdd", "2:ModelError", "2:ModelError", "bruteforce"),
    ("diagram", "lCXp"): ("obdd", "2:ModelError", "obdd", "2:ModelError", "2:ModelError", "bruteforce"),
    ("set", "lAXp"): ("bruteforce", "2:ModelError", "2:ModelError", "2:ModelError", "2:ModelError", "bruteforce"),
    ("set", "lCXp"): ("branching", "2:ModelError", "2:ModelError", "branching", "2:ModelError", "bruteforce"),
    ("list", "lAXp"): ("bruteforce", "2:ModelError", "2:ModelError", "2:ModelError", "2:ModelError", "bruteforce"),
    ("list", "lCXp"): ("branching", "2:ModelError", "2:ModelError", "branching", "2:ModelError", "bruteforce"),
    ("tree ensemble", "lAXp"): ("product", "2:ModelError", "2:ModelError", "2:ModelError", "product", "bruteforce"),
    ("tree ensemble", "lCXp"): ("product", "2:ModelError", "2:ModelError", "2:ModelError", "product", "bruteforce"),
    ("tree ensemble over the cap", "lAXp"): (
        "bruteforce", "2:ModelError", "2:ModelError", "2:ModelError", "1:BudgetExceeded", "bruteforce"),
    ("tree ensemble over the cap", "lCXp"): (
        "bruteforce", "2:ModelError", "2:ModelError", "2:ModelError", "1:BudgetExceeded", "bruteforce"),
    ("diagram ensemble", "lAXp"): ("product", "2:ModelError", "2:ModelError", "2:ModelError", "product", "bruteforce"),
    ("diagram ensemble", "lCXp"): ("product", "2:ModelError", "2:ModelError", "2:ModelError", "product", "bruteforce"),
    ("diagram ensemble out of order", "lAXp"): (
        "bruteforce", "2:ModelError", "2:ModelError", "2:ModelError", "2:NotOrdered", "bruteforce"),
    ("diagram ensemble out of order", "lCXp"): (
        "bruteforce", "2:ModelError", "2:ModelError", "2:ModelError", "2:NotOrdered", "bruteforce"),
}
# (family, query) -> (valid, subset-minimal) of ROUTE_WITNESSES[query]
VERIFY_MATRIX = {
    ("tree", "lAXp"): (True, True),
    ("tree", "lCXp"): (True, True),
    ("diagram", "lAXp"): (True, False),
    ("diagram", "lCXp"): (False, False),
    ("set", "lAXp"): (True, False),
    ("set", "lCXp"): (True, True),
    ("list", "lAXp"): (True, True),
    ("list", "lCXp"): (True, True),
    ("tree ensemble", "lAXp"): (True, True),
    ("tree ensemble", "lCXp"): (True, True),
    ("tree ensemble over the cap", "lAXp"): (True, True),
    ("tree ensemble over the cap", "lCXp"): (True, True),
    ("diagram ensemble", "lAXp"): (True, False),
    ("diagram ensemble", "lCXp"): (False, False),
    ("diagram ensemble out of order", "lAXp"): (True, False),
    ("diagram ensemble out of order", "lCXp"): (False, False),
}
ROUTE_WITNESSES = {"lCXp": ["z"], "lAXp": ["y", "z"]}


def _family_file(tmp_path, family):
    model, extra = ROUTE_FAMILIES[family]
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model))
    return ["--model", str(path), *extra]


@pytest.mark.parametrize("query", sorted(ROUTE_QUERIES))
@pytest.mark.parametrize("family", list(ROUTE_FAMILIES))
def test_route_matrix(capsys, tmp_path, family, query):
    argv = ["explain", "--query", json.dumps(ROUTE_QUERIES[query]), *_family_file(tmp_path, family)]
    cells = []
    for route in ROUTES:
        code = main(argv + ["--route", route])
        payload = json.loads(capsys.readouterr().out)
        if "error" in payload:
            cells.append(f"{code}:{payload['error']['type']}")
        else:
            assert code == 0, (route, payload)
            cells.append(payload["algorithm"])
    assert tuple(cells) == ROUTE_MATRIX[family, query]


def test_a_refused_route_names_the_oracle_once(capsys, tmp_path):
    argv = ["explain", "--query", json.dumps(ROUTE_QUERIES["lAXp"]),
            *_family_file(tmp_path, "set"), "--route", "dt"]
    assert json.loads(run(capsys, *argv, expect=2)) == {"error": {
        "type": "ModelError",
        "message": "route 'dt' does not fit this model and query; use 'bruteforce'",
    }}


@pytest.mark.parametrize("query", sorted(ROUTE_QUERIES))
@pytest.mark.parametrize("family", list(ROUTE_FAMILIES))
def test_verify_matrix(capsys, tmp_path, family, query):
    argv = ["verify", "--query", json.dumps(ROUTE_QUERIES[query]),
            "--witness", json.dumps(ROUTE_WITNESSES[query]), *_family_file(tmp_path, family)]
    valid, minimal = VERIFY_MATRIX[family, query]
    assert json.loads(run(capsys, *argv, expect=0 if valid else 3)) == {"valid": valid}
    assert json.loads(run(capsys, *argv, "--minimal", expect=0 if minimal else 3)) == {
        "valid": valid, "minimal": minimal,
    }


@pytest.mark.parametrize(
    "model",
    [
        {"kind": "dt", "nodes": [], "root": "a"},
        {"kind": "dt", "nodes": {"a": 5}, "root": "a"},
        {"kind": "dl", "rules": [[["x", 1]]]},
        {"kind": "ds", "terms": 5, "default": 0},
        {"kind": "ensemble", "elements": 5},
        dict(OBDD_XY, order="xy"),
    ],
)
def test_malformed_model_json_exits_2(capsys, tmp_path, model):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(model))
    q = json.dumps({"kind": "gAXp", "minimality": "subset", "target": 1})
    out = run(capsys, "explain", "--model", str(path), "--query", q, expect=2)
    assert json.loads(out)["error"]["type"] == "ModelError"


def _tree(**nodes):
    return {"kind": "dt", "root": "r", "nodes": nodes}


def _x_node(zero, one):
    return {"feature": "x", "zero": zero, "one": one}


LEAF0, LEAF1 = {"leaf": 0}, {"leaf": 1}
_y_node = {"feature": "y", "zero": "t0", "one": "t1"}


@pytest.mark.parametrize(
    "model, error",
    [
        (_tree(r=_x_node("a", "b"), b=dict(_y_node, zero="a", one="c"), a=LEAF0, c=LEAF1),
         ("ModelError", "node 'a' has two parents")),
        (_tree(r=LEAF0, s=LEAF1),
         ("ModelError", "tree contains nodes unreachable from the root")),
        (_tree(r=_x_node("a", "r"), a=LEAF0),
         ("ModelError", "root must not have a parent")),
        (_tree(r=_x_node("a", "gone"), a=LEAF0),
         ("ModelError", "child 'gone' of 'r' is not a node")),
        (dict(OBDD_XY, nodes={"s": _x_node("gone", "t1")}, order=["x"]),
         ("ModelError", "child 'gone' of 's' is not a node")),
        ({"kind": "dl", "rules": []},
         ("ModelError", "decision list needs at least the default rule")),
        (dict(OBDD_XY, t1="t0", order=["x"]),
         ("ModelError", "t0 and t1 must differ")),
        (dict(OBDD_XY, nodes={"t1": _x_node("t0", "t0")}, source="t1", order=["x"]),
         ("ModelError", "sink 't1' also appears as an inner node")),
        ({"kind": "ensemble", "elements": []},
         ("ModelError", "ensemble needs at least one element")),
        ({"kind": "ensemble", "elements": [{"kind": "ensemble", "elements": [OBDD_XY]}]},
         ("ModelError", "ensembles cannot nest")),
        ({"kind": "ensemble", "elements": [OBDD_XY], "shared_order": ["x", "x"]},
         ("ModelError", "shared order has duplicates")),
        ({"kind": "ensemble", "elements": [_tree(r=LEAF0)], "shared_order": ["x"]},
         ("ModelError", "shared order only applies to OBDD ensembles")),
        ({"kind": "ensemble", "elements": [dict(OBDD_XY, nodes={"s": _x_node("u", "t1"), "u": _y_node})],
          "shared_order": ["x"]},
         ("ModelError", "element 0 reads outside the shared order")),
        (dict(OBDD_XY, nodes={"s": _x_node("gone", "t1")}),
         ("ModelError", "node 'gone' missing while inferring the order")),
        (dict(OBDD_XY, nodes={"s": _x_node("u", "t1"), "u": _x_node("t0", "t1")}),
         ("NotOrdered", "feature repeats along the first path")),
    ],
)
def test_model_refusals_exit_2(capsys, tmp_path, model, error):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(model))
    q = json.dumps({"kind": "gAXp", "minimality": "subset", "target": 1})
    out = run(capsys, "explain", "--model", str(path), "--query", q, expect=2)
    assert json.loads(out)["error"] == dict(zip(("type", "message"), error))


def _reading(tmp_path, fig1_path, reader, path):
    """A command that reads `path` as its model, query, witness or params."""
    return {
        "model": ["explain", "--model", path, "--query", Q_LAXP],
        "query": ["explain", "--model", fig1_path, "--query", path],
        "witness": ["verify", "--model", fig1_path, "--query", Q_LAXP, "--witness", path],
        "params": ["generate", "taut_ds", "--params", path, "--out", str(tmp_path / "x.json")],
    }[reader]


@pytest.mark.parametrize("nested", ["model", "query", "witness", "params"])
def test_deeply_nested_json_exits_2(capsys, tmp_path, fig1_path, nested):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    argv = _reading(tmp_path, fig1_path, nested, str(deep))
    error = json.loads(run(capsys, *argv, expect=2))["error"]
    assert error == {"type": "ModelError", "message": "JSON input nests too deeply"}


NOT_UTF8 = b'{"x": "\xff"}'
LONG_INTEGER = ("[" + "9" * 5000 + "]").encode()


@pytest.mark.parametrize("reader", ["model", "query", "witness", "params"])
@pytest.mark.parametrize(
    "content, message",
    [
        (NOT_UTF8, "{path!r} is not UTF-8 text (invalid start byte at byte 7)"),
        (LONG_INTEGER, "JSON input is unreadable: Exceeds the limit (4300 digits)"),
    ],
    ids=["not UTF-8", "long integer"],
)
def test_undecodable_input_exits_2(capsys, tmp_path, fig1_path, reader, content, message):
    path = tmp_path / "input.json"
    path.write_bytes(content)
    argv = _reading(tmp_path, fig1_path, reader, str(path))
    error = json.loads(run(capsys, *argv, expect=2))["error"]
    assert error["type"] == "ModelError"
    assert error["message"].startswith(message.format(path=str(path))), error


# A constant list over 18 features has no contrastive set; one check of
# the full feature set proves it, so the oracle's search stops at once.
SLOW_FEATURES = [f"f{i:02d}" for i in range(18)]
SLOW_LIST = DecisionList([([(f, 1)], 0) for f in SLOW_FEATURES] + [([], 0)])
SLOW_QUERY = json.dumps(
    {
        "kind": "lCXp",
        "minimality": "cardinality",
        "target": dict(E, **{f: 0 for f in SLOW_FEATURES}),
        "k": 18,
    }
)


SRC = os.path.dirname(os.path.dirname(os.path.abspath(xbool.__file__)))


def cli_process(*argv, **options):
    """`python -m xbool.cli argv` with xbool on its path; `options` go to
    `subprocess.run`."""
    options.setdefault("env", dict(os.environ, PYTHONPATH=SRC))
    return subprocess.run([sys.executable, "-m", "xbool.cli", *argv], timeout=60, **options)


def run_cli_process(*argv, **options):
    """(completed process, wall seconds) of `python -m xbool.cli argv`,
    its output captured as text; `options` go to `subprocess.run`."""
    started = time.perf_counter()
    proc = cli_process(*argv, capture_output=True, text=True, **options)
    return proc, time.perf_counter() - started


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def test_a_deep_chain_tree_answers_under_an_address_space_cap(tmp_path):
    # 30,000 tests on one path: a copy of the path's features per node,
    # at load or in the minimum contrastive search, would not fit in 1 GiB
    depth = 30_000
    model = tmp_path / "chain.json"
    model.write_text(dumps_model(chain_dt(depth)))
    names = [f"x{i:05d}" for i in range(depth)]
    # all 1s: one flip anywhere leaves the path; all 0s: every flip is needed
    for bit, want in ((1, names[:1]), (0, names)):
        query = tmp_path / f"query{bit}.json"
        query.write_text(json.dumps({"kind": "lCXp", "minimality": "cardinality",
                                     "target": dict.fromkeys(names, bit), "k": depth}))
        proc, _ = run_cli_process("explain", "--model", str(model), "--query", str(query),
                                  preexec_fn=_cap_address_space)
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert json.loads(proc.stdout)["witness"] == want


def test_running_out_of_memory_exits_1_with_a_payload(tmp_path):
    # the chain's last node tests the root's feature again, so loading it
    # projects the tree onto a repeat-free copy, which keeps one copy of
    # the path per node: 30,000 of them do not fit in 1 GiB
    depth = 30_000
    model = tmp_path / "chain.json"
    model.write_text(dumps_model(chain_dt(depth, along=0, repeat=True)))
    query = tmp_path / "query.json"
    query.write_text(json.dumps({"kind": "lCXp", "minimality": "cardinality",
                                 "target": {f"x{i:05d}": 1 for i in range(depth)}, "k": 1}))
    proc, _ = run_cli_process("explain", "--model", str(model), "--query", str(query),
                              preexec_fn=_cap_address_space)
    assert proc.returncode == 1, proc.stderr[-2000:]
    assert json.loads(proc.stdout)["error"]["type"] == "MemoryError"
    assert "Traceback" not in proc.stderr


def test_explain_without_candidates_stops_at_once(tmp_path):
    path = tmp_path / "slow.json"
    path.write_text(dumps_model(SLOW_LIST))
    proc, wall = run_cli_process(
        "explain", "--model", str(path), "--query", SLOW_QUERY, "--route", "bruteforce",
    )
    assert proc.returncode == 3, proc.stderr
    assert json.loads(proc.stdout)["witness"] is None
    assert wall < 1.0


# One rule fires only when all 18 features are 1, so the lCXp witness of
# all 18 features is valid and subset-minimal.  Enumerating completions,
# its 18 delete-one checks cost about 2.6 million classifications (9.7 s
# untimed); from the truth table they are 19 mask checks.  The full set is
# the only witness, so the cardinality search at k=18 checks every smaller
# subset first: about 7 s untimed on 2 cores, far past the deadline.
SLOW_RULE = DecisionList([([(f, 1) for f in SLOW_FEATURES], 1), ([], 0)])


def test_explain_timeout_stops_the_work(tmp_path):
    path = tmp_path / "slow.json"
    path.write_text(dumps_model(SLOW_RULE))
    proc, wall = run_cli_process(
        "explain", "--model", str(path), "--query", SLOW_QUERY,
        "--route", "bruteforce", "--timeout-ms", "200",
    )
    assert proc.returncode == 1, proc.stderr
    assert json.loads(proc.stdout)["error"]["type"] == "DeadlineExceeded"
    assert wall < 5.0

# A majority of 10,001 one-term rule sets over 20 features: its truth
# table feeds 10,001 member tables of 2^20 bits through the bit-sliced
# counter, about 3.5 s untimed for `verify --minimal` on 2 cores.
VOTE_FEATURES = [f"f{i:02d}" for i in range(20)]


def slow_vote() -> Ensemble:
    rng = random.Random(20)
    return Ensemble(
        [DecisionSet([[(f, 1) for f in rng.sample(VOTE_FEATURES, 2)]], 0) for _ in range(10001)]
    )


def verify_all_features(tmp_path, model, features, *flags):
    path = tmp_path / "slow.json"
    path.write_text(dumps_model(model))
    query = {"kind": "lCXp", "minimality": "subset", "target": {f: 0 for f in features}}
    return run_cli_process(
        "verify", "--minimal", "--model", str(path), "--query", json.dumps(query),
        "--witness", json.dumps(features), *flags,
    )


def test_verify_timeout_stops_the_work(tmp_path):
    proc, wall = verify_all_features(
        tmp_path, slow_vote(), VOTE_FEATURES, "--timeout-ms", "200"
    )
    assert proc.returncode == 1, proc.stderr
    assert json.loads(proc.stdout)["error"]["type"] == "DeadlineExceeded"
    assert wall < 5.0


def test_verify_answers_from_the_table(tmp_path):
    proc, wall = verify_all_features(tmp_path, SLOW_RULE, SLOW_FEATURES)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"valid": True, "minimal": True}
    assert wall < 1.0


def test_timeout_off_the_main_thread_exits_2(capsys, fig1_path):
    codes = []
    worker = threading.Thread(
        target=lambda: codes.append(
            main(["explain", "--model", fig1_path, "--query", Q_LCXP1, "--timeout-ms", "100"])
        )
    )
    worker.start()
    worker.join(timeout=30)
    assert not worker.is_alive()
    error = json.loads(capsys.readouterr().out)["error"]
    assert codes == [2]
    assert error["type"] == "ModelError" and "main thread" in error["message"]


@pytest.mark.parametrize("timeout", ["99999999999999999", "1" + "0" * 400],
                         ids=["past the timer", "past a float"])
def test_over_large_timeout_exits_2(capsys, fig1_path, timeout):
    import signal

    handler = signal.getsignal(signal.SIGALRM)
    out = run(capsys, "explain", "--model", fig1_path, "--query", Q_LCXP1,
              "--timeout-ms", timeout, expect=2)
    assert json.loads(out)["error"] == {
        "type": "ModelError",
        "message": f"timeout of {timeout} ms is too large for the timer",
    }
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


@pytest.mark.parametrize("command", ["explain", "verify", "bench"])
@pytest.mark.parametrize("option, value", [("--cap-nodes", "-1"), ("--guard-features", "-3")])
def test_negative_limits_exit_2(capsys, fig1_path, command, option, value):
    argv = {
        "explain": ["explain", "--model", fig1_path, "--query", Q_LAXP],
        "verify": ["verify", "--model", fig1_path, "--query", Q_LAXP,
                   "--witness", json.dumps(["y", "z"])],
        "bench": ["bench", "--corpus", os.path.dirname(fig1_path), "--query", Q_LAXP],
    }[command]
    code = main(argv + [option, value])
    captured = capsys.readouterr()
    message = f"argument {option}: must be non-negative, got {value}"
    assert code == 2
    assert json.loads(captured.out) == {"error": {"type": "ModelError", "message": message}}
    assert captured.err.startswith(f"usage: xbool {command}") and message in captured.err


def test_zero_limits_are_taken(capsys, fig1_path):
    out = run(capsys, "explain", "--model", fig1_path, "--query", Q_LAXP,
              "--guard-features", "0", expect=1)
    assert json.loads(out)["error"]["type"] == "TooLarge"
    run(capsys, "explain", "--model", fig1_path, "--query", Q_LAXP, "--cap-nodes", "0")


def test_bench_timeout_stops_the_row(tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "fig1.json").write_text(dumps_model(FIG1))
    (corpus / "slow.json").write_text(dumps_model(SLOW_RULE))
    proc, wall = run_cli_process(
        "bench", "--corpus", str(corpus), "--query", SLOW_QUERY,
        "--route", "bruteforce", "--timeout-ms", "200",
    )
    assert proc.returncode == 0, proc.stderr
    rows = proc.stdout.strip().split("\n")[1:]
    assert rows[0].startswith("fig1.json") and ",ok," in rows[0]
    assert rows[1].startswith("slow.json") and ",timeout," in rows[1]
    assert wall < 5.0


# ---------------------------------------------------------------------------
# verify


def test_verify_published_witness_with_minimality(capsys, fig1_path):
    out = run(
        capsys, "verify", "--model", fig1_path, "--query", Q_LAXP,
        "--witness", json.dumps(["y", "z"]), "--minimal",
    )
    assert json.loads(out) == {"valid": True, "minimal": True}


def test_verify_empty_contrastive_exits_3(capsys, fig1_path):
    q = json.dumps({"kind": "lCXp", "minimality": "subset", "target": E})
    out = run(
        capsys, "verify", "--model", fig1_path, "--query", q,
        "--witness", json.dumps([]), expect=3,
    )
    assert json.loads(out) == {"valid": False}


def test_verify_global_assignment(capsys, fig1_path):
    q = json.dumps({"kind": "gAXp", "minimality": "subset", "target": 0})
    out = run(
        capsys, "verify", "--model", fig1_path, "--query", q,
        "--witness", json.dumps({"x": 1, "y": 1}), "--minimal",
    )
    assert json.loads(out) == {"valid": True, "minimal": True}
    q2 = json.dumps({"kind": "gCXp", "minimality": "subset", "target": 0})
    out = run(
        capsys, "verify", "--model", fig1_path, "--query", q2,
        "--witness", json.dumps({"x": 0, "z": 0}),
    )
    assert json.loads(out) == {"valid": True}


def test_verify_non_minimal_superset(capsys, fig1_path):
    out = run(
        capsys, "verify", "--model", fig1_path, "--query", Q_LAXP,
        "--witness", json.dumps(["x", "y", "z"]), "--minimal", expect=3,
    )
    assert json.loads(out) == {"valid": True, "minimal": False}


def test_verify_minimal_builds_one_oracle(capsys, fig1_path, monkeypatch):
    from xbool.explain import TableOracle
    from xbool.models import DecisionList, DecisionSet, DecisionTree, Ensemble, Obdd

    built, classified = [], []
    init = TableOracle.__init__

    def counted_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(TableOracle, "__init__", counted_init)
    for family in (DecisionTree, DecisionSet, DecisionList, Obdd, Ensemble):
        monkeypatch.setattr(
            family, "classify", lambda m, e, fn=family.classify: classified.append(m) or fn(m, e)
        )
    out = run(
        capsys, "verify", "--model", fig1_path, "--query", Q_LAXP,
        "--witness", json.dumps(["y", "z"]), "--minimal",
    )
    assert json.loads(out) == {"valid": True, "minimal": True}
    assert len(built) == 1
    assert classified == []  # the table is filled from the rules


def test_verify_has_no_route_flag(capsys, fig1_path):
    code = main(["verify", "--model", fig1_path, "--query", Q_LAXP,
                 "--witness", json.dumps(["y", "z"]), "--route", "dt"])
    captured = capsys.readouterr()
    assert code == 2
    assert "unrecognized arguments: --route dt" in captured.err
    assert json.loads(captured.out)["error"] == {
        "type": "ModelError", "message": "unrecognized arguments: --route dt",
    }


@pytest.mark.parametrize("argv,message", [
    (["generate", "hitting_set", "--params", "-1e+16", "--out", "x.json"],
     "argument --params: expected one argument"),
    (["explain", "--query", "{}"], "the following arguments are required: --model"),
    (["explain", "--model", "m.json", "--query", "{}", "--route", "fast"],
     "argument --route: invalid choice"),
    (["bench", "--corpus", ".", "--query", "{}", "--timeout-ms", "soon"],
     "argument --timeout-ms: invalid int value: 'soon'"),
    ([], "the following arguments are required: command"),
])
def test_argparse_refusals_keep_the_exit_code_contract(capsys, argv, message):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    error = json.loads(captured.out)["error"]
    assert error["type"] == "ModelError" and error["message"].startswith(message)
    assert captured.err.startswith("usage: xbool") and message in captured.err


def test_help_still_prints_and_exits_0():
    proc, _ = run_cli_process("--help")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: xbool") and proc.stderr == ""


HELP_TOP = """\
usage: xbool [-h] {{explain,verify,generate,bench}} ...

Explanations for transparent binary classifiers.

positional arguments:
  {{explain,verify,generate,bench}}
    explain             compute a minimal explanation
    verify              check a witness against a query
    generate            write a hard-instance model file
{bench}
options:
  -h, --help            show this help message and exit
"""
HELP_EXPLAIN_OPTIONS = """
options:
  -h, --help            show this help message and exit
  --model MODEL
  --query QUERY
  --route {auto,dt,obdd,branching,product,bruteforce}
  --cap-nodes CAP_NODES
  --guard-features GUARD_FEATURES
  --timeout-ms TIMEOUT_MS
  --out OUT
"""
HELP = {
    ("60", "xbool"): HELP_TOP.format(bench="""\
    bench               run a query over a corpus
                        directory
"""),
    ("200", "xbool"): HELP_TOP.format(bench="""\
    bench               run a query over a corpus directory
"""),
    ("60", "xbool explain"): """\
usage: xbool explain [-h] --model MODEL --query QUERY
                     [--route {auto,dt,obdd,branching,product,bruteforce}]
                     [--cap-nodes CAP_NODES]
                     [--guard-features GUARD_FEATURES]
                     [--timeout-ms TIMEOUT_MS] [--out OUT]
""" + HELP_EXPLAIN_OPTIONS,
    ("200", "xbool explain"): """\
usage: xbool explain [-h] --model MODEL --query QUERY [--route {auto,dt,obdd,branching,product,bruteforce}] \
[--cap-nodes CAP_NODES] [--guard-features GUARD_FEATURES] [--timeout-ms TIMEOUT_MS]
                     [--out OUT]
""" + HELP_EXPLAIN_OPTIONS,
}


@pytest.mark.parametrize("columns, command", sorted(HELP))
def test_help_text_is_pinned(capsys, monkeypatch, columns, command):
    monkeypatch.setenv("COLUMNS", columns)
    with pytest.raises(SystemExit) as done:
        main(command.split()[1:] + ["--help"])
    assert done.value.code == 0
    assert capsys.readouterr().out == HELP[columns, command]


def test_one_parser_asks_the_terminal_width_once(monkeypatch):
    import shutil

    asked = []
    size = shutil.get_terminal_size
    monkeypatch.setattr(shutil, "get_terminal_size", lambda *a: asked.append(a) or size(*a))
    build_parser()
    assert len(asked) == 1


# ---------------------------------------------------------------------------
# the plain reader: explain and verify lines read without argparse

# values argparse takes for each flag, and values it refuses or that
# start with `-`
GOOD_VALUES = {
    "--model": ["m.json", "", " dir/m.json"],
    "--query": [Q_LAXP, "q.json"],
    "--witness": ["[]", '{"x": 1}'],
    "--route": list(ROUTES),
    "--cap-nodes": ["0", "7", " 7", "+7", "1_000", "\t3\n", "\uff11\uff12"],
    "--guard-features": ["12", "+0", " 4 "],
    "--timeout-ms": ["0", "250", " -5", "2_5"],
    "--out": ["o.json", ""],
}
BAD_VALUES = {
    "--model": ["-", "-m.json", "--query"],
    "--route": ["fast", "DT", "", " dt"],
    "--cap-nodes": ["-1", " -1", "soon", "1.5", "", "0x10", "1__0", "1e3"],
    "--guard-features": ["-3", "+-3", "\u00bd"],
    "--timeout-ms": ["-5", "soon", ""],
    "--out": ["-o.json"],
}
PLAIN_COMMANDS = {
    "explain": (["--model", "--query"],
                ["--route", "--cap-nodes", "--guard-features", "--timeout-ms", "--out"]),
    "verify": (["--model", "--query", "--witness"],
               ["--minimal", "--cap-nodes", "--guard-features", "--timeout-ms", "--out"]),
}


def _line(command, flags, rng):
    argv = [command]
    for flag in flags:
        argv.append(flag)
        if flag != "--minimal":
            argv.append(rng.choice(GOOD_VALUES[flag]))
    return argv


def _mutations(line):
    """Lines near `line` that the reader must decline or read as argparse does."""
    command = line[0]
    flags = sum(PLAIN_COMMANDS[command], [])
    for at, token in enumerate(line):
        if token not in flags:
            continue
        yield line[:at] + [token[:5]] + line[at + 1:]  # an abbreviation
        if token == "--minimal":
            yield line + [token]
            continue
        yield line + line[at:at + 2]  # a repeat
        yield line[:at] + line[at + 2:]  # drops the option
        yield line[:at + 1] + line[at + 2:]  # drops the value
        yield line[:at] + [f"{token}={line[at + 1]}"] + line[at + 2:]
        for bad in BAD_VALUES.get(token, ()):
            yield line[:at + 1] + [bad] + line[at + 2:]
    for extra in (["--"], ["-h"], ["--help"], ["stray"], ["--witness", "[]"],
                  ["--route", "dt"], ["--minimal", "yes"]):
        yield line + extra
    yield line[:1] + ["--"] + line[1:]
    yield ["--cap-nodes", "3"] + line
    yield ["bench", "--corpus", "."] + line[1:]
    yield ["generate", "taut_ds"] + line[1:]
    yield [command.capitalize()] + line[1:]
    yield line[1:]


def plain_corpus():
    """(argv, whether the reader must take it) for explain and verify lines:
    every optional subset in several orders, every order of explain's
    seven options, and lines near them."""
    rng = random.Random(19)
    lines = []
    for command, (required, optional) in PLAIN_COMMANDS.items():
        for mask in range(1 << len(optional)):
            flags = required + [f for i, f in enumerate(optional) if mask >> i & 1]
            orders = [flags, flags[::-1]] + [rng.sample(flags, len(flags)) for _ in range(3)]
            lines += [_line(command, order, rng) for order in orders]
    required, optional = PLAIN_COMMANDS["explain"]
    lines += [_line("explain", order, rng) for order in itertools.permutations(required + optional)]
    corpus = [(line, True) for line in lines]
    for line in lines[::61]:
        corpus += [(near, False) for near in _mutations(line)]
    return corpus + [([], False), (["explain"], False), (["verify", "--minimal"], False)]


def test_the_plain_reader_agrees_with_argparse():
    parser = build_parser()
    corpus = plain_corpus()
    taken = 0
    for argv, must_take in corpus:
        plain = _read_plain(argv)
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                expected = vars(parser.parse_args(argv))
        except (ModelError, SystemExit):
            expected = None
        if plain is not None:
            assert vars(plain) == expected, argv
            taken += 1
        else:
            assert not must_take, argv
    # the corpus holds both lines the reader takes and lines it declines
    assert 5000 < taken < len(corpus) - 1000, (taken, len(corpus))


def test_an_option_is_a_record_that_copies_by_value():
    from xbool.cli import _COMMANDS

    for _, _, options in _COMMANDS.values():
        for option in options:
            assert copy.copy(option) == option and pickle.loads(pickle.dumps(option)) == option
            assert option.dest == option.flag[2:].replace("-", "_")
            with pytest.raises(AttributeError):
                option.kind = int


def test_the_plain_reader_converts_like_argparse():
    argv = ["verify", "--witness", "[]", "--timeout-ms", " -5", "--query", "{}",
            "--cap-nodes", "+1_0", "--model", "", "--minimal"]
    assert vars(_read_plain(argv)) == {
        "command": "verify", "handler": cmd_verify,
        "model": "", "query": "{}", "witness": "[]", "minimal": True,
        "cap_nodes": 10, "guard_features": DEFAULT_GUARD, "timeout_ms": -5, "out": None,
    }
    assert _read_plain(argv + ["--minimal"]) is None


@pytest.mark.parametrize("command, argv, code", [
    ("explain", ["--query", Q_LCXP1], 0),
    ("explain", ["--query", json.dumps({**json.loads(Q_LCXP1), "k": 0})], 3),
    ("verify", ["--query", Q_LAXP, "--witness", json.dumps(["y", "z"]), "--minimal"], 0),
    ("verify", ["--query", Q_LAXP, "--witness", json.dumps(["x", "y", "z"]), "--minimal"], 3),
])
def test_out_holds_what_the_request_prints(capsys, tmp_path, fig1_path, command, argv, code):
    argv = [command, "--model", fig1_path] + argv
    printed = run(capsys, *argv, expect=code)
    out = tmp_path / "out.json"
    assert run(capsys, *argv, "--out", str(out), expect=code) == ""
    assert out.read_bytes() == printed.encode()


def test_main_reads_sys_argv_by_default(capsys, monkeypatch, fig1_path):
    argv = ["explain", "--model", fig1_path, "--query", Q_LCXP1]
    printed = run(capsys, *argv)
    monkeypatch.setattr(sys, "argv", ["xbool"] + argv)
    assert main() == 0
    assert capsys.readouterr().out == printed
    monkeypatch.setattr(sys, "argv", ["xbool", "explain", "--model", fig1_path])
    assert main() == 2
    captured = capsys.readouterr()
    assert "required: --query" in captured.err
    assert json.loads(captured.out)["error"]["type"] == "ModelError"


@pytest.mark.parametrize("query", [
    {"kind": "lAXp", "minimality": "subset", "target": {"y": 0}},
    {"kind": "lCXp", "minimality": "cardinality", "target": {"y": 0}, "k": 0},
])
def test_bruteforce_names_the_first_missing_feature(capsys, fig1_path, query):
    out = run(
        capsys, "explain", "--model", fig1_path, "--query", json.dumps(query),
        "--route", "bruteforce", expect=2,
    )
    assert json.loads(out)["error"] == {
        "type": "UndefinedFeature",
        "message": "example does not assign feature 'x'",
    }


# each reads y only where x is 1, so an example that sets x to 0 and
# leaves y out reaches a leaf, and only a totality check refuses it
_X_THEN_Y_TREE = {
    "kind": "dt",
    "root": "r",
    "nodes": {
        "r": {"feature": "x", "zero": "a", "one": "b"},
        "a": {"leaf": 0},
        "b": {"feature": "y", "zero": "c", "one": "d"},
        "c": {"leaf": 0},
        "d": {"leaf": 1},
    },
}
PARTIAL_FAMILIES = {
    "tree": _X_THEN_Y_TREE,
    "diagram": _chain_diagram("x", "y", order=("x", "y")),
    "tree ensemble": {"kind": "ensemble", "elements": [_X_THEN_Y_TREE] * 3},
    "diagram ensemble": {"kind": "ensemble",
                         "elements": [_chain_diagram("x", "y", order=("x", "y"))] * 3},
}


@pytest.mark.parametrize("family", PARTIAL_FAMILIES)
def test_every_route_refuses_a_partial_example_like_the_oracle(capsys, tmp_path, family):
    model = tmp_path / "model.json"
    model.write_text(json.dumps(PARTIAL_FAMILIES[family]))
    partial = {"x": 0}
    laxp = json.dumps({"kind": "lAXp", "minimality": "subset", "target": partial})
    oracle = run(capsys, "explain", "--model", str(model), "--query", laxp,
                 "--route", "bruteforce", expect=2)
    assert json.loads(oracle)["error"] == {
        "type": "UndefinedFeature",
        "message": "example does not assign feature 'y'",
    }
    for kind, k in itertools.product(("lAXp", "lCXp"), (None, 2)):
        q = {"kind": kind, "minimality": "subset" if k is None else "cardinality",
             "target": partial}
        if k is not None:
            q["k"] = k
        argv = ("explain", "--model", str(model), "--query", json.dumps(q))
        assert run(capsys, *argv, expect=2) == oracle, q
        assert run(capsys, *argv, "--route", "bruteforce", expect=2) == oracle, q
    out = run(capsys, "verify", "--model", str(model), "--query", laxp,
              "--witness", json.dumps(["x"]), "--minimal", expect=2)
    assert out == oracle


def test_verify_unknown_feature_exits_2(capsys, fig1_path):
    out = run(
        capsys, "verify", "--model", fig1_path, "--query", Q_LAXP,
        "--witness", json.dumps(["w"]), expect=2,
    )
    assert json.loads(out)["error"]["type"] == "UndefinedFeature"


@pytest.mark.parametrize("witness", [[1], "deep"])
def test_verify_refuses_a_feature_name_that_is_not_a_string(capsys, tmp_path, witness):
    # a tree whose feature is named "1": the number 1 does not name it
    model = tmp_path / "one.json"
    model.write_text(json.dumps(_leaves_tree("1", 0, 1)))
    if witness == "deep":
        witness = []
        for _ in range(900):
            witness = [witness]
    q = json.dumps({"kind": "lAXp", "minimality": "subset", "target": {"1": 1}})
    out = run(capsys, "verify", "--model", str(model), "--query", q,
              "--witness", json.dumps(witness), expect=2)
    error = json.loads(out)["error"]
    assert error["type"] == "ModelError"
    assert error["message"].startswith("each entry of the witness must be a string, got ")
    assert len(error["message"]) < 80


def test_verify_budget_overflow_is_invalid(capsys, fig1_path):
    out = run(
        capsys, "verify", "--model", fig1_path, "--query", Q_LCXP1,
        "--witness", json.dumps(["y", "z"]), expect=3,
    )
    assert json.loads(out) == {"valid": False}


def test_verify_keeps_features_the_graft_drops():
    # t1 = g ? 1 : (g ? (f ? 1 : 0) : 0) reads f only on a contradictory
    # path, so the flattened ensemble has no f; the witness is still
    # checked against the ensemble, which declares it.  Built in memory:
    # the JSON loader simplifies each tree, which already drops f.
    def g_tree():
        return DecisionTree({"r": DtInner("g", "z", "o"), "z": DtLeaf(0), "o": DtLeaf(1)}, "r")

    t1 = DecisionTree(
        {
            "r": DtInner("g", "a", "l1"),
            "l1": DtLeaf(1),
            "a": DtInner("g", "l0", "b"),
            "l0": DtLeaf(0),
            "b": DtInner("f", "b0", "b1"),
            "b0": DtLeaf(0),
            "b1": DtLeaf(1),
        },
        "r",
    )
    ens = Ensemble([t1, g_tree(), g_tree()])
    cases = [
        (ExplanationQuery("lAXp", "subset", {"f": 0, "g": 1}), Witness.of_features(["f", "g"])),
        (ExplanationQuery("gAXp", "subset", 1), Witness.of_assignment({"f": 0, "g": 1})),
    ]
    for q, w in cases:
        # valid, but g alone already is
        assert _verdicts(ens, q, w, DEFAULT_CAP, DEFAULT_GUARD, minimal=False) == (True, False)
        assert _verdicts(ens, q, w, DEFAULT_CAP, DEFAULT_GUARD, minimal=True) == (True, False)
        assert verify_subset_minimal(ens, q, w) is False


# ---------------------------------------------------------------------------
# generate


K3_PARAMS = json.dumps(
    {
        "graph": {
            "vertices": [["a", 0], ["b", 1], ["c", 2]],
            "edges": [["a", "b"], ["a", "c"], ["b", "c"]],
        }
    }
)


def test_generate_round_trip_and_determinism(capsys, tmp_path):
    out_path = tmp_path / "k3.json"
    out1 = run(capsys, "generate", "mcc_dt_ensemble", "--params", K3_PARAMS,
               "--out", str(out_path))
    bytes1 = out_path.read_bytes()
    out2 = run(capsys, "generate", "mcc_dt_ensemble", "--params", K3_PARAMS,
               "--out", str(out_path))
    bytes2 = out_path.read_bytes()
    assert out1 == out2 and bytes1 == bytes2
    summary = json.loads(out1)
    assert summary["gadget"] == "mcc_dt_ensemble" and summary["kind"] == "ensemble"
    assert len(json.loads(bytes1)["elements"]) == 2 * (3 + 3) - 1

    query = json.dumps(summary["query"])
    out = run(capsys, "explain", "--model", str(out_path), "--query", query)
    payload = json.loads(out)
    assert payload["size"] == 3
    assert payload["algorithm"] == "product"
    assert payload["parameters"]["ens_size"] == 11
    run(
        capsys, "verify", "--model", str(out_path), "--query", query,
        "--witness", json.dumps(payload["witness"]),
    )


def test_generate_maj_hom_families(capsys, tmp_path):
    for family in ("dt", "ds", "obdd"):
        out_path = tmp_path / f"hom_{family}.json"
        out = run(capsys, "generate", "maj_hom", "--params",
                  json.dumps({**json.loads(K3_PARAMS), "family": family}),
                  "--out", str(out_path))
        summary = json.loads(out)
        assert summary["kind"] == "ensemble" and summary["query"]["k"] == 3


def test_generate_mcc_ds_has_no_query(capsys, tmp_path):
    out_path = tmp_path / "ds.json"
    out = run(capsys, "generate", "mcc_ds", "--params", K3_PARAMS,
              "--out", str(out_path))
    summary = json.loads(out)
    assert summary["kind"] == "ds" and "query" not in summary


def test_generate_missing_param_exits_2(capsys, tmp_path):
    out = run(capsys, "generate", "mcc_ds", "--params", "{}",
              "--out", str(tmp_path / "x.json"), expect=2)
    assert "misses" in json.loads(out)["error"]["message"]


def test_generate_hitting_set_and_explain(capsys, tmp_path):
    out_path = tmp_path / "hs.json"
    params = json.dumps({"universe": ["1", "2"], "sets": [["1"], ["2"]]})
    out = run(capsys, "generate", "hitting_set", "--params", params,
              "--out", str(out_path))
    query = json.dumps(json.loads(out)["query"])
    out = run(capsys, "explain", "--model", str(out_path), "--query", query)
    assert json.loads(out)["size"] == 2


def test_generate_taut_ds(capsys, tmp_path):
    out_path = tmp_path / "taut.json"
    params = json.dumps({"terms": [[["x", 0]], [["x", 1]]]})
    out = run(capsys, "generate", "taut_ds", "--params", params, "--out", str(out_path))
    assert json.loads(out)["kind"] == "ds"
    model = json.loads(out_path.read_text())
    assert model["kind"] == "ds"


def test_generate_laxp_to_gaxp_accepts_model_path(capsys, tmp_path):
    obdd_path = tmp_path / "and.json"
    obdd_path.write_text(json.dumps({
        "kind": "obdd",
        "source": "s",
        "t0": "t0",
        "t1": "t1",
        "order": ["f1", "f2"],
        "nodes": {
            "s": {"feature": "f1", "zero": "t0", "one": "a"},
            "a": {"feature": "f2", "zero": "t0", "one": "t1"},
        },
    }))
    out_path = tmp_path / "lift.json"
    params = json.dumps({
        "model": str(obdd_path),
        "example": {"f1": 1, "f2": 1},
        "k": 2,
    })
    out = run(capsys, "generate", "laxp_to_gaxp", "--params", params,
              "--out", str(out_path))
    summary = json.loads(out)
    assert summary["query"]["kind"] == "gAXp" and summary["query"]["k"] == 2
    q = json.dumps(summary["query"])
    out = run(capsys, "explain", "--model", str(out_path), "--query", q)
    assert json.loads(out)["size"] == 2

    # the model parameter may also be given inline
    inline = json.dumps({
        "model": json.loads(obdd_path.read_text()),
        "example": {"f1": 1, "f2": 1},
        "k": 2,
    })
    out2 = run(capsys, "generate", "laxp_to_gaxp", "--params", inline,
               "--out", str(out_path))
    assert json.loads(out2) == summary


def test_generate_deep_part_keeps_the_exit_code_contract(capsys, tmp_path):
    # part 0 has more vertices than the default recursion limit allows frames
    vertices = [[f"a{i}", 0] for i in range(1100)] + [["b0", 1]]
    params = json.dumps({"graph": {"vertices": vertices, "edges": []}})
    code = main(["generate", "mcc_gaxp_dt", "--params", params,
                 "--out", str(tmp_path / "deep.json")])
    out = capsys.readouterr().out
    assert code == 1, out
    assert json.loads(out)["error"] == {
        "type": "BudgetExceeded",
        "message": "2422212 leaves exceed the cap of 1000000",
    }


# x.y-z and x-y.z both derive the edge feature p.x.y.z
COLLIDING_GRAPH = {
    "vertices": [["x.y", 0], ["x", 0], ["z", 1], ["y.z", 1]],
    "edges": [["x.y", "z"], ["x", "y.z"]],
}


def test_generate_colliding_feature_names_exit_2(capsys, tmp_path):
    out = run(capsys, "generate", "mcc_obdd_maj", "--params",
              json.dumps({"graph": COLLIDING_GRAPH}), "--out", str(tmp_path / "x.json"),
              expect=2)
    assert json.loads(out)["error"] == {
        "type": "SharedFeature",
        "message": "feature 'p.x.y.z' appears in two pieces",
    }


TREE_MODEL = {
    "kind": "dt",
    "root": "r",
    "nodes": {"r": {"feature": "f1", "zero": "a", "one": "b"},
              "a": {"leaf": 0}, "b": {"leaf": 1}},
}


@pytest.mark.parametrize(
    "gadget, params",
    [
        ("mcc_ds", {"graph": 5}),
        ("mcc_ds", {"graph": {"vertices": 5}}),
        ("mcc_ds", {"graph": {"vertices": [["a"]]}}),
        ("mcc_ds", {"graph": {"vertices": [["a", 0]], "edges": [["a", ["b"]]]}}),
        ("maj_hom", {"graph": {"vertices": [["a", 0], ["b", 10**12]]}}),
        ("mcc_dt_ensemble", {"graph": {"vertices": [["a", 0], ["b", 1]]}, "k": "2"}),
        ("hitting_set", {"universe": 5, "sets": [["1"]]}),
        ("hitting_set", {"universe": ["1"], "sets": 5}),
        ("hitting_set", {"universe": ["1"], "sets": [5]}),
        ("hitting_set", [1]),
        ("taut_ds", {"terms": 5}),
        ("mcc_gaxp_dt", {"graph": json.loads(K3_PARAMS)["graph"], "max_k": "x"}),
        ("laxp_to_gaxp", {"model": TREE_MODEL, "example": {"f1": 1}, "k": 1}),
        ("laxp_to_gaxp", {"model": dict(OBDD_XY, order=["x", "y"]), "example": 5, "k": 1}),
        ("mcc_ds", {**json.loads(K3_PARAMS), "k": "3"}),
        ("mcc_ds_ensemble", {**json.loads(K3_PARAMS), "k": 3.0}),
        ("laxp_to_gaxp", {"model": dict(OBDD_XY, order=["x", "y"]),
                          "example": {"x": 1, "y": 0}, "k": True}),
    ],
)
def test_generate_malformed_params_exit_2(capsys, tmp_path, gadget, params):
    out = run(capsys, "generate", gadget, "--params", json.dumps(params),
              "--out", str(tmp_path / "x.json"), expect=2)
    error = json.loads(out)["error"]
    assert error["type"] == "ModelError"
    if isinstance(params, dict) and type(params.get("k", 0)) is not int:
        assert error["message"].startswith("param 'k' must be an integer"), error


@pytest.mark.parametrize("gadget, params", [
    ("mcc_gaxp_dt", {**json.loads(K3_PARAMS), "node_cap": -5}),
    ("laxp_to_gaxp", {"model": dict(OBDD_XY, order=["x", "y"]),
                      "example": {"x": 1, "y": 0}, "k": 1, "node_cap": -5}),
])
def test_generate_negative_node_cap_exits_2(capsys, tmp_path, gadget, params):
    out = run(capsys, "generate", gadget, "--params", json.dumps(params),
              "--out", str(tmp_path / "x.json"), expect=2)
    assert json.loads(out) == {"error": {
        "type": "ModelError", "message": "param 'node_cap' must be non-negative, got -5",
    }}
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("gadget, params, message", [
    ("hitting_set", {"universe": [1, 2], "sets": [[1]], "k": -3},
     "budget must be a non-negative integer, got -3"),
    ("mcc_gaxp_dt", {**json.loads(K3_PARAMS), "max_k": -1},
     "param 'max_k' must be non-negative, got -1"),
])
def test_generate_negative_budget_exits_2(capsys, tmp_path, gadget, params, message):
    # a query with a negative budget is one `explain` refuses, so the
    # generator refuses to write it
    out = run(capsys, "generate", gadget, "--params", json.dumps(params),
              "--out", str(tmp_path / "x.json"), expect=2)
    assert json.loads(out) == {"error": {"type": "ModelError", "message": message}}
    assert not (tmp_path / "x.json").exists()


def test_generate_unknown_gadget_exits_2(capsys, tmp_path):
    out = run(capsys, "generate", "warp_drive", "--params", "{}",
              "--out", str(tmp_path / "x.json"), expect=2)
    assert "error" in json.loads(out)


# ---------------------------------------------------------------------------
# bench


BENCH_HEADER = (
    "instance,ens_size,mnl_size,terms_elem,term_size,width_elem,size_elem,"
    "witness_size,route,status,time_ms"
)


def test_bench_csv(capsys, tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "a.json").write_text(dumps_model(FIG1))
    k3_path = tmp_path / "k3.json"
    run(capsys, "generate", "mcc_dt_ensemble", "--params", K3_PARAMS,
        "--out", str(k3_path))
    (corpus / "b.json").write_text(k3_path.read_text())
    (corpus / "c.json").write_text(
        json.dumps({"kind": "dt", "root": "r", "nodes": {"r": {"leaf": 0}}})
    )
    q = json.dumps(
        {"kind": "lCXp", "minimality": "cardinality",
         "target": {"x": 0, "y": 0, "z": 0}, "k": 3}
    )
    out = run(capsys, "bench", "--corpus", str(corpus), "--query", q)
    lines = out.strip().split("\n")
    assert lines[0] == BENCH_HEADER
    assert len(lines) == 4
    assert lines[1].startswith("a.json") and ",ok," in lines[1]
    # the query example misses the ensemble's features -> error row
    assert lines[2].startswith("b.json") and ",error," in lines[2]
    # the constant tree has no contrastive answer at all -> none row
    assert lines[3].startswith("c.json") and ",none," in lines[3]

    out2 = run(capsys, "bench", "--corpus", str(corpus), "--query", q)

    def strip_time(text):
        return [",".join(r.split(",")[:-1]) for r in text.strip().split("\n")]

    assert strip_time(out) == strip_time(out2)


def test_bench_empty_corpus_prints_header_only(capsys, tmp_path):
    corpus = tmp_path / "empty"
    corpus.mkdir()
    q = json.dumps({"kind": "gAXp", "minimality": "subset", "target": 0})
    out = run(capsys, "bench", "--corpus", str(corpus), "--query", q)
    assert out.strip() == BENCH_HEADER


# ---------------------------------------------------------------------------
# exit-code contract under fuzzing


VALID_MODELS = [
    _leaves_tree("x", 0, 1),
    {"kind": "ds", "terms": [[["x", 1], ["y", 0]], [["z", 1]]], "default": 0},
    json.loads(dumps_model(FIG1)),
    dict(OBDD_XY, order=["x", "y"]),
    {"kind": "ensemble", "elements": [_leaves_tree(f, 0, 1) for f in "xyz"]},
    {
        "kind": "ensemble",
        "elements": [dict(OBDD_XY, order=["x"]), dict(OBDD_XY, order=["x", "y"]),
                     dict(OBDD_XY, order=["x", "z"])],
        "shared_order": ["x", "y", "z"],
    },
]
VALID_QUERIES = [
    {"kind": "lAXp", "minimality": "subset", "target": E},
    {"kind": "lCXp", "minimality": "cardinality", "target": E, "k": 2},
    {"kind": "gAXp", "minimality": "cardinality", "target": 1, "k": 2},
    {"kind": "gCXp", "minimality": "subset", "target": 0},
]
VALID_WITNESSES = [["x"], ["y", "z"], {"x": 1}, {"x": 0, "z": 1}]

JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from(["x", "y", "z", "r", "s", "t0", "t1", "dt", "obdd", "ensemble"])
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=4),
    max_leaves=10,
)


@st.composite
def one_field_replaced(draw, documents):
    doc = draw(st.sampled_from(documents))
    path = draw(st.sampled_from(list(json_paths(doc))))
    return with_replaced(doc, path, draw(JSON_VALUES))


def _any_of(documents):
    return st.sampled_from(documents) | one_field_replaced(documents) | JSON_VALUES


@settings(max_examples=400, deadline=None)
@example(  # the target misses a feature the diagram's order declares
    model=dict(OBDD_XY, order=["x", "w"]),
    query=VALID_QUERIES[0],
    witness=["w"],
    command="verify",
    route="auto",
)
@given(
    model=st.sampled_from(VALID_MODELS) | one_field_replaced(VALID_MODELS),
    query=_any_of(VALID_QUERIES),
    witness=_any_of(VALID_WITNESSES),
    command=st.sampled_from(["explain", "verify", "verify --minimal"]),
    route=st.sampled_from(ROUTES),
)
def test_any_json_input_keeps_the_exit_code_contract(model, query, witness, command, route):
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, doc in (("model", model), ("query", query), ("witness", witness)):
            paths[name] = os.path.join(tmp, f"{name}.json")
            with open(paths[name], "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
        argv = command.split() + [
            "--model", paths["model"], "--query", paths["query"],
            "--guard-features", "8",
        ]
        if command == "explain":
            argv += ["--route", route]
        else:
            argv += ["--witness", paths["witness"]]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
    assert code in (0, 1, 2, 3), (argv, code)
    assert isinstance(json.loads(out.getvalue()), dict)


GENERATE_PARAMS = [
    ("hitting_set", {"universe": ["1", "2"], "sets": [["1"], ["2"]], "k": 2}),
    ("mcc_gaxp_dt", {**json.loads(K3_PARAMS), "k": 3, "max_k": 4, "node_cap": 10**4}),
    ("mcc_dt_ensemble", json.loads(K3_PARAMS)),
    ("maj_hom", {**json.loads(K3_PARAMS), "family": "obdd"}),
    ("taut_ds", {"terms": [[["x", 0]], [["x", 1], ["y", 0]]]}),
    ("mcc_ds", json.loads(K3_PARAMS)),
    ("mcc_ds_ensemble", json.loads(K3_PARAMS)),
    ("mcc_obdd_maj", json.loads(K3_PARAMS)),
    ("laxp_to_gaxp", {"model": dict(OBDD_XY, order=["x", "y"]),
                      "example": {"x": 1, "y": 0}, "k": 1, "node_cap": 100}),
]
# sha256 of (the printed summary, the written model), one per case of
# GENERATE_PARAMS and then maj_hom over sets
GENERATE_DIGESTS = [
    ("4ec49e4d8bd9307421dd27520b98ad02c1b042045e0091c7168db6a0b9406a80",
     "df936c1f07845eb5537963bda2896d39613546054af83f75f3f9adb27df0b9dd"),
    ("0aa6a166fb76f6c9ab84d9eb8cc761b11610ab2e8f7c5586ca7f04b36af94ffa",
     "660472926ca5ca7d6e2cdab5a3df41b5e25e88fb8950758067c46da9433760a4"),
    ("ca97c30c72b33306bd1a1b1d9ffafd0844f0e3f42cc6f1f1d65d3c62f3fbdc4c",
     "3fc005eac2cbb8776b544e3a8c4e616b4286075120be1cdd42ad1e54912a1e42"),
    ("a08d98f81205a00d01e4774f96318b660ed33e61fd5061b1b9e00858301fcdc4",
     "f19d9d5c5910c29181f8b82d6feee3986d9caa30d7e32f66b60045cb1f418777"),
    ("64f0843e8916390a0e39ef350aac4f924fcff004fb78444503853421f0834917",
     "f3b431f14fcf4aabe18bf3cf5c92e56414531c4a33efcb5ee6baffe76d72d091"),
    ("677bd72f59c0f5b17c14b4e0f02ef2a32c9b908f24a0fb61ac7e7ae8e2a63670",
     "4c11b40faace597d8061fb23cf07c6e20e55e9a0d8af1842d828c6464f55d322"),
    ("77f026ec85d3633c5a1bfe50d53dc49523826b95ec40c8969f9b3dea935de393",
     "c2960d05cf38e6bd5cc32915a9d7ab80309d24419e52ad314618fe1a59678bec"),
    ("98881340a375dc738df00c4ca0ddfac7d25cf769c2dc9fcdc7ecb411e700b7b4",
     "5aef929e748446c03cad02bbaeb397911c8632db31358cd88fa385363e823388"),
    ("4f8898da31f9a017e0b99bb6ee3c9ddb7fb8e70c5e424a3a99c0dab6add0223b",
     "26a94cd158c41d4c4845cfacf95b93858d0ef4a54f7bdb88204b4839d38685cb"),
    ("a08d98f81205a00d01e4774f96318b660ed33e61fd5061b1b9e00858301fcdc4",
     "ad02c453338b6d8873a32ad93901124f1b3a7c75643a57cf54fb60a8eb948799"),
]


PINNED_GENERATE = GENERATE_PARAMS + [("maj_hom", {**json.loads(K3_PARAMS), "family": "ds"})]


@pytest.mark.parametrize(
    "gadget, params, digests",
    [(*case, digests) for case, digests in zip(PINNED_GENERATE, GENERATE_DIGESTS)],
    ids=[" ".join([gadget, params.get("family", "")]).strip() for gadget, params in PINNED_GENERATE],
)
def test_generate_writes_the_pinned_bytes(capsys, tmp_path, gadget, params, digests):
    out_path = tmp_path / "out.json"
    summary = run(capsys, "generate", gadget, "--params", json.dumps(params),
                  "--out", str(out_path))
    got = (hashlib.sha256(summary.encode()).hexdigest(),
           hashlib.sha256(out_path.read_bytes()).hexdigest())
    assert got == digests


@settings(max_examples=300, deadline=None)
@given(
    case=st.sampled_from(GENERATE_PARAMS).flatmap(
        lambda case: st.tuples(
            st.just(case[0]),
            st.just(case[1]) | one_field_replaced([case[1]]) | JSON_VALUES,
        )
    )
)
def test_any_generate_params_keep_the_exit_code_contract(case):
    gadget, params = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "params.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(params, fh)
        argv = ["generate", gadget, "--params", path, "--out", os.path.join(tmp, "out.json")]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
    assert code in (0, 1, 2, 3), (argv, code)
    assert isinstance(json.loads(out.getvalue()), dict)


@pytest.mark.parametrize("case", ["shared feature", "timeout", "not UTF-8", "long integer"])
def test_refused_inputs_print_no_traceback(tmp_path, fig1_path, case):
    latin, long = tmp_path / "latin.json", tmp_path / "long.json"
    latin.write_bytes(NOT_UTF8)
    long.write_bytes(LONG_INTEGER)
    argv = {
        "shared feature": ["generate", "mcc_obdd_maj", "--params",
                           json.dumps({"graph": COLLIDING_GRAPH}), "--out", str(tmp_path / "x.json")],
        "timeout": ["explain", "--model", fig1_path, "--query", Q_LCXP1,
                    "--timeout-ms", "99999999999999999"],
        "not UTF-8": ["explain", "--model", str(latin), "--query", Q_LCXP1],
        "long integer": ["explain", "--model", fig1_path, "--query", str(long)],
    }[case]
    proc, _ = run_cli_process(*argv)
    assert proc.returncode == 2, proc.stderr
    assert "error" in json.loads(proc.stdout)
    assert "Traceback" not in proc.stderr


# ---------------------------------------------------------------------------
# console entry point


def test_generate_runs_one_copy_of_the_cli(tmp_path):
    """`python -m xbool.cli` runs cli.py as `__main__`; `generate` imports
    names from `xbool.cli`, which must find that module rather than
    import and run the file a second time."""
    out = tmp_path / "taut.json"
    params = json.dumps({"terms": [[["x", 0]], [["x", 1]]]})
    proc, _ = run_cli_process("generate", "taut_ds", "--params", params, "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(out.read_text())["kind"] == "ds"
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "xbool.cli", "generate", "taut_ds",
         "--params", params, "--out", str(out)],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(xbool.__file__))),
    )
    assert proc.returncode == 0, proc.stderr
    imported = [line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")]
    assert "xbool.gadgets" in imported
    assert "xbool.cli" not in imported


# name -> (command line, exit code); FIG1 and OUT stand for file paths
PARITY = {
    "explain": (["explain", "--model", "FIG1", "--query", Q_LCXP1], 0),
    "explain, no witness": (["explain", "--model", "FIG1", "--query", json.dumps(
        {"kind": "lCXp", "minimality": "cardinality", "target": E, "k": 0})], 3),
    "verify --minimal": (["verify", "--model", "FIG1", "--query", Q_LCXP1,
                          "--witness", '["z"]', "--minimal"], 0),
    "verify --minimal, refuted": (["verify", "--model", "FIG1", "--query", Q_LAXP,
                                   "--witness", '["x", "y", "z"]', "--minimal"], 3),
    "plain reader's refusal": (["explain", "--model", "FIG1", "--query", "{broken"], 2),
    "argparse's refusal": (["explain", "--model", "FIG1", "--query", Q_LCXP1,
                            "--route", "fast"], 2),
    "guard stop": (["explain", "--model", "FIG1", "--query", Q_LAXP,
                    "--guard-features", "0"], 1),
    "--out": (["explain", "--model", "FIG1", "--query", Q_LAXP, "--out", "OUT"], 0),
    "generate": (["generate", "taut_ds", "--params",
                  json.dumps({"terms": [[["x", 0]], [["x", 1]]]}), "--out", "OUT"], 0),
    "help": (["--help"], 0),
    "explain --help": (["explain", "--help"], 0),
}


@pytest.mark.parametrize("name", list(PARITY))
def test_a_process_prints_what_main_does_in_process(name, capsys, monkeypatch, tmp_path,
                                                   fig1_path):
    """A process ends through `cli.run` (flush, then `os._exit`), and
    `main` called in process still returns its code: the two print the
    same bytes and give the same code."""
    line, code = PARITY[name]
    out = tmp_path / "out.json"
    argv = [{"FIG1": fig1_path, "OUT": str(out)}.get(arg, arg) for arg in line]
    monkeypatch.setenv("COLUMNS", "100")  # help and usage wrap the same in both
    if "--help" in argv:
        with pytest.raises(SystemExit) as done:
            main(argv)
        assert done.value.code == code
    else:
        assert main(argv) == code
    captured = capsys.readouterr()
    written = out.read_bytes() if out.exists() else None
    out.unlink(missing_ok=True)
    proc = cli_process(*argv, capture_output=True)
    assert proc.returncode == code, proc.stderr
    assert proc.stdout == captured.out.encode()
    assert proc.stderr == captured.err.encode()
    assert (out.read_bytes() if out.exists() else None) == written


# a generated model's summary goes to stdout even when the model goes to --out
GENERATE_HITTING_SET = json.dumps({"universe": ["1", "2"], "sets": [["1"]]})


@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize("line", ["fig1", "missing", "--help", "explain --help", "generate"])
def test_an_unwritable_stdout_exits_1_with_one_line(unbuffered, line, tmp_path, fig1_path):
    # every write to a read-only stdout fails with EBADF: unbuffered at
    # the write, buffered at run's flush.  The answer, the exit-2 error
    # payload of a model file that cannot be read, the help or the
    # summary of a generated model is lost, which is the process's own
    # failure: exit 1, one line, no traceback
    sink = tmp_path / "sink"
    sink.write_bytes(b"")
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = SRC
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    models = {"fig1": fig1_path, "missing": str(tmp_path / "missing.json")}
    argv = line.split()
    if line in models:
        argv = ["explain", "--model", models[line], "--query", Q_LCXP1]
    if line == "generate":
        argv = ["generate", "hitting_set", "--params", GENERATE_HITTING_SET,
                "--out", str(tmp_path / "out.json")]
    with open(sink, "rb") as read_only:
        proc = cli_process(*argv, stdout=read_only, stderr=subprocess.PIPE, env=env)
    assert proc.returncode == 1
    assert proc.stderr == b"xbool: cannot write to stdout: [Errno 9] Bad file descriptor\n"
    assert sink.read_bytes() == b""


def test_a_process_without_stdout_exits_1_with_one_line(fig1_path, tmp_path):
    for argv in (["explain", "--model", fig1_path, "--query", Q_LCXP1],
                 ["generate", "hitting_set", "--params", GENERATE_HITTING_SET,
                  "--out", str(tmp_path / "out.json")]):
        proc = cli_process(*argv, stderr=subprocess.PIPE, preexec_fn=lambda: os.close(1))
        assert proc.returncode == 1, argv
        assert proc.stderr == b"xbool: cannot write to stdout: stdout is closed\n", argv


def test_an_unreadable_input_or_out_path_still_exits_2(tmp_path, fig1_path, capsys):
    # an OSError of the inputs or of --out is the caller's: exit 2 with a
    # payload on stdout, told apart from a stdout that refuses it
    missing = str(tmp_path / "missing.json")
    out = str(tmp_path / "no-such-dir" / "out.json")
    for argv in (["--model", missing, "--query", Q_LCXP1],
                 ["--model", fig1_path, "--query", Q_LCXP1, "--out", out]):
        assert main(["explain", *argv]) == 2
        captured = capsys.readouterr()
        assert json.loads(captured.out)["error"]["type"] == "FileNotFoundError"
        assert captured.err == ""


def test_a_process_without_stdout_still_writes_out(tmp_path, fig1_path):
    # with its descriptor closed at start, sys.stdout is None; an answer
    # to --out needs no stdout, and the process exits 0
    out = tmp_path / "out.json"
    proc = cli_process("explain", "--model", fig1_path, "--query", Q_LCXP1,
                       "--out", str(out), stderr=subprocess.PIPE,
                       preexec_fn=lambda: os.close(1))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(out.read_text())["witness"] == ["z"]


def test_console_script_runs(fig1_path):
    proc = subprocess.run(
        [sys.executable, "-m", "xbool.cli", "explain", "--model", fig1_path,
         "--query", Q_LCXP1],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["size"] == 1
    proc = subprocess.run(
        ["xbool", "explain", "--model", fig1_path, "--query", Q_LCXP1],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr

"""The package surface and what one request loads.

`xbool` imports its submodules on first use, and the value records are
plain `__slots__` classes; these tests pin both: every public name
still resolves, the records keep the dataclass behaviour they replaced,
and an `explain`/`verify` process loads only the modules its route runs.
"""

import copy
import json
import os
import pickle
import subprocess
import sys

import pytest

import xbool
from xbool.circuits import Gate
from xbool.dslist import BranchStats
from xbool.explain import ExplanationQuery, Witness
from xbool.models import DtInner, DtLeaf, ObddNode, Parameters, Rule

SRC = os.path.dirname(os.path.dirname(os.path.abspath(xbool.__file__)))

TREE = {
    "kind": "dt",
    "root": "a",
    "nodes": {
        "a": {"feature": "x", "zero": "l0", "one": "b"},
        "b": {"feature": "y", "zero": "l1", "one": "l2"},
        "l0": {"leaf": 0},
        "l1": {"leaf": 0},
        "l2": {"leaf": 1},
    },
}
DIAGRAM = {
    "kind": "obdd",
    "source": "a",
    "t0": "t0",
    "t1": "t1",
    "order": ["x", "y"],
    "nodes": {
        "a": {"feature": "x", "zero": "t0", "one": "b"},
        "b": {"feature": "y", "zero": "t0", "one": "t1"},
    },
}

# Runs two requests through cli.main in a fresh interpreter and prints
# the exit codes and the modules loaded after each.
PROBE = """
import io, json, sys
from contextlib import redirect_stdout
from xbool import cli
tree, diagram = sys.argv[1:3]
report = {}
with redirect_stdout(io.StringIO()):
    report["explain"] = cli.main([
        "explain", "--model", tree, "--query",
        json.dumps({"kind": "lAXp", "minimality": "subset", "target": {"x": 1, "y": 1}}),
    ])
report["after_tree"] = sorted(sys.modules)
with redirect_stdout(io.StringIO()):
    report["verify"] = cli.main([
        "verify", "--minimal", "--model", diagram, "--query",
        json.dumps({"kind": "gAXp", "minimality": "subset", "target": 1}),
        "--witness", json.dumps({"x": 1, "y": 1}),
    ])
report["after_diagram"] = sorted(sys.modules)
print(json.dumps(report))
"""


def test_a_request_loads_only_its_route(tmp_path):
    tree, diagram = tmp_path / "tree.json", tmp_path / "diagram.json"
    tree.write_text(json.dumps(TREE))
    diagram.write_text(json.dumps(DIAGRAM))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, str(tree), str(diagram)],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=SRC),
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["explain"] == 0 and report["verify"] == 0
    assert "xbool.dt" in report["after_tree"]
    assert "xbool.obdd" not in report["after_tree"]
    for name in ("dataclasses", "xbool.gadgets", "xbool.circuits", "xbool.dslist",
                 "xbool.tables", "csv"):
        assert name not in report["after_diagram"], name


def test_every_public_name_resolves():
    listed = dir(xbool)
    for name in xbool.__all__:
        assert getattr(xbool, name) is not None, name
        assert name in listed, name
    assert xbool.gadgets is sys.modules["xbool.gadgets"]
    assert xbool.DtLeaf is DtLeaf
    with pytest.raises(AttributeError):
        xbool.no_such_name


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from xbool import *", namespace)
    assert set(xbool.__all__) <= set(namespace)
    assert namespace["Witness"] is Witness


# (record, its dataclass repr, an equal record, a different record)
FROZEN = [
    (DtLeaf(1), "DtLeaf(label=1)", DtLeaf(label=1), DtLeaf(0)),
    (
        DtInner("x", "a", "b"),
        "DtInner(feature='x', zero='a', one='b')",
        DtInner(feature="x", zero="a", one="b"),
        DtInner("x", "b", "a"),
    ),
    (
        ObddNode("x", "t0", "t1"),
        "ObddNode(feature='x', zero='t0', one='t1')",
        ObddNode(one="t1", zero="t0", feature="x"),
        ObddNode("y", "t0", "t1"),
    ),
    (
        Rule(frozenset({("x", 1)}), 0),
        "Rule(term=frozenset({('x', 1)}), label=0)",
        Rule(term=frozenset({("x", 1)}), label=0),
        Rule(frozenset(), 0),
    ),
    (
        ExplanationQuery("gAXp", "cardinality", 1, k=2),
        "ExplanationQuery(kind='gAXp', minimality='cardinality', target=1, k=2)",
        ExplanationQuery(kind="gAXp", minimality="cardinality", target=1, k=2),
        ExplanationQuery("gAXp", "cardinality", 1, k=3),
    ),
    (
        Witness(features=("x",)),
        "Witness(features=('x',), assignment=None)",
        Witness.of_features(["x"]),
        Witness(assignment=(("x", 1),)),
    ),
    (
        Gate("MAJ", ("x", "y"), 1),
        "Gate(kind='MAJ', inputs=('x', 'y'), threshold=1)",
        Gate(kind="MAJ", threshold=1, inputs=("x", "y")),
        Gate("MAJ", ("x", "y"), 2),
    ),
]


@pytest.mark.parametrize(
    "record,text,same,other", FROZEN, ids=[type(row[0]).__name__ for row in FROZEN]
)
def test_frozen_records_keep_their_dataclass_behaviour(record, text, same, other):
    assert repr(record) == text
    assert record == same and hash(record) == hash(same)
    assert record != other and len({record, same, other}) == 2
    assert record != text
    field = text.split("(", 1)[1].split("=", 1)[0]
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert copy.deepcopy(record) == record
    assert pickle.loads(pickle.dumps(record)) == record


def test_query_and_witness_keep_their_validation():
    q = ExplanationQuery("lAXp", "subset", {"x": True})
    assert q.target == {"x": 1} and q.k is None and q.is_local
    assert repr(q) == "ExplanationQuery(kind='lAXp', minimality='subset', target={'x': 1}, k=None)"
    with pytest.raises(TypeError):
        hash(q)  # the target example is a dict, as before
    for args in (("xAXp", "subset", 1), ("gAXp", "subset", 1, 2), ("gAXp", "cardinality", 1),
                 ("gAXp", "cardinality", 1, -1), ("lAXp", "subset", 1), ("gAXp", "subset", 2)):
        with pytest.raises(xbool.ModelError):
            ExplanationQuery(*args)
    with pytest.raises(xbool.ModelError):
        Witness()
    with pytest.raises(xbool.ModelError):
        Witness(features=(), assignment=())


def test_mutable_records_keep_their_dataclass_behaviour():
    params = Parameters(ens_size=3)
    assert repr(params) == (
        "Parameters(ens_size=3, mnl_size=None, terms_elem=None, term_size=None, "
        "width_elem=None, size_elem=None, xp_size=None)"
    )
    params.size_elem = 7
    assert params == Parameters(3, size_elem=7)
    assert params.to_json() == {"ens_size": 3, "size_elem": 7}
    with pytest.raises(TypeError):
        hash(params)

    first, second = BranchStats(), BranchStats()
    first.leaves_per_rule.append(4)
    assert second.leaves_per_rule == []
    assert repr(first) == "BranchStats(leaves_per_rule=[4])"
    assert first == BranchStats(leaves_per_rule=[4]) != second
    with pytest.raises(TypeError):
        hash(first)


# Imports the benchmark's tracer and workload modules and wraps every
# name the tracer binds, so a rename of a wrapped function fails here.
TRACER_PROBE = """
import builders, tracing, workloads
from xbool import circuits
tracer = tracing.Tracer()
tracer.install()
tracer.uninstall()
assert all(hasattr(circuits, name) for name in workloads.COMPILERS.values())
"""


def test_the_benchmark_tracer_binds_every_name_it_wraps():
    bench = os.path.join(os.path.dirname(SRC), "perfbench")
    proc = subprocess.run(
        [sys.executable, "-c", TRACER_PROBE],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, bench])),
    )
    assert proc.returncode == 0, proc.stderr

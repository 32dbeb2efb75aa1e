"""The package surface and what one request loads.

`xbool` imports its submodules on first use, and the value records are
plain `__slots__` classes; these tests pin both: every public name
still resolves, the records keep the dataclass behaviour they replaced,
and an `explain`/`verify` process loads only the modules its route runs.
"""

import ast
import copy
import importlib
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

RULES = {"kind": "dl", "rules": [[[["x", 1], ["y", 1]], 1], [[["y", 0]], 0], [[], 1]]}
LAXP = json.dumps({"kind": "lAXp", "minimality": "subset", "target": {"x": 1, "y": 1}})

# Runs one request through cli.main and keeps its exit code.
PROBE = """
import io, json, sys
from contextlib import redirect_stdout
from xbool import cli
with redirect_stdout(io.StringIO()):
    try:
        code = cli.main(sys.argv[1:])
    except SystemExit as done:  # --help
        code = done.code
"""
# Imports the circuit module and nothing else of the package.
CIRCUITS = """
import json, sys
import xbool.circuits
code = 0
"""
# Appended to either: prints the exit code, the modules loaded and the
# source lines of the xbool modules among them.
REPORT = """
lines = 0
for name, module in sys.modules.items():
    if name == "xbool" or name.startswith("xbool."):
        with open(module.__file__, encoding="utf-8") as fh:
            lines += len(fh.read().splitlines())
print(json.dumps({"code": code, "modules": sorted(sys.modules), "lines": lines}))
"""

# loaded by no explain or verify request
NEVER = ("dataclasses", "xbool.gadgets", "xbool.circuits", "csv")
# loaded only by lines the plain reader declines: help and refusals
ARGPARSE = ("argparse", "gettext", "locale", "xbool.cli_parser")
# loaded by no single tree or diagram request
OFF_THE_TREE_AND_DIAGRAM_PATH = (
    "xbool.rules", "xbool.ensemble", "xbool.writer", "xbool.obdd_product",
    "xbool.obdd_order", "xbool.cli_parser",
)


def _probe(*argv, code=0, program=PROBE):
    """(modules loaded, source lines of the xbool modules among them)
    after one request through cli.main, or another `program`, in a
    fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", program + REPORT, *argv],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=SRC),
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["code"] == code, argv
    return set(report["modules"]), report["lines"]


def _route_requests(tmp_path):
    """name -> (argv, exit code): one request per route, two lines the
    plain reader declines, and one generated model."""
    paths = {}
    for name, model in (("tree", TREE), ("diagram", DIAGRAM), ("rules", RULES)):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(model))
    tree, diagram, rules = (str(paths[name]) for name in ("tree", "diagram", "rules"))
    gaxp = json.dumps({"kind": "gAXp", "minimality": "subset", "target": 1})
    lcxp = json.dumps({"kind": "lCXp", "minimality": "cardinality",
                       "target": {"x": 1, "y": 1}, "k": 2})
    graph = {"vertices": [["a", 0], ["b", 1], ["c", 1]], "edges": [["a", "b"]]}
    return {
        "tree": (("explain", "--model", tree, "--query", LAXP), 0),
        "diagram": (("verify", "--minimal", "--model", diagram, "--query", gaxp,
                     "--witness", json.dumps({"x": 1, "y": 1})), 0),
        "rules": (("explain", "--model", rules, "--query", LAXP), 0),
        "rules verify": (("verify", "--model", rules, "--query", LAXP, "--witness",
                          json.dumps(["y"]), "--minimal", "--cap-nodes", "10"), 0),
        "branching": (("explain", "--model", rules, "--query", lcxp), 0),
        "help": (("explain", "--help"), 0),
        "refusal": (("explain", "--model", tree, "--query", LAXP, "--route", "fast"), 2),
        "generate": (("generate", "maj_hom", "--params", json.dumps({"graph": graph}),
                      "--out", str(tmp_path / "maj_hom.json")), 0),
    }


def test_a_request_loads_only_its_route(tmp_path):
    loaded = {name: _probe(*argv, code=code)[0]
              for name, (argv, code) in _route_requests(tmp_path).items()}
    assert "xbool.dt" in loaded["tree"]
    for name in NEVER + OFF_THE_TREE_AND_DIAGRAM_PATH + ("xbool.obdd", "xbool.tables",
                                                         "xbool.dslist"):
        assert name not in loaded["tree"], name
    assert "xbool.obdd" in loaded["diagram"]
    for name in NEVER + OFF_THE_TREE_AND_DIAGRAM_PATH + ("xbool.dt", "xbool.tables",
                                                         "xbool.dslist"):
        assert name not in loaded["diagram"], name
    for request in ("rules", "rules verify"):
        assert {"xbool.tables", "xbool.rules"} <= loaded[request], request
        for name in NEVER + ("xbool.dt", "xbool.obdd", "xbool.restriction", "xbool.dslist",
                             "xbool.ensemble", "xbool.writer"):
            assert name not in loaded[request], (request, name)
    # the branching search answers without the definitions the engines share
    assert {"xbool.dslist", "xbool.rules"} <= loaded["branching"]
    for name in NEVER + ("xbool.definitions", "xbool.tables", "xbool.restriction",
                         "xbool.ensemble", "xbool.writer"):
        assert name not in loaded["branching"], name
    for request in ("tree", "diagram", "rules", "rules verify", "branching"):
        for name in ARGPARSE:
            assert name not in loaded[request], (request, name)
    for request in ("help", "refusal"):
        for name in ARGPARSE:
            assert name in loaded[request], (request, name)


# Source lines of the xbool modules each request loads, all of which a
# process without a bytecode cache compiles.  The count repeats on any
# machine; a request that must load more raises its ceiling here.  At
# ed8f1a2, before rule sets and lists, ensembles, the model writer, the
# argparse parser, the diagram product, order inference and the query
# definitions moved to modules of their own, the counts were: tree 1866,
# diagram 1966, rules 1704, rules verify 1704, branching 1536, help 1356
# and refusal 1356.  At a72b85e, before each model classified and measured
# itself, they were: tree 1684, diagram 1655, rules 1638, rules verify
# 1638, branching 1366, help 1168 and refusal 1168.  At 982e002, before a
# tree or diagram learned its parents-first order in its constructor and
# one fill served both families' tables, they were: tree 1658, diagram
# 1629, rules 1615, rules verify 1615, branching 1343, help 1147 and
# refusal 1147.  At 48dd93a, before each hardness gadget, constant model
# and generated query was built in one place, generate was 3210.  At
# c47d6e9, before the six circuit compilers shared one skeleton and a
# hand-built circuit's cycle check read its program, importing
# xbool.circuits alone ("circuits") loaded 2515.  At 46f55ef, before the
# table oracle built and labelled through `FunctionOracle`, the restriction
# view sorted its universe when built and four more second copies went,
# they were: tree 1649, diagram 1617, rules 1606, rules verify 1606,
# branching 1343, help 1147, refusal 1147, generate 3162 and circuits 2504.
# At 771adb3, before a tree and a diagram became one `restriction.Graph`
# with one classify walk, one view constructor, one fill entry and one
# node writer, they were: tree 1641, diagram 1609, rules 1602, rules
# verify 1602, generate 3150 and circuits 2494.  At da7a278, before a
# circuit over at most 16 inputs evaluated by a lookup in its own truth
# table, circuits was 2471.  At f728bc5, before a circuit's program ran on
# one step loop, with no generated function, and one function held the
# budget rule, they were: tree 1634, diagram 1600, rules 1598, rules verify
# 1598, branching 1342, help 1146, refusal 1146, generate 3125 and
# circuits 2486.  At 7e3d887, before every engine answered `reaches` by
# feature name, with no name-to-position adapter in the oracles, they
# were: diagram 1598, rules 1596, rules verify 1596, generate 3117 and
# circuits 2457.
LINE_CEILINGS = {
    "tree": 1632, "diagram": 1596, "rules": 1590, "rules verify": 1590, "branching": 1339,
    "help": 1144, "refusal": 1144, "generate": 3110, "circuits": 2447,
}


def test_a_request_compiles_at_most_its_ceiling_of_lines(tmp_path):
    for name, (argv, code) in _route_requests(tmp_path).items():
        lines = _probe(*argv, code=code)[1]
        assert lines <= LINE_CEILINGS[name], (name, lines)


def test_the_circuit_module_compiles_at_most_its_ceiling_of_lines():
    lines = _probe(program=CIRCUITS)[1]
    assert lines <= LINE_CEILINGS["circuits"], lines


# Statements (`ast.stmt` nodes) in the modules under src/xbool/; code
# that adds statements raises the ceiling here.  At 771adb3, before a
# tree and a diagram became one `restriction.Graph`, there were 2464.  At
# da7a278, before a circuit over at most 16 inputs evaluated by a lookup in
# its own truth table, there were 2446.  At f728bc5, before a circuit's
# program ran on one step loop, with no generated function, there were 2455.
# At 7e3d887, before every engine answered `reaches` by feature name, there
# were 2436.
STATEMENT_CEILING = 2421


def test_the_package_holds_at_most_its_ceiling_of_statements():
    package = os.path.join(SRC, "xbool")
    count = 0
    for entry in sorted(os.listdir(package)):
        if entry.endswith(".py"):
            with open(os.path.join(package, entry), encoding="utf-8") as fh:
                count += sum(isinstance(node, ast.stmt) for node in ast.walk(ast.parse(fh.read())))
    assert count <= STATEMENT_CEILING, count


def test_the_package_runs_no_generated_code():
    # no call to exec, eval or compile: every program the package runs is
    # its own source
    package = os.path.join(SRC, "xbool")
    calls = []
    for entry in sorted(os.listdir(package)):
        if entry.endswith(".py"):
            with open(os.path.join(package, entry), encoding="utf-8") as fh:
                tree = ast.parse(fh.read())
            calls += [(entry, node.lineno) for node in ast.walk(tree)
                      if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                      and node.func.id in ("exec", "eval", "compile")]
    assert calls == []


def _imported_from(module: str):
    """(file, name) for every name the tests and the benchmark import
    from `module` by a `from ... import` statement."""
    root = os.path.dirname(SRC)
    for folder in ("tests", "perfbench"):
        for entry in sorted(os.listdir(os.path.join(root, folder))):
            if not entry.endswith(".py"):
                continue
            with open(os.path.join(root, folder, entry), encoding="utf-8") as fh:
                tree = ast.parse(fh.read())
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom) and node.module == module:
                    yield from ((entry, alias.name) for alias in node.names)


@pytest.mark.parametrize("module", ["xbool.models", "xbool.explain"])
def test_names_imported_from_models_and_explain_resolve_there(module, monkeypatch):
    owner = importlib.import_module(module)
    imported = list(_imported_from(module))
    assert imported
    for entry, name in imported:
        assert getattr(owner, name) is getattr(xbool, name), (entry, name)
    # a moved name is looked up at its home on every access, so a
    # rebinding there (the benchmark tracer's wrappers) shows here too
    moved = [name for _, name in imported if name not in vars(owner)]
    assert moved
    for name in moved:
        home = sys.modules[f"xbool.{xbool._HOME[name]}"]
        stand_in = object()
        monkeypatch.setattr(home, name, stand_in)
        assert getattr(owner, name) is stand_in, name
        assert name not in vars(owner), name
    with pytest.raises(AttributeError):
        getattr(owner, "no_such_name")
    with pytest.raises(AttributeError):
        getattr(owner, "Circuit")  # public, but it never lived here


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
        "width_elem=None, size_elem=None)"
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


def test_the_readme_library_example_prints_what_its_comments_say():
    # each expression statement ends in a `# value` comment, on its last
    # line or the line after; a witness is compared by its features
    with open(os.path.join(os.path.dirname(SRC), "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    code = readme.split("## Library example\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    lines = code.splitlines()
    scope = {}
    checked = 0
    for stmt in ast.parse(code).body:
        if not isinstance(stmt, ast.Expr):
            exec(compile(ast.Module([stmt], []), "README", "exec"), scope)
            continue
        got = eval(compile(ast.Expression(stmt.value), "README", "eval"), scope)
        comment = lines[stmt.end_lineno - 1].partition("#")[2] or lines[stmt.end_lineno]
        comment = comment.strip().lstrip("#").strip()
        want = comment.removeprefix("witness with features ")
        if want != comment:
            got = got.features
        want = ast.literal_eval(want)
        assert (type(got), got) == (type(want), want), comment
        checked += 1
    assert checked == 4


def test_the_console_script_is_the_entry_of_python_m():
    """`[project.scripts] xbool` names the function the `__main__` block
    of `xbool.cli` calls, so the installed script and `python -m
    xbool.cli` end a process the same way."""
    import tomllib

    with open(os.path.join(os.path.dirname(SRC), "pyproject.toml"), "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["xbool"]
    module, _, name = target.partition(":")
    entry = getattr(importlib.import_module(module), name)
    cli = importlib.import_module("xbool.cli")
    with open(cli.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    (block,) = [node for node in tree.body if isinstance(node, ast.If)
                and ast.unparse(node.test) == "__name__ == '__main__'"]
    called = [getattr(cli, node.value.func.id) for node in block.body
              if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call)
              and isinstance(node.value.func, ast.Name)]
    assert called == [entry]
    assert entry is not cli.main


# Imports the benchmark's tracer and workload modules and wraps every
# name the tracer binds, so a rename of a wrapped function fails here.
# The tracer frames the oracle by patching `FunctionOracle`, so the table
# oracle must inherit every method it patches, not override it.
TRACER_PROBE = """
import builders, tracing, workloads
from xbool import circuits, tables
from xbool.explain import ExplanationQuery
from xbool.restriction import Restriction
from xbool.rules import DecisionList
from xbool.tables import FunctionOracle, TableOracle
tracer = tracing.Tracer()
tracer.install()
dl = DecisionList([([("x", 1)], 1), ([], 0)])
tables.oracle_min(dl, ExplanationQuery("lAXp", "cardinality", {"x": 1}, 1))
tracer.uninstall()
assert all(hasattr(circuits, name) for name in workloads.COMPILERS.values())
assert not set(tracing.ORACLE_METHODS) & set(vars(TableOracle)), vars(TableOracle)
assert not issubclass(Restriction, FunctionOracle)
# the table oracle builds and labels through FunctionOracle, which the tracer wraps
counted = ("explain.oracle_builds", "explain.oracle_lookups", "explain.oracle_labels")
assert all(tracer.counts[name] for name in counted), tracer.counts
"""


def test_the_benchmark_tracer_binds_every_name_it_wraps():
    bench = os.path.join(os.path.dirname(SRC), "perfbench")
    proc = subprocess.run(
        [sys.executable, "-c", TRACER_PROBE],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, bench])),
    )
    assert proc.returncode == 0, proc.stderr

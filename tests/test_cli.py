"""Command-line behaviors: explain/verify/generate/bench and exit codes."""

import json
import subprocess
import sys

import pytest

from xbool.cli import DEFAULT_CAP, main, run_verify, run_verify_minimal
from xbool.explain import DEFAULT_GUARD, ExplanationQuery, Witness, verify_subset_minimal
from xbool.models import DecisionList, DecisionTree, DtInner, DtLeaf, Ensemble, dumps_model

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
    assert "error" in json.loads(out)


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


def test_explain_with_timeout_headroom(capsys, fig1_path):
    out = run(
        capsys, "explain", "--model", fig1_path, "--query", Q_LCXP1,
        "--timeout-ms", "30000",
    )
    assert json.loads(out)["size"] == 1


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


def test_verify_unknown_feature_exits_2(capsys, fig1_path):
    out = run(
        capsys, "verify", "--model", fig1_path, "--query", Q_LAXP,
        "--witness", json.dumps(["w"]), expect=2,
    )
    assert json.loads(out)["error"]["type"] == "UndefinedFeature"


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
        assert run_verify(ens, q, w, DEFAULT_CAP, DEFAULT_GUARD) is True
        assert run_verify_minimal(ens, q, w, DEFAULT_CAP, DEFAULT_GUARD) is False
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
# console entry point


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

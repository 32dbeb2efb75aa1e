"""Workload pools: seeded models, queries and witnesses on disk.

`build_pool` turns one workload's cells from `workloads.json` into a
list of requests, writing every model the requests name into a work
directory.  Random families are drawn with `builders`; gadget families
are made by `xbool generate` processes, so the program itself writes
those files.  Everything is drawn from one `random.Random(seed)` in a
fixed order, so a seed fixes the pool byte for byte.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from typing import Callable, Dict, List, Optional

from xbool.models import Ensemble, classify, dumps_model, loads_model

import builders as B
import reference

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "workloads.json")


def load_manifest() -> Dict:
    with open(MANIFEST, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Families: name -> builder of one random model


def _tree(rng):
    # no path shorter than 4 tests keeps small witnesses rare, so the
    # budgeted searches run to the budget and cost about the same each time
    return B.rand_tree(rng, B.feature_names(12), 220, min_depth=4)


def _cdiag(rng):
    return B.rand_complete_obdd(rng, B.feature_names(16), 12)


def _sdiag(rng):
    return B.rand_sparse_obdd(rng, B.feature_names(20), 8)


def _dt3(rng):
    feats = B.feature_names(10)
    return Ensemble([B.rand_tree(rng, feats, 16) for _ in range(3)])


def _dt5(rng):
    feats = B.feature_names(10)
    return Ensemble([B.rand_tree(rng, feats, 6, ordered=True) for _ in range(5)])


def _dtcap(rng):
    # 20**5 leaves bound the graft above the default node cap of 10**6,
    # so auto-routing falls back to brute force
    feats = B.feature_names(10)
    return Ensemble([B.rand_tree(rng, feats, 20) for _ in range(5)])


def _od_shared(rng):
    feats = B.feature_names(14)
    return Ensemble([B.rand_complete_obdd(rng, feats, 4) for _ in range(3)])


def _od_mixed(rng):
    feats = B.feature_names(12)
    elements = []
    for _ in range(3):
        order = list(feats)
        rng.shuffle(order)
        elements.append(B.rand_complete_obdd(rng, order, 4))
    return Ensemble(elements)


def _ds(rng):
    return B.rand_set(rng, B.feature_names(12), 10, 3, 5)


def _dl(rng):
    return B.rand_list(rng, B.feature_names(12), 12, 3, 5)


def _dse(rng):
    feats = B.feature_names(12)
    return Ensemble([B.rand_set(rng, feats, 12, 3, 5) for _ in range(3)])


def _dle(rng):
    feats = B.feature_names(12)
    return Ensemble([B.rand_list(rng, feats, 18, 3, 5) for _ in range(3)])


def _c_dt(rng):
    return B.rand_tree(rng, B.feature_names(10), 48)


def _c_dte(rng):
    feats = B.feature_names(10)
    return Ensemble([B.rand_tree(rng, feats, 24) for _ in range(3)])


def _c_dl(rng):
    return B.rand_list(rng, B.feature_names(10), 10, 2, 4)


def _c_dle(rng):
    feats = B.feature_names(10)
    return Ensemble([B.rand_list(rng, feats, 6, 2, 4) for _ in range(3)])


def _c_obdd(rng):
    return B.rand_complete_obdd(rng, B.feature_names(10), 4)


def _c_obdde(rng):
    feats = B.feature_names(10)
    return Ensemble([B.rand_complete_obdd(rng, feats, 3) for _ in range(3)], feats)


RANDOM_FAMILIES: Dict[str, Callable] = {
    "tree": _tree,
    "cdiag": _cdiag,
    "sdiag": _sdiag,
    "dt3": _dt3,
    "dt5": _dt5,
    "dtcap": _dtcap,
    "od_shared": _od_shared,
    "od_mixed": _od_mixed,
    "ds": _ds,
    "dl": _dl,
    "dse": _dse,
    "dle": _dle,
    "c_dt": _c_dt,
    "c_dte": _c_dte,
    "c_dl": _c_dl,
    "c_dle": _c_dle,
    "c_obdd": _c_obdd,
    "c_obdde": _c_obdde,
}

# circuits workload: family -> name of the xbool.circuits compiler
COMPILERS = {
    "c_dt": "compile_dt",
    "c_dte": "compile_dt_ensemble",
    "c_dl": "compile_dl",
    "c_dle": "compile_dl_ensemble",
    "c_obdd": "compile_obdd",
    "c_obdde": "compile_obdd_ensemble_ordered",
}


def _maj_hom(family):
    def params(rng):
        return {"graph": B.rand_mcc_graph(rng, 10, 3, 0.6), "family": family}

    return "maj_hom", params


def _mcc(gadget, vertices):
    def params(rng):
        return {"graph": B.rand_mcc_graph(rng, vertices, 3, 0.6)}

    return gadget, params


def _taut(rng):
    feats = B.feature_names(12)
    return {"terms": [B.rand_term(rng, feats, 1, 3) for _ in range(10)]}


# gadget family -> (generator name, params builder, distinct instances per pool)
GADGET_FAMILIES = {
    "maj_hom_dt": _maj_hom("dt") + (2,),
    "maj_hom_obdd": _maj_hom("obdd") + (2,),
    # 11 vertices keep the 11 trees' leaf product above the 10**6 node cap
    # (10**7.2 at least), so the graft always falls back to brute force;
    # a product just under the cap grafts ~10**6 leaves for ~10 s
    "mcc_dt": _mcc("mcc_dt_ensemble", 11) + (2,),
    "mcc_ds": _mcc("mcc_ds_ensemble", 9) + (2,),
    "taut": ("taut_ds", _taut, 2),
}


# ---------------------------------------------------------------------------
# Queries and witnesses


def _features(model) -> List[str]:
    return sorted(model.features())


def _query(rng, model, cell) -> Dict:
    feats = _features(model)
    q: Dict = {"kind": cell["kind"], "minimality": cell["minimality"]}
    if cell["kind"] in ("lAXp", "lCXp"):
        q["target"] = B.rand_example(rng, feats)
    else:
        q["target"] = rng.randint(0, 1)
    if cell["minimality"] == "cardinality":
        q["k"] = cell["k"]
    return q


def _minimal_witness(rng, model, table, cell):
    """Query and a seeded subset-minimal witness M for it.

    A full example (an always-valid abductive witness; for lCXp the whole
    feature set) is shrunk in random order with the reference tables.
    Returns the query, M as a feature list, and M's JSON form maker.
    """
    feats = _features(model)
    kind = cell["kind"]
    e = B.rand_example(rng, feats)
    target = e if kind in ("lAXp", "lCXp") else classify(model, e)
    if kind == "gCXp":
        target = 1 - target
    q: Dict = {"kind": kind, "minimality": cell["minimality"], "target": target}

    def wrap(names):
        names = sorted(names)
        return names if kind in ("lAXp", "lCXp") else {f: e[f] for f in names}

    kept = list(feats)
    if reference.holds(table, q, wrap(kept)):
        order = list(feats)
        rng.shuffle(order)
        for f in order:
            trial = [g for g in kept if g != f]
            if reference.holds(table, q, wrap(trial)):
                kept = trial
    return q, kept, wrap


def _budget(q: Dict, cell, witness) -> None:
    if cell["minimality"] == "cardinality":
        q["k"] = len(witness) if cell["k"] == "size" else cell["k"]


def _verify_case(rng, model, table, cell):
    """Query plus a seeded witness whose verdict is fixed by the draw:
    thirds of the draws ask about M (valid, minimal), M plus one feature
    (valid, not minimal) and M minus one feature (not valid), so every
    seed mixes the verdicts alike."""
    q, kept, wrap = _minimal_witness(rng, model, table, cell)
    pick = rng.randrange(3)
    spare = [f for f in _features(model) if f not in kept]
    if pick == 1 and spare:
        kept.append(rng.choice(spare))
    elif pick == 2 and kept:
        kept.remove(rng.choice(kept))
    witness = wrap(kept)
    _budget(q, cell, witness)
    return q, witness


def _verify_trio(rng, model, table, cell):
    """Query plus the three witnesses M, M plus one feature and M minus
    one feature, checked together by one circuit verify operation."""
    q, kept, wrap = _minimal_witness(rng, model, table, cell)
    spare = [f for f in _features(model) if f not in kept]
    trio = [wrap(kept)]
    trio.append(wrap(kept + [rng.choice(spare)]) if spare else wrap(kept))
    trio.append(wrap([f for f in kept if f != rng.choice(kept)]) if kept else wrap(kept))
    _budget(q, cell, trio[0])
    return q, trio


# ---------------------------------------------------------------------------
# Pool


def _generate(root: str, gadget: str, params: Dict, out: str) -> Dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    done = subprocess.run(
        [sys.executable, "-m", "xbool.cli", "generate", gadget,
         "--params", json.dumps(params), "--out", out],
        env=env, cwd=root, capture_output=True, text=True, timeout=60,
    )
    if done.returncode != 0:
        raise RuntimeError(f"xbool generate {gadget} failed: {done.stdout}{done.stderr}")
    return json.loads(done.stdout)


def _interleave(rng, requests: List[Dict], rounds: int) -> List[Dict]:
    """Spread each cell's requests evenly over `rounds` and shuffle each
    round, so any prefix of the pool has close to the full composition."""
    buckets: List[List[Dict]] = [[] for _ in range(rounds)]
    by_cell: Dict[int, List[Dict]] = {}
    for r in requests:
        by_cell.setdefault(r["cell"], []).append(r)
    for members in by_cell.values():
        for i, r in enumerate(members):
            buckets[i * rounds // len(members)].append(r)
    out = []
    for bucket in buckets:
        rng.shuffle(bucket)
        out.extend(bucket)
    return out


def build_pool(root: str, workload: Dict, seed: int, workdir: str) -> List[Dict]:
    """Write the workload's models under `workdir` and return its requests.

    A request holds the model's file name under `workdir`, the query,
    for verify the witness (for in-process circuits, a list of three),
    and the cell it came from.  `workdir` must
    exist and be empty.
    """
    rng = random.Random(seed)
    requests: List[Dict] = []
    gadgets: Dict = {}
    used: Dict[str, int] = {}
    for ci, cell in enumerate(workload["cells"]):
        fam = cell["family"]
        for _ in range(cell["count"]):
            n = used.get(fam, 0)
            used[fam] = n + 1
            generated: Optional[Dict] = None
            if fam in GADGET_FAMILIES:
                gadget, params_of, instances = GADGET_FAMILIES[fam]
                name = f"{fam}-{n % instances}.json"
                path = os.path.join(workdir, name)
                if name not in gadgets:
                    summary = _generate(root, gadget, params_of(rng), path)
                    with open(path, encoding="utf-8") as fh:
                        text = fh.read()
                    gadgets[name] = (loads_model(text), text, summary.get("query"))
                model, text, generated = gadgets[name]
            else:
                model = RANDOM_FAMILIES[fam](rng)
                name = f"{fam}-{n}.json"
                text = dumps_model(model)
                with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
                    fh.write(text)
            req = {"cell": ci, "family": fam, "command": cell["command"], "model": name}
            if cell["command"] == "explain":
                req["query"] = generated if cell["kind"] == "generated" else _query(rng, model, cell)
            else:
                table = reference.Table(json.loads(text))
                case = _verify_trio if workload["mode"] == "inprocess" else _verify_case
                req["query"], req["witness"] = case(rng, model, table, cell)
            requests.append(req)
    pool = _interleave(rng, requests, workload["rounds"])
    for i, req in enumerate(pool):
        req["id"] = i
    with open(os.path.join(workdir, "pool.json"), "w", encoding="utf-8") as fh:
        json.dump(pool, fh, sort_keys=True)
    return pool


def composition(pool: List[Dict]) -> Dict[str, int]:
    """Count per family x query kind x minimality x command."""
    out: Dict[str, int] = {}
    for r in pool:
        q = r["query"]
        key = f"{r['family']}/{q['kind']}/{q['minimality']}/{r['command']}"
        out[key] = out.get(key, 0) + 1
    return dict(sorted(out.items()))

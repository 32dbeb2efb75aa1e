"""The model writer: a model's JSON object and its canonical text.

`models.model_from_json` reads what `model_to_json` writes.  Only what
writes models (`generate`, the benchmark's setup, tests) loads this
module, so an `explain` or `verify` request never compiles it.
"""

from __future__ import annotations

from typing import Dict

from .errors import ModelError
from .models import Model, dumps_canonical


def model_to_json(model: Model) -> Dict:
    kind = getattr(model, "kind", None)
    if kind in ("dt", "obdd"):
        # a tree's leaves are among its nodes, a diagram's sinks are not
        nodes = {
            nid: {"leaf": model.terminals[nid]} if nid in model.terminals
            else {"feature": n.feature, "zero": n.zero, "one": n.one}
            for nid, n in model.nodes.items()
        }
        if kind == "dt":
            return {"kind": "dt", "root": model.start, "nodes": nodes}
        return {
            "kind": "obdd",
            "nodes": nodes,
            "source": model.start,
            "t0": model.t0,
            "t1": model.t1,
            "order": list(model.order),
        }
    if kind == "ds":
        return {
            "kind": "ds",
            "terms": [[[f, z] for f, z in sorted(t)] for t in model.terms],
            "default": model.default,
        }
    if kind == "dl":
        return {
            "kind": "dl",
            "rules": [[[[f, z] for f, z in sorted(r.term)], r.label] for r in model.rules],
        }
    if kind == "ensemble":
        data: Dict = {
            "kind": "ensemble",
            "elements": [model_to_json(el) for el in model.elements],
        }
        if model.shared_order is not None:
            data["shared_order"] = list(model.shared_order)
        return data
    raise ModelError(f"cannot serialize {type(model).__name__}")


def dumps_model(model: Model) -> str:
    return dumps_canonical(model_to_json(model))



"""Per-layer tracing of an in-process replay, from outside the program.

`Tracer.install` replaces xbool's public functions (and the
`FunctionOracle` methods) with timing wrappers at every module binding,
so `xbool.dt.restrict_dt` and `xbool.models.restrict_dt` both report.
The layer of a function is the module that defines it.

Each wrapped call opens a frame.  When it ends, its duration minus the
time covered by its child frames is the layer's self time, and its
duration is added to the parent's child time.  Calls and inclusive
times per function count only the outermost call of that function, so
`classify` inside an ensemble's `classify` is not counted twice.
Frequent leaf calls (`classify`, `eval_circuit`) keep their timing but
record no span; every other call also records a span (name, start, end,
parent span, request id) in memory, written out by `write_spans`.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional

from xbool import circuits, dslist, dt, explain, models, obdd
from xbool.dslist import BranchStats
from xbool.errors import BudgetExceeded, NotOrdered
from xbool.explain import FunctionOracle

LAYERS = ("cli", "models", "dt", "obdd", "dslist", "explain", "circuits")
MAX_SPANS = 300_000

# (module, function name, metric stem, records spans)
FUNCTIONS = [
    (models, "loads_model", "models.load", True),
    (models, "restrict_dt", "models.restrict_dt", True),
    (models, "reachable_sinks", "models.reachable_sinks", True),
    (models, "complete_obdd", "models.complete_obdd", True),
    (models, "classify", "models.classify", False),
    (models, "simplify_dt", "models.simplify_dt", True),
    (dt, "dt_check", "dt.check", True),
    (dt, "dt_lcxp_check", "dt.check", True),
    (dt, "dt_xp_search", "dt.xp_search", True),
    (dt, "dt_subset_min", "dt.subset_min", True),
    (dt, "dt_min_lcxp", "dt.min_lcxp", True),
    (dt, "dt_ensemble_to_dt", "dt.graft", True),
    (obdd, "obdd_check", "obdd.check", True),
    (obdd, "obdd_lcxp_check", "obdd.check", True),
    (obdd, "obdd_xp_search", "obdd.xp_search", True),
    (obdd, "obdd_subset_min", "obdd.subset_min", True),
    (obdd, "obdd_min_lcxp", "obdd.min_lcxp", True),
    (obdd, "obdd_ensemble_product", "obdd.product", True),
    (dslist, "dl_min_lcxp_branch", "dslist.branch", True),
    (dslist, "dle_min_lcxp_branch", "dslist.branch", True),
    (explain, "oracle_min", "explain.entry", True),
    (explain, "is_explanation", "explain.entry", True),
    (explain, "verify_subset_minimal", "explain.entry", True),
    (circuits, "compile_dt", "circuits.compile", True),
    (circuits, "compile_dt_ensemble", "circuits.compile", True),
    (circuits, "compile_dl", "circuits.compile", True),
    (circuits, "compile_dl_ensemble", "circuits.compile", True),
    (circuits, "compile_obdd", "circuits.compile", True),
    (circuits, "compile_obdd_ensemble_ordered", "circuits.compile", True),
    (circuits, "eval_circuit", "circuits.eval", False),
    (circuits, "circuit_explain_bruteforce", "circuits.explain", True),
]
ORACLE_METHODS = ("minimum", "holds", "subset_minimal")


def _leaves(tree) -> int:
    return len(tree.leaves())


class Tracer:
    def __init__(self):
        self.request: Optional[int] = None
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.incl_s: Dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.spans: List[tuple] = []
        self.dropped_spans = 0
        self._stack: List[list] = []  # frames: [child seconds, span id, stem]
        self._active: Counter = Counter()
        self._next_id = 0
        self._undo: List[tuple] = []

    # -- frames

    def frame(self, stem: str, layer: Optional[str], fn: Callable, record: bool,
              after: Optional[Callable] = None, wasted=()) -> Callable:
        """Wrap fn in a timed frame.  `layer` None keeps the frame's self
        time out of every layer (the benchmark's own request frame);
        `after(args, kwargs, result)` runs untimed once fn returns;
        exceptions of the `wasted` types add to the `<stem>.wasted` time."""
        stack, active, perf = self._stack, self._active, time.perf_counter

        def call(*args, **kwargs):
            parent = stack[-1] if stack else None
            sid = -1
            if record:
                sid = self._next_id
                self._next_id += 1
            frame = [0.0, sid, stem]
            stack.append(frame)
            outer = active[stem] == 0
            active[stem] += 1
            start = perf()
            failed = None
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                failed = err
                raise
            finally:
                end = perf()
                stack.pop()
                active[stem] -= 1
                dur = end - start
                if layer is not None:
                    self.self_s[layer] += dur - frame[0]
                if parent is not None:
                    parent[0] += dur
                if outer:
                    self.calls[stem] += 1
                    self.incl_s[stem] += dur
                    if failed is not None and isinstance(failed, wasted):
                        self.incl_s[stem + ".wasted"] += dur
                if record:
                    if len(self.spans) < MAX_SPANS:
                        psid = parent[1] if parent is not None else -1
                        self.spans.append((sid, stem, start, end, psid, self.request))
                    else:
                        self.dropped_spans += 1
            if after is not None:
                self._untimed(after, args, kwargs, result)
            return result

        return call

    def _untimed(self, hook, *args) -> None:
        # bookkeeping inside a traced call must not count as program time
        start = time.perf_counter()
        hook(*args)
        if self._stack:
            self._stack[-1][0] += time.perf_counter() - start

    # -- hooks for work counts

    def _graft_done(self, args, kwargs, result):
        self.counts["dt.graft_out_leaves"] += _leaves(result)

    def _simplify(self, fn):
        def call(t):
            if self._stack and self._stack[-1][2] == "dt.graft":
                self._untimed(lambda: self.counts.update({"dt.graft_built_leaves": _leaves(t)}))
            return fn(t)

        return call

    def _product_done(self, args, kwargs, result):
        self.counts["obdd.product_nodes"] += len(result.nodes)

    def _branch(self, fn):
        def call(model, e, k, stats=None):
            stats = BranchStats() if stats is None else stats
            got = fn(model, e, k, stats)
            self.counts["dslist.branch_leaves"] += sum(stats.leaves_per_rule)
            self.counts["dslist.branch_candidates"] += len(stats.leaves_per_rule)
            return got

        return call

    def _compiled(self, args, kwargs, result):
        self.counts["circuits.gates"] += len(result.gates)

    # -- installing

    def _bind_everywhere(self, original, replacement) -> None:
        for name, mod in list(sys.modules.items()):
            if name != "xbool" and not name.startswith("xbool."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._undo.append((mod, attr, original))

    def install(self) -> None:
        for mod, name, stem, record in FUNCTIONS:
            original = getattr(mod, name)
            fn = original
            after = None
            wasted = ()
            if stem == "dt.graft":
                after = self._graft_done
            elif stem == "obdd.product":
                after, wasted = self._product_done, (BudgetExceeded, NotOrdered)
            elif stem == "dslist.branch":
                fn = self._branch(original)
            elif stem == "circuits.compile":
                after = self._compiled
            layer = mod.__name__.split(".")[-1]
            replacement = self.frame(stem, layer, fn, record, after, wasted)
            if name == "simplify_dt":
                # count the graft's raw leaves before the simplify frame opens
                replacement = self._simplify(replacement)
            self._bind_everywhere(original, replacement)
        self._install_oracle()

    def _install_oracle(self) -> None:
        counts = self.counts
        init = FunctionOracle.__init__
        label = FunctionOracle.label

        def counted_init(oracle, features, classify_fn, *args, **kwargs):
            def classify_counted(e):
                counts["explain.oracle_labels"] += 1
                return classify_fn(e)

            counts["explain.oracle_builds"] += 1
            init(oracle, features, classify_counted, *args, **kwargs)

        def counted_label(oracle, bits):
            counts["explain.oracle_lookups"] += 1
            return label(oracle, bits)

        patches = {
            "__init__": self.frame("explain.oracle", "explain", counted_init, True),
            "label": counted_label,
        }
        for name in ORACLE_METHODS:
            patches[name] = self.frame("explain.oracle", "explain", getattr(FunctionOracle, name), True)
        for name, replacement in patches.items():
            self._undo.append((FunctionOracle, name, getattr(FunctionOracle, name)))
            setattr(FunctionOracle, name, replacement)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- results

    def metrics(self) -> Dict[str, float]:
        ms = lambda stem: self.incl_s.get(stem, 0.0) * 1000.0
        c = self.counts
        calls = self.calls
        out = {
            "models.load_calls": calls["models.load"],
            "models.load_ms": ms("models.load"),
            "models.restrict_dt_calls": calls["models.restrict_dt"],
            "models.restrict_dt_ms": ms("models.restrict_dt"),
            "models.reachable_sinks_calls": calls["models.reachable_sinks"],
            "models.reachable_sinks_ms": ms("models.reachable_sinks"),
            "models.complete_obdd_calls": calls["models.complete_obdd"],
            "models.complete_obdd_ms": ms("models.complete_obdd"),
            "models.classify_calls": calls["models.classify"],
            "models.classify_ms": ms("models.classify"),
            "models.simplify_dt_ms": ms("models.simplify_dt"),
            "dt.checks": calls["dt.check"],
            "dt.check_ms": ms("dt.check"),
            "dt.xp_search_ms": ms("dt.xp_search"),
            "dt.subset_min_ms": ms("dt.subset_min"),
            "dt.min_lcxp_ms": ms("dt.min_lcxp"),
            "dt.graft_calls": calls["dt.graft"],
            "dt.graft_ms": ms("dt.graft"),
            "dt.graft_built_leaves": c["dt.graft_built_leaves"],
            "dt.graft_out_leaves": c["dt.graft_out_leaves"],
            "dt.graft_yield": (
                c["dt.graft_out_leaves"] / c["dt.graft_built_leaves"]
                if c["dt.graft_built_leaves"] else 0.0
            ),
            "obdd.checks": calls["obdd.check"],
            "obdd.check_ms": ms("obdd.check"),
            "obdd.xp_search_ms": ms("obdd.xp_search"),
            "obdd.subset_min_ms": ms("obdd.subset_min"),
            "obdd.min_lcxp_ms": ms("obdd.min_lcxp"),
            "obdd.product_calls": calls["obdd.product"],
            "obdd.product_ms": ms("obdd.product"),
            "obdd.product_nodes": c["obdd.product_nodes"],
            "obdd.product_wasted_ms": ms("obdd.product.wasted"),
            "dslist.branch_calls": calls["dslist.branch"],
            "dslist.branch_ms": ms("dslist.branch"),
            "dslist.branch_leaves": c["dslist.branch_leaves"],
            "dslist.branch_candidates": c["dslist.branch_candidates"],
            "explain.oracle_builds": c["explain.oracle_builds"],
            "explain.oracle_ms": self.self_s.get("explain", 0.0) * 1000.0,
            "explain.oracle_lookups": c["explain.oracle_lookups"],
            "explain.oracle_labels": c["explain.oracle_labels"],
            "explain.oracle_memo_hit_ratio": (
                1.0 - c["explain.oracle_labels"] / c["explain.oracle_lookups"]
                if c["explain.oracle_lookups"] else 0.0
            ),
            "circuits.compile_ms": ms("circuits.compile"),
            "circuits.gates": c["circuits.gates"],
            "circuits.eval_calls": calls["circuits.eval"],
            "circuits.eval_ms": ms("circuits.eval"),
        }
        total = sum(self.self_s.get(layer, 0.0) for layer in LAYERS)
        for layer in LAYERS:
            mine = self.self_s.get(layer, 0.0)
            out[f"{layer}.self_ms"] = mine * 1000.0
            out[f"{layer}.self_share"] = mine / total if total else 0.0
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, stem, start, end, parent, request in self.spans:
                fh.write(json.dumps([sid, stem, start, end, parent, request]) + "\n")

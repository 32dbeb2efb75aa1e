"""Explanations for transparent binary classifiers.

Decision trees, decision sets, decision lists, complete OBDDs, and odd
majority ensembles, together with subset-minimal and cardinality-minimal
local/global abductive/contrastive explanation algorithms, circuit
compilers, and deterministic hard-instance generators.

Submodules load on first use: `xbool.classify` imports `xbool.models`,
`xbool.DecisionTree` the tree module, and `xbool.gadgets` the
generators, so a process pays only for the code it touches.
"""

import importlib

# submodule -> the public names it defines
_EXPORTS = {
    "errors": (
        "BudgetExceeded", "ContradictoryTerm", "DeadlineExceeded",
        "EvenEnsemble", "Homogeneous", "ModelError", "NotOrdered",
        "SharedFeature", "TooLarge", "UndefinedFeature", "UnassignedInput",
    ),
    "models": (
        "Parameters", "classify", "dumps_canonical", "feature_order", "flip",
        "loads_model", "measure_parameters", "model_features", "model_from_json",
    ),
    "rules": (
        "DecisionList", "DecisionSet", "Rule", "dl_size", "ds_size", "make_term",
        "term_applies",
    ),
    "ensemble": ("Ensemble",),
    "writer": ("dumps_model", "model_to_json"),
    "explain": (
        "DEFAULT_GUARD", "ExplanationQuery", "KINDS", "Witness", "query_from_json",
        "query_to_json", "witness_from_json", "witness_to_json",
    ),
    "definitions": ("Definitions",),
    "tables": (
        "FunctionOracle", "TableOracle", "is_explanation", "oracle_min",
        "verify_subset_minimal",
    ),
    "restriction": ("walk_labels",),
    "dt": (
        "DecisionTree", "DtInner", "DtLeaf", "dt_check", "dt_ensemble_to_dt",
        "dt_lcxp_check", "dt_min_lcxp", "dt_mnl", "dt_size", "dt_subset_min",
        "dt_xp_search", "restrict_dt", "simplify_dt",
    ),
    "obdd": (
        "Obdd", "ObddNode", "complete_obdd", "is_complete", "obdd_check",
        "obdd_lcxp_check", "obdd_min_lcxp", "obdd_subset_min", "obdd_width",
        "obdd_xp_search", "reachable_sinks",
    ),
    "obdd_product": ("obdd_ensemble_product",),
    "obdd_order": ("dt_to_obdd",),
    "dslist": (
        "BranchStats", "dl_min_lcxp_branch", "dle_min_lcxp_branch", "ds_to_dl",
    ),
    "circuits": (
        "Circuit", "Gate", "circuit_explain_bruteforce", "circuit_from_json",
        "circuit_table", "circuit_to_dot", "circuit_to_json", "compile_dl",
        "compile_dl_ensemble", "compile_dt", "compile_dt_ensemble",
        "compile_obdd", "compile_obdd_ensemble_ordered", "dumps_circuit",
        "eval_circuit",
    ),
    "cli_parser": ("build_parser",),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"gadgets"}

__all__ = [*_HOME, "gadgets"]


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _forward(module: str, *homes: str):
    """The PEP 562 `__getattr__` of `module`: a public name whose home is
    one of `homes` resolves there.  Each access reads `_HOME` and the home
    module afresh and caches nothing, so a name rebound at its home (as
    the benchmark's tracer rebinds them) reads rebound here too."""

    def forward(name: str):
        home = _HOME.get(name)
        if home in homes:
            return getattr(importlib.import_module(f"{__name__}.{home}"), name)
        raise AttributeError(f"module {module!r} has no attribute {name!r}")

    return forward


def __dir__():
    return sorted(set(globals()) | set(__all__))

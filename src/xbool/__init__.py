"""Explanations for transparent binary classifiers.

Decision trees, decision sets, decision lists, complete OBDDs, and odd
majority ensembles, together with subset-minimal and cardinality-minimal
local/global abductive/contrastive explanation algorithms, circuit
compilers, and deterministic hard-instance generators.

Submodules load on first use: `xbool.classify` imports `xbool.models`,
and `xbool.gadgets` imports the generators, so a process pays only for
the code it touches.
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
        "DecisionList", "DecisionSet", "DecisionTree", "DtInner", "DtLeaf",
        "Ensemble", "Obdd", "ObddNode", "Parameters", "Rule", "classify",
        "complete_obdd", "feature_order", "flip", "is_complete", "loads_model",
        "dumps_model", "measure_parameters", "model_features",
        "model_from_json", "model_to_json", "reachable_sinks", "restrict_dt",
        "simplify_dt",
    ),
    "explain": (
        "DEFAULT_GUARD", "ExplanationQuery", "FunctionOracle", "TableOracle", "Witness",
        "is_explanation", "oracle_min", "query_from_json", "query_to_json",
        "verify_subset_minimal", "witness_from_json", "witness_to_json",
    ),
    "dt": (
        "dt_check", "dt_ensemble_to_dt", "dt_lcxp_check", "dt_min_lcxp",
        "dt_subset_min", "dt_xp_search",
    ),
    "obdd": (
        "dt_to_obdd", "obdd_check", "obdd_ensemble_product", "obdd_lcxp_check",
        "obdd_min_lcxp", "obdd_subset_min", "obdd_xp_search",
    ),
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
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"gadgets", "restriction"}

__all__ = [*_HOME, "gadgets"]


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))

"""Command-line front end: explain, verify, generate, and bench.

Exit codes separate three different kinds of "no": 0 success, 3 a
provable negative answer (no witness exists / witness invalid), 2 a
parse or validation problem with the inputs, 1 an operational failure
(caps, guards, timeouts).  All structured output is JSON or CSV with
sorted keys, so reruns on identical inputs are byte-identical.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
import time
from typing import Callable, Dict, Optional, Tuple

from .errors import BudgetExceeded, DeadlineExceeded, ModelError, NotOrdered, TooLarge
from .explain import (
    DEFAULT_GUARD,
    ExplanationQuery,
    Witness,
    _oracle_for,
    check_witness,
    oracle_min,
    query_from_json,
    witness_from_json,
    witness_to_json,
)
from .models import (
    DEFAULT_NODE_CAP as DEFAULT_CAP,
    Ensemble,
    _load_text,
    _wrong_type,
    complete_obdd,
    dumps_canonical,
    dumps_model,
    loads_json,
    loads_model,
    measure_parameters,
    model_features,
)

ROUTES = ("auto", "dt", "obdd", "branching", "product", "bruteforce")


def _structured(value: str):
    """Inline JSON when the argument looks like it, else a file path."""
    if value.lstrip().startswith(("{", "[")):
        return loads_json(value)
    return loads_json(_load_text(value))


def _load_model(path: str):
    return loads_model(_load_text(path))


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _error_payload(err: Exception) -> str:
    return dumps_canonical(
        {"error": {"type": type(err).__name__, "message": str(err)}}
    )


# ---------------------------------------------------------------------------
# Route selection and execution


def _pick_route(model, q: ExplanationQuery) -> str:
    """The route the model's family takes: trees and diagrams their own,
    their ensembles the product, rule sets and lists branching for
    cardinality lCXp and the oracle otherwise."""
    family = model.elements[0].kind if model.kind == "ensemble" else model.kind
    if family in ("ds", "dl"):
        branching = q.kind == "lCXp" and q.minimality == "cardinality"
        return "branching" if branching else "bruteforce"
    return "product" if model.kind == "ensemble" else family


def _direct(model, cap: int, fallback: bool):
    """The one tree or diagram a tree or diagram model stands for (an
    ensemble flattened), with its family's (xp_search, subset_min, check,
    lcxp_check).  None for a rule set or list and, when `fallback`, for
    an ensemble whose flattening hits the cap or an order conflict.

    The procedures are imported at call time, so a tree request never
    loads the diagram module, nor a diagram request the tree module.
    """
    family = model.elements[0].kind if model.kind == "ensemble" else model.kind
    if family == "dt":
        from .dt import dt_check, dt_ensemble_to_dt, dt_lcxp_check, dt_subset_min, dt_xp_search

        flatten = dt_ensemble_to_dt
        procedures = dt_xp_search, dt_subset_min, dt_check, dt_lcxp_check
    elif family == "obdd":
        from .obdd import (
            obdd_check,
            obdd_ensemble_product,
            obdd_lcxp_check,
            obdd_subset_min,
            obdd_xp_search,
        )

        flatten = obdd_ensemble_product
        procedures = obdd_xp_search, obdd_subset_min, obdd_check, obdd_lcxp_check
    else:
        return None
    if model.kind == "ensemble":
        try:
            model = flatten(model, cap)
        except (BudgetExceeded, NotOrdered):
            if fallback:
                return None
            raise
    return model, procedures


def run_explain(
    model, q: ExplanationQuery, route: str, cap: int, guard: int
) -> Tuple[Optional[Witness], str]:
    """(witness, the route that answered); `auto` takes the family's route
    and falls back from the product to the oracle."""
    picked = _pick_route(model, q)
    if route not in ("auto", picked, "bruteforce"):
        fits = "'bruteforce'" if picked == "bruteforce" else f"{picked!r} or 'bruteforce'"
        raise ModelError(f"route {route!r} does not fit this model and query; use {fits}")
    auto = route == "auto"
    route = picked if auto else route
    if route == "branching":
        from .dslist import dle_min_lcxp_branch, ds_to_dl

        members = model.elements if model.kind == "ensemble" else (model,)
        lists = [ds_to_dl(el) if el.kind == "ds" else el for el in members]
        return dle_min_lcxp_branch(Ensemble(lists), q.target, q.k), route
    direct = None if route == "bruteforce" else _direct(model, cap, fallback=auto)
    if direct is None:
        return oracle_min(model, q, guard), "bruteforce"
    flat, (xp_search, subset_min, _, _) = direct
    return (subset_min if q.minimality == "subset" else xp_search)(flat, q), route


def _validity(model, q: ExplanationQuery, cap: int, guard: int) -> Callable[[Witness], bool]:
    """Validity test for witnesses already checked against `model`.

    A tree or diagram ensemble is flattened once and a diagram completed
    once, so every witness checked through the result reuses that model;
    a rule set or list, or an ensemble whose flattening hits the cap or an
    order conflict, is checked by one oracle shared by every witness.
    """
    direct = _direct(model, cap, fallback=True)
    if direct is None:
        oracle = _oracle_for(model, guard)
        return lambda w: oracle.holds(q, w)
    model, (_, _, check, lcxp_check) = direct
    if model.kind == "obdd":
        model = complete_obdd(model)
    if q.kind == "lCXp":
        return lambda w: lcxp_check(model, q.target, w.features)
    return lambda w: check(model, q, w)


def _verdicts(
    model, q: ExplanationQuery, w: Witness, cap: int, guard: int, minimal: bool
) -> Tuple[bool, bool]:
    """(valid, subset-minimal) for `w`; minimality is only decided when
    asked and the witness is valid, and reads False otherwise.

    Minimality is tested by single deletions; validity is monotone for
    all four query kinds, so that test is exact.  All |w|+1 checks share
    one flattened or completed model.
    """
    check_witness(q, w, model_features(model))
    if q.k is not None and w.size > q.k:
        return False, False
    valid = _validity(model, q, cap, guard)
    if not valid(w):
        return False, False
    if not minimal:
        return True, False
    if w.features is not None:
        smaller = (
            Witness(features=tuple(g for g in w.features if g != f)) for f in w.features
        )
    else:
        smaller = (
            Witness(assignment=tuple(p for p in w.assignment if p[0] != f))
            for f, _ in w.assignment
        )
    return True, not any(valid(rest) for rest in smaller)


# ---------------------------------------------------------------------------
# Subcommands


def _with_timeout(fn, timeout_ms: int):
    """fn() under a wall-clock deadline of `timeout_ms` (0: none).

    SIGALRM makes the interpreter raise DeadlineExceeded in the main
    thread between two bytecodes, so the work stops wherever it is.
    Signal handlers can only be set from the main thread, so a deadline
    asked for in any other thread is refused as a ModelError.
    """
    if timeout_ms < 0:
        raise ModelError(f"timeout must be non-negative, got {timeout_ms} ms")
    if not timeout_ms:
        return fn()
    import signal

    def expire(signum, frame):
        raise DeadlineExceeded(f"exceeded {timeout_ms} ms")

    try:
        previous = signal.signal(signal.SIGALRM, expire)
    except ValueError:
        raise ModelError(
            "--timeout-ms needs the main thread of the main interpreter "
            "(the deadline is a SIGALRM handler)"
        ) from None
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, timeout_ms / 1000.0)
        except OverflowError:
            raise ModelError(f"timeout of {timeout_ms} ms is too large for the timer") from None
        return fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def cmd_explain(args) -> int:
    model = _load_model(args.model)
    q = query_from_json(_structured(args.query))
    witness, route = _with_timeout(
        lambda: run_explain(model, q, args.route, args.cap_nodes, args.guard_features),
        args.timeout_ms,
    )
    payload = {
        "witness": None if witness is None else witness_to_json(witness),
        "size": None if witness is None else witness.size,
        "algorithm": route,
        "parameters": measure_parameters(model).to_json(),
    }
    _emit(dumps_canonical(payload), args.out)
    return 0 if witness is not None else 3


def cmd_verify(args) -> int:
    model = _load_model(args.model)
    q = query_from_json(_structured(args.query))
    w = witness_from_json(_structured(args.witness))
    valid, minimal = _with_timeout(
        lambda: _verdicts(model, q, w, args.cap_nodes, args.guard_features, args.minimal),
        args.timeout_ms,
    )
    payload = {"valid": valid}
    ok = valid
    if args.minimal:
        payload["minimal"] = minimal
        ok = minimal
    _emit(dumps_canonical(payload), args.out)
    return 0 if ok else 3


def cmd_generate(args) -> int:
    from .gadgets import GENERATORS

    maker = GENERATORS.get(args.gadget)
    if maker is None:
        raise ModelError(
            f"unknown gadget {args.gadget!r}; available: {', '.join(sorted(GENERATORS))}"
        )
    params = _structured(args.params)
    if not isinstance(params, dict):
        raise _wrong_type("the params", dict, params)
    try:
        model, query = maker(params)
    except KeyError as missing:
        raise ModelError(f"params object misses {missing}") from None
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(dumps_model(model))
    summary: Dict = {"gadget": args.gadget, "kind": model.kind}
    if query is not None:
        summary["query"] = query
    sys.stdout.write(dumps_canonical(summary))
    return 0


_BENCH_COLUMNS = (
    "instance",
    "ens_size",
    "mnl_size",
    "terms_elem",
    "term_size",
    "width_elem",
    "size_elem",
    "witness_size",
    "route",
    "status",
    "time_ms",
)


def _bench_row(path: str, q: ExplanationQuery, args) -> Dict:
    row: Dict = {"instance": os.path.basename(path)}

    def solve():
        model = _load_model(path)
        row.update(measure_parameters(model).to_json())
        witness, row["route"] = run_explain(
            model, q, args.route, args.cap_nodes, args.guard_features
        )
        row["status"] = "ok" if witness is not None else "none"
        if witness is not None:
            row["witness_size"] = witness.size

    started = time.perf_counter()
    try:
        _with_timeout(solve, args.timeout_ms)
    except DeadlineExceeded:
        row = {"instance": row["instance"], "status": "timeout"}
    except Exception as err:
        row["status"] = "error"
        row["route"] = type(err).__name__
    row["time_ms"] = round((time.perf_counter() - started) * 1000.0, 3)
    return row


def cmd_bench(args) -> int:
    """One row per corpus file, run in name order, each under its own deadline."""
    q = query_from_json(_structured(args.query))
    files = sorted(f for f in os.listdir(args.corpus) if f.endswith(".json"))
    rows = [_bench_row(os.path.join(args.corpus, f), q, args) for f in files]
    import csv

    buffer = io.StringIO()
    writer = csv.DictWriter(
        buffer, fieldnames=_BENCH_COLUMNS, lineterminator="\n", restval=""
    )
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    _emit(buffer.getvalue(), args.out)
    return 0


# ---------------------------------------------------------------------------
# Argument plumbing


class _Parser(argparse.ArgumentParser):
    """Refusals raise ModelError, so a bad command line exits 2 with a
    JSON payload like any other bad input; stderr still gets argparse's
    usage and error lines.  `--help` still prints and exits 0."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise ModelError(message)


def _add_limits(sub):
    sub.add_argument("--cap-nodes", type=int, default=DEFAULT_CAP)
    sub.add_argument("--guard-features", type=int, default=DEFAULT_GUARD)
    sub.add_argument("--timeout-ms", type=int, default=0)
    sub.add_argument("--out")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="xbool",
        description="Explanations for transparent binary classifiers.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    ex = commands.add_parser("explain", help="compute a minimal explanation")
    ex.add_argument("--model", required=True)
    ex.add_argument("--query", required=True)
    ex.add_argument("--route", default="auto", choices=ROUTES)
    _add_limits(ex)
    ex.set_defaults(handler=cmd_explain)

    ve = commands.add_parser("verify", help="check a witness against a query")
    ve.add_argument("--model", required=True)
    ve.add_argument("--query", required=True)
    ve.add_argument("--witness", required=True)
    ve.add_argument("--minimal", action="store_true")
    _add_limits(ve)
    ve.set_defaults(handler=cmd_verify)

    ge = commands.add_parser("generate", help="write a hard-instance model file")
    ge.add_argument("gadget")
    ge.add_argument("--params", default="{}")
    ge.add_argument("--out", required=True)
    ge.set_defaults(handler=cmd_generate)

    be = commands.add_parser("bench", help="run a query over a corpus directory")
    be.add_argument("--corpus", required=True)
    be.add_argument("--query", required=True)
    be.add_argument("--route", default="auto", choices=ROUTES)
    _add_limits(be)
    be.set_defaults(handler=cmd_bench)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.handler(args)
    except (ModelError, json.JSONDecodeError, OSError) as err:
        sys.stdout.write(_error_payload(err))
        return 2
    except (TooLarge, BudgetExceeded, DeadlineExceeded) as err:
        sys.stdout.write(_error_payload(err))
        return 1


if __name__ == "__main__":
    sys.exit(main())

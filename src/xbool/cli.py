"""Command-line front end: explain, verify, generate, and bench.

Exit codes separate three different kinds of "no": 0 success, 3 a
provable negative answer (no witness exists / witness invalid), 2 a
parse or validation problem with the inputs, 1 an operational failure
(caps, guards, timeouts, memory, a stdout that refuses the answer).  All
structured output is JSON or CSV with sorted keys, so reruns on
identical inputs are byte-identical.

Each subcommand's options are declared once, in `_COMMANDS`.  A plain
`explain` or `verify` line (its own flags spelled out in full, each at
most once, every value present and accepted) is read by `_read_plain`
without importing argparse, whose import and parser build would cost
every request several milliseconds.  Every other line (help,
abbreviations, `--opt=value`, repeats, refusals, `generate`, `bench`)
goes to `cli_parser.build_parser`, which builds argparse from the same
declarations, so help, usage and refusals read exactly as before; that
module is loaded only then, and its name resolves here too.

A process (`python -m xbool.cli` or the `xbool` script) enters through
`run`: once `main` has returned and stdout and stderr are flushed, it
ends with `os._exit`, so `atexit` handlers and interpreter finalization
do not run.  Library callers of `main` are unaffected: it returns its
exit code.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import types
from typing import Optional, Tuple

from . import _forward
from .errors import BudgetExceeded, DeadlineExceeded, ModelError, NotOrdered, TooLarge
from .explain import (
    DEFAULT_GUARD,
    ExplanationQuery,
    Witness,
    check_witness,
    deletions,
    query_from_json,
    witness_from_json,
    witness_to_json,
)
from .models import (
    DEFAULT_NODE_CAP as DEFAULT_CAP,
    _load_text,
    dumps_canonical,
    loads_json,
    loads_model,
    measure_parameters,
    model_features,
)
from .records import Frozen

ROUTES = ("auto", "dt", "obdd", "branching", "product", "bruteforce")


def _structured(value: str):
    """Inline JSON when the argument looks like it, else a file path."""
    if value.lstrip().startswith(("{", "[")):
        return loads_json(value)
    return loads_json(_load_text(value))


def _load_model(path: str):
    return loads_model(_load_text(path))


class _StdoutFailed(Exception):
    """Stdout refused a write: the process's own failure (exit 1), which
    no handler of an input's OSError (exit 2) catches."""


def _write_stdout(text: str) -> None:
    if sys.stdout is None:  # its descriptor was closed at start
        raise _StdoutFailed("stdout is closed")
    try:
        sys.stdout.write(text)
    except OSError as err:
        raise _StdoutFailed(err) from None


def _stdout_failed(err) -> int:
    """Report on stderr, in one line, that stdout refused the answer."""
    sys.stderr.write(f"xbool: cannot write to stdout: {err}\n")
    return 1


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        _write_stdout(text)


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
    ensemble flattened), with its family's (xp_search, subset_min, check).
    None for a rule set or list and, when `fallback`, for an ensemble
    whose flattening hits the cap or an order conflict.

    The procedures are imported at call time, so a tree request never
    loads the diagram module, nor a diagram request the tree module, and
    only an ensemble of diagrams loads the product's.
    """
    family = model.elements[0].kind if model.kind == "ensemble" else model.kind
    if family == "dt":
        from .dt import dt_check, dt_subset_min, dt_xp_search

        procedures = dt_xp_search, dt_subset_min, dt_check
    elif family == "obdd":
        from .obdd import obdd_check, obdd_subset_min, obdd_xp_search

        procedures = obdd_xp_search, obdd_subset_min, obdd_check
    else:
        return None
    if model.kind == "ensemble":
        if family == "dt":
            from .dt import dt_ensemble_to_dt as flatten
        else:
            from .obdd_product import obdd_ensemble_product as flatten
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
        from .dslist import dle_min_lcxp_branch

        return dle_min_lcxp_branch(model, q.target, q.k), route
    direct = None if route == "bruteforce" else _direct(model, cap, fallback=auto)
    if direct is None:
        from .tables import oracle_min

        return oracle_min(model, q, guard), "bruteforce"
    flat, (xp_search, subset_min, _) = direct
    return (subset_min if q.minimality == "subset" else xp_search)(flat, q), route


def _verdicts(
    model, q: ExplanationQuery, w: Witness, cap: int, guard: int, minimal: bool
) -> Tuple[bool, bool]:
    """(valid, subset-minimal) for `w`; minimality is only decided when
    asked and the witness is valid, and reads False otherwise.

    Minimality is tested by single deletions; validity is monotone for
    all four query kinds, so that test is exact.  All |w|+1 checks share
    one flattened model or one oracle.
    """
    check_witness(q, w, model_features(model))
    if q.k is not None and w.size > q.k:
        return False, False
    direct = _direct(model, cap, fallback=True)
    if direct is None:
        from .tables import _oracle_for

        valid = functools.partial(_oracle_for(model, guard).holds, q)
    else:
        flat, (_, _, check) = direct
        valid = functools.partial(check, flat, q)
    if not valid(w):
        return False, False
    if not minimal:
        return True, False
    return True, not any(valid(rest) for rest in deletions(w))


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
    from .gadgets import cmd_generate

    return cmd_generate(args)


def cmd_bench(args) -> int:
    from .gadgets import cmd_bench

    return cmd_bench(args)


# ---------------------------------------------------------------------------
# Argument plumbing


class _Option(Frozen):
    """One option of a subcommand, declared once for the plain reader and
    for argparse.  `kind` converts its value (None: a switch, which takes
    no value); `choices` and `non_negative` restrict the converted value."""

    __slots__ = ("flag", "kind", "default", "required", "choices", "non_negative")

    def __init__(self, flag, kind=str, default=None, required=False, choices=None,
                 non_negative=False):
        self._fill(flag, kind, default, required, choices, non_negative)

    @property
    def dest(self) -> str:
        return self.flag[2:].replace("-", "_")

    def read(self, text: str):
        """The value argparse stores for `text`; ValueError where argparse
        would refuse it."""
        value = self.kind(text)
        if (self.choices is not None and value not in self.choices
                or self.non_negative and value < 0):
            raise ValueError(text)
        return value


_MODEL = _Option("--model", required=True)
_QUERY = _Option("--query", required=True)
_ROUTE = _Option("--route", default="auto", choices=ROUTES)
_LIMITS = (
    _Option("--cap-nodes", int, DEFAULT_CAP, non_negative=True),
    _Option("--guard-features", int, DEFAULT_GUARD, non_negative=True),
    # a negative timeout is refused where it is used
    _Option("--timeout-ms", int, 0),
    _Option("--out"),
)

# subcommand: (help line, handler, options in usage order); `generate`
# also takes the gadget name as a positional
_COMMANDS = {
    "explain": ("compute a minimal explanation", cmd_explain,
                (_MODEL, _QUERY, _ROUTE, *_LIMITS)),
    "verify": ("check a witness against a query", cmd_verify,
               (_MODEL, _QUERY, _Option("--witness", required=True),
                _Option("--minimal", None, False), *_LIMITS)),
    "generate": ("write a hard-instance model file", cmd_generate,
                 (_Option("--params", default="{}"), _Option("--out", required=True))),
    "bench": ("run a query over a corpus directory", cmd_bench,
              (_Option("--corpus", required=True), _QUERY, _ROUTE, *_LIMITS)),
}


def _read_plain(argv):
    """The namespace `build_parser().parse_args(argv)` returns, read
    without argparse, for a line that is `explain` or `verify` followed
    only by that subcommand's flags, each spelled out in full and given
    at most once, each value present, not starting with `-` and taken by
    its conversion and checks, and every required flag present.  None
    for any other line, which argparse then reads, refuses or answers
    with help."""
    if not argv or argv[0] not in ("explain", "verify"):
        return None
    _, handler, options = _COMMANDS[argv[0]]
    by_flag = {option.flag: option for option in options}
    values = {}
    tokens = iter(argv[1:])
    for flag in tokens:
        option = by_flag.get(flag)
        if option is None or option.dest in values:
            return None
        if option.kind is None:
            values[option.dest] = True
            continue
        text = next(tokens, "-")  # a missing value declines like a flag
        if text.startswith("-"):
            return None
        try:
            values[option.dest] = option.read(text)
        except ValueError:
            return None
    for option in options:
        if option.dest not in values:
            if option.required:
                return None
            values[option.dest] = option.default
    return types.SimpleNamespace(command=argv[0], handler=handler, **values)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        try:
            args = _read_plain(argv)
            if args is None:
                from .cli_parser import build_parser

                args = build_parser().parse_args(argv)
            return args.handler(args)
        except (ModelError, json.JSONDecodeError, OSError) as err:
            _write_stdout(_error_payload(err))
            return 2
        except (TooLarge, BudgetExceeded, DeadlineExceeded, MemoryError) as err:
            _write_stdout(_error_payload(err))
            return 1
    except _StdoutFailed as err:
        return _stdout_failed(err)


def run() -> None:
    """The process entry: `main` on the command line, then `os._exit`
    with its code once stdout and stderr are flushed, skipping the few
    milliseconds the interpreter would spend tearing down modules the
    process is about to drop; help's `SystemExit` ends the same way.  A
    failed flush of stdout exits 1 with one line on stderr, as a failed
    write does in `main`.  Any other exception out of `main` or a failed
    flush of stderr takes the normal exit, which reports it exactly as
    `sys.exit(main())` would."""
    try:
        code = main(sys.argv[1:])
    except SystemExit as done:
        code = done.code
    try:
        if sys.stdout is not None:  # None when the descriptor was closed at start
            sys.stdout.flush()
    except OSError as err:
        code = _stdout_failed(err)
    try:
        if sys.stderr is not None:
            sys.stderr.flush()
    except OSError:
        sys.exit(code)  # finalization retries the flush and reports its failure
    os._exit(code)


# the parser's name resolves here from `cli_parser`, for callers that
# import it from this module
__getattr__ = _forward(__name__, "cli_parser")


if __name__ == "__main__":
    # `generate` and `bench` import names from xbool.cli: let them find
    # this module rather than compile and run a second copy of the file
    sys.modules.setdefault("xbool.cli", sys.modules[__name__])
    run()

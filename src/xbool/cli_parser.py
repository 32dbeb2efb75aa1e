"""The argparse parser of the command line, built from `cli._COMMANDS`.

`cli.main` imports this module only for a line its plain reader
(`cli._read_plain`) declines: help, abbreviations, `--opt=value`,
repeats, refusals, `generate` and `bench`.  A plain `explain` or
`verify` request therefore never imports argparse nor compiles this
module.  `build_parser` resolves from `cli` too.
"""

from __future__ import annotations

import argparse
import functools
import shutil
import sys

from .cli import _COMMANDS
from .errors import ModelError


class Parser(argparse.ArgumentParser):
    """Refusals raise ModelError, so a bad command line exits 2 with a
    JSON payload like any other bad input; stderr still gets argparse's
    usage and error lines.  `--help` still prints and exits 0."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise ModelError(message)


class NonNegative(argparse.Action):
    """Stores an int option, refusing a negative one like any argparse
    refusal."""

    def __call__(self, parser, namespace, value, option_string=None):
        if value < 0:
            raise argparse.ArgumentError(self, f"must be non-negative, got {value}")
        setattr(namespace, self.dest, value)


def build_parser() -> Parser:
    """The argparse parser for every line, built from `_COMMANDS`."""
    # a HelpFormatter left to itself asks the terminal for its width, and
    # argparse makes one for every add_argument: ask once, hand it to all
    formatter = functools.partial(
        argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2
    )
    parser = Parser(
        prog="xbool",
        description="Explanations for transparent binary classifiers.",
        formatter_class=formatter,
    )
    commands = parser.add_subparsers(dest="command", required=True)
    for name, (text, handler, options) in _COMMANDS.items():
        sub = commands.add_parser(name, help=text, formatter_class=formatter)
        if name == "generate":
            sub.add_argument("gadget")
        for option in options:
            if option.kind is None:
                sub.add_argument(option.flag, action="store_true")
            else:
                sub.add_argument(
                    option.flag, type=option.kind, default=option.default,
                    required=option.required, choices=option.choices,
                    action=NonNegative if option.non_negative else "store",
                )
        sub.set_defaults(handler=handler)
    return parser

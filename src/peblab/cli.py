"""Command-line surface: corpus generation, validation, compilation,
checking, oracle runs, trade-off reports, and the external SAT-solver
benchmark harness.  Every command is deterministic given its flags (plus
--seed where sampling is involved); all outputs are files or standard
output.  PEBLAB_BUDGET overrides search budgets.

Every CLI call is a fresh process that runs one subcommand, and with
bytecode writing off it compiles every module it imports.  So this module
keeps only `main`, the subcommand table and the helpers the handlers
share.  Each subcommand's arguments and handler live in a handler module
grouped by the package modules it drives (`cli_graphs`, `cli_proofs`,
`cli_tools`), and each handler imports the modules it calls in its own
body.  When the first argument names a subcommand, `main` builds a parser
that lists every subcommand's name and help line but gives arguments only
to that one, so a process neither compiles the other handler modules nor
builds their subparsers.  With no argument, `-h` or an unknown name it
builds the full parser; either way every usage, help and error text is
the full parser's.  For the same reason the package's value types are
`__slots__` classes, not dataclasses: `dataclasses` pulls in `inspect` and
`ast`, and each frozen dataclass `exec`s its generated methods at import.
Library code that only some stages run is split off the same way, into
`lift`, `saturation`, `sat` and `subconf`; the modules it came from still
name it and load it on first use (`lazy`).

While a handler runs, `main` raises the cyclic garbage collector's
generation-0 threshold from 700 to 100,000 net allocations, and restores
the thresholds it found when the handler returns or raises.  The proof
builders and the trace reader allocate up to millions of steps, clauses
and tuples that form no reference cycle: reference counting frees them,
and each collection walks them only to free nothing.  The raised
threshold makes every generation's collections about 140 times rarer.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import sys
from pathlib import Path

from .cnf import is_decimal
from .errors import PeblabError

# subcommand -> (handler module, help line), in the order `--help` lists them
COMMANDS = {
    "gen": ("cli_graphs", "generate pebbling/substitution DIMACS formulas"),
    "graph": ("cli_graphs", "generate or inspect DAG files"),
    "pebble-validate": ("cli_graphs", "validate a pebbling trace"),
    "pebble-price": ("cli_graphs", "exact pebbling price by exhaustive search"),
    "compile": ("cli_proofs", "compile a black pebbling into a refutation"),
    "const-space": ("cli_proofs", "constant-clause-space refutation of Peb_G"),
    "lift": ("cli_proofs", "lift a refutation through substitution"),
    "extract": ("cli_proofs", "extract a base refutation from a substituted one"),
    "check": ("cli_proofs", "check a proof trace against a formula"),
    "minspace": ("cli_proofs", "exact minimal clause space (tiny formulas)"),
    "minwidth": ("cli_proofs", "minimal refutation width by bounded saturation"),
    "project": ("cli_tools", "resolution f-projection of a configuration"),
    "report": ("cli_tools", "price/length/space trade-off table for a family"),
    "bench": ("cli_tools", "run an external SAT solver over a manifest"),
}


_GEN0_THRESHOLD = 100_000  # the cyclic collector's, while a handler runs (see above)


# -- helpers shared by the handler modules -------------------------------------


def _load_graph(spec: str):
    from . import dag
    if spec.startswith("@"):
        return dag.parse_dag(Path(spec[1:]).read_text())
    return dag.parse_family(spec)


def _load_formula(path: str):
    from . import formulas
    return formulas.from_dimacs(Path(path).read_text())


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _natural(text: str) -> int:
    """argparse type: an ASCII-decimal integer, with no sign, '_' or
    non-ASCII digit."""
    if not is_decimal(text):
        raise argparse.ArgumentTypeError(f"not a decimal integer: {text!r}")
    return int(text)


def _budget_arg(parser):
    parser.add_argument("--budget", type=_natural, default=None,
                        help="search budget override (default PEBLAB_BUDGET or 10^7)")


# -- argument parsing ---------------------------------------------------------


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The `peblab` parser.  Given a subcommand, only its subparser gets
    arguments, and only its handler module is imported; the other
    subparsers carry just their name and help line."""
    parser = argparse.ArgumentParser(
        prog="peblab",
        description="Pebble games, pebbling formulas, and resolution proof machinery",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (module, help_text) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if command is None or name == command:
            importlib.import_module(f"{__package__}.{module}").ARGUMENTS[name](p)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv[0] if argv and argv[0] in COMMANDS else None).parse_args(argv)
    threshold = gc.get_threshold()
    gc.set_threshold(_GEN0_THRESHOLD, *threshold[1:])
    try:
        return args.func(args)
    except (PeblabError, OSError, ValueError) as exc:
        return _fail(str(exc))
    except MemoryError:  # carries no message
        return _fail("out of memory")
    finally:
        gc.set_threshold(*threshold)

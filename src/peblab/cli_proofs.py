"""CLI handlers that drive `resolution`, `lift`, `saturation` and
`projections`: `compile`, `const-space`, `lift`, `extract`, `check`,
`minspace` and `minwidth` (see `cli`)."""

from __future__ import annotations

import sys
from pathlib import Path

from .cli import _budget_arg, _fail, _load_formula, _load_graph, _natural, _write


def _emit_proof(args, r) -> int:
    """Check r; then write its trace and, with --emit-formula, its target,
    and report its measures on stderr.  A proof the checker rejects
    leaves no file behind."""
    from . import formulas, resolution
    m = resolution.check_refutation(r)
    _write(args.out, resolution.serialize_refutation(r))
    if args.emit_formula:
        _write(args.emit_formula, formulas.to_dimacs(r.target))
    print(f"ok {m}", file=sys.stderr)
    return 0


def cmd_compile(args) -> int:
    from . import boolfunc, pebbling, resolution
    g = _load_graph(args.graph)
    f = boolfunc.parse_function_literal(args.fn)
    if args.trace:
        p = pebbling.parse_pebbling_trace(Path(args.trace).read_text(), g)
        if not isinstance(p, pebbling.BwPebbling):
            return _fail("compile needs a black pebbling trace (game bw)")
    else:
        p = pebbling.greedy_black_strategy(g)
    return _emit_proof(args, resolution.pebbling_to_refutation(g, p, f, budget=args.budget))


def cmd_const_space(args) -> int:
    from . import resolution
    g = _load_graph(args.graph)
    return _emit_proof(args, resolution.constant_space_refutation(g))


def cmd_lift(args) -> int:
    from . import boolfunc, lift, resolution
    target = _load_formula(args.formula)
    f = boolfunc.parse_function_literal(args.fn)
    if f is None:
        return _fail("lift needs a real function, not 'none'")
    r = resolution.parse_refutation_trace(Path(args.proof).read_text(), target)
    return _emit_proof(args, lift.lift_refutation(r, f, budget=args.budget))


def cmd_extract(args) -> int:
    from . import boolfunc, projections, resolution
    target = _load_formula(args.formula)
    f = boolfunc.parse_function_literal(args.fn)
    if f is None:
        return _fail("extract needs a real function, not 'none'")
    r_f = resolution.parse_refutation_trace(Path(args.proof).read_text(), target)
    return _emit_proof(args, projections.extract_refutation(r_f, f, use_local=args.local))


def cmd_check(args) -> int:
    from . import resolution
    target = _load_formula(args.formula)
    r = resolution.parse_refutation_trace(Path(args.proof).read_text(), target)
    m = resolution.check_refutation(r)
    print(f"ok {m}")
    return 0


def cmd_minspace(args) -> int:
    from . import saturation
    f = _load_formula(args.formula)
    value = saturation.min_clause_space(f, args.cap, args.budget)
    print(value if value is not None else f">{args.cap}")
    return 0


def cmd_minwidth(args) -> int:
    from . import saturation
    f = _load_formula(args.formula)
    value = saturation.min_width(f, args.cap)
    print(value if value is not None else f">{args.cap}")
    return 0


# -- arguments ----------------------------------------------------------------


def _compile_arguments(p):
    p.add_argument("--graph", required=True)
    p.add_argument("--fn", default="none")
    p.add_argument("--trace", help="black pebbling trace (default: greedy strategy)")
    p.add_argument("--out", default="-")
    p.add_argument("--emit-formula", help="also write the target formula as DIMACS")
    _budget_arg(p)
    p.set_defaults(func=cmd_compile)


def _const_space_arguments(p):
    p.add_argument("--graph", required=True)
    p.add_argument("--out", default="-")
    p.add_argument("--emit-formula")
    p.set_defaults(func=cmd_const_space)


def _lift_arguments(p):
    p.add_argument("--formula", required=True, help="DIMACS of the refuted formula")
    p.add_argument("--proof", required=True)
    p.add_argument("--fn", required=True)
    p.add_argument("--out", default="-")
    p.add_argument("--emit-formula")
    _budget_arg(p)
    p.set_defaults(func=cmd_lift)


def _extract_arguments(p):
    p.add_argument("--formula", required=True, help="DIMACS of the substituted formula")
    p.add_argument("--proof", required=True)
    p.add_argument("--fn", required=True)
    p.add_argument("--local", action="store_true", help="use the local projection")
    p.add_argument("--out", default="-")
    p.add_argument("--emit-formula")
    p.set_defaults(func=cmd_extract)


def _check_arguments(p):
    p.add_argument("--formula", required=True)
    p.add_argument("--proof", required=True)
    p.set_defaults(func=cmd_check)


def _minspace_arguments(p):
    p.add_argument("--formula", required=True)
    p.add_argument("--cap", type=_natural, default=5)
    _budget_arg(p)
    p.set_defaults(func=cmd_minspace)


def _minwidth_arguments(p):
    p.add_argument("--formula", required=True)
    p.add_argument("--cap", type=_natural, default=6)
    p.set_defaults(func=cmd_minwidth)


# subcommand -> the function that gives its subparser arguments and handler
ARGUMENTS = {
    "compile": _compile_arguments,
    "const-space": _const_space_arguments,
    "lift": _lift_arguments,
    "extract": _extract_arguments,
    "check": _check_arguments,
    "minspace": _minspace_arguments,
    "minwidth": _minwidth_arguments,
}

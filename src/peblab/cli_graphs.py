"""CLI handlers that drive `dag`, `formulas`, `pebbling` and `subconf`:
`gen`, `graph`, `pebble-validate` and `pebble-price` (see `cli`)."""

from __future__ import annotations

import sys
from pathlib import Path

from .cli import _budget_arg, _fail, _load_graph, _write


def cmd_gen(args) -> int:
    from . import boolfunc, formulas
    pairs = [(g, fn) for g in args.graph for fn in args.fn]
    if args.out and len(pairs) != 1:
        return _fail("--out needs exactly one --graph and one --fn; use --out-dir for a corpus")
    out_dir = Path(args.out_dir) if args.out_dir else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)
    rows, failures = [], []
    for gspec, fn_literal in pairs:
        try:
            g = _load_graph(gspec)
            f = boolfunc.parse_function_literal(fn_literal)
            formula = formulas.pebbling_contradiction(g)
            if f is not None:
                formula = formulas.substitute(formula, f)
            if args.out:
                path = Path(args.out)
            else:
                stem = f"peb-{gspec.replace(':', '')}-{fn_literal.replace(':', '')}.cnf"
                path = (out_dir or Path(".")) / stem
            path.write_text(formulas.to_dimacs(formula))
        except Exception as exc:
            failures.append(exc)
            continue
        rows.append({
            "graph": gspec,
            "function": fn_literal,
            "path": str(path),
            "variables": len(formula.variables()),
            "clauses": len(formula.clauses),
            "width": formula.width,
        })
    manifest = args.manifest or (str(out_dir / "manifest.csv") if out_dir else None)
    header = ["graph", "function", "path", "variables", "clauses", "width"]
    if manifest:
        import csv
        with open(manifest, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=header)
            writer.writeheader()
            writer.writerows(rows)
    for row in rows:
        print(",".join(str(row[h]) for h in header))
    for exc in failures:
        print(f"error: {exc}", file=sys.stderr)
    return 1 if failures else 0


def cmd_graph(args) -> int:
    from . import dag
    if args.family:
        g = dag.parse_family(args.family)
    elif args.infile:
        g = dag.parse_dag(Path(args.infile).read_text())
    else:
        return _fail("need --family or --in")
    if args.out:
        _write(args.out, dag.serialize_dag(g))
    print(
        f"vertices={len(g.vertices)} edges={len(g.edges)} sink={g.sink} "
        f"sources={len(g.sources())} max_indegree={g.max_indegree}"
    )
    return 0


def cmd_pebble_validate(args) -> int:
    from . import pebbling
    g = _load_graph(args.graph)
    p = pebbling.parse_pebbling_trace(Path(args.trace).read_text(), g)
    if isinstance(p, pebbling.BwPebbling):
        cost = pebbling.validate_bw(p, black_only=args.black_only)
        print(f"ok bw time={cost.time} space={cost.space}")
        return 0
    if args.black_only:
        return _fail("--black-only applies to bw traces")
    from . import subconf  # a labelled or blob trace loaded it
    if isinstance(p, subconf.LabelledPebbling):
        cost = subconf.validate_labelled(p)
        print(
            f"ok labelled time={cost.time} space={cost.space} "
            f"bound=({cost.bound[0]},{cost.bound[1]})"
        )
    else:
        cost = subconf.validate_blob(p, args.budget)
        print(f"ok blob time={cost.time} space={cost.space}")
    return 0


def cmd_pebble_price(args) -> int:
    from . import pebbling
    g = _load_graph(args.graph)
    if args.game == "black":
        print(pebbling.optimal_black_price(g, args.budget))
    else:
        print(pebbling.optimal_bw_price(g, args.budget))
    return 0


# -- arguments ----------------------------------------------------------------


def _gen_arguments(p):
    p.add_argument("--graph", action="append", required=True,
                   help="pyramid:H | tree:H | path:N | @file.dag (repeatable)")
    p.add_argument("--fn", action="append", required=True,
                   help="or:2 | xor:2 | thr:4:2 | maj:3 | tt:A:HEX | none (repeatable)")
    p.add_argument("--out", help="output DIMACS path (single pair only)")
    p.add_argument("--out-dir", help="corpus output directory")
    p.add_argument("--manifest", help="manifest CSV path")
    p.set_defaults(func=cmd_gen)


def _graph_arguments(p):
    p.add_argument("--family", help="pyramid:H | tree:H | path:N")
    p.add_argument("--in", dest="infile", help="DAG file to validate")
    p.add_argument("--out", help="write DAG file")
    p.set_defaults(func=cmd_graph)


def _pebble_validate_arguments(p):
    p.add_argument("--graph", required=True)
    p.add_argument("--trace", required=True)
    p.add_argument("--black-only", action="store_true")
    _budget_arg(p)
    p.set_defaults(func=cmd_pebble_validate)


def _pebble_price_arguments(p):
    p.add_argument("--graph", required=True)
    p.add_argument("--game", choices=["black", "bw"], default="black")
    _budget_arg(p)
    p.set_defaults(func=cmd_pebble_price)


# subcommand -> the function that gives its subparser arguments and handler
ARGUMENTS = {
    "gen": _gen_arguments,
    "graph": _graph_arguments,
    "pebble-validate": _pebble_validate_arguments,
    "pebble-price": _pebble_price_arguments,
}

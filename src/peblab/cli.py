"""Command-line surface: corpus generation, validation, compilation,
checking, oracle runs, trade-off reports, and the external SAT-solver
benchmark harness.  Every command is deterministic given its flags (plus
--seed where sampling is involved); all outputs are files or standard
output.  PEBLAB_BUDGET overrides search budgets.  Each command imports
the modules it calls in its own body: every CLI call is a fresh process,
and with bytecode writing off it compiles every module it imports.  For
the same reason the package's value types are `__slots__` classes, not
dataclasses: `dataclasses` pulls in `inspect` and `ast`, and each frozen
dataclass `exec`s its generated methods at import.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from .cnf import is_decimal
from .errors import BudgetExceeded, PeblabError


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


# -- subcommands -------------------------------------------------------------


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
    trace = Path(args.trace).read_text()
    p = pebbling.parse_pebbling_trace(trace, g)
    if isinstance(p, pebbling.BwPebbling):
        cost = pebbling.validate_bw(p, black_only=args.black_only)
        print(f"ok bw time={cost.time} space={cost.space}")
    elif isinstance(p, pebbling.LabelledPebbling):
        cost = pebbling.validate_labelled(p)
        print(
            f"ok labelled time={cost.time} space={cost.space} "
            f"bound=({cost.bound[0]},{cost.bound[1]})"
        )
    else:
        cost = pebbling.validate_blob(p, args.budget)
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
    from . import boolfunc, resolution
    target = _load_formula(args.formula)
    f = boolfunc.parse_function_literal(args.fn)
    if f is None:
        return _fail("lift needs a real function, not 'none'")
    r = resolution.parse_refutation_trace(Path(args.proof).read_text(), target)
    return _emit_proof(args, resolution.lift_refutation(r, f, budget=args.budget))


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
    from . import resolution
    f = _load_formula(args.formula)
    value = resolution.min_clause_space(f, args.cap, args.budget)
    print(value if value is not None else f">{args.cap}")
    return 0


def cmd_minwidth(args) -> int:
    from . import resolution
    f = _load_formula(args.formula)
    value = resolution.min_width(f, args.cap)
    print(value if value is not None else f">{args.cap}")
    return 0


def cmd_project(args) -> int:
    from . import boolfunc, projections
    f = boolfunc.parse_function_literal(args.fn)
    if f is None:
        return _fail("project needs a real function, not 'none'")
    if args.conf:
        conf = sorted(_load_formula(args.conf).clauses, key=lambda c: c.sort_key())
        chosen = projections.local_project(conf, f) if args.local else projections.project(conf, f)
        for c in sorted(chosen, key=lambda c: c.sort_key()):
            print(c if not c.is_empty() else "<empty>")
        return 0
    if not args.suite:
        return _fail("need --conf FILE or --suite")
    samples = projections.sample_configurations(f, args.samples, args.seed)
    suite = projections.projection_axiom_suite(f, samples, seed=args.seed)
    report = projections.space_respecting_check(f, samples)
    lines = [f"# seed={args.seed} samples={args.samples} fn={args.fn}"]
    lines.extend(report.csv_lines())
    _write(args.space_csv, "\n".join(lines) + "\n")
    if args.witness:
        import json
        with open(args.witness, "w") as fh:
            for cid in report.violations:
                row = report.rows[cid]
                fh.write(json.dumps({
                    "config_id": cid,
                    "clauses": row.clause_count,
                    "projected_variables": row.projected_variables,
                }) + "\n")
    print(
        f"suite ok: {suite.sample_count} samples, {suite.checks} property checks, "
        f"space bound {'enforced' if report.enforced else 'informational'}, "
        f"max ratio {report.max_ratio:.3f}, violations {len(report.violations)}"
    )
    return 0


def cmd_report(args) -> int:
    from . import boolfunc, dag, pebbling, resolution
    f = boolfunc.parse_function_literal(args.fn)
    header = [
        "family", "n", "vertices", "black_price", "bw_price",
        "compiled_length", "compiled_clause_space", "const_space_length",
    ]
    rows = []
    for n in args.range:
        g = dag.parse_family(f"{args.family}:{n}")
        row = {"family": args.family, "n": n, "vertices": len(g.vertices)}
        try:
            row["black_price"] = pebbling.optimal_black_price(g, args.budget)
        except BudgetExceeded:
            row["black_price"] = "budget"
        try:
            row["bw_price"] = pebbling.optimal_bw_price(g, args.budget)
        except BudgetExceeded:
            row["bw_price"] = "budget"
        try:
            r = resolution.pebbling_to_refutation(
                g, pebbling.greedy_black_strategy(g), f, budget=args.budget
            )
            m = resolution.check_refutation(r)
            row["compiled_length"] = m.length
            row["compiled_clause_space"] = m.clause_space
        except BudgetExceeded:
            row["compiled_length"] = row["compiled_clause_space"] = "budget"
        row["const_space_length"] = resolution.check_refutation(
            resolution.constant_space_refutation(g)
        ).length
        rows.append(row)
    lines = [",".join(header)]
    lines.extend(",".join(str(r[h]) for h in header) for r in rows)
    _write(args.out, "\n".join(lines) + "\n")
    return 0


def _run_jobs(fn, items, jobs):
    """fn over items on `jobs` threads, in item order; a raised exception
    becomes that item's result."""
    import concurrent.futures
    with concurrent.futures.ThreadPoolExecutor(max_workers=jobs) as pool:
        futures = [pool.submit(fn, item) for item in items]
    out = []
    for fut in futures:
        try:
            out.append(fut.result())
        except Exception as exc:
            out.append(exc)
    return out


def cmd_bench(args) -> int:
    import csv
    import subprocess
    import time
    if "{file}" not in args.solver:
        return _fail("solver template must contain {file}")
    if args.jobs < 1:
        return _fail("--jobs must be at least 1")
    with open(args.manifest, newline="") as fh:
        entries = list(csv.DictReader(fh))

    def run(entry):
        command = args.solver.replace("{file}", entry["path"])
        start = time.monotonic()
        if args.timeout <= 0:
            return entry, "timeout", 0.0
        try:
            proc = subprocess.run(
                command, shell=True, capture_output=True, timeout=args.timeout
            )
            elapsed = time.monotonic() - start
        except subprocess.TimeoutExpired:
            return entry, "timeout", time.monotonic() - start
        except OSError as exc:
            return entry, f"spawn-failure({exc})", time.monotonic() - start
        if proc.returncode == 10:
            return entry, "SAT", elapsed
        if proc.returncode == 20:
            return entry, "UNSAT", elapsed
        if proc.returncode == 127:
            return entry, "spawn-failure(not found)", elapsed
        return entry, f"exit({proc.returncode})", elapsed

    results = _run_jobs(run, entries, args.jobs)
    lines = ["path,status,seconds"]
    bad = 0
    for res in results:
        if isinstance(res, Exception):
            bad += 1
            print(f"error: {res}", file=sys.stderr)
            continue
        entry, status, elapsed = res
        if status.startswith("spawn-failure") or status.startswith("exit"):
            bad += 1
            print(f"error: {entry['path']}: {status}", file=sys.stderr)
        lines.append(f"{entry['path']},{status},{elapsed:.3f}")
    _write(args.out, "\n".join(lines) + "\n")
    return 1 if bad else 0


# -- argument parsing ---------------------------------------------------------


def _natural(text: str) -> int:
    """argparse type: an ASCII-decimal integer, with no sign, '_' or
    non-ASCII digit."""
    if not is_decimal(text):
        raise argparse.ArgumentTypeError(f"not a decimal integer: {text!r}")
    return int(text)


def _seconds(text: str) -> float:
    """argparse type: a non-negative finite decimal such as 10, 0.5 or .25,
    at most 2,147,483: `subprocess.run` waits at most 2**31 - 1 ms."""
    if not is_decimal(text.replace(".", "", 1)) or math.isinf(float(text)):
        raise argparse.ArgumentTypeError(f"not a non-negative decimal: {text!r}")
    if float(text) > 2_147_483:
        raise argparse.ArgumentTypeError(f"more than 2147483 seconds: {text!r}")
    return float(text)


def _size_range(text: str) -> range:
    """argparse type: `A:B`, or `A` alone, as the inclusive range A..B."""
    lo, _, hi = text.partition(":")
    return range(_natural(lo), _natural(hi or lo) + 1)


def _budget_arg(parser):
    parser.add_argument("--budget", type=_natural, default=None,
                        help="search budget override (default PEBLAB_BUDGET or 10^7)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="peblab",
        description="Pebble games, pebbling formulas, and resolution proof machinery",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate pebbling/substitution DIMACS formulas")
    p.add_argument("--graph", action="append", required=True,
                   help="pyramid:H | tree:H | path:N | @file.dag (repeatable)")
    p.add_argument("--fn", action="append", required=True,
                   help="or:2 | xor:2 | thr:4:2 | maj:3 | tt:A:HEX | none (repeatable)")
    p.add_argument("--out", help="output DIMACS path (single pair only)")
    p.add_argument("--out-dir", help="corpus output directory")
    p.add_argument("--manifest", help="manifest CSV path")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("graph", help="generate or inspect DAG files")
    p.add_argument("--family", help="pyramid:H | tree:H | path:N")
    p.add_argument("--in", dest="infile", help="DAG file to validate")
    p.add_argument("--out", help="write DAG file")
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("pebble-validate", help="validate a pebbling trace")
    p.add_argument("--graph", required=True)
    p.add_argument("--trace", required=True)
    p.add_argument("--black-only", action="store_true")
    _budget_arg(p)
    p.set_defaults(func=cmd_pebble_validate)

    p = sub.add_parser("pebble-price", help="exact pebbling price by exhaustive search")
    p.add_argument("--graph", required=True)
    p.add_argument("--game", choices=["black", "bw"], default="black")
    _budget_arg(p)
    p.set_defaults(func=cmd_pebble_price)

    p = sub.add_parser("compile", help="compile a black pebbling into a refutation")
    p.add_argument("--graph", required=True)
    p.add_argument("--fn", default="none")
    p.add_argument("--trace", help="black pebbling trace (default: greedy strategy)")
    p.add_argument("--out", default="-")
    p.add_argument("--emit-formula", help="also write the target formula as DIMACS")
    _budget_arg(p)
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("const-space", help="constant-clause-space refutation of Peb_G")
    p.add_argument("--graph", required=True)
    p.add_argument("--out", default="-")
    p.add_argument("--emit-formula")
    p.set_defaults(func=cmd_const_space)

    p = sub.add_parser("lift", help="lift a refutation through substitution")
    p.add_argument("--formula", required=True, help="DIMACS of the refuted formula")
    p.add_argument("--proof", required=True)
    p.add_argument("--fn", required=True)
    p.add_argument("--out", default="-")
    p.add_argument("--emit-formula")
    _budget_arg(p)
    p.set_defaults(func=cmd_lift)

    p = sub.add_parser("extract", help="extract a base refutation from a substituted one")
    p.add_argument("--formula", required=True, help="DIMACS of the substituted formula")
    p.add_argument("--proof", required=True)
    p.add_argument("--fn", required=True)
    p.add_argument("--local", action="store_true", help="use the local projection")
    p.add_argument("--out", default="-")
    p.add_argument("--emit-formula")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("check", help="check a proof trace against a formula")
    p.add_argument("--formula", required=True)
    p.add_argument("--proof", required=True)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("minspace", help="exact minimal clause space (tiny formulas)")
    p.add_argument("--formula", required=True)
    p.add_argument("--cap", type=_natural, default=5)
    _budget_arg(p)
    p.set_defaults(func=cmd_minspace)

    p = sub.add_parser("minwidth", help="minimal refutation width by bounded saturation")
    p.add_argument("--formula", required=True)
    p.add_argument("--cap", type=_natural, default=6)
    p.set_defaults(func=cmd_minwidth)

    p = sub.add_parser("project", help="resolution f-projection of a configuration")
    p.add_argument("--fn", required=True)
    p.add_argument("--conf", help="configuration as DIMACS over substituted variables")
    p.add_argument("--local", action="store_true")
    p.add_argument("--suite", action="store_true",
                   help="run the seeded random property suite instead")
    p.add_argument("--samples", type=_natural, default=200)
    p.add_argument("--seed", type=_natural, default=0)
    p.add_argument("--space-csv", default="-")
    p.add_argument("--witness", help="JSON-lines log of bound violations")
    p.set_defaults(func=cmd_project)

    p = sub.add_parser("report", help="price/length/space trade-off table for a family")
    p.add_argument("--family", required=True, choices=["pyramid", "tree", "path"])
    p.add_argument("--range", type=_size_range, required=True, help="A:B inclusive size range")
    p.add_argument("--fn", default="none")
    p.add_argument("--out", default="-")
    _budget_arg(p)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("bench", help="run an external SAT solver over a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--solver", required=True, help="command template with {file}")
    p.add_argument("--timeout", type=_seconds, default=60.0)
    p.add_argument("--jobs", type=_natural, default=1)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (PeblabError, OSError, ValueError) as exc:
        return _fail(str(exc))
    except MemoryError:  # carries no message
        return _fail("out of memory")


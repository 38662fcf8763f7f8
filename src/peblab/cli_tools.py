"""CLI handlers of the tools: `project` (projections and their property
suite), `report` (the trade-off table) and `bench` (an external SAT
solver over a manifest); see `cli`."""

from __future__ import annotations

import argparse
import math
import sys

from .cli import _budget_arg, _fail, _load_formula, _natural, _write
from .cnf import is_decimal
from .errors import BudgetExceeded


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
    import os
    import signal
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
        try:  # in its own session, so a timeout kills the shell's children too
            proc = subprocess.Popen(command, shell=True, stdout=subprocess.DEVNULL,
                                    stderr=subprocess.DEVNULL, start_new_session=True)
        except OSError as exc:
            return entry, f"spawn-failure({exc})", time.monotonic() - start
        try:
            returncode = proc.wait(timeout=args.timeout)
            elapsed = time.monotonic() - start
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)  # the unreaped shell keeps the group alive
            proc.wait()
            return entry, "timeout", time.monotonic() - start
        if returncode == 10:
            return entry, "SAT", elapsed
        if returncode == 20:
            return entry, "UNSAT", elapsed
        if returncode == 127:
            return entry, "spawn-failure(not found)", elapsed
        return entry, f"exit({returncode})", elapsed

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


# -- arguments ----------------------------------------------------------------


def _seconds(text: str) -> float:
    """argparse type: a non-negative finite decimal such as 10, 0.5 or .25,
    at most 2,147,483: `subprocess.run` waits at most 2**31 - 1 ms."""
    if not is_decimal(text.replace(".", "", 1)) or math.isinf(float(text)):
        raise argparse.ArgumentTypeError(f"not a non-negative decimal: {text!r}")
    if float(text) > 2_147_483:
        raise argparse.ArgumentTypeError(f"more than 2147483 seconds: {text!r}")
    return float(text)


def _size_range(text: str) -> range:
    """argparse type: `A:B` with A <= B, or `A` alone, as the inclusive
    range A..B."""
    lo, _, hi = text.partition(":")
    out = range(_natural(lo), _natural(hi or lo) + 1)
    if not out:
        raise argparse.ArgumentTypeError(f"range start above its end: {text!r}")
    return out


def _project_arguments(p):
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


def _report_arguments(p):
    p.add_argument("--family", required=True, choices=["pyramid", "tree", "path"])
    p.add_argument("--range", type=_size_range, required=True, help="A:B inclusive size range")
    p.add_argument("--fn", default="none")
    p.add_argument("--out", default="-")
    _budget_arg(p)
    p.set_defaults(func=cmd_report)


def _bench_arguments(p):
    p.add_argument("--manifest", required=True)
    p.add_argument("--solver", required=True, help="command template with {file}")
    p.add_argument("--timeout", type=_seconds, default=60.0)
    p.add_argument("--jobs", type=_natural, default=1)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_bench)


# subcommand -> the function that gives its subparser arguments and handler
ARGUMENTS = {
    "project": _project_arguments,
    "report": _report_arguments,
    "bench": _bench_arguments,
}

"""Run one pipeline stage as a capped child process.

    python3 perfbench/stage.py --timeout S [--trace FILE] -- ARGV...

ARGV is a `peblab` subcommand line, or `sat --formula F --graph G --fn FN
--out FILE`: the SAT oracle has no subcommand, so this runner calls
`brute_force_sat` in-process on the formula (expected UNSAT), then on it
with the sink block deleted (expected SAT), and writes both verdicts.

The caps are set inside the child: an address-space limit of MEMORY_CAP_MB
(a tripped one exits with MEMORY_CAP_EXIT) and a wall-clock alarm of
--timeout seconds (the child dies of SIGALRM).  With --trace the `peblab`
modules are wrapped by tracer.py and the time inside the stage's entry
function plus the per-module totals are written to FILE as JSON.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

# The seed's peak is 700 MB RSS (extract of path:9), so the cap does not
# trip on working code.
MEMORY_CAP_MB = 2048
MEMORY_CAP_EXIT = 3


def sink_of(graph: str) -> str:
    """The sink of a graph family: its block is what the SAT stage deletes."""
    from peblab import dag

    return dag.parse_family(graph).sink


def sat_stage(argv) -> int:
    from peblab import boolfunc, dag, formulas
    from peblab.cnf import Clause

    parser = argparse.ArgumentParser(prog="sat")
    for flag in ("--formula", "--graph", "--fn", "--out"):
        parser.add_argument(flag, required=True)
    args = parser.parse_args(argv)
    target = formulas.from_dimacs(Path(args.formula).read_text())
    g = dag.parse_family(args.graph)
    f = boolfunc.parse_function_literal(args.fn)
    sink_axiom = Clause(frozenset({(sink_of(args.graph), False)}))
    sink_block = formulas.substitution_images(formulas.pebbling_contradiction(g), f)[sink_axiom]
    verdicts = {
        "full": formulas.brute_force_sat(target),
        "without_sink_block": formulas.brute_force_sat(formulas.CnfFormula(target.clauses - sink_block)),
    }
    Path(args.out).write_text(json.dumps(verdicts, sort_keys=True) + "\n")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--timeout", type=int, required=True)
    parser.add_argument("--trace")
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    limit = MEMORY_CAP_MB << 20
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    if hard != resource.RLIM_INFINITY:
        limit = min(limit, hard)
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    signal.alarm(args.timeout)

    from peblab import cli

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    start = time.perf_counter()
    try:
        code = sat_stage(argv[1:]) if argv[:1] == ["sat"] else cli.main(argv)
    except MemoryError:
        print(f"error: address-space cap of {MEMORY_CAP_MB} MB reached", file=sys.stderr)
        return MEMORY_CAP_EXIT
    main_s = time.perf_counter() - start
    if tracer is not None:
        Path(args.trace).write_text(json.dumps({"main_s": main_s, "totals": tracer.totals()}))
    return code


if __name__ == "__main__":
    sys.exit(main())

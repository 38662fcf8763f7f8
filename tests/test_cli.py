import csv
import gc
import json
import os
import resource
import stat
import subprocess
import sys
import time
from pathlib import Path

import pytest

from peblab import cli, dag, formulas, pebbling, resolution, sat, subconf

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run(*argv):
    return cli.main(list(argv))


def run_fresh(args, cwd, preexec_fn=None):
    """`args` in a new interpreter with PYTHONPATH=src, as a CLI stage runs."""
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": SRC}, timeout=60, preexec_fn=preexec_fn)


def test_gen_single_pair(tmp_path, capsys):
    out = tmp_path / "peb.cnf"
    assert run("gen", "--graph", "pyramid:2", "--fn", "or:2", "--out", str(out)) == 0
    F = formulas.from_dimacs(out.read_text())
    assert len(F.variables()) == 12
    assert len(F.clauses) == 17
    line = capsys.readouterr().out.strip()
    assert line.split(",")[3:] == ["12", "17", "4"]


def test_gen_plain(tmp_path):
    out = tmp_path / "plain.cnf"
    assert run("gen", "--graph", "pyramid:2", "--fn", "none", "--out", str(out)) == 0
    F = formulas.from_dimacs(out.read_text())
    assert len(F.variables()) == 6
    assert len(F.clauses) == 7


def test_gen_corpus_manifest(tmp_path):
    out = tmp_path / "corpus"
    assert run(
        "gen", "--graph", "path:4", "--graph", "pyramid:1",
        "--fn", "xor:2", "--fn", "none", "--out-dir", str(out),
    ) == 0
    with open(out / "manifest.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    for row in rows:
        F = formulas.from_dimacs(open(row["path"]).read())
        assert len(F.clauses) == int(row["clauses"])
        assert len(F.variables()) == int(row["variables"])
        assert sat.brute_force_sat(F) is None


def test_gen_bad_spec_fails(tmp_path, capsys):
    assert run("gen", "--graph", "blob:9", "--fn", "none",
               "--out-dir", str(tmp_path)) == 1
    assert "error" in capsys.readouterr().err


def test_gen_reports_a_failed_pair_after_the_others(tmp_path, capsys):
    assert run("gen", "--graph", "pyramid:x", "--graph", "path:2", "--fn", "none",
               "--out-dir", str(tmp_path)) == 1
    captured = capsys.readouterr()
    assert captured.out == f"path:2,none,{tmp_path / 'peb-path2-none.cnf'},2,3,2\n"
    assert captured.err == "error: graph spec 'pyramid:x' needs a decimal size, e.g. pyramid:2\n"


def test_gen_keeps_later_pairs_after_an_unexpected_exception(tmp_path, capsys, monkeypatch):
    parse_family = dag.parse_family

    def deep(spec):
        if spec == "pyramid:9":
            raise RecursionError("too deep")
        return parse_family(spec)

    monkeypatch.setattr(dag, "parse_family", deep)
    assert run("gen", "--graph", "pyramid:9", "--graph", "path:2", "--fn", "none",
               "--out-dir", str(tmp_path)) == 1
    captured = capsys.readouterr()
    assert captured.out.startswith("path:2,none,")
    assert captured.err == "error: too deep\n"
    assert (tmp_path / "manifest.csv").read_text().count("path:2") == 1


PEBLAB_MODULES = {"boolfunc", "dag", "formulas", "lift", "pebbling", "projections", "resolution",
                  "sat", "saturation", "search", "subconf"}


@pytest.fixture(scope="module")
def stage_dir(tmp_path_factory):
    """base.cnf and p.trace of path:3, the inputs of the check, lift,
    minwidth and minspace stages, their xor:2 lift sub.cnf and sub.trace,
    the inputs of the extract stage, and labelled.trace, an L-pebbling of
    path:3."""
    d = tmp_path_factory.mktemp("stages")
    (d / "labelled.trace").write_text(subconf.serialize_pebbling(
        subconf.black_to_labelled(pebbling.greedy_black_strategy(dag.build_path(3)))))
    assert run("compile", "--graph", "path:3", "--out", str(d / "p.trace"),
               "--emit-formula", str(d / "base.cnf")) == 0
    assert run("lift", "--formula", str(d / "base.cnf"), "--proof", str(d / "p.trace"),
               "--fn", "xor:2", "--out", str(d / "sub.trace"),
               "--emit-formula", str(d / "sub.cnf")) == 0
    return d


def loaded_modules(argv, cwd):
    """The modules a fresh process holds after `cli.main(argv)` succeeds."""
    child = ("import sys; from peblab import cli; code = cli.main(sys.argv[1:]); "
             "print(*sys.modules); sys.exit(code)")
    proc = run_fresh(["-c", child, *argv], cwd)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


@pytest.mark.parametrize("argv, loaded", [
    ("graph --family path:1", {"dag"}),
    ("gen --graph path:2 --fn or:2 --out g.cnf", {"dag", "boolfunc", "formulas"}),
    ("pebble-price --graph pyramid:2", {"dag", "pebbling", "search"}),
    ("check --formula base.cnf --proof p.trace", {"formulas", "resolution"}),
    ("lift --formula base.cnf --proof p.trace --fn xor:2 --out l.trace",
     {"boolfunc", "formulas", "lift", "resolution"}),
    ("minwidth --formula base.cnf --cap 4", {"formulas", "saturation"}),
    ("compile --graph path:2 --out c.trace",
     {"dag", "boolfunc", "formulas", "pebbling", "resolution", "search"}),
    ("const-space --graph path:2 --out cs.trace", {"dag", "formulas", "resolution"}),
    ("minspace --formula base.cnf --cap 4", {"formulas", "saturation", "search"}),
    ("extract --formula sub.cnf --proof sub.trace --fn xor:2 --out e.trace",
     {"boolfunc", "formulas", "projections", "resolution"}),
    ("report --family path --range 1 --out r.csv",
     {"dag", "boolfunc", "formulas", "pebbling", "resolution", "search"}),
    ("pebble-validate --graph path:3 --trace labelled.trace", {"dag", "pebbling", "search", "subconf"}),
])
def test_command_imports_only_what_it_runs(stage_dir, argv, loaded):
    # Each stage is a fresh process that compiles every module it imports,
    # including the one handler module of its subcommand.
    modules = loaded_modules(argv.split(), stage_dir)
    assert {m.removeprefix("peblab.") for m in modules} & PEBLAB_MODULES == loaded
    handler = cli.COMMANDS[argv.split()[0]][0]
    assert {m for m in modules if m.startswith("peblab.cli_")} == {f"peblab.{handler}"}
    assert not modules & {"concurrent.futures", "csv", "dataclasses", "inspect", "subprocess"}


# stage -> most lines of `peblab` source it may compile: about 7% above what
# it compiles, the headroom the no-work `graph` stage had (900 for 841), so
# a top-level import that pulls a module back into a stage fails here
LINE_CEILINGS = {
    "graph --family path:1": 900,
    "gen --graph path:2 --fn or:2 --out g.cnf": 1370,
    "pebble-price --graph pyramid:2": 1265,
    "minwidth --formula base.cnf --cap 4": 1045,
    "minspace --formula base.cnf --cap 4": 1125,
    "check --formula base.cnf --proof p.trace": 1700,
    "const-space --graph path:2 --out cs.trace": 1975,
    "lift --formula base.cnf --proof p.trace --fn xor:2 --out l.trace": 2115,
    "extract --formula sub.cnf --proof sub.trace --fn xor:2 --out e.trace": 2410,
    "compile --graph path:2 --out c.trace": 2515,
}


@pytest.mark.parametrize("argv, ceiling", LINE_CEILINGS.items(),
                         ids=[argv.split()[0] for argv in LINE_CEILINGS])
def test_stage_compiles_at_most_its_line_ceiling(stage_dir, argv, ceiling):
    # Source lines stand in for start-up time, which spreads too widely on
    # a shared VM to guard: the stage compiles every module it imports.
    modules = loaded_modules(argv.split(), stage_dir)
    package = Path(SRC, "peblab")
    sources = [package / f"{m.removeprefix('peblab.')}.py" for m in modules if m.startswith("peblab.")]
    lines = sum(len(path.read_text().splitlines()) for path in [package / "__init__.py", *sources])
    assert lines <= ceiling


def help_of(parser, argv, capsys):
    with pytest.raises(SystemExit) as info:
        parser.parse_args(argv)
    assert info.value.code == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_one_subcommand_parser_prints_the_full_parsers_help(command, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    one, full = cli.build_parser(command), cli.build_parser()
    assert help_of(one, [command, "--help"], capsys) == help_of(full, [command, "--help"], capsys)
    assert one.format_help() == full.format_help()


USAGE = """usage: peblab [-h]
              {gen,graph,pebble-validate,pebble-price,compile,const-space,lift,extract,check,minspace,minwidth,project,report,bench}
              ...
"""
HELP = USAGE + """
Pebble games, pebbling formulas, and resolution proof machinery

positional arguments:
  {gen,graph,pebble-validate,pebble-price,compile,const-space,lift,extract,check,minspace,minwidth,project,report,bench}
    gen                 generate pebbling/substitution DIMACS formulas
    graph               generate or inspect DAG files
    pebble-validate     validate a pebbling trace
    pebble-price        exact pebbling price by exhaustive search
    compile             compile a black pebbling into a refutation
    const-space         constant-clause-space refutation of Peb_G
    lift                lift a refutation through substitution
    extract             extract a base refutation from a substituted one
    check               check a proof trace against a formula
    minspace            exact minimal clause space (tiny formulas)
    minwidth            minimal refutation width by bounded saturation
    project             resolution f-projection of a configuration
    report              price/length/space trade-off table for a family
    bench               run an external SAT solver over a manifest

options:
  -h, --help            show this help message and exit
"""


@pytest.mark.parametrize("argv, code, out, err", [
    ("", 2, "", USAGE + "peblab: error: the following arguments are required: command\n"),
    ("--help", 0, HELP, ""),
    ("nosuch", 2, "", USAGE + "peblab: error: argument command: invalid choice: 'nosuch' (choose from "
     "'gen', 'graph', 'pebble-validate', 'pebble-price', 'compile', 'const-space', 'lift', 'extract', "
     "'check', 'minspace', 'minwidth', 'project', 'report', 'bench')\n"),
    ("check", 2, "", "usage: peblab check [-h] --formula FORMULA --proof PROOF\n"
     "peblab check: error: the following arguments are required: --formula, --proof\n"),
    ("check --formula f --proof p --bogus", 2, "",
     USAGE + "peblab: error: unrecognized arguments: --bogus\n"),
])
def test_usage_and_error_texts(tmp_path, monkeypatch, argv, code, out, err):
    monkeypatch.setenv("COLUMNS", "80")
    proc = run_fresh(["-m", "peblab", *argv.split()], tmp_path)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)


def test_graph_too_large_to_build_is_an_error(tmp_path):
    # under a 600 MB address-space cap, as a desk machine's share would be
    cap = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (600 << 20, 600 << 20)); "
           "from peblab import cli; sys.exit(cli.main(sys.argv[1:]))")
    for spec in ("tree:30", "pyramid:3000"):
        proc = run_fresh(["-c", cap, "graph", "--family", spec], tmp_path)
        assert proc.returncode == 1
        assert proc.stderr.startswith(f"error: graph spec '{spec}' has ")
        assert "Traceback" not in proc.stderr


def test_running_out_of_memory_is_an_error(capsys, monkeypatch):
    def exhausted(spec):
        raise MemoryError

    monkeypatch.setattr(dag, "parse_family", exhausted)
    assert run("graph", "--family", "path:1000000") == 1
    err = capsys.readouterr().err
    assert err == "error: out of memory\n"
    assert "Traceback" not in err


def test_a_search_that_runs_out_of_memory_ends_with_an_error_line(tmp_path):
    # the search's tables outgrow 250 MB of address space, limited in the child alone
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (250 << 20, 250 << 20))

    assert run("gen", "--graph", "pyramid:1", "--fn", "xor:2", "--out", str(tmp_path / "f.cnf")) == 0
    proc = run_fresh(["-m", "peblab", "minspace", "--formula", "f.cnf", "--cap", "6"], tmp_path, limit)
    assert (proc.returncode, proc.stderr) == (1, "error: out of memory\n")


def test_main_leaves_the_collector_threshold_as_it_found_it(capsys, monkeypatch):
    """`main` raises the collector's generation-0 threshold while a handler
    runs, and restores the thresholds it found on success and on an error."""
    seen = []
    parse_family = dag.parse_family

    def watched(spec):
        seen.append(gc.get_threshold())
        return parse_family(spec)

    monkeypatch.setattr(dag, "parse_family", watched)
    outside, found = gc.get_threshold(), (901, 11, 12)
    gc.set_threshold(*found)
    try:
        assert run("graph", "--family", "path:1") == 0
        assert gc.get_threshold() == found
        assert run("graph", "--family", "bogus:1") == 1
        assert capsys.readouterr().err == "error: unknown graph family 'bogus'\n"
        assert gc.get_threshold() == found
    finally:
        gc.set_threshold(*outside)
    assert len(seen) == 2 and all(t[0] > found[0] and t[1:] == found[1:] for t in seen)


def test_compile_of_a_path_deeper_than_the_recursion_limit_checks(tmp_path, capsys):
    n = sys.getrecursionlimit() + 200
    trace, cnf = tmp_path / "p.trace", tmp_path / "p.cnf"
    assert run("compile", "--graph", f"path:{n}", "--out", str(trace), "--emit-formula", str(cnf)) == 0
    assert run("check", "--formula", str(cnf), "--proof", str(trace)) == 0
    assert capsys.readouterr().err.splitlines()[-1].startswith(f"ok length={2 * n + 1} ")


def test_python_dash_m_runs_the_cli(tmp_path):
    proc = run_fresh(["-m", "peblab", "graph", "--family", "path:1"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "vertices=1 edges=0 sink=v1 sources=1 max_indegree=0\n"


def test_graph_roundtrip(tmp_path, capsys):
    out = tmp_path / "g.dag"
    assert run("graph", "--family", "tree:2", "--out", str(out)) == 0
    assert "vertices=7" in capsys.readouterr().out
    assert run("graph", "--in", str(out)) == 0
    assert "sink=t1" in capsys.readouterr().out


def test_a_graph_file_runs_as_its_family_literal(tmp_path, capsys):
    g = tmp_path / "pyr2.dag"
    assert run("graph", "--family", "pyramid:2", "--out", str(g)) == 0
    capsys.readouterr()
    results = []
    for spec in ("pyramid:2", f"@{g}"):
        proof, cnf = tmp_path / "p.trace", tmp_path / "f.cnf"
        assert run("pebble-price", "--graph", spec, "--game", "black") == 0
        assert run("pebble-price", "--graph", spec, "--game", "bw") == 0
        assert run("compile", "--graph", spec, "--fn", "xor:2",
                   "--out", str(proof), "--emit-formula", str(cnf)) == 0
        printed = capsys.readouterr()
        results.append((printed.out, printed.err, proof.read_text(), cnf.read_text()))
    assert results[0][0] == "4\n4\n"
    assert results[1] == results[0]


def test_pebble_validate_and_price(tmp_path, capsys):
    trace = tmp_path / "p.trace"
    p = pebbling.greedy_black_strategy(dag.build_path(4))
    trace.write_text(subconf.serialize_pebbling(p))
    assert run("pebble-validate", "--graph", "path:4", "--trace", str(trace), "--black-only") == 0
    assert "space=2" in capsys.readouterr().out
    assert run("pebble-price", "--graph", "path:4", "--game", "black") == 0
    assert capsys.readouterr().out.strip() == "2"
    assert run("pebble-price", "--graph", "pyramid:2", "--game", "bw") == 0
    assert capsys.readouterr().out.strip() == "4"


def test_pebble_validate_rejects_bad_trace(tmp_path, capsys):
    trace = tmp_path / "bad.trace"
    trace.write_text("game bw\nB+ v2\n")
    assert run("pebble-validate", "--graph", "path:2", "--trace", str(trace)) == 1
    assert "rule 1" in capsys.readouterr().err


def test_pebble_validate_reports_the_first_bad_move(tmp_path, capsys):
    trace = tmp_path / "bad.trace"
    trace.write_text("game bw\nB+ v1\nB+ v1\n")
    assert run("pebble-validate", "--graph", "path:2", "--trace", str(trace)) == 1
    assert capsys.readouterr().err == "error: step 2: vertex v1 already pebbled\n"


@pytest.mark.parametrize("text, err", [
    ("game labelled\nI x\nE 1\nE 1\nI q\n", "error: step 3: subconfiguration <x,{}> not present\n"),
    ("game blob\nI x\nX 1 : y /\nI q\n", "error: step 2: inflation must extend [{x},{}]\n"),
], ids=["labelled", "blob"])
def test_pebble_validate_reports_the_first_bad_subconfiguration_move(tmp_path, capsys, text, err):
    # the parser checks syntax only; the replay reports the first bad move
    trace = tmp_path / "bad.trace"
    trace.write_text(text)
    assert run("pebble-validate", "--graph", "pyramid:1", "--trace", str(trace)) == 1
    assert capsys.readouterr().err == err


@pytest.mark.parametrize("game", ["labelled", "blob"])
def test_pebble_validate_black_only_needs_a_bw_trace(tmp_path, capsys, game):
    lp = subconf.black_to_labelled(pebbling.greedy_black_strategy(dag.build_path(3)))
    trace = tmp_path / "l.trace"
    trace.write_text(subconf.serialize_pebbling(lp).replace("game labelled", f"game {game}", 1))
    assert run("pebble-validate", "--graph", "path:3", "--trace", str(trace), "--black-only") == 1
    printed = capsys.readouterr()
    assert (printed.out, printed.err) == ("", "error: --black-only applies to bw traces\n")


def test_pebble_validate_labelled(tmp_path, capsys):
    lp = subconf.black_to_labelled(pebbling.greedy_black_strategy(dag.build_path(3)))
    trace = tmp_path / "l.trace"
    trace.write_text(subconf.serialize_pebbling(lp))
    assert run("pebble-validate", "--graph", "path:3", "--trace", str(trace)) == 0
    assert "bound=(3,1)" in capsys.readouterr().out
    blob = tmp_path / "b.trace"
    blob.write_text(trace.read_text().replace("game labelled", "game blob", 1))
    assert run("pebble-validate", "--graph", "path:3", "--trace", str(blob)) == 0
    assert capsys.readouterr().out.startswith("ok blob time=")


def test_compile_from_trace_file(tmp_path, capsys):
    strategy = tmp_path / "s.trace"
    strategy.write_text(subconf.serialize_pebbling(
        pebbling.greedy_black_strategy(dag.build_pyramid(1))
    ))
    proof = tmp_path / "p.trace"
    base = tmp_path / "f.cnf"
    assert run("compile", "--graph", "pyramid:1", "--fn", "or:2",
               "--trace", str(strategy), "--out", str(proof),
               "--emit-formula", str(base)) == 0
    assert run("check", "--formula", str(base), "--proof", str(proof)) == 0


def test_compile_lift_extract_pipeline(tmp_path, capsys):
    proof = tmp_path / "p.trace"
    base = tmp_path / "base.cnf"
    assert run("compile", "--graph", "path:3", "--fn", "none",
               "--out", str(proof), "--emit-formula", str(base)) == 0
    assert run("check", "--formula", str(base), "--proof", str(proof)) == 0

    lifted = tmp_path / "lifted.trace"
    subst = tmp_path / "subst.cnf"
    assert run("lift", "--formula", str(base), "--proof", str(proof),
               "--fn", "xor:2", "--out", str(lifted), "--emit-formula", str(subst)) == 0
    assert run("check", "--formula", str(subst), "--proof", str(lifted)) == 0

    back = tmp_path / "back.trace"
    assert run("extract", "--formula", str(subst), "--proof", str(lifted),
               "--fn", "xor:2", "--out", str(back)) == 0
    assert run("check", "--formula", str(base), "--proof", str(back)) == 0


def test_local_extract_of_lifted_pyramid(tmp_path):
    # a configuration of the lifted proof holds 13 clauses
    proof, base = tmp_path / "cs.trace", tmp_path / "peb.cnf"
    assert run("const-space", "--graph", "pyramid:2",
               "--out", str(proof), "--emit-formula", str(base)) == 0
    lifted, subst = tmp_path / "lifted.trace", tmp_path / "subst.cnf"
    assert run("lift", "--formula", str(base), "--proof", str(proof),
               "--fn", "xor:2", "--out", str(lifted), "--emit-formula", str(subst)) == 0
    back = tmp_path / "back.trace"
    assert run("extract", "--formula", str(subst), "--proof", str(lifted),
               "--fn", "xor:2", "--local", "--out", str(back)) == 0
    assert run("check", "--formula", str(base), "--proof", str(back)) == 0


def test_const_space_and_oracles(tmp_path, capsys):
    proof = tmp_path / "cs.trace"
    base = tmp_path / "peb.cnf"
    assert run("const-space", "--graph", "path:3",
               "--out", str(proof), "--emit-formula", str(base)) == 0
    assert "clause_space=3" in capsys.readouterr().err
    assert run("minwidth", "--formula", str(base), "--cap", "4") == 0
    assert capsys.readouterr().out.strip() == "2"
    assert run("minspace", "--formula", str(base), "--cap", "4") == 0
    assert capsys.readouterr().out.strip() == "3"
    assert run("minspace", "--formula", str(base), "--cap", "1") == 0
    assert capsys.readouterr().out.strip() == ">1"


def test_check_rejects_tampered_trace(tmp_path, capsys):
    proof = tmp_path / "cs.trace"
    base = tmp_path / "peb.cnf"
    run("const-space", "--graph", "path:3", "--out", str(proof), "--emit-formula", str(base))
    tampered = proof.read_text().replace("d -v3", "d -v2")
    proof.write_text(tampered)
    assert run("check", "--formula", str(base), "--proof", str(proof)) == 1


def test_compile_writes_nothing_for_a_proof_the_checker_rejects(tmp_path, capsys, monkeypatch):
    def broken(g, p, f=None, budget=None):
        r = resolution.constant_space_refutation(g)
        return resolution.Refutation(r.target, (*r.steps, resolution.Erase(1)))  # erased already

    monkeypatch.setattr(resolution, "pebbling_to_refutation", broken)
    proof, base = tmp_path / "c.trace", tmp_path / "c.cnf"
    assert run("compile", "--graph", "path:3", "--out", str(proof), "--emit-formula", str(base)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: step ") and err.endswith(": erasing (-v3) which is not present\n")
    assert not proof.exists() and not base.exists()


def test_check_kdnf_trace(tmp_path, capsys):
    from test_resolution import handcrafted_kdnf_refutation

    r = handcrafted_kdnf_refutation()
    proof = tmp_path / "kdnf.trace"
    proof.write_text(resolution.serialize_refutation(r))
    target = tmp_path / "target.cnf"
    target.write_text(formulas.to_dimacs(r.target))
    assert run("check", "--formula", str(target), "--proof", str(proof)) == 0
    assert "ok" in capsys.readouterr().out
    # library rejection mirrors CLI rejection (golden behaviour)
    proof.write_text(proof.read_text().replace(" andi", " ande"))
    assert run("check", "--formula", str(target), "--proof", str(proof)) == 1


def test_project_configuration(tmp_path, capsys):
    conf = tmp_path / "conf.cnf"
    conf.write_text("c var 1 x#1\nc var 2 x#2\np cnf 2 2\n1 2 0\n-1 -2 0\n")
    assert run("project", "--fn", "xor:2", "--conf", str(conf)) == 0
    assert capsys.readouterr().out.strip() == "x"
    assert run("project", "--fn", "xor:2", "--conf", str(conf), "--local") == 0
    assert capsys.readouterr().out.strip() == "x"


def test_project_suite(tmp_path, capsys):
    csv_path = tmp_path / "space.csv"
    witness = tmp_path / "w.jsonl"
    assert run("project", "--fn", "xor:2", "--suite", "--samples", "25",
               "--seed", "5", "--space-csv", str(csv_path), "--witness", str(witness)) == 0
    out = capsys.readouterr().out
    assert "25 samples" in out
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "# seed=5 samples=25 fn=xor:2"
    assert lines[1].startswith("config_id")
    assert len(lines) == 27
    assert witness.read_text() == ""  # no violations for xor2


def test_report_paths(tmp_path):
    out = tmp_path / "report.csv"
    assert run("report", "--family", "path", "--range", "2:6", "--fn", "none",
               "--out", str(out)) == 0
    rows = list(csv.DictReader(open(out)))
    assert [r["black_price"] for r in rows] == ["2"] * 5
    assert all(int(r["bw_price"]) <= int(r["black_price"]) for r in rows)


def test_report_rejects_a_reversed_range(capsys):
    # 5:2 used to print only the header and exit 0
    with pytest.raises(SystemExit) as info:
        run("report", "--family", "path", "--range", "5:2", "--fn", "none")
    assert info.value.code == 2
    assert "argument --range: range start above its end: '5:2'" in capsys.readouterr().err


def test_report_marks_the_cells_whose_budget_trips(capsys):
    assert run("report", "--family", "pyramid", "--range", "3", "--fn", "xor:2",
               "--budget", "30") == 0
    assert capsys.readouterr().out.splitlines()[1] == "pyramid,3,10,budget,budget,budget,budget,21"


def test_report_pyramids_monotone(tmp_path):
    out = tmp_path / "report.csv"
    assert run("report", "--family", "pyramid", "--range", "1:3", "--fn", "or:2",
               "--out", str(out)) == 0
    prices = [int(r["black_price"]) for r in csv.DictReader(open(out))]
    assert prices == sorted(prices)
    assert prices == [3, 4, 5]


def _fake_solver(tmp_path, exit_code, sleep=0.0):
    sh = tmp_path / "solver.sh"
    sh.write_text(f"#!/bin/sh\nsleep {sleep}\nexit {exit_code}\n")
    sh.chmod(sh.stat().st_mode | stat.S_IEXEC)
    return str(sh)


def test_bench_unsat_rows(tmp_path):
    out_dir = tmp_path / "corpus"
    run("gen", "--graph", "path:3", "--graph", "path:4", "--fn", "none",
        "--out-dir", str(out_dir))
    solver = _fake_solver(tmp_path, 20)
    bench_out = tmp_path / "bench.csv"
    assert run("bench", "--manifest", str(out_dir / "manifest.csv"),
               "--solver", solver + " {file}", "--timeout", "10",
               "--out", str(bench_out)) == 0
    rows = bench_out.read_text().splitlines()
    assert len(rows) == 3
    assert all(row.split(",")[1] == "UNSAT" for row in rows[1:])


@pytest.mark.parametrize("exit_code, status, code", [(10, "SAT", 0), (3, "exit(3)", 1)])
def test_bench_reads_the_solver_exit_code(tmp_path, capsys, exit_code, status, code):
    out_dir = tmp_path / "corpus"
    run("gen", "--graph", "path:2", "--fn", "none", "--out-dir", str(out_dir))
    capsys.readouterr()
    bench_out = tmp_path / "bench.csv"
    assert run("bench", "--manifest", str(out_dir / "manifest.csv"),
               "--solver", _fake_solver(tmp_path, exit_code) + " {file}",
               "--out", str(bench_out)) == code
    path, got, _ = bench_out.read_text().splitlines()[1].split(",")
    assert got == status
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    assert errors == ([] if code == 0 else [f"error: {path}: {status}"])


def _running(pid: int) -> bool:
    """Whether `pid` is a live process, not gone and not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rpartition(")")[2].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not os.path.exists("/proc/self/stat"), reason="reads /proc")
def test_bench_timeout_kills_the_solver_the_shell_started(tmp_path):
    # the shell forks the solver (a command list), the solver records its
    # pid and execs sleep, so at most one process sleeps at most 5 s
    pid_file = tmp_path / "solver.pid"
    manifest = tmp_path / "manifest.csv"
    manifest.write_text(f"path\n{pid_file}\n")
    solver = "sh -c 'echo $$ > {file}; exec sleep 5'; exit 0"
    assert run("bench", "--manifest", str(manifest), "--solver", solver, "--timeout", "2",
               "--out", str(tmp_path / "bench.csv")) == 0
    assert (tmp_path / "bench.csv").read_text().splitlines()[1].split(",")[1] == "timeout"
    pid = int(pid_file.read_text())
    deadline = time.monotonic() + 2
    while _running(pid) and time.monotonic() < deadline:
        time.sleep(0.01)
    assert not _running(pid)


def test_bench_timeout_zero(tmp_path):
    out_dir = tmp_path / "corpus"
    run("gen", "--graph", "path:3", "--fn", "none", "--out-dir", str(out_dir))
    solver = _fake_solver(tmp_path, 20)
    bench_out = tmp_path / "bench.csv"
    assert run("bench", "--manifest", str(out_dir / "manifest.csv"),
               "--solver", solver + " {file}", "--timeout", "0",
               "--out", str(bench_out)) == 0
    assert "timeout" in bench_out.read_text().splitlines()[1]


@pytest.mark.parametrize("timeout", ["1_0", "nan", "inf", "-1", "1e3", "1" * 400])
def test_bench_rejects_timeout_that_is_not_a_finite_decimal(timeout, capsys):
    # float() takes all of these; nan and inf made every entry fail
    with pytest.raises(SystemExit) as info:
        run("bench", "--manifest", "manifest.csv", "--solver", "true {file}", "--timeout", timeout)
    assert info.value.code == 2
    assert f"not a non-negative decimal: {timeout!r}" in capsys.readouterr().err


@pytest.mark.parametrize("timeout", ["2147484", "2147483.5", "10000000000"])
def test_bench_rejects_timeout_above_the_subprocess_limit(timeout, capsys):
    # subprocess.run raises OverflowError above 2**31 - 1 ms, which failed every entry
    with pytest.raises(SystemExit) as info:
        run("bench", "--manifest", "manifest.csv", "--solver", "true {file}", "--timeout", timeout)
    assert info.value.code == 2
    assert f"more than 2147483 seconds: {timeout!r}" in capsys.readouterr().err


def test_bench_accepts_the_largest_timeout(tmp_path):
    out_dir = tmp_path / "corpus"
    run("gen", "--graph", "path:2", "--fn", "none", "--out-dir", str(out_dir))
    bench_out = tmp_path / "bench.csv"
    assert run("bench", "--manifest", str(out_dir / "manifest.csv"),
               "--solver", _fake_solver(tmp_path, 20) + " {file}", "--timeout", "2147483",
               "--out", str(bench_out)) == 0
    assert bench_out.read_text().splitlines()[1].split(",")[1] == "UNSAT"


def test_bench_missing_solver(tmp_path):
    out_dir = tmp_path / "corpus"
    run("gen", "--graph", "path:3", "--fn", "none", "--out-dir", str(out_dir))
    bench_out = tmp_path / "bench.csv"
    assert run("bench", "--manifest", str(out_dir / "manifest.csv"),
               "--solver", "/nonexistent/solver {file}", "--timeout", "5",
               "--out", str(bench_out)) == 1
    assert "spawn-failure" in bench_out.read_text()


def test_bench_rejects_jobs_below_one(tmp_path, capsys):
    out_dir = tmp_path / "corpus"
    run("gen", "--graph", "path:3", "--fn", "none", "--out-dir", str(out_dir))
    argv = ["bench", "--manifest", str(out_dir / "manifest.csv"), "--solver", "true {file}"]
    assert run(*argv, "--jobs", "0") == 1
    assert "--jobs must be at least 1" in capsys.readouterr().err
    # a sign is not a decimal integer: argparse rejects it before the command runs
    with pytest.raises(SystemExit) as info:
        run(*argv, "--jobs", "-1")
    assert info.value.code == 2
    assert "not a decimal integer: '-1'" in capsys.readouterr().err


def test_bench_jobs_keep_manifest_order(tmp_path):
    out_dir = tmp_path / "corpus"
    run("gen", "--graph", "path:3", "--graph", "path:4", "--graph", "path:5", "--fn", "none",
        "--out-dir", str(out_dir))
    solver = _fake_solver(tmp_path, 20)
    bench_out = tmp_path / "bench.csv"
    assert run("bench", "--manifest", str(out_dir / "manifest.csv"),
               "--solver", solver + " {file}", "--jobs", "2", "--out", str(bench_out)) == 0
    paths = [row.split(",")[0] for row in bench_out.read_text().splitlines()[1:]]
    with open(out_dir / "manifest.csv", newline="") as fh:
        assert paths == [row["path"] for row in csv.DictReader(fh)]


def test_budget_env_override(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("PEBLAB_BUDGET", "3")
    assert run("pebble-price", "--graph", "pyramid:2", "--game", "black") == 1
    assert "budget" in capsys.readouterr().err


def test_budget_env_must_be_decimal(monkeypatch, capsys):
    # int() would read 1_000 as 1000
    monkeypatch.setenv("PEBLAB_BUDGET", "1_000")
    assert run("pebble-price", "--graph", "pyramid:2", "--game", "black") == 1
    assert "PEBLAB_BUDGET must be a decimal integer, got '1_000'" in capsys.readouterr().err


def test_minwidth_rejects_negative_cap(tmp_path, capsys):
    base = tmp_path / "peb.cnf"
    run("gen", "--graph", "path:2", "--fn", "none", "--out", str(base))
    with pytest.raises(SystemExit) as info:
        run("minwidth", "--formula", str(base), "--cap", "-1")
    assert info.value.code == 2
    assert "not a decimal integer: '-1'" in capsys.readouterr().err


def test_report_rejects_underscored_range(capsys):
    with pytest.raises(SystemExit) as info:
        run("report", "--family", "path", "--range", "1_0:1_1")
    assert info.value.code == 2
    assert "not a decimal integer: '1_0'" in capsys.readouterr().err

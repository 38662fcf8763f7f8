"""End-to-end benchmark of the peblab CLI pipelines.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from `src/`.

Load model: a closed loop with one client.  A pass runs one workload's
pipeline, each stage a child process (perfbench/stage.py) started only
after the previous one has exited; passes repeat until the next one would
end after --seconds.  The seed sets every child's PYTHONHASHSEED (string
hashing decides set and dict iteration order inside the program); the
inputs are fixed graph families, so every answer can be checked.  A pass
fails on a nonzero exit, a timeout, a tripped memory cap or a failed
output check.

--trace 0 reports the end-to-end metrics, --trace 1 alternates plain and
traced passes and reports the per-module metrics.  End-to-end times are
scaled to a reference CPU speed (see PROBE_REF_S).  The last line of
standard output is the result as JSON; a fuller record with provenance
and per-stage digests goes to perfbench/out/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from stage import MEMORY_CAP_EXIT, sink_of

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORK = OUT / "work"
LOGS = OUT / "logs"
REFS = OUT / "ref"
PINS = json.loads((HERE / "pins.json").read_text())

# Wall cap on every stage child (stage.py sets the memory cap).  The
# slowest stage takes 3.5 s at the seed, so it does not trip on working code.
STAGE_TIMEOUT_S = 60
RUN_LIMIT_S = 165  # no stage may run past this point of a run
# The CPUs of a shared VM drift: on a 2-vCPU Xeon VM each vCPU's speed
# moved by up to 1.5x over seconds to minutes, the two independently.  So
# the runner and its children are pinned to one CPU, and while a stage
# child runs the runner times probe_s() on it every PROBE_INTERVAL_S (about
# 3% of the CPU).  A stage's `ref_s` is its wall time times PROBE_REF_S
# over the mean probe time: its time on a CPU where the probe takes 1 ms.
PROBE_INTERVAL_S = 0.05
PROBE_REF_S = 0.001
SETUP_BATCH = 3  # no-work children per plain round
NO_WORK = ("graph", "--family", "path:1")

FN = "xor:2"
ARITY = 2


class PassFailed(Exception):
    pass


@dataclass
class StageRun:
    argv: list
    exit: int  # exit code, or minus the signal that ended the child
    wall_s: float
    ref_s: float  # wall_s at the reference CPU speed, see PROBE_REF_S
    cpu_s: float
    rss_mb: float
    stdout: str
    stderr: str
    main_s: float = 0.0  # traced only: time inside the stage's entry function
    totals: dict = field(default_factory=dict)  # traced only: tracer.py totals


def describe_exit(code: int) -> str:
    if code == -signal.SIGALRM:
        return "timeout"
    if code == -signal.SIGKILL:
        return "killed (backstop timeout, or out of memory)"
    if code == MEMORY_CAP_EXIT:
        return "memory cap"
    return f"exit {code}"


def probe_s() -> float:
    """CPU time of a fixed pure-Python loop doing the set, dict and
    frozenset work the program does: the speed of this CPU right now.  CPU
    time, not wall time, so that the stage child running between probes
    does not count."""
    start = time.thread_time()
    seen = {}
    for i in range(2000):
        k = i * 7919 % 4099
        clause = frozenset((k, -k - 1, k + 2))
        seen[clause] = seen.get(clause, 0) + 1
    return time.thread_time() - start


class Runner:
    """Starts capped stage children one at a time and waits for each."""

    def __init__(self, seed: int, deadline: float):
        self.deadline = deadline
        self.env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "PEBLAB_BUDGET")}
        self.env["PYTHONHASHSEED"] = str(seed % 2**32)
        self.argvs: list[list[str]] = []

    def launch(self, argv, cwd: Path, traced: bool = False) -> StageRun:
        timeout = min(STAGE_TIMEOUT_S, int(self.deadline - time.monotonic()))
        if timeout < 1:
            raise PassFailed(f"{argv[0]}: run time limit reached before the stage started")
        trace_file = LOGS / "trace.json"
        trace_file.unlink(missing_ok=True)
        cmd = [sys.executable, str(HERE / "stage.py"), "--timeout", str(timeout)]
        if traced:
            cmd += ["--trace", str(trace_file)]
        cmd += ["--", *argv]
        if list(argv) not in self.argvs:
            self.argvs.append(list(argv))
        with open(LOGS / "stdout", "wb") as out, open(LOGS / "stderr", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=cwd, env=self.env, stdout=out, stderr=err)
            pidfd = os.pidfd_open(proc.pid)
            probes = []
            try:
                while True:
                    probes.append(probe_s())
                    if select.select([pidfd], [], [], PROBE_INTERVAL_S)[0]:
                        break
                    # The child's own alarm is the timeout; this kill is a backstop.
                    if time.perf_counter() - start > timeout + 10:
                        proc.kill()
                wall = time.perf_counter() - start
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                os.close(pidfd)
        proc.returncode = os.waitstatus_to_exitcode(status)
        run = StageRun(
            argv=list(argv),
            exit=proc.returncode,
            wall_s=wall,
            ref_s=wall * PROBE_REF_S / statistics.mean(probes),
            cpu_s=usage.ru_utime + usage.ru_stime,
            rss_mb=usage.ru_maxrss / 1024,
            stdout=(LOGS / "stdout").read_text(errors="replace"),
            stderr=(LOGS / "stderr").read_text(errors="replace"),
        )
        if traced and run.exit == 0:
            trace = json.loads(trace_file.read_text())
            run.main_s, run.totals = trace["main_s"], trace["totals"]
        return run


class Pass:
    """One run of a workload's pipeline, in a fresh work directory."""

    def __init__(self, runner: Runner, traced: bool):
        self.runner = runner
        self.traced = traced
        self.stages: list[StageRun] = []
        self.error: str | None = None
        self.outputs: dict[str, str] = {}
        shutil.rmtree(WORK, ignore_errors=True)
        WORK.mkdir(parents=True)

    @property
    def wall_s(self) -> float:
        return sum(s.wall_s for s in self.stages)

    @property
    def ref_s(self) -> float:
        return sum(s.ref_s for s in self.stages)

    def stage(self, *argv) -> StageRun:
        run = self.runner.launch(argv, WORK, self.traced)
        self.stages.append(run)
        if run.exit != 0:
            last = (run.stderr.strip().splitlines() or [""])[-1]
            raise PassFailed(f"{argv[0]}: {describe_exit(run.exit)}: {last}")
        n = len(self.stages)
        self.outputs[f"{n}.{argv[0]}.stdout"] = digest(run.stdout.encode())
        self.outputs[f"{n}.{argv[0]}.stderr"] = digest(run.stderr.encode())
        return run

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            raise PassFailed(message)

    def same_as_gen(self, name: str, graph: str, fn: str) -> None:
        self.expect((WORK / name).read_bytes() == reference(graph, fn).read_bytes(),
                    f"{name} is not byte-equal to gen --graph {graph} --fn {fn}")

    def record_files(self) -> None:
        for path in sorted(WORK.iterdir()):
            self.outputs[path.name] = digest(path.read_bytes())


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def reference(graph: str, fn: str) -> Path:
    return REFS / f"{graph}-{fn}.cnf".replace(":", "")


def measures(text: str) -> dict:
    """The measures in the last `ok length=... width=...` line of text."""
    lines = [line for line in text.splitlines() if line.startswith("ok ")]
    if not lines:
        raise PassFailed(f"no measures line in {text!r}")
    return dict((k, int(v)) for k, v in (item.split("=") for item in lines[-1].split()[1:]))


def downloads(trace: Path) -> int:
    return sum(1 for line in trace.read_text().splitlines() if line.split()[:1] == ["d"])


def dimacs_clauses(text: str) -> list[list[tuple[str, bool]]]:
    """Clauses of a DIMACS file with `c var I NAME` lines, as (name, polarity)."""
    names, clauses = {}, []
    for line in text.splitlines():
        tokens = line.split()
        if tokens[:2] == ["c", "var"]:
            names[int(tokens[2])] = tokens[3]
        elif tokens and tokens[0] not in ("c", "p"):
            nums = [int(t) for t in tokens]
            if nums[-1] != 0:
                raise PassFailed(f"unterminated DIMACS clause {line!r}")
            clauses.append([(names[abs(n)], n > 0) for n in nums[:-1]])
    return clauses


# -- workloads ----------------------------------------------------------------
# Each pipeline runs its stages through Pass.stage and checks every output
# against a reference the stage under test did not produce.


def compile_check(p: Pass) -> None:
    built = p.stage("compile", "--graph", "pyramid:8", "--fn", FN,
                    "--out", "proof.trace", "--emit-formula", "target.cnf")
    p.same_as_gen("target.cnf", "pyramid:8", FN)
    checked = p.stage("check", "--formula", "target.cnf", "--proof", "proof.trace")
    p.expect(measures(checked.stdout) == measures(built.stderr), "check measures differ from compile's")


def lift_roundtrip(p: Pass, graph: str, extract: bool) -> None:
    tag = graph.replace(":", "")
    base_cnf, base_proof = f"{tag}-base.cnf", f"{tag}-cs.trace"
    lifted_cnf, lifted_proof = f"{tag}-lifted.cnf", f"{tag}-lifted.trace"
    base = p.stage("const-space", "--graph", graph, "--out", base_proof, "--emit-formula", base_cnf)
    p.same_as_gen(base_cnf, graph, "none")
    lifted = p.stage("lift", "--formula", base_cnf, "--proof", base_proof, "--fn", FN,
                     "--out", lifted_proof, "--emit-formula", lifted_cnf)
    p.same_as_gen(lifted_cnf, graph, FN)
    width = measures(base.stderr)["width"]
    p.expect(measures(lifted.stderr)["width"] <= ARITY * (width + 1),
             f"lifted width exceeds d*(w+1) = {ARITY * (width + 1)}")
    if not extract:
        checked = p.stage("check", "--formula", lifted_cnf, "--proof", lifted_proof)
        p.expect(measures(checked.stdout) == measures(lifted.stderr), "check measures differ from lift's")
        return
    back_cnf, back_proof = f"{tag}-back.cnf", f"{tag}-back.trace"
    back = p.stage("extract", "--formula", lifted_cnf, "--proof", lifted_proof, "--fn", FN,
                   "--out", back_proof, "--emit-formula", back_cnf)
    p.same_as_gen(back_cnf, graph, "none")
    p.expect(downloads(WORK / back_proof) <= downloads(WORK / lifted_proof),
             "extracted proof has more downloads than the lifted one")
    checked = p.stage("check", "--formula", base_cnf, "--proof", back_proof)
    p.expect(measures(checked.stdout) == measures(back.stderr), "check measures differ from extract's")


def substitution_roundtrip(p: Pass) -> None:
    lift_roundtrip(p, "path:9", extract=True)  # projections and memory
    lift_roundtrip(p, "pyramid:4", extract=False)  # wide saturations in lift


def oracles(p: Pass) -> None:
    pinned = PINS["seed_values"]
    # The black pebbling price of pyramid:h is h+2 (Cook 1974).
    height = 5
    black = p.stage("pebble-price", "--graph", f"pyramid:{height}", "--game", "black")
    p.expect(black.stdout.strip() == str(height + 2), f"black price of pyramid:{height} is not h+2 = {height + 2}")
    bw = p.stage("pebble-price", "--graph", "pyramid:4", "--game", "bw")
    p.expect(bw.stdout.strip() == str(pinned["bw_price_pyramid4"]["value"]), "bw price of pyramid:4 changed")

    p.stage("gen", "--graph", "tree:3", "--fn", "or:2", "--out", "tree3-or2.cnf")
    p.same_as_gen("tree3-or2.cnf", "tree:3", "or:2")
    p.stage("sat", "--formula", "tree3-or2.cnf", "--graph", "tree:3", "--fn", "or:2", "--out", "sat.json")
    verdicts = json.loads((WORK / "sat.json").read_text())
    p.expect(verdicts["full"] is None, "tree:3 or:2 reported satisfiable")
    assignment = verdicts["without_sink_block"] or {}
    sink = sink_of("tree:3") + "#"
    kept = [c for c in dimacs_clauses(reference("tree:3", "or:2").read_text())
            if not all(name.startswith(sink) for name, _ in c)]
    p.expect(all(any(assignment.get(name) is pol for name, pol in c) for c in kept),
             "assignment after sink-block deletion does not satisfy every clause")

    p.stage("gen", "--graph", "tree:2", "--fn", "maj:3", "--out", "tree2-maj3.cnf")
    p.same_as_gen("tree2-maj3.cnf", "tree:2", "maj:3")
    width = p.stage("minwidth", "--formula", "tree2-maj3.cnf", "--cap", "8")
    p.expect(width.stdout.strip() == str(pinned["minwidth_tree2_maj3"]["value"]), "minwidth of tree:2 maj:3 changed")

    p.stage("gen", "--graph", "pyramid:3", "--fn", "none", "--out", "pyramid3-none.cnf")
    p.same_as_gen("pyramid3-none.cnf", "pyramid:3", "none")
    space = p.stage("minspace", "--formula", "pyramid3-none.cnf", "--cap", "4")
    p.expect(space.stdout.strip() == str(pinned["minspace_pyramid3"]["value"]), "minspace of pyramid:3 changed")


# name -> (pipeline, gen references its checks compare against)
WORKLOADS = {
    "compile-check": (compile_check, [("pyramid:8", FN)]),
    "substitution-roundtrip": (substitution_roundtrip, [
        ("path:9", "none"), ("path:9", FN), ("pyramid:4", "none"), ("pyramid:4", FN)]),
    "oracles": (oracles, [("tree:3", "or:2"), ("tree:2", "maj:3"), ("pyramid:3", "none")]),
}


# -- measuring ------------------------------------------------------------------


def run_pass(runner: Runner, pipeline, traced: bool) -> Pass:
    p = Pass(runner, traced)
    try:
        pipeline(p)
        p.record_files()
    except PassFailed as exc:
        p.error = str(exc)
    except (OSError, ValueError, KeyError, TypeError) as exc:  # missing or malformed output
        p.error = f"unreadable output: {exc!r}"
    return p


def measure(runner: Runner, pipeline, seconds: int, traced: bool) -> tuple[list[Pass], list[StageRun]]:
    """Rounds of passes for about `seconds`.  A plain round is
    SETUP_BATCH no-work children, timed for `setup_s`, then one pass; a
    traced round is one plain and one traced pass.  Spreading the no-work
    children over the run lets `setup_s` see the same machine as the passes."""
    passes: list[Pass] = []
    setup: list[StageRun] = []
    start = time.monotonic()
    rounds = 0
    while True:
        if traced:
            passes += [run_pass(runner, pipeline, False), run_pass(runner, pipeline, True)]
        else:
            setup += [no_work(runner) for _ in range(SETUP_BATCH)]
            passes.append(run_pass(runner, pipeline, False))
        rounds += 1
        elapsed = time.monotonic() - start
        per_round = elapsed / rounds
        # Stop when another round would more likely end after `seconds`
        # than before it.
        if elapsed + per_round / 2 > seconds or time.monotonic() + per_round > runner.deadline:
            return passes, setup


def check_determinism(passes: list[Pass]) -> None:
    """Every pass of a run must write byte-identical outputs."""
    first = next((p for p in passes if p.error is None), None)
    for p in passes:
        if p.error is None and p.outputs != first.outputs:
            changed = sorted(k for k in p.outputs.keys() | first.outputs.keys()
                             if p.outputs.get(k) != first.outputs.get(k))
            p.error = f"outputs differ from the first pass: {', '.join(changed)}"


def end_to_end(passes: list[Pass], setup: list[StageRun]) -> dict:
    ok = [p for p in passes if p.error is None] or passes
    return {
        "pipeline_s": statistics.median(p.ref_s for p in ok),
        "peak_rss_mb": max(s.rss_mb for p in passes for s in p.stages),
        "setup_s": statistics.median(s.ref_s for s in setup),
        # as measured, not scaled to the reference speed; recorded only
        "pipeline_wall_s": statistics.median(p.wall_s for p in ok),
        "setup_wall_s": statistics.median(s.wall_s for s in setup),
    }


def per_layer(passes: list[Pass]) -> dict:
    traced = [p for p in passes if p.traced and p.error is None]
    plain = [p for p in passes if not p.traced and p.error is None]
    samples = []
    for p in traced:
        m = defaultdict(float)
        for s in p.stages:
            m["cli.startup_s"] += s.wall_s - s.main_s
            m["cli.wait_s"] += s.wall_s - s.cpu_s
            rss = f"cli.{s.argv[0]}.peak_rss_mb"
            m[rss] = max(m[rss], s.rss_mb)
            for name, value in s.totals.items():
                m[name] += value
        calls = m["resolution.resolve.calls"]
        m["resolution.resolve.useful_ratio"] = m["resolution.resolve.useful"] / calls if calls else 0.0
        samples.append(m)
    out = {name: statistics.median(m.get(name, 0.0) for m in samples)
           for name in set().union(*samples)} if samples else {}
    if traced and plain:
        out["trace.overhead_ratio"] = (statistics.median(p.ref_s for p in traced)
                                       / statistics.median(p.ref_s for p in plain) - 1)
    return out


def git_revision() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "peblab").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def no_work(runner: Runner) -> StageRun:
    """Wall time of `peblab graph --family path:1`; SystemExit if it fails,
    because then the program cannot run at all."""
    run = runner.launch(NO_WORK, WORK)
    if run.exit != 0 or not run.stdout.startswith("vertices=1 "):
        raise SystemExit(f"error: `peblab {' '.join(NO_WORK)}` failed: {describe_exit(run.exit)}\n{run.stderr}")
    return run


def prepare(runner: Runner, references) -> None:
    """Check that the program runs, fill its bytecode cache and write the
    gen references.  Raises SystemExit if any of that fails."""
    if not (ROOT / "src" / "peblab" / "cli.py").is_file():
        raise SystemExit(f"error: no peblab sources under {ROOT / 'src'}")
    for directory in (LOGS, REFS, WORK):
        shutil.rmtree(directory, ignore_errors=True)
        directory.mkdir(parents=True)
    no_work(runner)
    for graph, fn in references:
        gen = runner.launch(("gen", "--graph", graph, "--fn", fn, "--out", str(reference(graph, fn))), WORK)
        if gen.exit != 0:
            raise SystemExit(f"error: reference gen --graph {graph} --fn {fn} failed: {gen.stderr}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})  # children inherit it
    started = time.monotonic()
    load_before = os.getloadavg()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    pipeline, references = WORKLOADS[args.workload]
    runner = Runner(args.seed, started + RUN_LIMIT_S)

    prepare(runner, references)
    passes, setup = measure(runner, pipeline, args.seconds, bool(args.trace))
    check_determinism(passes)
    values = per_layer(passes) if args.trace else end_to_end(passes, setup)

    failed = sum(p.error is not None for p in passes)
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted}
    good = next((p for p in passes if p.error is None), None)
    outputs = good.outputs if good else {}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": {
            "git_revision": git_revision(),
            "source_sha256": source_digest(),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "pinned_cpu": min(os.sched_getaffinity(0)),
            "loadavg_before": load_before,
            "loadavg_after": os.getloadavg(),
            "pythonhashseed": runner.env["PYTHONHASHSEED"],
            "stage_argv": runner.argvs,
        },
        "fail_ratio": failed / len(passes),
        "metrics": metrics,
        "all_values": values,
        "setup_samples_s": [s.wall_s for s in setup],
        "setup_ref_s": [s.ref_s for s in setup],
        "outputs_sha256": digest(json.dumps(outputs, sort_keys=True).encode()),
        "outputs": outputs,
        "passes": [
            {"traced": p.traced, "wall_s": p.wall_s, "ref_s": p.ref_s, "error": p.error,
             "stages": [{"argv": s.argv, "exit": s.exit, "wall_s": s.wall_s, "cpu_s": s.cpu_s,
                         "ref_s": s.ref_s,
                         "rss_mb": s.rss_mb, "main_s": s.main_s} for s in p.stages]}
            for p in passes
        ],
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    result_file = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_file.write_text(json.dumps(record, indent=1) + "\n")

    for p in passes:
        if p.error:
            print(f"failed pass: {p.error}")
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {len(passes)} passes, {failed} failed, "
          f"fail_ratio={failed / len(passes):.3f}, outputs sha256 {record['outputs_sha256'][:16]}")
    samples = {"pipeline_s": f" (median of {len(passes) - failed} passes)",
               "setup_s": f" (median of {len(setup)} no-work children)"}
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}{samples.get(name, '')}")
    if not args.trace:
        print(f"  as measured, not scaled: pipeline {values['pipeline_wall_s']:.6g} s, "
              f"setup {values['setup_wall_s']:.6g} s")
    print(f"  record: {result_file.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": len(passes), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

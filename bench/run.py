"""Benchmark of the cdranks CLI: end-to-end wall times and per-layer spans.

Run from the repository root::

    python3 bench/run.py --workload analyze --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all

Each workload generates its inputs from ``--seed`` inside ``bench/work/``,
then runs the CLI from ``src/`` in fresh interpreters, one invocation at a
time (a closed loop with one client), for ``--seconds``.  Every output is
checked against oracles computed here with numpy and scipy (``oracle.py``).

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the CLI a
few times for reference outputs, then replays each command in-process
through the package's public functions with spans around every layer call
(``spans.py``) and reports the per-layer metrics.  The last line of stdout
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
Everything else measured, the spans, input and output digests and run
metadata go to ``bench/results/<workload>-seed<n>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import scipy

import gen
import oracle

spans = None  # the traced replica; imported with the package under test only by --trace 1

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
# What the installed ``cdranks`` console script runs.
ENTRY = "import sys; from cdranks.cli import main; sys.exit(main())"
# Runs argv, then prints its wall time, exit code and peak RSS (KiB).
LAUNCHER = """
import os, subprocess, sys, time
start = time.perf_counter()
proc = subprocess.Popen(sys.argv[1:], stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
wall = time.perf_counter() - start
print(repr(wall), os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""

END_TO_END = {"setup_s": "s", "cli_p50_s": "s", "peak_rss_mb": "MB"}
IMPORTS = {
    "import.cdranks_s": "cdranks",
    "import.distributions_s": "cdranks.distributions",
    "import.ranks_s": "cdranks.ranks",
    "import.scipy_stats_s": "scipy.stats",
    "import.scipy_integrate_s": "scipy.integrate",
    "import.scipy_special_s": "scipy.special",
}
PER_LAYER = {
    **{name: "s" for name in IMPORTS},
    "cli.calls_s": "s",
    "cli.json_dump_s": "s",
    "cli.output_bytes": "bytes",
    "cli.residual_s": "s",
    "ranks.average_ranks_us": "us",
    "trace.overhead_s": "s",
}

SETUP_SAMPLES = 3
IMPORTTIME_SAMPLES = 3
REFERENCE_ITERATIONS = 1
REPLAY_TRIALS = 1000
SIM_N, SIM_K, SIM_TRIALS = 31, 8, 10_000
POWER_EFFECT = tuple(j / 10 for j in range(SIM_K))


@dataclass
class Plan:
    """One workload: the CLI invocations of an iteration and how to check them."""

    commands: list  # (command name, argv, output path)
    check: Callable  # list of output bytes -> list of problems
    replica: Callable  # (tracer, list of output paths) -> None
    inputs: dict
    tied_rows: int = 0
    rows: int = 0  # long-CSV records
    sim_seed: "int | None" = None  # set when the iteration runs simulate


def combine(*plans: Plan) -> Plan:
    """One iteration that runs each plan's commands in turn."""
    cuts = [0]
    for p in plans:
        cuts.append(cuts[-1] + len(p.commands))
    parts = list(zip(plans, cuts, cuts[1:]))

    def check(outs):
        return [problem for p, a, b in parts for problem in p.check(outs[a:b])]

    def replica(tr, paths):
        for p, a, b in parts:
            p.replica(tr, paths[a:b])

    return Plan(
        commands=[c for p in plans for c in p.commands],
        check=check, replica=replica,
        inputs={k: v for p in plans for k, v in p.inputs.items()},
        tied_rows=sum(p.tied_rows for p in plans), rows=sum(p.rows for p in plans),
        sim_seed=next((p.sim_seed for p in plans if p.sim_seed is not None), None),
    )


def _write_inputs(work: Path, prefix: str, inp: gen.Inputs) -> tuple:
    csv, man = work / f"{prefix}.csv", work / f"{prefix}-manifest.json"
    csv.write_text(inp.csv, encoding="utf-8")
    man.write_text(inp.manifest, encoding="utf-8")
    return csv, man


def report_small(work: Path, seed: int) -> Plan:
    """31x8 wide CSV through ``analyze --summarize-tag`` then ``diagram``."""
    inp = gen.wide_inputs(seed)
    csv, man = _write_inputs(work, "report-small", inp)
    report, svg = work / "report-small.json", work / "report-small.svg"
    tags = {m[0]: m[2] for m in gen.WIDE_MODELS}

    def check(outs):
        rep, problems = oracle.load_json(outs[0])
        if rep is not None:
            problems += oracle.check_report(rep, inp.matrix, inp.labels, variant="friedman",
                                            alpha=0.05, tags=tags)
            problems += oracle.check_svg(outs[1], rep)
        return [f"report-small: {p}" for p in problems]

    def replica(tr, paths):
        spans.analyze(tr, csv, man, paths[0], long=False, tag=gen.SUMMARIZE_TAG)
        spans.diagram(tr, paths[0], paths[1])

    return Plan(
        commands=[
            ("report-small.analyze", ["analyze", str(csv), "--manifest", str(man),
                                      "--summarize-tag", gen.SUMMARIZE_TAG,
                                      "--out", str(report)], report),
            ("report-small.diagram", ["diagram", str(report), "--out", str(svg)], svg),
        ],
        check=check, replica=replica,
        inputs={f"report-small.{k}": v for k, v in inp.digests().items()},
        tied_rows=oracle.tied_rows(inp.matrix),
    )


def ingest_long(work: Path, seed: int) -> Plan:
    """200k-row long CSV through ``analyze --variant iman-davenport``."""
    inp = gen.long_inputs(seed)
    csv, man = _write_inputs(work, "ingest-long", inp)
    report = work / "ingest-long.json"

    def check(outs):
        rep, problems = oracle.load_json(outs[0])
        if rep is not None:
            problems += oracle.check_report(rep, inp.matrix, inp.labels,
                                            variant="iman_davenport", alpha=0.05)
        return [f"ingest-long: {p}" for p in problems]

    def replica(tr, paths):
        spans.analyze(tr, csv, man, paths[0], long=True, variant="iman_davenport")

    return Plan(
        commands=[("ingest-long.analyze", ["analyze", str(csv), "--manifest", str(man),
                                           "--variant", "iman-davenport",
                                           "--out", str(report)], report)],
        check=check, replica=replica,
        inputs={f"ingest-long.{k}": v for k, v in inp.digests().items()},
        tied_rows=oracle.tied_rows(inp.matrix),
        rows=gen.LONG_DATASETS * gen.LONG_MODELS * gen.LONG_FOLDS,
    )


def simulate_argv(seed: int, effect: tuple, workers: int, out: Path) -> list:
    argv = ["simulate", "--n", str(SIM_N), "--k", str(SIM_K), "--trials", str(SIM_TRIALS),
            "--seed", str(seed), "--workers", str(workers), "--out", str(out)]
    if any(effect):
        argv[1:1] = ["--effect", ",".join(repr(e) for e in effect)]
    return argv


def study(work: Path, seed: int, name: str, effect: tuple, workers: int) -> Plan:
    """One ``simulate`` run of 10k trials, checked against the harness's own Monte Carlo."""
    out = work / f"{name}.json"

    def check(outs):
        doc, problems = oracle.load_json(outs[0])
        if doc is not None:
            problems += oracle.check_simulate(doc, n=SIM_N, k=SIM_K, effect=effect,
                                              trials=SIM_TRIALS, alpha=0.05, seed=seed)
        return [f"{name}: {p}" for p in problems]

    def replica(tr, paths):
        cfg = spans.sim_config(SIM_N, SIM_K, effect, SIM_TRIALS, seed)
        spans.simulate(tr, cfg, workers, paths[0])

    argv = simulate_argv(seed, effect, workers, out)
    return Plan(commands=[(name, argv, out)], check=check, replica=replica,
                inputs={name: argv[:-2]}, sim_seed=seed)


# analyze: an import-bound small report next to an ingest-bound long CSV.
# simulate: the two uses of the Monte Carlo kernel, a null study on one
# worker (no pairwise path, no pool) and a power study on two workers
# (pairwise detection on every trial, trials split over a process pool).
PLANS = {
    "analyze": lambda work, seed: combine(report_small(work, seed), ingest_long(work, seed)),
    "simulate": lambda work, seed: combine(
        study(work, seed, "simulate-null", (0.0,) * SIM_K, 1),
        study(work, seed, "simulate-power", POWER_EFFECT, 2),
    ),
}
WORKLOADS = tuple(PLANS)


@dataclass
class Invocation:
    command: str
    wall: float
    returncode: int
    maxrss_kb: int
    stderr: bytes
    output: "bytes | None"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_cli(command: str, argv: list, out: Path, work: Path, env: dict) -> Invocation:
    """Run one CLI invocation in a fresh interpreter; time it from spawn to exit.

    A small launcher process spawns and times the CLI, because a child's
    peak RSS includes the RSS of the process that forks it, and this
    harness holds the generated inputs and the oracle's arrays.
    """
    if out.exists():
        out.unlink()
    err_path = work / "stderr.txt"
    with open(err_path, "wb") as err:
        proc = subprocess.run([sys.executable, "-I", "-S", "-c", LAUNCHER,
                               sys.executable, "-c", ENTRY, *argv],
                              cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                              stdout=subprocess.PIPE, stderr=err, check=True, text=True)
    wall, returncode, maxrss_kb = proc.stdout.split()
    return Invocation(command, float(wall), int(returncode), int(maxrss_kb),
                      err_path.read_bytes(), out.read_bytes() if out.exists() else None)


def time_import(env: dict) -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import cdranks"], cwd=ROOT, env=env, check=True,
                   stdin=subprocess.DEVNULL)
    return time.perf_counter() - start


def import_times(env: dict) -> dict:
    """Cumulative ``-X importtime`` seconds of each module in :data:`IMPORTS`."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import cdranks"],
                          cwd=ROOT, env=env, check=True, capture_output=True, text=True)
    lines = []  # (nesting depth, module, cumulative seconds)
    for line in proc.stderr.splitlines():
        m = re.match(r"import time:\s*\d+ \|\s*(\d+) \| ( *)(\S+)", line)
        if m:
            lines.append((len(m.group(2)), m.group(3), int(m.group(1)) / 1e6))
    return {name: _cumulative(lines, module) for name, module in IMPORTS.items()}


def _cumulative(lines: list, module: str) -> float:
    """A module's cumulative import time; 0.0 if it was never imported.

    A package imported through scipy's lazy loader gets no line of its own,
    so its time is the sum of its outermost submodules' lines.
    """
    for _, name, seconds in lines:
        if name == module:
            return seconds
    subs = [(depth, seconds) for depth, name, seconds in lines if name.startswith(module + ".")]
    top = min((depth for depth, _ in subs), default=None)
    return sum(seconds for depth, seconds in subs if depth == top)


def verify_package(env: dict) -> None:
    """Fail unless a fresh interpreter finds cdranks in this checkout's src/.

    Also compiles the bytecode cache, as installing would, so no timed
    import pays for compilation.
    """
    find = "import importlib.util as u; print(u.find_spec('cdranks').origin)"
    proc = subprocess.run([sys.executable, "-c", find], cwd=ROOT, env=env,
                          capture_output=True, text=True)
    where = proc.stdout.strip()
    if proc.returncode != 0 or Path(where).resolve().parent != SRC / "cdranks":
        raise SystemExit(f"cannot import cdranks from {SRC}: {proc.stderr.strip() or where}")
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC / "cdranks")],
                   cwd=ROOT, env=env, check=True, stdout=subprocess.DEVNULL)


def run_iterations(plan: Plan, work: Path, env: dict, *, seconds: float = 0.0,
                   count: int = 1) -> list:
    """Run whole iterations until ``seconds`` have passed and at least ``count`` ran."""
    deadline = time.perf_counter() + seconds
    iterations = []
    while len(iterations) < count or time.perf_counter() < deadline:
        iterations.append([run_cli(c, argv, out, work, env) for c, argv, out in plan.commands])
    return iterations


def judge(plan: Plan, iterations: list) -> tuple:
    """Check the outputs; return (reference outputs, problems, failed invocations).

    The first iteration's outputs go through the oracle; every later output
    must be byte-identical to them, and no invocation may write to stderr.
    """
    reference = [inv.output for inv in iterations[0]]
    broken = [inv for inv in iterations[0] if inv.returncode != 0 or inv.output is None]
    if broken:
        wrong = [f"{broken[0].command} failed (exit {broken[0].returncode}): "
                 f"{broken[0].stderr[-500:]!r}"]
    else:
        wrong = plan.check(reference)
    problems = set()
    failed = 0
    for it in iterations:
        for inv, ref in zip(it, reference):
            if inv.stderr:
                problems.add(f"{inv.command} wrote to stderr: {inv.stderr[-300:]!r}")
            if inv.output != ref:
                problems.add(f"{inv.command} output differs on repeat")
            failed += bool(wrong or inv.returncode != 0 or inv.stderr or inv.output != ref)
    return reference, wrong + sorted(problems), failed


def tail(samples: list) -> "dict | None":
    """The highest listed percentile with at least ten samples above it."""
    xs = sorted(samples)
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if len(xs) * (1 - pct / 100) >= 10:
            return {"percentile": pct, "value": xs[int(len(xs) * pct / 100) - 1],
                    "samples": len(xs)}
    return None


def cli_details(plan: Plan, iterations: list) -> dict:
    details = {"iterations": len(iterations)}
    for c, _, _ in plan.commands:
        walls = [inv.wall for it in iterations for inv in it if inv.command == c]
        details[f"{c}_p50_s"] = statistics.median(walls)
        details[f"{c}_samples"] = len(walls)
        details[f"{c}_tail_s"] = tail(walls)
        if c.startswith("simulate"):
            details[f"{c}_trials_per_s"] = SIM_TRIALS / details[f"{c}_p50_s"]
    return details


def untraced(plan: Plan, work: Path, env: dict, seconds: float, setup: list) -> dict:
    iterations = run_iterations(plan, work, env, seconds=seconds)
    reference, problems, failed = judge(plan, iterations)
    attempted = sum(len(it) for it in iterations)
    metrics = {
        "setup_s": statistics.median(setup),
        "cli_p50_s": statistics.median(sum(inv.wall for inv in it) for it in iterations),
        "peak_rss_mb": max(inv.maxrss_kb for it in iterations for inv in it) / 1024.0,
    }
    details = cli_details(plan, iterations)
    details["error_rate"] = failed / attempted
    return {
        "attempted": attempted, "failed": failed, "problems": problems, "metrics": metrics,
        "details": details,
        "outputs_sha256": [gen.sha256(o) if o is not None else None for o in reference],
    }


def traced(plan: Plan, work: Path, env: dict, seconds: float, setup: list) -> dict:
    imports = [import_times(env) for _ in range(IMPORTTIME_SAMPLES)]
    iterations = run_iterations(plan, work, env, count=REFERENCE_ITERATIONS)
    reference, problems, failed = judge(plan, iterations)
    attempted = sum(len(it) for it in iterations)
    cli_p50 = statistics.median(sum(inv.wall for inv in it) for it in iterations)

    paths = [work / f"replica-{out.name}" for _, _, out in plan.commands]
    tracer = spans.Tracer()
    walls = {True: [], False: []}
    deadline = time.perf_counter() + seconds
    i = 0
    while i < 2 or time.perf_counter() < deadline:
        # Alternate which mode runs first, so drift hits both alike.
        for on in ((True, False) if i % 2 == 0 else (False, True)):
            tracer.run_id = i
            start = time.perf_counter()
            plan.replica(tracer if on else spans.NullTracer(), paths)
            walls[on].append(time.perf_counter() - start)
            attempted += 1
            if [p.read_bytes() for p in paths] != reference:
                failed += 1
                if "replica" not in " ".join(problems):
                    problems.append("in-process replica output differs from the CLI output")
        i += 1

    recorded = tracer.spans
    durations = [s.end - s.start for s in recorded]
    by_name = spans.per_run(recorded, durations, key=lambda s: s.name)
    by_layer = spans.per_run(recorded, spans.self_times(recorded), key=lambda s: s.layer)
    calls = spans.per_run([s for s in recorded if s.parent is None],
                          [d for s, d in zip(recorded, durations) if s.parent is None],
                          key=lambda s: "root")["root"]
    setup_s = statistics.median(setup)
    details = {f"{name}_s": v for name, v in sorted(by_name.items())}
    details.update({f"self.{layer}_s": v for layer, v in sorted(by_layer.items())})
    details.update(cli_details(plan, iterations))
    details["replica_iterations"] = i
    details["ranks.tied_rows"] = plan.tied_rows

    avg_ranks_us = 1e6 * by_name.get("ranks.average_ranks", 0.0)
    if plan.sim_seed is not None:
        power = spans.sim_config(SIM_N, SIM_K, POWER_EFFECT, SIM_TRIALS, plan.sim_seed)
        steps = spans.replay_trials(power, REPLAY_TRIALS)
        details.update(steps)
        avg_ranks_us = steps["simulate.average_ranks_us"]
        null_us = sum(v for k, v in steps.items() if k != "simulate.pairwise_significance_us")
        details["simulate.per_trial_share"] = (
            null_us * 1e-6 * SIM_TRIALS / by_name["simulate.estimate_type1"])
        # Trials are keyed by (seed, index), so the worker count must not
        # change a byte of the result.
        serial = work / "replica-serial.json"
        start = time.perf_counter()
        spans.simulate(spans.NullTracer(), power, 1, serial)
        details["simulate.pool_speedup"] = (
            (time.perf_counter() - start) / by_name["simulate.estimate_power"])
        attempted += 1
        names = [c for c, _, _ in plan.commands]
        if serial.read_bytes() != reference[names.index("simulate-power")]:
            failed += 1
            problems.append("simulate-power output changes with workers=1")
    if plan.rows:
        details["ingest.rows"] = plan.rows
        details["ingest.parse_long_csv_rows_per_s"] = plan.rows / by_name["ingest.parse_long_csv"]
        details["ingest.cells"] = gen.LONG_DATASETS * gen.LONG_MODELS
    if "diagram.render_svg" in by_name:
        details["diagram.svg_bytes"] = len(reference[-1])
    details["layer_map"] = layer_map(details, setup_s)

    metrics = {name: statistics.median(s[name] for s in imports) for name in IMPORTS}
    metrics.update({
        "cli.calls_s": calls,
        "cli.json_dump_s": by_name["cli.json_dump"],
        "cli.output_bytes": sum(len(o) for o in reference if o is not None),
        "cli.residual_s": cli_p50 - len(plan.commands) * setup_s - calls,
        "ranks.average_ranks_us": avg_ranks_us,
        "trace.overhead_s": statistics.median(walls[True]) - statistics.median(walls[False]),
    })
    return {
        "attempted": attempted, "failed": failed, "problems": problems, "metrics": metrics,
        "details": details,
        "outputs_sha256": [gen.sha256(o) if o is not None else None for o in reference],
        "spans": tracer.dump(),
    }


def layer_map(d: dict, setup_s: float) -> dict:
    """The shares that show where a workload's time goes."""
    out = {}
    if "report-small.analyze_p50_s" in d:
        out["setup_share_of_small_analyze"] = setup_s / d["report-small.analyze_p50_s"]
    if "ingest-long.analyze_p50_s" in d:
        ingest = d["ingest.parse_long_csv_s"] + d["ingest.aggregate_folds_s"]
        out["ingest_share_of_long_analyze_beyond_setup"] = (
            ingest / (d["ingest-long.analyze_p50_s"] - setup_s))
    if "simulate.per_trial_share" in d:
        out["per_trial_share_of_estimate"] = d["simulate.per_trial_share"]
    return out


def metadata() -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted(SRC.rglob("*.py")))
    return {
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__, "git_commit": commit,
        "src_lines": src_lines, "setup_samples": SETUP_SAMPLES,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    env = child_env()
    verify_package(env)
    work = BENCH / "work" / f"{name}-seed{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        plan = PLANS[name](work, seed)
        setup = [time_import(env) for _ in range(SETUP_SAMPLES)]
        result = (traced if trace else untraced)(plan, work, env, seconds, setup)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result.update(workload=name, seed=seed, seconds=seconds, trace=int(trace),
                  inputs=plan.inputs, setup_samples_s=setup, metadata=metadata())
    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    path = results / f"{name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")

    units = PER_LAYER if trace else END_TO_END
    for metric, value in result["metrics"].items():
        print(f"{name}  {metric} = {value:.6g} {units[metric]}")
    for key, value in result["details"].items():
        if isinstance(value, (int, float)):
            print(f"{name}  detail {key} = {value:.6g}")
    for problem in result["problems"]:
        print(f"{name}  CHECK FAILED: {problem}")
    print(f"{name}  details in {path.relative_to(ROOT)}")
    return result


def main(argv: "list | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (SRC / "cdranks" / "__init__.py").is_file():
        print(f"error: no cdranks package under {SRC}", file=sys.stderr)
        return 2
    if args.trace:
        global spans
        sys.path.insert(0, str(SRC))
        import spans as spans_module

        spans = spans_module
    for name in WORKLOADS if args.workload == "all" else (args.workload,):
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        units = PER_LAYER if args.trace else END_TO_END
        print(json.dumps({
            "correct": not result["problems"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {m: {"value": v, "unit": units[m]} for m, v in result["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

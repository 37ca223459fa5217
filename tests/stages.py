"""Milliseconds and traced memory per stage of one ``cdranks`` command.

Not a test module; run it from the repository root:

    PYTHONPATH=src python3 tests/stages.py --seed 5 --repeats 5 analyze
    PYTHONPATH=src python3 tests/stages.py simulate --n 31 --k 8 --trials 10000 [--effect 0.5,0.3,0,0,0,0,0,0]

Each command runs in-process through ``cli.main`` with the ``STAGES`` functions
wrapped where it looks them up.  ``analyze`` reads a seeded long CSV shaped like
the benchmark's (by default 1000 datasets x 20 models x 10 folds; odd datasets
hold multiples of 1/50, so their rows tie).  ``simulate`` keeps one worker: the
serial ``_run_trials`` loop.  After a warm-up, one untimed run under tracemalloc
gives each stage's traced kB on entry to and exit from its last call and its
peak over all calls; for ``analyze``, the parse's exit over its entry is the
fold table's bytes per (dataset, model) cell.  The timer is ``bench/spans.py``'s
tracer: a stage's ms is the median over ``--repeats`` runs of its summed self
time; ``rest_ms`` and ``total_ms`` are the self time and duration of each run's span.

The import stage is measured out of process, in fresh interpreters launched as the
benchmark launches the CLI: ``interpreter_*`` is a bare one, ``import_*`` one that
imports exactly the ``import_modules`` modules the command loads, in the order it
loads them, and ``cli_*`` one that runs the command.  Each ``*_ms`` is the median
wall time from spawn to exit and each ``*_rss_mb`` the median peak RSS.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import random
import statistics
import subprocess
import sys
import tempfile
import tracemalloc
from contextlib import contextmanager
from operator import attrgetter
from pathlib import Path

from cdranks import cli, ingest, ranks, simulate

_spec = importlib.util.spec_from_file_location("bench_spans", Path(__file__).parents[1] / "bench" / "spans.py")
spans = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = spans  # its dataclasses look their module up by name
_spec.loader.exec_module(spans)

# command -> {stage function: the module the command looks it up in}
STAGES = {
    "analyze": {"_detect_format": ingest, "parse_long_csv": ingest, "aggregate_folds": ingest,
                "average_ranks": ranks},
    "simulate": {"_draw": simulate, "doubled_midranks": simulate, "_doubled_rank_sums": simulate},
}
COMMAND = "cli.main"  # the span around each run
SRC = Path(cli.__file__).parents[1]  # the cdranks measured, for the fresh interpreters
# Runs argv, then prints its wall time, exit code and peak RSS (KiB), as bench/run.py's launcher does.
LAUNCHER = """
import os, subprocess, sys, time
start = time.perf_counter()
proc = subprocess.Popen(sys.argv[1:], stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
print(repr(time.perf_counter() - start), os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""
# Imports the modules named in argv in order; an extension may register one that no import
# finds by name (Cython's cython_runtime), so each need only be loaded once all have run.
IMPORTER = """
import importlib, sys
for name in sys.argv[1:]:
    try:
        importlib.import_module(name)
    except ImportError:
        pass
if not set(sys.argv[1:]) <= set(sys.modules):
    raise SystemExit(f"not loaded: {sorted(set(sys.argv[1:]) - set(sys.modules))}")
"""


def write_inputs(folder: Path, n: int, k: int, folds: int, seed: int) -> list:
    """Write the long CSV and its manifest into ``folder``; return the ``analyze`` argv."""
    rng = random.Random(seed)
    lines = ["dataset,model,fold,value"]
    for i in range(n):
        for j in range(k):
            for q in range(folds):
                value = rng.gauss(0.70 + 0.004 * j, 0.05)
                if i % 2:  # an accuracy on a 50-example test fold
                    value = min(max(round(value * 50), 0), 50) / 50
                lines.append(f"ds_{i + 1:04d},model_{j + 1:02d},f{q},{value!r}")
    models = [{"label": f"model_{j + 1:02d}"} for j in range(k)]
    manifest = {"metric_name": "accuracy", "direction": "maximize", "models": models}
    (folder / "long.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    (folder / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    return ["analyze", str(folder / "long.csv"), "--manifest", str(folder / "manifest.json"),
            "--out", str(folder / "report.json")]


def _run(argv: list, context) -> None:
    """One ``cli.main(argv)`` with each stage call run inside ``context(name)``; raises if it fails."""
    stages = STAGES[argv[0]]
    originals = {name: getattr(module, name) for name, module in stages.items()}

    def wrap(name, fn):
        def wrapper(*args, **kwargs):
            with context(name):
                return fn(*args, **kwargs)

        return wrapper

    for name, module in stages.items():
        setattr(module, name, wrap(name, originals[name]))
    try:
        if cli.main(argv) != 0:
            raise RuntimeError(f"{argv[0]} failed: {argv}")
    finally:
        for name, module in stages.items():
            setattr(module, name, originals[name])


def _timed_runs(argv: list, repeats: int) -> dict:
    """Median ms of each stage, ``rest_ms`` and ``total_ms`` over ``repeats`` runs, and calls per stage."""
    tr = spans.Tracer()
    for run in range(repeats):
        tr.run_id = run
        with tr.span(COMMAND):
            _run(argv, tr.span)
    name = attrgetter("name")
    self_ms = spans.per_run(tr.spans, [1e3 * t for t in spans.self_times(tr.spans)], name)
    total_ms = spans.per_run(tr.spans, [1e3 * (s.end - s.start) for s in tr.spans], name)[COMMAND]
    calls = spans.per_run(tr.spans, [1] * len(tr.spans), name)
    report = {f"{stage}_ms": round(self_ms[stage], 3) for stage in STAGES[argv[0]]}
    return report | {"rest_ms": round(self_ms[COMMAND], 3), "total_ms": round(total_ms, 3),
                     "calls": {stage: int(calls[stage]) for stage in STAGES[argv[0]]}}


def _traced_run(argv: list) -> dict:
    """Each stage's traced kB on entry to and exit from its last call and its peak over all calls; the run's peak."""
    memory, peaks = {}, [0]

    def kb(size: int) -> float:
        return round(size / 1024, 1)

    @contextmanager
    def traced(stage):
        entry, peak = tracemalloc.get_traced_memory()
        peaks.append(peak)  # the run's peak so far, before the stage's own is measured
        tracemalloc.reset_peak()
        try:
            yield
        finally:
            exit_, peak = tracemalloc.get_traced_memory()
            peak = max(kb(peak), memory.get(stage, {}).get("peak_kb", 0))
            memory[stage] = {"entry_kb": kb(entry), "exit_kb": kb(exit_), "peak_kb": peak}

    tracemalloc.start()
    try:
        _run(argv, traced)
        peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    return {"memory": memory, "peak_traced_kb": kb(max(peaks))}


def _python(argv: list, launcher: "list | None" = None) -> str:
    """The stdout of ``python argv`` with this package on the path, run from ``launcher`` if given."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([*(launcher or []), sys.executable, *argv], env=env, capture_output=True, text=True,
                          check=True).stdout


def _fresh(argv: list) -> tuple:
    """Wall ms and peak RSS MB of ``python argv``, spawned from a small process as the benchmark does."""
    wall, code, rss_kb = _python(argv, [sys.executable, "-I", "-S", "-c", LAUNCHER]).split()
    if code != "0":
        raise RuntimeError(f"exit {code}: {argv[:3]}")
    return 1e3 * float(wall), int(rss_kb) / 1024


def _import_stage(argv: list, repeats: int) -> dict:
    """Fresh interpreters: a bare one, one that imports what ``argv`` loads, and one that runs ``argv``."""
    bare = set(_python(["-c", "import sys; print(*sys.modules)"]).split())
    listed = _python(["-c", "import sys; from cdranks.cli import main; main(sys.argv[1:]); print(*sys.modules)", *argv])
    modules = [name for name in listed.split() if name not in bare]
    runs = {"interpreter": ["-c", "pass"], "import": ["-c", IMPORTER, *modules],
            "cli": ["-c", "import sys; from cdranks.cli import main; sys.exit(main())", *argv]}
    samples = {stage: [] for stage in runs}
    for _ in range(repeats):  # interleaved, so a drifting host sways each stage alike
        for stage, command in runs.items():
            samples[stage].append(_fresh(command))
    report = {"import_modules": len(modules)}
    for stage, pairs in samples.items():
        report[f"{stage}_ms"] = round(statistics.median(ms for ms, _ in pairs), 1)
        report[f"{stage}_rss_mb"] = round(statistics.median(mb for _, mb in pairs), 2)
    return report


def stage_report(args: argparse.Namespace) -> dict:
    """The stage times and traced memory of one command, after the options that shaped it."""
    report = vars(args).copy()
    with tempfile.TemporaryDirectory() as tmp:
        if args.command == "analyze":
            argv = write_inputs(Path(tmp), args.datasets, args.models, args.folds, args.seed)
            report |= {"rows": args.datasets * args.models * args.folds, "csv_bytes": Path(argv[1]).stat().st_size}
        else:
            options = {key: getattr(args, key) for key in ("n", "k", "trials", "seed", "effect")}
            argv = ["simulate", "--out", str(Path(tmp) / "estimate.json")]
            argv += [f"--{key}={value}" for key, value in options.items() if value is not None]
        _run(argv, spans.NullTracer().span)  # warm up: lazy imports and first-call costs are not stages
        report |= _traced_run(argv) | _timed_runs(argv, args.repeats)  # first: no timed run's leftovers sway it
        report |= _import_stage(argv, args.repeats)
    if args.command == "analyze":
        parse, cells = report["memory"]["parse_long_csv"], args.datasets * args.models
        report["table_bytes_per_cell"] = round((parse["exit_kb"] - parse["entry_kb"]) * 1024 / cells)
    return report


def main(argv: "list | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeats", type=int, default=5, help="timed runs (default: 5)")
    sub = parser.add_subparsers(dest="command", required=True)
    analyze = sub.add_parser("analyze", help="a seeded long CSV through analyze")
    for flag, default in (("--datasets", 1000), ("--models", 20), ("--folds", 10)):
        analyze.add_argument(flag, type=int, default=default)
    sim = sub.add_parser("simulate", help="a study on one worker")
    for flag, meaning in (("--n", "datasets per trial"), ("--k", "models per trial"), ("--trials", "trials")):
        sim.add_argument(flag, type=int, required=True, help=meaning)
    sim.add_argument("--effect", metavar="E1,E2,...", help="per-model mean offsets (default: zeros, a null study)")
    print(json.dumps(stage_report(parser.parse_args(argv))))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

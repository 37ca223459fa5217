"""Milliseconds and traced memory per stage of a long-CSV ``analyze``.

Not a test module; run it from the repository root:

    PYTHONPATH=src python3 tests/ingest_stages.py
    PYTHONPATH=src python3 tests/ingest_stages.py --datasets 100 --repeats 3

It writes a seeded long CSV shaped like the benchmark's (by default 1000
datasets x 20 models x 10 folds; odd datasets hold multiples of 1/50, so
their rows carry ties) and runs ``cdranks analyze`` on it through
``cli.main``, with timers around the stage functions the command calls:
``ingest._detect_format`` (opening the CSV and reading its first chunk for
the header), ``ingest.parse_long_csv`` (reading and decoding the CSV as its
rows are parsed), ``ingest.aggregate_folds`` and ``ranks.average_ranks``.
Reading the manifest comes before the first stage and is not timed.  Each
stage's time is the median over ``--repeats`` runs.  One more, untimed run under
tracemalloc gives each stage's traced current memory on entry and on exit
and its traced peak while it runs, and from ``parse_long_csv``'s exit over its
entry, the fold table's traced bytes per (dataset, model) cell.  Prints one JSON
object.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import tempfile
import time
import tracemalloc
from pathlib import Path

from cdranks import cli, ingest, ranks

# stage name -> the module whose attribute the CLI calls it through
STAGES = {"_detect_format": ingest, "parse_long_csv": ingest, "aggregate_folds": ingest, "average_ranks": ranks}


def write_inputs(folder: Path, n: int, k: int, folds: int, seed: int) -> list:
    """Write the long CSV and its manifest into ``folder``; return the ``analyze`` argv."""
    rng = random.Random(seed)
    lines = ["dataset,model,fold,value"]
    for i in range(n):
        for j in range(k):
            mean = 0.70 + 0.004 * j
            for q in range(folds):
                value = rng.gauss(mean, 0.05)
                if i % 2:  # an accuracy on a 50-example test fold
                    value = min(max(round(value * 50), 0), 50) / 50
                lines.append(f"ds_{i + 1:04d},model_{j + 1:02d},f{q},{value!r}")
    models = [{"label": f"model_{j + 1:02d}"} for j in range(k)]
    manifest = {"metric_name": "accuracy", "direction": "maximize", "models": models}
    (folder / "long.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    (folder / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    return ["analyze", str(folder / "long.csv"), "--manifest", str(folder / "manifest.json"),
            "--out", str(folder / "report.json")]


def _run(argv: list, wrap) -> None:
    """One ``cli.main(argv)`` with each stage function replaced by ``wrap(stage, fn)``."""
    originals = {name: getattr(module, name) for name, module in STAGES.items()}
    for name, module in STAGES.items():
        setattr(module, name, wrap(name, originals[name]))
    try:
        if cli.main(argv) != 0:
            raise RuntimeError(f"analyze failed: {argv}")
    finally:
        for name, module in STAGES.items():
            setattr(module, name, originals[name])


def _timed_run(argv: list) -> dict:
    """{stage_ms: ms} for one run, plus total_ms."""
    spent = dict.fromkeys(STAGES, 0.0)

    def timed(stage, fn):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spent[stage] += time.perf_counter() - start

        return wrapper

    start = time.perf_counter()
    _run(argv, timed)
    total = time.perf_counter() - start
    ms = {f"{stage}_ms": 1e3 * s for stage, s in spent.items()}
    ms["total_ms"] = 1e3 * total
    return ms


def _traced_run(argv: list) -> dict:
    """Each stage's traced current memory on entry and exit and its peak, in kB (last call)."""
    memory = {}

    def traced(stage, fn):
        def wrapper(*args, **kwargs):
            entry = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            try:
                return fn(*args, **kwargs)
            finally:
                exit_, peak = tracemalloc.get_traced_memory()
                memory[stage] = {"entry_kb": round(entry / 1024, 1),
                                 "exit_kb": round(exit_ / 1024, 1),
                                 "peak_kb": round(peak / 1024, 1)}

        return wrapper

    tracemalloc.start()
    try:
        _run(argv, traced)
    finally:
        tracemalloc.stop()
    return memory


def stage_report(n: int, k: int, folds: int, seed: int, repeats: int) -> dict:
    """Median stage times over ``repeats`` runs and the traced memory at each stage boundary."""
    with tempfile.TemporaryDirectory() as tmp:
        argv = write_inputs(Path(tmp), n, k, folds, seed)
        csv_bytes = Path(argv[1]).stat().st_size
        _run(argv, lambda stage, fn: fn)  # warm up: lazy imports are not stages
        runs = [_timed_run(argv) for _ in range(repeats)]
        memory = _traced_run(argv)
    report = {"datasets": n, "models": k, "folds": folds, "rows": n * k * folds,
              "csv_bytes": csv_bytes, "repeats": repeats}
    for key in runs[0]:
        report[key] = round(statistics.median(ms[key] for ms in runs), 3)
    report["memory"] = memory
    parse = memory["parse_long_csv"]
    report["table_bytes_per_cell"] = round((parse["exit_kb"] - parse["entry_kb"]) * 1024 / (n * k))
    return report


def main(argv: "list | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--datasets", type=int, default=1000)
    parser.add_argument("--models", type=int, default=20)
    parser.add_argument("--folds", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeats", type=int, default=5, help="timed runs (default: 5)")
    args = parser.parse_args(argv)
    print(json.dumps(stage_report(args.datasets, args.models, args.folds, args.seed, args.repeats)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

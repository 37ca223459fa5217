"""Milliseconds per stage of the simulate kernel, and its traced peak.

Not a test module; run it from the repository root:

    PYTHONPATH=src python3 tests/kernel_stages.py --n 31 --k 8 --trials 10000
    PYTHONPATH=src python3 tests/kernel_stages.py --n 31 --k 8 --trials 10000 \\
        --effect 0.5,0.4,0.3,0.2,0.1,0,0,0

It runs the serial study path, ``simulate._run_trials(cfg, 1, cd)`` with the
CD from ``nemenyi_cd`` under an effect, as a 1-worker CLI run does, with
timers around the kernel's own stage functions: draw (``_draw``), rank
(``doubled_midranks``) and int checks (``_doubled_rank_sums``).  The
statistic stage is the rest: the study's setup (its threshold and, under an
effect, its CD, each solved once) and, in the chunk loop, the finite check,
the sign flip, the sums of T^2 against the threshold and, under an effect,
the pair hits.  Each stage is the median over
``--repeats`` runs.  The traced peak comes from one more, untimed run under
tracemalloc.  Prints one JSON object.
"""

from __future__ import annotations

import argparse
import json
import statistics
import time
import tracemalloc

from cdranks import nemenyi_cd, simulate
from cdranks.simulate import SimConfig, _run_trials

# stage name -> the simulate function it times
STAGES = {"draw_ms": "_draw", "rank_ms": "doubled_midranks", "int_checks_ms": "_doubled_rank_sums"}


def _run_study(cfg: SimConfig) -> tuple:
    """The serial study path: (rejections, pair hits), with the CD solved first under an effect."""
    cd = None if cfg.is_null else nemenyi_cd(cfg.n_models, cfg.n_datasets, cfg.alpha)
    return _run_trials(cfg, 1, cd)


def _timed_run(cfg: SimConfig) -> tuple:
    """One serial run of ``cfg``: ({stage: ms}, chunk count, rejections)."""
    spent = dict.fromkeys(STAGES, 0.0)
    calls = dict.fromkeys(STAGES, 0)
    originals = {name: getattr(simulate, name) for name in STAGES.values()}

    def timed(stage, fn):
        def wrapper(*args):
            start = time.perf_counter()
            try:
                return fn(*args)
            finally:
                spent[stage] += time.perf_counter() - start
                calls[stage] += 1

        return wrapper

    for stage, name in STAGES.items():
        setattr(simulate, name, timed(stage, originals[name]))
    try:
        start = time.perf_counter()
        rejections, _ = _run_study(cfg)
        total = time.perf_counter() - start
    finally:
        for name, fn in originals.items():
            setattr(simulate, name, fn)
    ms = {stage: 1e3 * s for stage, s in spent.items()}
    ms["statistic_ms"] = 1e3 * total - sum(ms.values())
    ms["total_ms"] = 1e3 * total
    return ms, calls["draw_ms"], rejections


def stage_report(cfg: SimConfig, repeats: int) -> dict:
    """Median stage times over ``repeats`` runs of ``cfg``, the chunk count and the traced peak."""
    _run_study(cfg)  # warm up: lazy imports and first-call costs are not stages
    runs = [_timed_run(cfg) for _ in range(repeats)]
    tracemalloc.start()
    try:
        _run_study(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    report = {"n": cfg.n_datasets, "k": cfg.n_models, "trials": cfg.trials,
              "null": cfg.is_null, "repeats": repeats, "chunks": runs[0][1],
              "rejections": runs[0][2]}
    for stage in runs[0][0]:
        report[stage] = round(statistics.median(ms[stage] for ms, _, _ in runs), 3)
    report["peak_traced_kb"] = round(peak / 1024, 1)
    return report


def main(argv: "list | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, required=True, help="datasets per trial")
    parser.add_argument("--k", type=int, required=True, help="models per trial")
    parser.add_argument("--trials", type=int, required=True)
    parser.add_argument("--effect", default=None, metavar="E1,E2,...",
                        help="per-model mean offsets (default: all zeros, a null study)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeats", type=int, default=5, help="timed runs (default: 5)")
    args = parser.parse_args(argv)
    effect = [0.0] * args.k if args.effect is None else [float(e) for e in args.effect.split(",")]
    cfg = SimConfig(n_datasets=args.n, n_models=args.k, effect=effect, noise_sd=1.0,
                    trials=args.trials, seed=args.seed)
    print(json.dumps(stage_report(cfg, args.repeats)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

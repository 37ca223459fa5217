"""The benchmark's in-process replicas write what the CLI writes, on the same inputs.

``bench/run.py --trace 1`` times each command through ``bench/spans.py``, which
calls the package's public functions in the CLI's order.  A change to what one
of those functions accepts would break the replicas while every CLI test still
passes, so each replica runs here once, untraced, and its output is held byte
for byte to ``cli.main``'s.
"""

import csv
import importlib.util
import io
import json
import math
import sys
from pathlib import Path

import pytest

from cdranks.cli import main

_spec = importlib.util.spec_from_file_location(
    "bench_spans", Path(__file__).parents[1] / "bench" / "spans.py"
)
spans = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = spans  # its dataclasses look their module up by name
_spec.loader.exec_module(spans)

FIXTURES = Path(__file__).parent / "fixtures"
RESULTS = FIXTURES / "results_31x8.csv"
MANIFEST = FIXTURES / "manifest_31x8.json"
TRIALS = 300
POWER_EFFECT = (0.0, 0.2, 0.4, 0.6, 0.8)


def _cli(*argv):
    assert main([str(a) for a in argv]) == 0


def _long_csv(path: Path) -> None:
    """The 31 x 8 fixture as a complete long CSV: two folds per cell whose mean is the wide value."""
    rows = list(csv.reader(io.StringIO(RESULTS.read_text(encoding="utf-8"))))
    out = ["dataset,model,fold,value"]
    for dataset, *values in rows[1:]:
        for model, value in zip(rows[0][1:], values):
            v = float(value)
            out += [f"{dataset},{model},0,{v - 0.001!r}", f"{dataset},{model},1,{v + 0.001!r}"]
    path.write_text("\n".join(out) + "\n", encoding="utf-8")


def test_analyze_and_diagram_replicas_write_the_cli_bytes(tmp_path):
    tracer = spans.NullTracer()
    replica, cli = tmp_path / "replica.json", tmp_path / "cli.json"
    spans.analyze(tracer, RESULTS, MANIFEST, replica, long=False, tag="feature_set")
    _cli("analyze", RESULTS, "--manifest", MANIFEST, "--summarize-tag", "feature_set", "--out", cli)
    assert replica.read_bytes() == cli.read_bytes()
    assert "tag_summaries" in json.loads(cli.read_text())

    spans.diagram(tracer, cli, tmp_path / "replica.svg")
    _cli("diagram", cli, "--out", tmp_path / "cli.svg")
    assert (tmp_path / "replica.svg").read_bytes() == (tmp_path / "cli.svg").read_bytes()

    results = tmp_path / "long.csv"
    _long_csv(results)
    spans.analyze(tracer, results, MANIFEST, replica, long=True, variant="iman_davenport")
    _cli("analyze", results, "--manifest", MANIFEST, "--variant", "iman-davenport", "--out", cli)
    assert replica.read_bytes() == cli.read_bytes()
    assert json.loads(cli.read_text())["df2"] == 7 * 30


@pytest.mark.parametrize("effect, workers", [((0.0,) * 5, 1), (POWER_EFFECT, 2)], ids=["null", "power"])
def test_simulate_replica_writes_the_cli_bytes(tmp_path, effect, workers):
    cfg = spans.sim_config(31, 5, effect, TRIALS, 7)
    spans.simulate(spans.NullTracer(), cfg, workers, tmp_path / "replica.json")
    argv = ["simulate", "--n", 31, "--k", 5, "--trials", TRIALS, "--seed", 7, "--workers", workers]
    if any(effect):
        argv += ["--effect", ",".join(map(repr, effect))]
    _cli(*argv, "--out", tmp_path / "cli.json")
    assert (tmp_path / "replica.json").read_bytes() == (tmp_path / "cli.json").read_bytes()


def test_replayed_trials_time_each_step():
    steps = spans.replay_trials(spans.sim_config(31, 5, POWER_EFFECT, TRIALS, 7), 20)
    assert sorted(steps) == [
        "distributions.chi_square_sf_us",
        "simulate.average_ranks_us",
        "simulate.friedman_statistic_us",
        "simulate.generate_matrix_us",
        "simulate.pairwise_significance_us",
    ]
    assert all(math.isfinite(v) and v > 0 for v in steps.values())

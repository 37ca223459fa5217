"""The benchmark's in-process replicas write what the CLI writes, on the same inputs.

``bench/run.py --trace 1`` times each command through ``bench/spans.py``, which
calls the package's public functions in the CLI's order.  A change to what one
of those functions accepts would break the replicas while every CLI test still
passes, so each replica runs here once, untraced, and its output is held byte
for byte to ``cli.main``'s.  ``tests/stages.py``, which times each command's
stages on the same tracer, runs here small on both commands.
"""

import csv
import io
import json
import math
from pathlib import Path

import pytest
import stages
from stages import spans  # bench/spans.py, loaded by path

from cdranks.cli import main

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


STAGE_ARGV = {"analyze": ["--datasets", "1000", "--models", "3", "--folds", "2"],
              "simulate": ["--n", "5", "--k", "3", "--trials", "40"]}


def stage_functions(command):
    return [getattr(module, name) for name, module in stages.STAGES[command].items()]


@pytest.mark.parametrize("command", list(STAGE_ARGV))
def test_stage_tool_times_each_stage_and_restores_it(capsys, monkeypatch, command):
    # reads and slices far smaller than the file, as at the benchmark's size
    monkeypatch.setattr("cdranks.cli._READ_BYTES", 1024)
    monkeypatch.setattr("cdranks.ingest._SLICE_CHARS", 1024)
    originals = stage_functions(command)
    # the median of 2 runs is their mean, so the stage medians add up as each run's times do
    assert stages.main(["--repeats", "2", command, *STAGE_ARGV[command]]) == 0
    report = json.loads(capsys.readouterr().out)
    assert stage_functions(command) == originals
    ms = [report[f"{name}_ms"] for name in stages.STAGES[command]] + [report["rest_ms"]]
    assert all(t >= 0 for t in ms) and sum(ms) == pytest.approx(report["total_ms"], abs=0.01)
    # fresh interpreters: the command's imports add to a bare one's peak
    assert report["import_modules"] > 0 and report["interpreter_rss_mb"] < report["import_rss_mb"], report
    assert all(report[f"{stage}_ms"] > 0 for stage in ("interpreter", "import", "cli")), report
    memory = report["memory"]
    assert set(memory) == set(report["calls"]) == set(stages.STAGES[command])
    assert report["peak_traced_kb"] >= max(m["peak_kb"] for m in memory.values()) > 0
    if command == "simulate":
        assert report["calls"]["_draw"] == 1
        return
    assert report["rows"] == 6000 and report["csv_bytes"] > 0
    # the CSV is never held whole: while it is read and parsed, memory beyond
    # the fold table aggregation starts from stays below the document's size
    parse, table = memory["parse_long_csv"], memory["aggregate_folds"]["entry_kb"]
    assert parse["exit_kb"] <= parse["peak_kb"] < table + report["csv_bytes"] / 1024, report
    # 1000 datasets x 3 models x 2 folds: a list of each cell's dataset beside the table took 178-180 B per cell
    assert 0 < report["table_bytes_per_cell"] <= 175, report


def test_stage_tool_raises_on_a_failed_command_and_restores_the_stages(tmp_path):
    originals = stage_functions("simulate")
    argv = ["simulate", "--n", "5", "--k", "3", "--trials", "40", "--out", str(tmp_path / "no" / "such" / "dir")]
    with pytest.raises(RuntimeError, match="simulate failed"):
        stages._run(argv, spans.Tracer().span)
    assert stage_functions("simulate") == originals

"""Tests of the benchmark itself.  Run from the repository root::

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import gen
import oracle
import run

sys.path.insert(0, str(run.SRC))
import spans  # noqa: E402  (needs the package path above)
from cdranks import cli  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_generators_are_deterministic_for_a_seed():
    for make in (gen.wide_inputs, gen.long_inputs):
        a, b, c = make(7), make(7), make(8)
        assert (a.csv, a.manifest) == (b.csv, b.manifest)
        assert a.digests() == b.digests()
        assert a.csv != c.csv


def test_long_input_mixes_continuous_and_tied_rows():
    inp = gen.long_inputs(3)
    assert inp.csv.count("\n") == 1 + gen.LONG_DATASETS * gen.LONG_MODELS * gen.LONG_FOLDS
    tied = oracle.tied_rows(inp.matrix)
    assert 300 < tied <= gen.LONG_DATASETS // 2
    assert oracle.tied_rows(gen.wide_inputs(3).matrix) == 0


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """A wide input, and the report and diagram the CLI makes from it."""
    work = tmp_path_factory.mktemp("small")
    inp = gen.wide_inputs(5)
    (work / "in.csv").write_text(inp.csv)
    (work / "m.json").write_text(inp.manifest)
    assert cli.main(["analyze", str(work / "in.csv"), "--manifest", str(work / "m.json"),
                     "--summarize-tag", gen.SUMMARIZE_TAG, "--out", str(work / "r.json")]) == 0
    assert cli.main(["diagram", str(work / "r.json"), "--out", str(work / "cd.svg")]) == 0
    tags = {m[0]: m[2] for m in gen.WIDE_MODELS}
    return inp, json.loads((work / "r.json").read_text()), (work / "cd.svg").read_bytes(), tags


def _check(inp, report, tags):
    return oracle.check_report(report, inp.matrix, inp.labels, variant="friedman",
                               alpha=0.05, tags=tags)


def test_oracle_accepts_the_program_report(small_run):
    inp, report, svg, tags = small_run
    assert _check(inp, report, tags) == []
    assert oracle.check_svg(svg, report) == []


def test_oracle_rejects_swapped_ranks(small_run):
    inp, report, _, tags = small_run
    bad = json.loads(json.dumps(report))
    entries = bad["average_ranks"]
    entries[0]["rank"], entries[-1]["rank"] = entries[-1]["rank"], entries[0]["rank"]
    assert any("rank of" in p for p in _check(inp, bad, tags))


@pytest.mark.parametrize("field,scale", [("cd", 1.01), ("statistic", 1.001), ("p_value", 2.0)])
def test_oracle_rejects_a_wrong_number(small_run, field, scale):
    inp, report, _, tags = small_run
    bad = dict(report, **{field: report[field] * scale})
    assert _check(inp, bad, tags) != []


def test_oracle_rejects_wrong_pairs_and_groups(small_run):
    inp, report, _, tags = small_run
    assert _check(inp, dict(report, significant_pairs=report["significant_pairs"][1:]), tags)
    assert _check(inp, dict(report, groups=report["groups"][:-1]), tags)


def test_svg_check_rejects_a_missing_label(small_run):
    _, report, svg, _ = small_run
    label = report["average_ranks"][0]["label"]
    assert oracle.check_svg(svg.replace(label.encode(), b"someone_else"), report) != []


def test_simulate_check_accepts_the_program_and_rejects_a_wrong_rate(tmp_path):
    effect = tuple(j / 10 for j in range(8))
    out = tmp_path / "sim.json"
    args = ["simulate", "--n", "31", "--k", "8", "--trials", "2000", "--seed", "4",
            "--effect", ",".join(map(repr, effect)), "--out", str(out)]
    assert cli.main(args) == 0
    doc = json.loads(out.read_text())
    kw = dict(n=31, k=8, effect=effect, trials=2000, alpha=0.05, seed=4)
    assert oracle.check_simulate(doc, **kw) == []
    doc["omnibus_rate"] = 0.5
    assert oracle.check_simulate(doc, **kw) != []


def test_self_times_subtract_child_spans():
    s = [spans.Span("cli.analyze", 0.0, 10.0, None, 0), spans.Span("ingest.a", 1.0, 4.0, 0, 0),
         spans.Span("ranks.b", 5.0, 6.0, 0, 0)]
    assert spans.self_times(s) == [6.0, 3.0, 1.0]
    assert spans.per_run(s, spans.self_times(s), key=lambda x: x.layer) == {
        "cli": 6.0, "ingest": 3.0, "ranks": 1.0}


def test_names_match_benchmark_json():
    assert tuple(w["name"] for w in SPEC["workloads"]) == run.WORKLOADS
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace,spec_key", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, spec_key):
    proc = subprocess.run(
        [sys.executable, str(run.BENCH / "run.py"), "--workload", "analyze", "--seed", "2",
         "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, check=True, timeout=170,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[spec_key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(np.isfinite(v["value"]) for v in result["metrics"].values())


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("work", "results", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "analyze",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert "no cdranks package" in proc.stderr
    assert "correct" not in proc.stdout

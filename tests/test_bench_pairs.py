"""The pair runner's reader and summariser, on canned bench results files."""

import json

import pytest

import bench_pairs


def _write_results(tree, seed, metrics, outputs, problems=(), failed=0, src_lines=2315):
    """A parent or change tree's bench/results files for one seed, as bench/run.py writes them."""
    folder = tree / "bench" / "results"
    folder.mkdir(parents=True, exist_ok=True)
    for workload in bench_pairs.WORKLOADS:
        result = {
            "attempted": 3, "failed": failed, "problems": list(problems),
            "metrics": dict(zip(bench_pairs.METRICS, metrics[workload])),
            "outputs_sha256": outputs[workload],
            "workload": workload, "seed": seed, "metadata": {"nproc": 2, "src_lines": src_lines},
        }
        (folder / f"{workload}-seed{seed}-trace0.json").write_text(json.dumps(result))


def test_read_side_takes_what_the_summary_needs(tmp_path):
    outputs = {"analyze": ["a1", "a2"], "simulate": ["s1"]}
    metrics = {"analyze": (0.05, 0.6, 24.1), "simulate": (0.07, 0.8, 36.0)}
    _write_results(tmp_path, 7, metrics, outputs, problems=["ingest-long: bad cd"], failed=1)
    side = bench_pairs.read_side(tmp_path, 7)
    assert side["analyze"] == {
        "setup_s": 0.05, "cli_p50_s": 0.6, "peak_rss_mb": 24.1,
        "correct": False, "failed": 1, "outputs_sha256": ["a1", "a2"], "src_lines": 2315,
    }
    assert side["simulate"]["correct"] is False and side["simulate"]["peak_rss_mb"] == 36.0


def test_summary_gives_medians_quartiles_and_lower_counts(tmp_path):
    same = {"analyze": ["a"], "simulate": ["s"]}
    pairs = []
    # analyze peak_rss_mb: parent 1, 2, 4; change 0.5, 3, 3.5, so lower in 2 of 3
    for seed, (parent, change) in enumerate([(1.0, 0.5), (2.0, 3.0), (4.0, 3.5)]):
        parent_tree, change_tree = tmp_path / f"p{seed}", tmp_path / f"c{seed}"
        _write_results(parent_tree, seed, {"analyze": (0.1, 0.5, parent), "simulate": (0.1, 0.5, 36.0)}, same)
        outputs = same if seed else {"analyze": ["other"], "simulate": ["s"]}
        _write_results(change_tree, seed, {"analyze": (0.1, 0.5, change), "simulate": (0.1, 0.5, 36.0)}, outputs)
        pairs.append({"seed": seed, "parent": bench_pairs.read_side(parent_tree, seed),
                      "change": bench_pairs.read_side(change_tree, seed)})
    summary = bench_pairs.summarise(pairs)
    assert summary["analyze"]["peak_rss_mb"] == {
        "parent_median": 2.0, "change_median": 3.0, "parent_q1": 1.5, "parent_q3": 3.0,
        "change_lower_in": 2, "of": 3,
    }
    # equal values are not lower
    assert summary["simulate"]["peak_rss_mb"]["change_lower_in"] == 0
    assert summary["analyze"]["cli_p50_s"]["parent_q1"] == summary["analyze"]["cli_p50_s"]["parent_q3"] == 0.5
    # the first pair's analyze outputs differ
    assert (summary["analyze"]["outputs_equal_in"], summary["simulate"]["outputs_equal_in"]) == (2, 3)
    assert summary["analyze"]["all_correct"] and summary["simulate"]["all_correct"]


def test_one_pair_has_its_value_as_both_quartiles(tmp_path):
    metrics = {"analyze": (0.1, 0.6, 24.0), "simulate": (0.1, 0.8, 36.0)}
    outputs = {"analyze": ["a"], "simulate": ["s"]}
    _write_results(tmp_path / "p", 1, metrics, outputs)
    _write_results(tmp_path / "c", 1, metrics, outputs, failed=1)
    side = {"parent": bench_pairs.read_side(tmp_path / "p", 1), "change": bench_pairs.read_side(tmp_path / "c", 1)}
    summary = bench_pairs.summarise([side])
    assert summary["analyze"]["cli_p50_s"] == pytest.approx(
        {"parent_median": 0.6, "change_median": 0.6, "parent_q1": 0.6, "parent_q3": 0.6, "change_lower_in": 0, "of": 1}
    )
    # a failed operation is no correct run
    assert not summary["analyze"]["all_correct"]

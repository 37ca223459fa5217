"""Acceptance gate: one test per release criterion.

Each test prints its measured values and enforces its own runtime budget,
so `pytest -v` gives one pass/fail line per criterion.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.special import ndtri

from cdranks import (
    SUPPORTED_ALPHAS,
    SUPPORTED_K,
    ModelId,
    PerformanceMatrix,
    SimConfig,
    SmallSampleWarning,
    average_ranks,
    estimate_power,
    estimate_type1,
    friedman_statistic,
    friedman_test,
    indistinguishable_groups,
    nemenyi_cd,
    pairwise_significance,
    q_alpha,
)
from cdranks.cli import main
from studentized_range import studentized_range_quantile

FIXTURES = Path(__file__).parent / "fixtures"


def matrix(values):
    values = np.asarray(values, dtype=float)
    n, k = values.shape
    return PerformanceMatrix(
        datasets=tuple(f"d{i}" for i in range(n)),
        models=tuple(ModelId(f"m{j}") for j in range(k)),
        values=values,
    )


def test_criterion_01_omnibus_hand_values():
    t0 = time.perf_counter()
    consistent = matrix([[3.0, 2.0, 1.0]] * 3)
    with pytest.warns(SmallSampleWarning):
        res = friedman_test(consistent)
    assert res.statistic == 6.0
    assert abs(res.p_value - math.exp(-3.0)) <= 1e-9

    flat = matrix(np.full((3, 3), 0.5))
    with pytest.warns(SmallSampleWarning):
        null = friedman_test(flat)
    assert null.statistic == 0.0
    assert null.p_value == 1.0
    elapsed = time.perf_counter() - t0
    print(
        f"\ncriterion 1: statistic={res.statistic}, |p - e^-3|="
        f"{abs(res.p_value - math.exp(-3.0)):.2e}, constant p={null.p_value} "
        f"[{elapsed:.3f}s]"
    )
    assert elapsed < 1.0


def test_criterion_02_headline_critical_difference():
    t0 = time.perf_counter()
    cd = nemenyi_cd(8, 31, 0.05)
    q_tab = q_alpha(8, 0.05)
    q_oracle = studentized_range_quantile(0.95, 8) / math.sqrt(2.0)
    elapsed = time.perf_counter() - t0
    print(
        f"\ncriterion 2: cd={cd:.6f} (target 1.886 +- 0.001), "
        f"q_table={q_tab:.6f} vs quadrature {q_oracle:.6f} [{elapsed:.3f}s]"
    )
    assert abs(cd - 1.886) <= 0.001
    assert abs(q_tab - 3.031) <= 0.001
    assert abs(q_tab - q_oracle) <= 0.001
    assert elapsed < 1.0


def test_criterion_03_table_against_quadrature_inversion():
    t0 = time.perf_counter()
    worst = 0.0
    checked = 0
    for alpha in SUPPORTED_ALPHAS:
        for k in SUPPORTED_K:
            tabulated = q_alpha(k, alpha)
            inverted = studentized_range_quantile(1.0 - alpha, k) / math.sqrt(2.0)
            worst = max(worst, abs(tabulated - inverted))
            assert abs(tabulated - inverted) <= 1e-3, (alpha, k)
            checked += 1
    # k=2 reduces to a two-sided normal comparison
    for alpha in SUPPORTED_ALPHAS:
        assert abs(q_alpha(2, alpha) - ndtri(1.0 - alpha / 2.0)) <= 1e-3
    elapsed = time.perf_counter() - t0
    print(
        f"\ncriterion 3: {checked} table entries, worst |table - inversion|="
        f"{worst:.2e} [{elapsed:.1f}s]"
    )
    assert elapsed < 30.0


def test_criterion_04_rank_invariances_on_random_matrices():
    t0 = time.perf_counter()
    rng = np.random.default_rng(404)
    n_matrices = 1000
    for _ in range(n_matrices):
        n = int(rng.integers(2, 16))
        k = int(rng.integers(3, 9))
        values = np.round(rng.standard_normal((n, k)) * rng.uniform(0.5, 3.0), 6)
        m = matrix(values)
        base = np.array(average_ranks(m).r)

        # strictly increasing transforms leave every rank untouched
        for transformed in (np.exp(values / 50.0), 2.0 * values + 1.0):
            assert np.array_equal(average_ranks(matrix(transformed)).r, base)

        # relabeling models permutes ranks and the significance matrix alike
        perm = rng.permutation(k)
        permuted = average_ranks(matrix(values[:, perm])).r
        assert np.array_equal(permuted, base[perm])
        assert friedman_statistic(
            average_ranks(matrix(values[:, perm])), n, k
        ) == pytest.approx(friedman_statistic(average_ranks(m), n, k), rel=1e-12)
        cd = float(rng.uniform(0.1, k))
        sig = pairwise_significance(base, cd)
        assert np.array_equal(
            pairwise_significance(base[perm], cd), np.array(sig)[np.ix_(perm, perm)]
        )

        # the rank total is pinned regardless of ties
        assert base.sum() == pytest.approx(k * (k + 1) / 2.0, rel=1e-12)
    elapsed = time.perf_counter() - t0
    print(f"\ncriterion 4: {n_matrices} random matrices, all invariants hold [{elapsed:.1f}s]")
    assert elapsed < 30.0


def brute_force_groups(r, cd):
    """All maximal rank-contiguous runs with spread < cd, by enumeration."""
    k = len(r)
    order = sorted(range(k), key=lambda j: (r[j], j))
    sr = [float(r[j]) for j in order]
    out = []
    for i in range(k):
        for j in range(i, k):
            if sr[j] - sr[i] >= cd:
                continue
            grows_left = i > 0 and sr[j] - sr[i - 1] < cd
            grows_right = j < k - 1 and sr[j + 1] - sr[i] < cd
            if not grows_left and not grows_right:
                out.append(tuple(order[i : j + 1]))
    return out


def test_criterion_05_groups_match_exhaustive_enumeration():
    t0 = time.perf_counter()
    rng = np.random.default_rng(505)
    draws = 0
    for _ in range(1200):
        k = int(rng.integers(2, 7))
        cd = float(rng.uniform(0.1, k))
        style = rng.integers(0, 3)
        if style == 0:
            r = rng.uniform(1.0, k, size=k)
        elif style == 1:
            # quantized ranks: exact ties are common
            r = np.round(rng.uniform(1.0, k, size=k) * 4.0) / 4.0
        else:
            # gaps built from multiples of cd/2, so spreads hit cd exactly
            steps = rng.choice([0.0, cd / 2.0, cd, 1.5 * cd], size=k - 1)
            r = 1.0 + np.concatenate([[0.0], np.cumsum(steps)])
        assert indistinguishable_groups(r, cd) == brute_force_groups(r, cd)
        draws += 1
    elapsed = time.perf_counter() - t0
    print(f"\ncriterion 5: {draws} draws (k <= 6) match enumeration [{elapsed:.1f}s]")
    assert draws >= 1000
    assert elapsed < 30.0


def test_criterion_06_null_rejection_rate_calibrated():
    t0 = time.perf_counter()
    cfg = SimConfig(
        n_datasets=31,
        n_models=8,
        effect=(0.0,) * 8,
        noise_sd=1.0,
        trials=10_000,
        seed=20260815,
        alpha=0.05,
    )
    serial = estimate_type1(cfg, workers=1)
    parallel = estimate_type1(cfg, workers=4)
    elapsed = time.perf_counter() - t0
    print(
        f"\ncriterion 6: rate={serial.rejection_rate:.4f} over {cfg.trials} trials "
        f"(band [0.035, 0.065]), serial == parallel: "
        f"{serial.to_dict() == parallel.to_dict()} [{elapsed:.1f}s]"
    )
    assert 0.035 <= serial.rejection_rate <= 0.065
    assert serial.to_dict() == parallel.to_dict()
    assert elapsed < 120.0


def test_criterion_07_cd_halving_and_power_growth():
    t0 = time.perf_counter()
    for k in (2, 5, 8, 20):
        for n in (5, 31, 200):
            assert nemenyi_cd(k, 4 * n, 0.05) == nemenyi_cd(k, n, 0.05) / 2.0

    effect = (0.5,) + (0.0,) * 7
    small = estimate_power(SimConfig(31, 8, effect, 1.0, 2000, 42, 0.05))
    large = estimate_power(SimConfig(62, 8, effect, 1.0, 2000, 42, 0.05))
    elapsed = time.perf_counter() - t0
    print(
        f"\ncriterion 7: CD(k, 4N) == CD(k, N)/2 exact; power "
        f"{small.omnibus_rate:.3f} @ N=31 -> {large.omnibus_rate:.3f} @ N=62 "
        f"over 2000 trials [{elapsed:.1f}s]"
    )
    assert large.omnibus_rate >= small.omnibus_rate
    assert elapsed < 120.0


def test_criterion_08_pipeline_reproduces_golden_svg(tmp_path, capsys):
    t0 = time.perf_counter()
    report_path = tmp_path / "report.json"
    svg_path = tmp_path / "diagram.svg"

    code = main(
        [
            "analyze",
            str(FIXTURES / "results_31x8.csv"),
            "--manifest",
            str(FIXTURES / "manifest_31x8.json"),
            "--summarize-tag",
            "feature_set",
            "--out",
            str(report_path),
        ]
    )
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["df"] == 7
    assert report["reject_null"] and report["posthoc_licensed"]

    by_tag = {s["tag_value"]: s for s in report["tag_summaries"]}
    click = by_tag["clickstream"]
    assert click["fully_separated"]
    assert click["separated_from"] == ["assignment", "forum", "full"]

    code = main(["diagram", str(report_path), "--out", str(svg_path)])
    assert code == 0
    golden = (FIXTURES / "golden_cd.svg").read_bytes()
    rendered = svg_path.read_bytes()
    elapsed = time.perf_counter() - t0
    print(
        f"\ncriterion 8: df={report['df']}, p={report['p_value']:.2e}, "
        f"clickstream separated from {click['separated_from']}, "
        f"SVG bytes identical: {rendered == golden} [{elapsed:.2f}s]"
    )
    assert rendered == golden
    assert elapsed < 5.0

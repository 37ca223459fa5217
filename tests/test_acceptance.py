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
from scipy.stats import studentized_range

from cdranks import (
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


# The 57 entries of the table that q_alpha replaced, (alpha, k) -> q.  Four
# were one unit off in the 6th decimal and are pinned at their corrected
# values, scipy's quantile rounded to 6 decimals: (0.01, 10) 3.646292,
# (0.01, 15) 3.852654, (0.10, 4) 2.291341 and (0.10, 13) 3.076733.
TABLE = {
    **{(0.01, k): q for k, q in enumerate((
        2.575829, 2.913494, 3.113250, 3.254686, 3.363740, 3.452213, 3.526471, 3.590339,
        3.646292, 3.696021, 3.740733, 3.781318, 3.818451, 3.852654, 3.884343, 3.913850,
        3.941446, 3.967357, 3.991770), start=2)},
    **{(0.05, k): q for k, q in enumerate((
        1.959964, 2.343701, 2.569032, 2.727774, 2.849705, 2.948320, 3.030878, 3.101730,
        3.163684, 3.218654, 3.268004, 3.312739, 3.353618, 3.391230, 3.426041, 3.458425,
        3.488685, 3.517073, 3.543799), start=2)},
    **{(0.10, k): q for k, q in enumerate((
        1.644854, 2.052293, 2.291341, 2.459516, 2.588521, 2.692732, 2.779884, 2.854606,
        2.919889, 2.977768, 3.029694, 3.076733, 3.119693, 3.159199, 3.195743, 3.229723,
        3.261461, 3.291224, 3.319233), start=2)},
}
GRID_ALPHAS = (1e-5, 1e-4, 1e-3, 0.01, 0.05, 0.10, 0.2, 0.5, 0.999)
GRID_K = (*range(2, 101), 1000)


def scipy_q(k: int, alpha: float) -> float:
    """The bench oracle's rule: the studentized range quantile over sqrt(2)."""
    return float(studentized_range.ppf(1.0 - alpha, k, np.inf)) / math.sqrt(2.0)


def test_criterion_03_computed_q_against_scipy():
    t0 = time.perf_counter()
    worst = 0.0
    for alpha in GRID_ALPHAS:
        for k in GRID_K:
            computed, expected = q_alpha(k, alpha), scipy_q(k, alpha)
            worst = max(worst, abs(computed - expected) / expected)
            assert computed == pytest.approx(expected, rel=1e-6), (alpha, k)
    assert len(TABLE) == 57
    for (alpha, k), tabulated in TABLE.items():
        assert q_alpha(k, alpha) == tabulated, (alpha, k)
        assert round(scipy_q(k, alpha), 6) == tabulated, (alpha, k)
    elapsed = time.perf_counter() - t0
    print(
        f"\ncriterion 3: {len(GRID_ALPHAS) * len(GRID_K)} (alpha, k) pairs, worst "
        f"|q - scipy| / scipy={worst:.2e}; 57 table entries equal [{elapsed:.1f}s]"
    )
    assert elapsed < 60.0


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

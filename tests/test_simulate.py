"""Synthetic benchmark trials: reproducibility, error rates, power."""

import math

import numpy as np
import pytest

from cdranks import (
    SimConfig,
    ValidationError,
    average_ranks,
    chi_square_sf,
    estimate_power,
    estimate_type1,
    friedman_statistic,
    generate_matrix,
    nemenyi_cd,
    pairwise_significance,
)
from cdranks.simulate import CHUNK_TRIALS


def config(n=10, k=3, effect=None, noise_sd=1.0, trials=10, seed=7, alpha=0.05):
    return SimConfig(
        n_datasets=n,
        n_models=k,
        effect=tuple(effect) if effect is not None else (0.0,) * k,
        noise_sd=noise_sd,
        trials=trials,
        seed=seed,
        alpha=alpha,
    )


class TestSimConfig:
    def test_null_detection(self):
        assert config().is_null
        assert not config(effect=(0.5, 0.0, 0.0)).is_null

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n": 1},
            {"k": 2},
            {"trials": 0},
            {"seed": -1},
            {"seed": 2**64},
            {"noise_sd": 0.0},
            {"noise_sd": float("inf")},
            {"alpha": 0.0},
            {"alpha": 1.0},
            {"effect": (0.0, 0.0)},
            {"effect": (0.0, 0.0, float("nan"))},
            {"noise_sd": True},
            {"noise_sd": 10**400},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValidationError):
            config(**kwargs)

    def test_to_dict_fields(self):
        d = config(effect=(0.5, 0.0, 0.0)).to_dict()
        assert list(d) == [
            "n_datasets",
            "n_models",
            "effect",
            "noise_sd",
            "trials",
            "seed",
            "alpha",
        ]
        assert d["effect"] == [0.5, 0.0, 0.0]


class TestGenerateMatrix:
    def test_deterministic_per_trial(self):
        cfg = config()
        a = generate_matrix(cfg, 3)
        b = generate_matrix(cfg, 3)
        assert np.array_equal(a.values, b.values)

    def test_trials_differ(self):
        cfg = config()
        assert not np.array_equal(
            generate_matrix(cfg, 0).values, generate_matrix(cfg, 1).values
        )

    def test_seeds_differ(self):
        a = generate_matrix(config(seed=1), 0)
        b = generate_matrix(config(seed=2), 0)
        assert not np.array_equal(a.values, b.values)

    def test_independent_of_other_trials(self):
        # trial 5's matrix is the same whether trials=6 or trials=100
        a = generate_matrix(config(trials=6), 5)
        b = generate_matrix(config(trials=100), 5)
        assert np.array_equal(a.values, b.values)

    def test_stream_is_philox_keyed_by_seed_and_trial(self):
        cfg = config(n=6, k=4, effect=(0.5, 0.0, -1.0, 2.0), noise_sd=0.3, seed=2**63 + 5)
        for t in (0, 7):
            key = np.array([cfg.seed, t], dtype=np.uint64)
            noise = np.random.Generator(np.random.Philox(key=key)).standard_normal((6, 4))
            expected = np.asarray(cfg.effect) + cfg.noise_sd * noise
            assert np.array_equal(generate_matrix(cfg, t).values, expected)

    def test_shape_and_naming(self):
        m = generate_matrix(config(n=4, k=5), 0)
        assert m.values.shape == (4, 5)
        assert m.datasets[0] == "dataset_001"
        assert m.labels == tuple(f"model_{j:02d}" for j in range(1, 6))

    def test_trial_index_bounds(self):
        cfg = config(trials=10)
        with pytest.raises(ValidationError):
            generate_matrix(cfg, 10)
        with pytest.raises(ValidationError):
            generate_matrix(cfg, -1)
        with pytest.raises(ValidationError):
            generate_matrix(cfg, True)

    def test_no_ties_within_rows_under_null(self):
        cfg = config(n=50, k=8, trials=20)
        for t in range(20):
            values = generate_matrix(cfg, t).values
            for row in values:
                assert len(set(row.tolist())) == len(row)

    def test_effect_dominates_when_noise_vanishes(self):
        cfg = config(n=10, k=3, effect=(1.0, 0.0, 0.0), noise_sd=1e-12, trials=1)
        ranks = average_ranks(generate_matrix(cfg, 0))
        assert ranks[0] == 1.0


class TestEstimateType1:
    def test_requires_null_config(self):
        with pytest.raises(ValidationError, match="zero effect"):
            estimate_type1(config(effect=(0.5, 0.0, 0.0)))

    def test_single_trial_rate_is_zero_or_one(self):
        est = estimate_type1(config(trials=1))
        assert est.rejection_rate in (0.0, 1.0)
        assert est.rejections in (0, 1)

    def test_to_dict_keys_exact(self):
        est = estimate_type1(config(trials=5))
        d = est.to_dict()
        assert set(d) == {"config", "rejection_rate", "ci_low", "ci_high", "trials"}
        assert d["trials"] == 5
        assert d["config"] == config(trials=5).to_dict()

    def test_ci_brackets_rate(self):
        est = estimate_type1(config(n=15, k=4, trials=200, seed=3))
        assert 0.0 <= est.ci_low <= est.rejection_rate <= est.ci_high <= 1.0
        assert est.ci_low < est.ci_high

    def test_serial_equals_parallel(self):
        cfg = config(n=12, k=4, trials=40, seed=9)
        assert estimate_type1(cfg, workers=1).to_dict() == estimate_type1(cfg, workers=3).to_dict()

    def test_workers_validated(self):
        with pytest.raises(ValidationError, match="workers"):
            estimate_type1(config(), workers=0)

    def test_rate_tracks_alpha_half(self):
        cfg = config(n=30, k=4, trials=400, seed=17, alpha=0.5)
        est = estimate_type1(cfg)
        se = math.sqrt(0.5 * 0.5 / 400)
        assert abs(est.rejection_rate - 0.5) <= 3 * se

    def test_chi_square_approximation_improves_with_n(self):
        # the omnibus null rate should sit nearer alpha at N=100 than at N=5
        def gap(n, seed):
            cfg = config(n=n, k=4, trials=500, seed=seed)
            return abs(estimate_type1(cfg).rejection_rate - 0.05)

        gaps_small = [gap(5, s) for s in (0, 1, 2)]
        gaps_large = [gap(100, s) for s in (0, 1, 2)]
        assert np.mean(gaps_large) <= np.mean(gaps_small)


class TestEstimatePower:
    def test_requires_nonzero_effect(self):
        with pytest.raises(ValidationError, match="effect"):
            estimate_power(config())

    def test_detects_planted_ordering(self):
        cfg = config(
            n=20, k=4, effect=(6.0, 4.0, 2.0, 0.0), noise_sd=0.01, trials=50, seed=5
        )
        est = estimate_power(cfg)
        assert est.omnibus_rate == 1.0
        det = est.pairwise_detection
        # gap 2 in 'effect' is hundreds of noise sds: ranks are always
        # (1, 2, 3, 4), so detection is exactly 0 or 1 per pair
        assert det[0, 2] == det[0, 3] == det[1, 3] == 1.0
        assert det[0, 1] == det[1, 2] == det[2, 3] == 0.0
        assert np.array_equal(det, det.T)
        assert det.diagonal().tolist() == [0.0] * 4

    def test_zero_gap_pair_stays_near_alpha(self):
        # models 2 and 3 share an effect; their detection rate is a
        # per-pair false positive rate and must stay near alpha
        cfg = config(
            n=25, k=4, effect=(2.0, 2.0, 0.0, 0.0), noise_sd=1.0, trials=400, seed=13
        )
        est = estimate_power(cfg)
        se = math.sqrt(0.05 * 0.95 / 400)
        assert est.pairwise_detection[0, 1] <= 0.05 + 4 * se
        assert est.pairwise_detection[2, 3] <= 0.05 + 4 * se
        assert est.pairwise_detection[0, 2] > 0.5

    def test_to_dict_keys(self):
        cfg = config(effect=(1.0, 0.0, 0.0), trials=5)
        d = estimate_power(cfg).to_dict()
        assert set(d) == {
            "config",
            "omnibus_rate",
            "ci_low",
            "ci_high",
            "trials",
            "cd",
            "pairwise_detection",
        }
        assert len(d["pairwise_detection"]) == 3
        assert all(len(row) == 3 for row in d["pairwise_detection"])

    def test_serial_equals_parallel(self):
        cfg = config(n=12, k=4, effect=(1.0, 0.5, 0.0, 0.0), trials=40, seed=11)
        assert estimate_power(cfg, workers=1).to_dict() == estimate_power(cfg, workers=4).to_dict()

    def test_pool_never_larger_than_span_count(self, monkeypatch):
        sizes = []

        class InProcessPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", InProcessPool)
        cfg = config(n=12, k=4, effect=(2.0, 1.0, 0.0, 0.0), trials=3, seed=11)
        assert estimate_power(cfg, workers=64).to_dict() == estimate_power(cfg, workers=1).to_dict()
        assert sizes == [3]

    def test_detection_read_only(self):
        est = estimate_power(config(effect=(1.0, 0.0, 0.0), trials=2))
        with pytest.raises(ValueError):
            est.pairwise_detection[0, 1] = 0.5


def _per_trial_counts(cfg):
    """Rejections and pair hits from the public per-trial pipeline."""
    k = cfg.n_models
    cd = None if cfg.is_null else nemenyi_cd(k, cfg.n_datasets, cfg.alpha)
    rejections = 0
    hits = np.zeros((k, k), dtype=np.int64)
    for t in range(cfg.trials):
        avg = average_ranks(generate_matrix(cfg, t))
        stat = friedman_statistic(avg, cfg.n_datasets, k)
        rejections += chi_square_sf(stat, k - 1) < cfg.alpha
        if cd is not None:
            hits += pairwise_significance(avg, cd)
    return rejections, hits


class TestBatchedKernel:
    """The chunked kernel reproduces the per-trial pipeline exactly."""

    # CHUNK_TRIALS + 3 crosses a chunk boundary and ends on a partial chunk;
    # with two workers each span crosses a boundary from a nonzero start.
    @pytest.mark.parametrize(
        "trials, workers",
        [(CHUNK_TRIALS + 3, 1), (CHUNK_TRIALS + 3, 3), (2 * CHUNK_TRIALS + 3, 2)],
    )
    def test_null_matches_per_trial_pipeline(self, trials, workers):
        cfg = config(n=31, k=8, trials=trials, seed=41, alpha=0.25)
        rejections, _ = _per_trial_counts(cfg)
        assert rejections > 0
        assert estimate_type1(cfg, workers=workers).rejections == rejections

    @pytest.mark.parametrize(
        "trials, workers",
        [(CHUNK_TRIALS + 3, 1), (CHUNK_TRIALS + 3, 3), (2 * CHUNK_TRIALS + 3, 2)],
    )
    def test_power_matches_per_trial_pipeline(self, trials, workers):
        cfg = config(n=12, k=5, effect=(0.9, 0.5, 0.2, 0.0, 0.0), trials=trials, seed=43)
        rejections, hits = _per_trial_counts(cfg)
        est = estimate_power(cfg, workers=workers)
        assert est.omnibus_rejections == rejections
        assert np.array_equal(est.pairwise_detection, hits / trials)
        assert 0 < hits[0, 3] < trials

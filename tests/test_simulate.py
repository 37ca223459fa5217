"""Synthetic benchmark trials: reproducibility, error rates, power."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdranks import (
    SimConfig,
    UnsupportedDesignError,
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
from cdranks import simulate
from cdranks.simulate import CHUNK_ELEMENTS, _reject_threshold, _run_chunk, _run_trials

import kernel_stages


def chunk_trials(n, k):
    """Trials per kernel chunk at design (N, k): the element budget over the larger of N k and k^2."""
    return max(1, CHUNK_ELEMENTS // (max(n, k) * k))


def study_constants(cfg):
    """The threshold and, under an effect, the CD that a study solves once, before its trials."""
    n, k = cfg.n_datasets, cfg.n_models
    return _reject_threshold(n, k, cfg.alpha), None if cfg.is_null else nemenyi_cd(k, n, cfg.alpha)


@pytest.fixture
def pool_sizes(monkeypatch):
    """The size of each pool built while the test runs; every pool maps in this process."""
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
    return sizes


def drawn_blocks(monkeypatch, cfg, start, stop):
    """(first trial, copy of the values) of each block the kernel draws for trials [start, stop)."""
    blocks = []
    draw = simulate._draw

    def spy(cfg, first_trial, out):
        draw(cfg, first_trial, out)
        blocks.append((first_trial, out.copy()))

    with monkeypatch.context() as m:
        m.setattr(simulate, "_draw", spy)
        _run_chunk(cfg, start, stop, *study_constants(cfg))
    return blocks


def assert_crosses_chunks(monkeypatch, cfg):
    """The serial run crosses a chunk boundary and ends on a partial chunk of the design's size."""
    chunk = chunk_trials(cfg.n_datasets, cfg.n_models)
    sizes = [len(values) for _, values in drawn_blocks(monkeypatch, cfg, 0, cfg.trials)]
    assert len(sizes) > 1 and set(sizes[:-1]) == {chunk} and 0 < sizes[-1] < chunk


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
            {"n": 2.0},
            {"k": True},
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

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"n": 1}, "N=1 datasets unsupported: need N >= 2"),
            ({"n": 0}, "N=0 datasets unsupported: need N >= 2"),
            ({"k": 2, "effect": (0.0, 0.0)},
             "k=2 models unsupported: the rank test machinery needs k >= 3"),
        ],
        ids=["n1", "n0", "k2"],
    )
    def test_unsupported_design(self, kwargs, message):
        # the same rule and wording as analyze: exit 3, not a validation error
        with pytest.raises(UnsupportedDesignError) as exc:
            config(**kwargs)
        assert str(exc.value) == message and not isinstance(exc.value, ValidationError)

    @pytest.mark.parametrize("k", [3, 8, 20])
    def test_int64_bound_on_the_design(self, k):
        # the largest N with N^2 k(k^2-1) < 2^63 is accepted, the next one is not
        n = math.isqrt((2**63 - 1) // (k * (k * k - 1)))
        assert n * n * k * (k * k - 1) < 2**63 <= (n + 1) ** 2 * k * (k * k - 1)
        assert config(n=n, k=k).n_datasets == n
        with pytest.raises(UnsupportedDesignError, match=r"2\^63"):
            config(n=n + 1, k=k)
        # at the bound the threshold and the largest sum T^2 still fit in int64
        largest = n * n * k * (k * k - 1) // 3
        assert _reject_threshold(n, k, 0.05) <= largest < 2**63
        assert int(np.array([largest], dtype=np.int64)[0]) == largest

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

    def test_kernel_blocks_draw_the_per_trial_streams(self, monkeypatch):
        # trials 60..139 at N=31, k=8 make a 66-trial block from a nonzero start
        # and a partial one; each trial of a block must be the stream of a fresh
        # Philox(key=[seed, t]), with the seed at the top of the uint64 range
        cfg = config(n=31, k=8, effect=tuple(j / 4 for j in range(8)), noise_sd=0.5,
                     trials=140, seed=2**64 - 1)
        blocks = drawn_blocks(monkeypatch, cfg, 60, 140)
        assert [(first, len(values)) for first, values in blocks] == [(60, 66), (126, 14)]
        for first, values in blocks:
            for t, trial_values in enumerate(values, first):
                key = np.array([cfg.seed, t], dtype=np.uint64)
                noise = np.random.Generator(np.random.Philox(key=key)).standard_normal((31, 8))
                assert np.array_equal(trial_values, np.asarray(cfg.effect) + cfg.noise_sd * noise)

    def test_shape_and_naming(self):
        m = generate_matrix(config(n=4, k=5), 0)
        assert np.shape(m.values) == (4, 5)
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
                assert len(set(row)) == len(row)

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
        det = np.array(est.pairwise_detection)
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
        assert est.pairwise_detection[0][1] <= 0.05 + 4 * se
        assert est.pairwise_detection[2][3] <= 0.05 + 4 * se
        assert est.pairwise_detection[0][2] > 0.5

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

    def test_pool_never_larger_than_span_count(self, monkeypatch, pool_sizes):
        cfg = config(n=12, k=4, effect=(2.0, 1.0, 0.0, 0.0), trials=3, seed=11)
        serial = estimate_power(cfg, workers=1).to_dict()
        # 64 workers over 3 trials make 3 spans; the pool is also capped at the
        # CPU count, and one CPU (or an unknown count) runs serially, with no pool
        for cpus, sizes in ((64, [3]), (2, [2]), (1, []), (None, [])):
            monkeypatch.setattr(simulate.os, "cpu_count", lambda: cpus)
            assert estimate_power(cfg, workers=64).to_dict() == serial
            assert pool_sizes == sizes
            pool_sizes.clear()

    def test_detection_read_only(self):
        est = estimate_power(config(effect=(1.0, 0.0, 0.0), trials=2))
        det = est.pairwise_detection
        assert type(det) is tuple and all(type(row) is tuple for row in det)
        assert all(type(rate) is float for row in det for rate in row)
        with pytest.raises(TypeError):
            det[0][1] = 0.5
        with pytest.raises(TypeError):
            det[0] = (0.0, 0.5, 0.5)


class TestStudyConstants:
    """Each study solves its threshold and CD once, before any trial or pool."""

    @pytest.fixture
    def solves(self, monkeypatch):
        counts = {"_reject_threshold": 0, "nemenyi_cd": 0}

        def counted(name):
            fn = getattr(simulate, name)

            def wrapper(*args):
                counts[name] += 1
                return fn(*args)

            return wrapper

        for name in counts:
            monkeypatch.setattr(simulate, name, counted(name))
        monkeypatch.setattr(simulate.os, "cpu_count", lambda: 64)
        return counts

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_power_solves_each_constant_once(self, solves, pool_sizes, workers):
        cfg = config(n=12, k=4, effect=(2.0, 1.0, 0.0, 0.0), trials=30, seed=11)
        est = estimate_power(cfg, workers=workers)
        assert solves == {"_reject_threshold": 1, "nemenyi_cd": 1}
        assert pool_sizes == ([] if workers == 1 else [workers])
        assert est.cd == nemenyi_cd(4, 12, 0.05)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_null_solves_the_threshold_once_and_no_cd(self, solves, pool_sizes, workers):
        estimate_type1(config(n=12, k=4, trials=30, seed=11), workers=workers)
        assert solves == {"_reject_threshold": 1, "nemenyi_cd": 0}
        assert pool_sizes == ([] if workers == 1 else [workers])

    def test_undefined_cd_fails_before_any_pool(self, solves, pool_sizes, monkeypatch):
        drawn = []
        monkeypatch.setattr(simulate, "_draw", lambda *args: drawn.append(args))
        cfg = config(n=5, k=8, effect=(1.0,) + (0.0,) * 7, trials=200, alpha=1e-6)
        with pytest.raises(UnsupportedDesignError, match="alpha >= 1e-05"):
            estimate_power(cfg, workers=2)
        assert (pool_sizes, drawn) == ([], [])
        assert solves == {"_reject_threshold": 0, "nemenyi_cd": 1}


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

    # Each run crosses a chunk boundary and ends on a partial chunk (66 trials
    # at N=31, k=8; 273 at N=12, k=5); with two workers the second span
    # crosses a boundary from a nonzero start.
    @staticmethod
    def check_chunking(monkeypatch, cfg, workers):
        assert_crosses_chunks(monkeypatch, cfg)
        if workers == 2:
            half = cfg.trials // 2
            assert half % chunk_trials(cfg.n_datasets, cfg.n_models) != 0
            assert len(drawn_blocks(monkeypatch, cfg, half, cfg.trials)) > 1

    @pytest.mark.parametrize("trials, workers", [(259, 1), (259, 3), (515, 2)])
    def test_null_matches_per_trial_pipeline(self, monkeypatch, trials, workers):
        cfg = config(n=31, k=8, trials=trials, seed=41, alpha=0.25)
        self.check_chunking(monkeypatch, cfg, workers)
        rejections, _ = _per_trial_counts(cfg)
        assert rejections > 0
        assert estimate_type1(cfg, workers=workers).rejections == rejections

    @pytest.mark.parametrize("trials, workers", [(276, 1), (276, 3), (549, 2)])
    def test_power_matches_per_trial_pipeline(self, monkeypatch, trials, workers):
        cfg = config(n=12, k=5, effect=(0.9, 0.5, 0.2, 0.0, 0.0), trials=trials, seed=43)
        self.check_chunking(monkeypatch, cfg, workers)
        rejections, hits = _per_trial_counts(cfg)
        est = estimate_power(cfg, workers=workers)
        assert est.omnibus_rejections == rejections
        # each rate is the int / int quotient, bit for bit numpy's division
        assert est.pairwise_detection == tuple(map(tuple, (hits / trials).tolist()))
        assert est.pairwise_detection == tuple(
            tuple(h / trials for h in row) for row in hits.tolist()
        )
        assert 0 < hits[0, 3] < trials


class TestIntegerKernel:
    """The kernel's int ranks: ties end to end, working set, exact checks."""

    @pytest.fixture
    def rounded_draws(self, monkeypatch):
        # values rounded to a few levels: ties in most rows, and -0.0 beside 0.0
        draw = simulate._draw

        def rounded(cfg, first_trial, out):
            draw(cfg, first_trial, out)
            np.round(out, out=out)

        monkeypatch.setattr(simulate, "_draw", rounded)

    @pytest.mark.parametrize("alpha", [0.05, 0.25, 0.5])
    def test_tied_null_matches_per_trial_pipeline(self, monkeypatch, rounded_draws, alpha):
        cfg = config(n=31, k=8, trials=259, seed=47, alpha=alpha)
        assert_crosses_chunks(monkeypatch, cfg)
        assert len(set(generate_matrix(cfg, 0).values[0])) < 8
        rejections, _ = _per_trial_counts(cfg)
        assert 0 < rejections < cfg.trials
        assert _run_trials(cfg, 1)[0] == rejections

    @pytest.mark.parametrize("alpha", [0.01, 0.05, 0.10])
    def test_tied_power_matches_per_trial_pipeline(self, monkeypatch, rounded_draws, alpha):
        effect = (0.9, 0.5, 0.2, 0.0, 0.0)
        cfg = config(n=12, k=5, effect=effect, trials=276, seed=53, alpha=alpha)
        assert_crosses_chunks(monkeypatch, cfg)
        rejections, hits = _per_trial_counts(cfg)
        assert 0 < hits[0, 3] < cfg.trials
        got_rejections, got_hits = _run_trials(cfg, 1, nemenyi_cd(5, 12, alpha))
        assert got_rejections == rejections
        assert np.array_equal(got_hits, hits)

    # k = 64 is the least k whose doubled ranks need int16; 4 trials per chunk
    @pytest.mark.parametrize("tied", [False, True], ids=["untied", "tied"])
    def test_int16_null_matches_per_trial_pipeline(self, monkeypatch, request, tied):
        if tied:
            request.getfixturevalue("rounded_draws")
        cfg = config(n=10, k=64, trials=30, seed=59, alpha=0.5)
        assert_crosses_chunks(monkeypatch, cfg)
        assert (len(set(generate_matrix(cfg, 0).values[0])) < 64) == tied
        assert simulate.doubled_midranks(np.zeros((1, 64))).dtype == np.int16
        rejections, _ = _per_trial_counts(cfg)
        assert 0 < rejections < cfg.trials
        assert _run_trials(cfg, 1)[0] == rejections

    @pytest.mark.parametrize("tied", [False, True], ids=["untied", "tied"])
    def test_int16_power_matches_per_trial_pipeline(self, monkeypatch, request, tied):
        if tied:
            request.getfixturevalue("rounded_draws")
        cfg = config(n=10, k=64, effect=tuple(j / 20 for j in range(64)), trials=30, seed=61)
        assert_crosses_chunks(monkeypatch, cfg)
        rejections, hits = _per_trial_counts(cfg)
        assert 0 < rejections and ((0 < hits) & (hits < cfg.trials)).any()
        got_rejections, got_hits = _run_trials(cfg, 1, nemenyi_cd(64, 10, 0.05))
        assert got_rejections == rejections
        assert np.array_equal(got_hits, hits)

    @staticmethod
    def traced_peak(n, k, trials):
        """Peak traced bytes of one power run at (N, k), and its bound 3 * 8 * max(2^14, N k) + slack."""
        cfg = config(n=n, k=k, effect=tuple(j / 10 for j in range(k)), trials=trials)
        constants = study_constants(cfg)  # solved once per study, outside the kernel
        # lazy imports and first-call costs are not the working set
        _run_chunk(cfg, 0, trials, *constants)
        tracemalloc.start()
        try:
            _run_chunk(cfg, 0, trials, *constants)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak, 3 * 8 * max(CHUNK_ELEMENTS, n * k) + (1 << 16)

    def test_chunk_working_set(self):
        # the block, the sort order and the sorted values: three 128 KB arrays
        peak, bound = self.traced_peak(31, 8, 256)
        assert peak <= bound <= 0.6e6

    # one trial per chunk at (1000, 20); at (2, 20) the (chunk, k, k) pair
    # stage, not the block, would set the peak if chunks counted only N k
    @pytest.mark.parametrize("n, k, trials", [(1000, 20, 3), (200, 10, 20), (2, 20, 100)])
    def test_working_set_bounded_at_every_design(self, n, k, trials):
        assert trials > chunk_trials(n, k)
        peak, bound = self.traced_peak(n, k, trials)
        assert peak <= bound < 1e6

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (lambda row: row.__setitem__(0, 0), r"lie in \[2, 16\]"),
            (lambda row: row.__setitem__(slice(None), 2), "does not sum"),
            (lambda row: row.__setitem__(0, row[0] + 2 if row[0] < 16 else 14), "does not sum"),
        ],
    )
    def test_exact_checks_fire(self, monkeypatch, corrupt, message):
        core = simulate.doubled_midranks

        def corrupted(a):
            d = core(a)
            corrupt(d[-1, 5])
            return d

        monkeypatch.setattr(simulate, "doubled_midranks", corrupted)
        with pytest.raises(ValidationError, match=message):
            _run_trials(config(n=31, k=8, trials=256), 1)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_draws_rejected(self):
        # the scale and the shift overflow without a warning; the finite checks reject them
        for effect, run in (((0.0,) * 8, estimate_type1),
                            ((1e308, -1e308) + (0.0,) * 6, estimate_power)):
            cfg = config(n=31, k=8, effect=effect, noise_sd=1e308, trials=3)
            with pytest.raises(ValidationError, match="finite"):
                run(cfg)
            with pytest.raises(ValidationError, match="finite"):
                generate_matrix(cfg, 0)


def test_kernel_stage_timer_runs(capsys):
    # tests/kernel_stages.py times the kernel's own functions and restores them
    originals = [simulate._draw, simulate.doubled_midranks, simulate._doubled_rank_sums]
    assert kernel_stages.main(["--n", "5", "--k", "3", "--trials", "40", "--repeats", "2"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert [simulate._draw, simulate.doubled_midranks, simulate._doubled_rank_sums] == originals
    assert report["chunks"] == 1 and report["peak_traced_kb"] > 0
    assert report["rejections"] == estimate_type1(config(n=5, k=3, trials=40, seed=0)).rejections
    stages = ("draw_ms", "rank_ms", "int_checks_ms", "statistic_ms")
    assert all(report[stage] >= 0 for stage in stages)
    assert sum(report[stage] for stage in stages) <= report["total_ms"] + 0.01


class TestRejectThreshold:
    """The kernel's integer threshold decides every sum of T^2 as the public sf does."""

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(2, 5000),
        k=st.integers(3, 20),
        alpha=st.floats(1e-6, 0.999, exclude_min=True),
    )
    def test_decisions_match_near_the_threshold(self, n, k, alpha):
        threshold = _reject_threshold(n, k, alpha)
        largest = n * n * k * (k * k - 1) // 3
        assert 0 <= threshold <= largest + 1
        for s in range(max(threshold - 3, 0), min(threshold + 3, largest) + 1):
            stat = 3 * s / (n * k * (k + 1))
            assert (s >= threshold) == (chi_square_sf(stat, k - 1) < alpha)

    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(0, 2**64 - 1),
        n=st.integers(2, 40),
        k=st.integers(3, 9),
        alpha=st.sampled_from([0.05, 0.25, 0.5]),
    )
    def test_kernel_counts_equal_per_trial_pipeline(self, seed, n, k, alpha):
        cfg = config(n=n, k=k, trials=60, seed=seed, alpha=alpha)
        rejections, _ = _per_trial_counts(cfg)
        assert estimate_type1(cfg).rejections == rejections

"""Monte Carlo calibration of the rank-test procedure.

Synthetic N x k matrices are drawn as effect[j] + Gaussian noise.  An
all-zero effect vector realizes the null hypothesis, so the rejection rate
estimates the Type-I error; nonzero effects estimate power.  Every trial
draws from its own generator stream keyed by (seed, trial index), so results
are bitwise identical for any degree of parallelism.

Trials run as a chunked array kernel rather than one object pipeline per
trial.  Each chunk of up to ``CHUNK_TRIALS`` trials fills one
(chunk, N, k) block, trial by trial, from the same streams that
:func:`generate_matrix` uses; the whole block is then ranked, averaged,
tested and compared in bulk, with every invariant of the per-trial types
checked once per chunk.  Each trial's statistic and pairwise calls equal
those of the public per-trial functions exactly.  Memory is bounded by the
chunk, not the trial count: the block and the ranking temporaries peak at
about ten arrays of CHUNK_TRIALS * N * k floats, 4.6 MB at N=31, k=8.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .distributions import chi_square_sf
from .cd import nemenyi_cd
from .errors import ValidationError, check_alpha, check_int, check_positive
from .procedure import friedman_statistic, pairwise_significance
from .ranks import Direction, ModelId, PerformanceMatrix, stacked_average_ranks

# 97.5% normal quantile, for the 95% Wilson interval.
_Z95 = 1.959963984540054

# Trials per kernel pass: large enough to amortize numpy's per-call
# overhead, small enough that the kernel's working memory stays a few MB.
CHUNK_TRIALS = 256


@dataclass(frozen=True)
class SimConfig:
    """Parameters for one simulation study."""

    n_datasets: int
    n_models: int
    effect: tuple
    noise_sd: float
    trials: int
    seed: int
    alpha: float = 0.05

    def __post_init__(self):
        for name, lo in (("n_datasets", 2), ("n_models", 3), ("trials", 1)):
            check_int(getattr(self, name), name, lo)
        check_int(self.seed, "seed", 0, 2**64)
        effect = tuple(float(e) for e in self.effect)
        if len(effect) != self.n_models:
            raise ValidationError(
                f"effect vector has {len(effect)} entries for {self.n_models} models"
            )
        if not all(math.isfinite(e) for e in effect):
            raise ValidationError("effect entries must be finite")
        object.__setattr__(self, "effect", effect)
        object.__setattr__(self, "noise_sd", float(check_positive(self.noise_sd, "noise_sd")))
        check_alpha(self.alpha)

    @property
    def is_null(self) -> bool:
        return all(e == 0.0 for e in self.effect)

    def to_dict(self) -> dict:
        return {
            "n_datasets": self.n_datasets,
            "n_models": self.n_models,
            "effect": list(self.effect),
            "noise_sd": self.noise_sd,
            "trials": self.trials,
            "seed": self.seed,
            "alpha": self.alpha,
        }


def _draw(cfg: SimConfig, first_trial: int, out: np.ndarray) -> None:
    """Fill ``out[i]`` (N x k) with trial ``first_trial + i``: effect + noise_sd * N(0, 1).

    Trial t draws from the counter-based stream Philox(key=[seed, t]), so its
    values never depend on which other trials ran, in what order, or in
    which process.  One generator is rewound to each trial's key, which
    yields the same stream as a freshly built Philox at about a tenth of the
    per-trial cost.
    """
    bits = np.random.Philox(key=np.array([cfg.seed, first_trial], dtype=np.uint64))
    fresh = bits.state
    gen = np.random.Generator(bits)
    for i, trial_values in enumerate(out):
        fresh["state"]["key"][1] = first_trial + i
        bits.state = fresh
        gen.standard_normal(out=trial_values)
    out *= cfg.noise_sd
    out += cfg.effect


def generate_matrix(cfg: SimConfig, trial_index: int) -> PerformanceMatrix:
    """Draw the synthetic matrix for one trial (the kernel draws the same values)."""
    check_int(trial_index, "trial_index", 0, cfg.trials)
    values = np.empty((1, cfg.n_datasets, cfg.n_models))
    _draw(cfg, trial_index, values)
    return PerformanceMatrix(
        datasets=tuple(f"dataset_{i + 1:03d}" for i in range(cfg.n_datasets)),
        models=tuple(ModelId(f"model_{j + 1:02d}") for j in range(cfg.n_models)),
        values=values[0],
        direction=Direction.MAXIMIZE,
    )


def _run_chunk(cfg: SimConfig, start: int, stop: int) -> tuple:
    """Run trials [start, stop): count omnibus rejections and pairwise hits.

    Pairwise hits are only tallied for non-null configs; a Type-I study
    reports the omnibus rate alone, which keeps its alpha free of the
    critical-value table's tabulated levels.
    """
    n, k = cfg.n_datasets, cfg.n_models
    cd = None if cfg.is_null else nemenyi_cd(k, n, cfg.alpha)
    rejections = 0
    pair_hits = np.zeros((k, k), dtype=np.int64)
    block = np.empty((min(CHUNK_TRIALS, stop - start), n, k))
    for lo in range(start, stop, CHUNK_TRIALS):
        values = block[: min(CHUNK_TRIALS, stop - lo)]
        _draw(cfg, lo, values)
        avg = stacked_average_ranks(values, Direction.MAXIMIZE)
        stat = friedman_statistic(avg, n, k)
        rejections += int(np.count_nonzero(chi_square_sf(stat, k - 1) < cfg.alpha))
        if cd is not None:
            pair_hits += pairwise_significance(avg, cd).sum(axis=0)
    return rejections, pair_hits


def _run_trials(cfg: SimConfig, workers: int) -> tuple:
    check_int(workers, "workers", 1)
    if workers == 1:
        return _run_chunk(cfg, 0, cfg.trials)
    bounds = [i * cfg.trials // workers for i in range(workers + 1)]
    spans = [(a, b) for a, b in zip(bounds, bounds[1:]) if a < b]
    # imported here so a 1-worker run does not pay for concurrent.futures and logging
    from concurrent.futures import ProcessPoolExecutor
    # Under fork the pool starts all max_workers processes up front.
    with ProcessPoolExecutor(max_workers=len(spans)) as pool:
        results = list(
            pool.map(_run_chunk, repeat(cfg), (a for a, _ in spans), (b for _, b in spans))
        )
    rejections = sum(r for r, _ in results)
    pair_hits = np.zeros((cfg.n_models, cfg.n_models), dtype=np.int64)
    for _, hits in results:
        pair_hits += hits
    return rejections, pair_hits


def _wilson_ci(successes: int, trials: int) -> tuple:
    """95% Wilson score interval for a binomial proportion."""
    p = successes / trials
    z2 = _Z95 * _Z95
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2.0 * trials)) / denom
    half = _Z95 * math.sqrt(p * (1.0 - p) / trials + z2 / (4.0 * trials * trials)) / denom
    return center - half, center + half


@dataclass(frozen=True)
class Type1Estimate:
    """Null rejection rate with its 95% binomial confidence interval."""

    config: SimConfig
    rejections: int
    rejection_rate: float
    ci_low: float
    ci_high: float

    def to_dict(self) -> dict:
        return {
            "config": self.config.to_dict(),
            "rejection_rate": self.rejection_rate,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
            "trials": self.config.trials,
        }


@dataclass(frozen=True)
class PowerEstimate:
    """Omnibus rejection rate and per-pair detection rates under an effect."""

    config: SimConfig
    cd: float
    omnibus_rejections: int
    omnibus_rate: float
    ci_low: float
    ci_high: float
    pairwise_detection: np.ndarray

    def __post_init__(self):
        rates = np.array(self.pairwise_detection, dtype=float)
        rates.setflags(write=False)
        object.__setattr__(self, "pairwise_detection", rates)

    def to_dict(self) -> dict:
        return {
            "config": self.config.to_dict(),
            "omnibus_rate": self.omnibus_rate,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
            "trials": self.config.trials,
            "cd": self.cd,
            "pairwise_detection": self.pairwise_detection.tolist(),
        }


def estimate_type1(cfg: SimConfig, workers: int = 1) -> Type1Estimate:
    """Estimate the Type-I error rate of the omnibus test under the null."""
    if not cfg.is_null:
        raise ValidationError("estimate_type1 requires an all-zero effect vector")
    rejections, _ = _run_trials(cfg, workers)
    lo, hi = _wilson_ci(rejections, cfg.trials)
    return Type1Estimate(
        config=cfg,
        rejections=rejections,
        rejection_rate=rejections / cfg.trials,
        ci_low=lo,
        ci_high=hi,
    )


def estimate_power(cfg: SimConfig, workers: int = 1) -> PowerEstimate:
    """Estimate omnibus power and per-pair detection rates under an effect."""
    if cfg.is_null:
        raise ValidationError("estimate_power requires a nonzero effect vector")
    rejections, pair_hits = _run_trials(cfg, workers)
    lo, hi = _wilson_ci(rejections, cfg.trials)
    return PowerEstimate(
        config=cfg,
        cd=nemenyi_cd(cfg.n_models, cfg.n_datasets, cfg.alpha),
        omnibus_rejections=rejections,
        omnibus_rate=rejections / cfg.trials,
        ci_low=lo,
        ci_high=hi,
        pairwise_detection=pair_hits / cfg.trials,
    )

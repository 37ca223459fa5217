"""Monte Carlo calibration of the rank-test procedure.

Synthetic N x k matrices are drawn as effect[j] + Gaussian noise.  An
all-zero effect vector realizes the null hypothesis, so the rejection rate
estimates the Type-I error; nonzero effects estimate power.  Every trial
draws from its own generator stream keyed by (seed, trial index), so results
are bitwise identical for any degree of parallelism.

Trials run as a chunked numpy kernel rather than one object pipeline per
trial; this is the only module that needs numpy.  Each chunk of
max(1, CHUNK_ELEMENTS // (max(N, k) k)) trials fills one (chunk, N, k) block,
trial by trial, from the same streams that :func:`generate_matrix` uses; the
whole block is then ranked in doubled ints by :func:`doubled_midranks`,
summed and compared in bulk, with every invariant of the per-trial types
checked exactly once per chunk.  Memory is bounded by the element budget, not
the trial count or the design: the block, its sort order and its sorted
values, three arrays of 8-byte items, set the peak near 3 * 8 * max(2^14, N k)
bytes, 0.4 MB traced at N=31, k=8 (66-trial chunks) and 0.5 MB at N=1000, k=20.

The omnibus decision is an integer comparison.  Each trial's doubled rank
sums 2 S_j give T_j = 2 S_j - N(k+1), as in ``procedure.friedman_statistic``,
and T_j^2 is summed in int64 (``SimConfig`` keeps N^2 k(k^2-1) below 2^63).
The p-value falls as that sum grows, so :func:`_reject_threshold` finds once
per study, by bisection through ``friedman_test``'s own omnibus function, the
least sum that the public pipeline rejects.  That threshold and a power study's
CD are solved before any worker starts; the kernel compares only.
"""

from __future__ import annotations

import bisect
import math
import os
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .cd import nemenyi_cd
from .errors import UnsupportedDesignError, ValidationError, check_alpha, check_datasets, check_int
from .errors import check_models, check_positive, check_reals
from .procedure import Variant, _omnibus
from .ranks import Direction, ModelId, PerformanceMatrix

# 97.5% normal quantile, for the 95% Wilson interval.
_Z95 = 1.959963984540054

# Values per kernel pass (whole trials, at least one): large enough to
# amortize numpy's per-call overhead, small enough that the kernel's three
# chunk arrays stay near 0.4 MB at every design.
CHUNK_ELEMENTS = 1 << 14


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
        n = check_datasets(self.n_datasets)
        k = check_models(self.n_models)
        check_int(self.trials, "trials", 1)
        if n * n * k * (k * k - 1) >= 2**63:
            raise UnsupportedDesignError(
                f"N={n}, k={k} unsupported: the kernel needs N^2 k(k^2-1) < 2^63"
            )
        check_int(self.seed, "seed", 0, 2**64)
        effect = check_reals(self.effect, "effect must be a vector of reals")
        if len(effect) != k:
            raise ValidationError(f"effect vector has {len(effect)} entries for {k} models")
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


def doubled_midranks(a: np.ndarray) -> np.ndarray:
    """Twice the mid-ranks along the last axis, as ints (rank 1 = smallest).

    The values in sorted positions i..j (0-based) that tie share the doubled
    rank i + j + 2, the rule of ``ranks.doubled_ranks``.  The result has
    ``a``'s shape and the smallest signed int dtype that holds 2k.  Rows are
    sorted as an (M, k) block and scanned in its (k, M) transpose, so each of
    the k steps that find the tie bounds is one vector op over all M rows.
    """
    k = a.shape[-1]
    m = a.size // k
    order = np.argsort(a.reshape(m, k).T, axis=0)  # (k, M): column r sorts row r
    order += np.arange(0, m * k, k)  # -> flat index into a
    ordered = a.ravel()[order]
    new = ordered[1:] != ordered[:-1]  # sorted position i + 1 starts a tie run
    del ordered  # the kernel's peak memory is the block, order and ordered
    # a signed dtype that holds -(2k + 1) holds 2k: int8 up to k = 63
    dtype = np.min_scalar_type(-2 * k - 1)
    pos = np.arange(k, dtype=dtype)[:, None]
    first = np.zeros((k, m), dtype=dtype)
    np.multiply(new, pos[1:], out=first[1:])  # i where a run starts at i, else 0
    last = np.full((k, m), k - 1, dtype=dtype)
    last[:-1] -= new * (k - 1 - pos[:-1])  # i where a run ends at i, else k - 1
    for i in range(1, k):  # first runs forward, last backward
        np.maximum(first[i], first[i - 1], out=first[i])
        np.minimum(last[k - 1 - i], last[k - i], out=last[k - 1 - i])
    first += last
    first += 2
    out = np.empty(a.shape, dtype=dtype)
    out.reshape(-1)[order] = first
    return out


def _doubled_rank_sums(d: np.ndarray, k: int) -> np.ndarray:
    """Column sums of a (trials, N, k) block of doubled ranks, after its exact checks.

    Every doubled rank lies in [2, 2k] and every row sums to k(k+1): the int
    forms of the rank-row and average-rank invariants, with no tolerance.
    The sums of each trial then total N k(k+1) in exact int arithmetic.
    """
    if d.min() < 2 or d.max() > 2 * k:
        raise ValidationError(f"doubled ranks must lie in [2, {2 * k}]")
    # einsum sums the int8 block in int64 about twice as fast as ndarray.sum at k = 8
    bad = np.flatnonzero(np.einsum("tnk->tn", d, dtype=np.int64) != k * (k + 1))
    if bad.size:
        raise ValidationError(f"rank row {bad[0]} does not sum to k(k+1)/2 = {k * (k + 1) // 2}")
    return np.einsum("tnk->tk", d, dtype=np.int64)


def _reject_threshold(n: int, k: int, alpha: float) -> int:
    """The least sum T^2 whose p-value, as ``friedman_test`` computes it, is below alpha.

    Binary search over 0 .. N^2 k(k^2-1)/3, the largest sum T^2 (every dataset
    ranks the models alike); one past it when no sum rejects.
    """
    return bisect.bisect_left(range(n * n * k * (k * k - 1) // 3 + 1), True,
                              key=lambda s: _omnibus(3 * s, n, k, Variant.FRIEDMAN)[2] < alpha)


def _draw(cfg: SimConfig, first_trial: int, out: np.ndarray) -> None:
    """Fill ``out[i]`` (N x k) with trial ``first_trial + i``: effect + noise_sd * N(0, 1).

    Trial t draws from the counter-based stream Philox(key=[seed, t]), so its
    values never depend on which other trials ran, in what order, or in
    which process.  One generator is rewound to each trial's key, through a
    state of plain ints (cheaper to set than numpy arrays), which yields the
    same stream as a freshly built Philox at a small part of the cost.
    """
    bits = np.random.Philox(key=np.array([cfg.seed, first_trial], dtype=np.uint64))
    state = bits.state
    fresh = {**state, "state": {name: v.tolist() for name, v in state["state"].items()},
             "buffer": state["buffer"].tolist()}
    gen = np.random.Generator(bits)
    for i, trial_values in enumerate(out):
        fresh["state"]["key"][1] = first_trial + i
        bits.state = fresh
        gen.standard_normal(out=trial_values)
    with np.errstate(over="ignore"):  # an overflow is non-finite; the callers reject it
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


def _run_chunk(cfg: SimConfig, start: int, stop: int, threshold: int, cd: "float | None") -> tuple:
    """Run trials [start, stop): count sums T^2 at or above ``threshold``
    and, unless ``cd`` is None, pairs whose average ranks differ by at least ``cd``.
    """
    n, k = cfg.n_datasets, cfg.n_models
    rejections = 0
    pair_hits = np.zeros((k, k), dtype=np.int64)
    # trials per chunk; when N < k the (chunk, k, k) pair stage, not the block, counts
    chunk = max(1, CHUNK_ELEMENTS // (max(n, k) * k))
    block = np.empty((min(chunk, stop - start), n, k))
    for lo in range(start, stop, chunk):
        values = block[: min(chunk, stop - lo)]
        _draw(cfg, lo, values)
        if not np.isfinite(values).all():
            raise ValidationError("performance values must be finite")
        np.negative(values, out=values)  # maximize: rank 1 = largest value
        s2 = _doubled_rank_sums(doubled_midranks(values), k)
        t = s2 - n * (k + 1)
        rejections += int(np.count_nonzero((t * t).sum(axis=-1) >= threshold))
        if cd is not None:
            avg = s2 / (2 * n)  # the correctly rounded rational of ranks.average_ranks
            pair_hits += (np.abs(avg[:, :, None] - avg[:, None, :]) >= cd).sum(axis=0)
    return rejections, pair_hits


def _run_trials(cfg: SimConfig, workers: int, cd: "float | None" = None) -> tuple:
    """Omnibus rejections and, when ``cd`` is given, pair hits over every trial of ``cfg``."""
    check_int(workers, "workers", 1)
    threshold = _reject_threshold(cfg.n_datasets, cfg.n_models, cfg.alpha)
    # Under fork the pool starts all its processes up front, and the results do
    # not depend on the split: one nonempty span per process, one process per CPU.
    workers = min(workers, cfg.trials, os.cpu_count() or 1)
    if workers == 1:
        return _run_chunk(cfg, 0, cfg.trials, threshold, cd)
    bounds = [i * cfg.trials // workers for i in range(workers + 1)]
    # imported here so a 1-worker run does not pay for concurrent.futures and logging
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) as pool:
        rejections, pair_hits = zip(*pool.map(
            _run_chunk, repeat(cfg), bounds, bounds[1:], repeat(threshold), repeat(cd)))
    return sum(rejections), sum(pair_hits)


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
    pairwise_detection: tuple  # k row tuples of floats

    def to_dict(self) -> dict:
        return {
            "config": self.config.to_dict(),
            "omnibus_rate": self.omnibus_rate,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
            "trials": self.config.trials,
            "cd": self.cd,
            "pairwise_detection": [list(row) for row in self.pairwise_detection],
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
    # a Type-I study reports the omnibus rate alone; a power study solves its CD
    # here, before any trial, so a design without one fails before a pool starts
    cd = nemenyi_cd(cfg.n_models, cfg.n_datasets, cfg.alpha)
    rejections, pair_hits = _run_trials(cfg, workers, cd)
    lo, hi = _wilson_ci(rejections, cfg.trials)
    return PowerEstimate(
        config=cfg,
        cd=cd,
        omnibus_rejections=rejections,
        omnibus_rate=rejections / cfg.trials,
        ci_low=lo,
        ci_high=hi,
        pairwise_detection=tuple(tuple(h / cfg.trials for h in row) for row in pair_hits.tolist()),
    )

"""Performance matrices and their conversion to per-dataset ranks.

A :class:`PerformanceMatrix` holds one metric value per (dataset, model)
cell.  Ranking happens within each dataset row (rank 1 = best, ties get
mid-ranks), and :func:`average_ranks` averages those rows into the per-model
average ranks that the omnibus test consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping

import numpy as np

from .cd import check_average_ranks
from .errors import UnsupportedDesignError, ValidationError, check_choice, check_label, check_unique


class Direction(str, Enum):
    """Whether larger or smaller metric values are better."""

    MAXIMIZE = "maximize"
    MINIMIZE = "minimize"

    @classmethod
    def parse(cls, value: "str | Direction") -> "Direction":
        return check_choice(cls, value, "direction")


@dataclass(frozen=True)
class ModelId:
    """A compared model: a display label plus free-form metadata tags.

    Tags encode the dimensions varied across models, e.g.
    ``{"feature_set": "clickstream", "algorithm": "adaboost"}``, so that
    results can later be summarized per tag value.
    """

    label: str
    tags: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self):
        check_label(self.label)
        object.__setattr__(self, "tags", dict(self.tags))


@dataclass(frozen=True)
class PerformanceMatrix:
    """An N x k block of metric values: one row per dataset, one column per model.

    Invariants enforced at construction: at least one dataset row, at least
    three model columns, every cell finite, unique dataset ids and model
    labels.  The values array is made read-only; instances are safe to share
    across threads.
    """

    datasets: tuple
    models: tuple
    values: np.ndarray
    direction: Direction = Direction.MAXIMIZE

    def __post_init__(self):
        datasets = tuple(self.datasets)
        models = tuple(self.models)
        values = np.array(self.values, dtype=float)
        direction = Direction.parse(self.direction)

        if values.ndim != 2:
            raise ValidationError(f"values must be 2-dimensional, got shape {values.shape}")
        n, k = values.shape
        if len(datasets) != n:
            raise ValidationError(f"{len(datasets)} dataset ids for {n} rows")
        if len(models) != k:
            raise ValidationError(f"{len(models)} models for {k} columns")
        if n < 1:
            raise ValidationError("at least one dataset row is required")
        if k < 3:
            raise UnsupportedDesignError(
                f"k={k} models unsupported: the rank test machinery needs k >= 3"
            )
        check_unique(datasets, "duplicate dataset id(s)")
        labels = [m.label for m in models]
        check_unique(labels, "duplicate model label(s)")
        bad = np.argwhere(~np.isfinite(values))
        if bad.size:
            i, j = bad[0]
            raise ValidationError(
                f"non-finite value at dataset {datasets[i]!r}, model {labels[j]!r}"
            )

        values.setflags(write=False)
        object.__setattr__(self, "datasets", datasets)
        object.__setattr__(self, "models", models)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "direction", direction)

    @property
    def n_datasets(self) -> int:
        return self.values.shape[0]

    @property
    def k(self) -> int:
        return self.values.shape[1]

    @property
    def labels(self) -> tuple:
        return tuple(m.label for m in self.models)


def _check_rank_vectors(r: np.ndarray, name: str) -> None:
    """Every vector along the last axis is finite, lies in [1, k] and sums to k(k+1)/2.

    The sum test is ``math.isclose(total, k(k+1)/2, rel_tol=1e-9, abs_tol=1e-9)``.
    ``name`` ("rank" or "average rank") words the error messages;
    ``cd.check_average_ranks`` is the pure-Python form for one vector.
    """
    k = r.shape[-1]
    if np.any(~np.isfinite(r)):
        raise ValidationError(f"{name}s must be finite")
    if np.any(r < 1) or np.any(r > k):
        raise ValidationError(f"{name}s must lie in [1, {k}]")
    target = k * (k + 1) / 2
    totals = r.sum(axis=-1).ravel()
    tol = np.maximum(1e-9 * np.maximum(np.abs(totals), target), 1e-9)
    bad = np.flatnonzero(np.abs(totals - target) > tol)
    if bad.size:
        i = bad[0]
        raise ValidationError(f"row {i} {name} sum {totals[i]} != k(k+1)/2 = {target}")


@dataclass(frozen=True)
class AverageRanks:
    """Length-k vector of average ranks; entries sum to k(k+1)/2."""

    r: np.ndarray

    def __post_init__(self):
        r = np.array(self.r, dtype=float)
        if r.ndim != 1:
            raise ValidationError(f"average ranks must be 1-dimensional, got shape {r.shape}")
        check_average_ranks(r.tolist())
        r.setflags(write=False)
        object.__setattr__(self, "r", r)

    @property
    def k(self) -> int:
        return self.r.shape[0]

    def __len__(self) -> int:
        return self.k

    def __getitem__(self, j: int) -> float:
        return float(self.r[j])


def rank_vector(ranks) -> np.ndarray:
    """Coerce AverageRanks, a finite rank vector or a stack of them (last axis) to an array.

    Unlike AverageRanks, no sum invariant: ``cd.rank_list`` is the numpy-free 1-d form.
    """
    r = ranks.r if isinstance(ranks, AverageRanks) else np.asarray(ranks, dtype=float)
    if r.ndim < 1 or r.shape[-1] < 2:
        raise ValidationError("need a 1-d vector of at least two ranks")
    if np.any(~np.isfinite(r)):
        raise ValidationError("ranks must be finite")
    return r


def midranks(a) -> np.ndarray:
    """Rank along the last axis: 1 = smallest, tied values share their mean position.

    Sort-based, O(k log k) per row, for an array of any shape with at least
    one axis.  For finite input the result equals SciPy's
    ``rankdata(a, method="average", axis=-1)`` exactly: mid-ranks are
    integers or halves, so no rounding enters.
    """
    a = np.asarray(a, dtype=float)
    k = a.shape[-1]
    order = np.argsort(a, axis=-1)
    ordered = np.take_along_axis(a, order, axis=-1)
    pos = np.arange(k)
    # A tie run starts where the sorted value changes and ends before the next start.
    starts = np.ones(a.shape, dtype=bool)
    starts[..., 1:] = ordered[..., 1:] != ordered[..., :-1]
    ends = np.ones(a.shape, dtype=bool)
    ends[..., :-1] = starts[..., 1:]
    first = np.maximum.accumulate(np.where(starts, pos, 0), axis=-1)
    last = np.minimum.accumulate(np.where(ends, pos, k - 1)[..., ::-1], axis=-1)[..., ::-1]
    out = np.empty(a.shape)
    np.put_along_axis(out, order, (first + last) / 2.0 + 1.0, axis=-1)
    return out


def average_ranks(m: PerformanceMatrix) -> AverageRanks:
    """Average the per-dataset ranks into one rank per model (lower = better)."""
    return AverageRanks(stacked_average_ranks(m.values, m.direction))


def stacked_average_ranks(values, direction: "str | Direction") -> np.ndarray:
    """Average ranks of a stack of performance blocks: shape (..., N, k) -> (..., k).

    The bulk form of :func:`average_ranks` for callers that rank many
    matrices at once.  It enforces, once per stack, the invariants that the
    PerformanceMatrix and AverageRanks constructors enforce per matrix:
    finite values, ranks in [1, k], rank rows and average-rank vectors
    summing to k(k+1)/2.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim < 2 or values.shape[-1] < 2:
        raise ValidationError(f"need blocks of at least two models, got shape {values.shape}")
    if not np.isfinite(values).all():
        raise ValidationError("performance values must be finite")
    signed = -values if Direction.parse(direction) is Direction.MAXIMIZE else values
    ranks = midranks(signed)
    _check_rank_vectors(ranks, "rank")
    avg = ranks.mean(axis=-2)
    _check_rank_vectors(avg, "average rank")
    return avg

"""Test oracle: numpy forms of ranking, ``ranks.average_ranks`` and ``cd.check_average_ranks``.

``midranks`` is the float form of the simulate kernel's integer core, the
form that SciPy's ``rankdata`` returns.  ``stacked_average_ranks`` averages a
stack of performance blocks through that core, so the tests can hold it to
the pure-Python per-matrix pipeline on tied blocks.  ``check_rank_vectors``
is the float-tolerance check that ``cd.check_average_ranks`` applies to one
vector.  None is part of the package; only the test suite imports them.
"""

from __future__ import annotations

import numpy as np

from cdranks import Direction, ValidationError
from cdranks.simulate import doubled_midranks


def midranks(a) -> np.ndarray:
    """Rank along the last axis: 1 = smallest, tied values share their mean position.

    For finite input of any shape with at least one axis, the float64 result
    equals SciPy's ``rankdata(a, method="average", axis=-1)`` exactly:
    it is ``doubled_midranks`` halved.
    """
    return doubled_midranks(np.asarray(a, dtype=float)) / 2.0


def check_rank_vectors(r: np.ndarray, name: str) -> None:
    """Every vector along the last axis is finite, lies in [1, k] and sums to k(k+1)/2.

    The sum test is ``math.isclose(total, k(k+1)/2, rel_tol=1e-9, abs_tol=1e-9)``.
    ``name`` ("rank" or "average rank") words the error messages.
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


def stacked_average_ranks(values, direction: "str | Direction") -> np.ndarray:
    """Average ranks of a stack of performance blocks: shape (..., N, k) -> (..., k).

    Each average is the block's doubled rank sum over 2N, as in the kernel.
    The checks are those of the PerformanceMatrix and AverageRanks
    constructors: finite values, ranks in [1, k], rank rows and average-rank
    vectors summing to k(k+1)/2.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim < 2 or values.shape[-1] < 2:
        raise ValidationError(f"need blocks of at least two models, got shape {values.shape}")
    if not np.isfinite(values).all():
        raise ValidationError("performance values must be finite")
    signed = -values if Direction.parse(direction) is Direction.MAXIMIZE else values
    doubled = doubled_midranks(signed)
    check_rank_vectors(doubled / 2.0, "rank")
    avg = doubled.sum(axis=-2, dtype=np.int64) / (2 * values.shape[-2])
    check_rank_vectors(avg, "average rank")
    return avg

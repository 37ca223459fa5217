"""The post-hoc critical-difference rule in rank units, computed on the standard
library alone, so that ``cdranks analyze`` and ``cdranks diagram`` load no numpy."""

from __future__ import annotations

import math

from .errors import UnsupportedDesignError, ValidationError, check_alpha, check_datasets, check_positive
from .errors import check_reals

# q_alpha's fixed Simpson grid holds q to 4e-9 relative inside this domain;
# past it the error grows, to 2e-6 at k = 5000 and to the 4th decimal at
# alpha = 1e-12, so q_alpha refuses such designs.
_MAX_K, _MIN_ALPHA = 1000, 1e-5


def q_alpha(k: int, alpha: float) -> float:
    """Critical value for k groups: the (1-alpha) quantile of the infinite-df
    studentized range divided by sqrt(2) (Demsar 2006).

    Newton steps inside a bisection bracket solve F(q) = 1 - alpha, where
    F(q) = k int phi(z) [Phi(z) - Phi(z - q)]^(k-1) dz (Harter 1960) and
    F'(q) = k(k-1) int phi(z) phi(z - q) [Phi(z) - Phi(z - q)]^(k-2) dz.
    Rounding to 7 significant digits keeps a platform's last bits off a CD.
    """
    check_alpha(alpha)
    if isinstance(k, bool) or not isinstance(k, int) or not 2 <= k <= _MAX_K or alpha < _MIN_ALPHA:
        raise UnsupportedDesignError(
            f"k={k!r}, alpha={alpha!r} is outside 2 <= k <= {_MAX_K}, alpha >= {_MIN_ALPHA:g}, "
            "where the critical value is computed"
        )
    # Composite Simpson, 240 panels on [-8, 8] (phi(z) < 1e-14 beyond): each
    # node's z, its weight times phi(z), and Phi(z).
    h = 16.0 / 240
    nodes = [
        (z, w * h / 3 * math.exp(-z * z / 2) / math.sqrt(2 * math.pi), math.erfc(-z / math.sqrt(2)) / 2)
        for z, w in ((-8.0 + i * h, 4 if i % 2 else 2 if 0 < i < 240 else 1) for i in range(241))
    ]
    lo, hi, q = 0.0, 32.0, 4.0
    for _ in range(100):
        cdf = pdf = 0.0
        for z, w, upper in nodes:
            d = upper - math.erfc((q - z) / math.sqrt(2)) / 2
            if d > 0.0:
                term = w * d ** (k - 2)
                cdf += term * d
                pdf += term * math.exp(-(z - q) ** 2 / 2)
        excess = k * cdf - (1.0 - alpha)
        lo, hi = (q, hi) if excess < 0.0 else (lo, q)
        step = excess * math.sqrt(2 * math.pi) / (k * (k - 1) * pdf) if pdf > 0.0 else q
        if abs(step) <= 1e-11 * q:  # the sums' rounding noise is near 1e-12
            q -= step
            break
        q = q - step if lo < q - step < hi else (lo + hi) / 2
    return float(f"{q / math.sqrt(2):.7g}")


def nemenyi_cd(k: int, n_datasets: int, alpha: float = 0.05) -> float:
    """Critical difference q_alpha * sqrt(k(k+1) / (6N)) in average-rank units."""
    check_datasets(n_datasets)
    # int arithmetic: 6.0 * N would overflow for N past the float range
    return q_alpha(k, alpha) * math.sqrt(k * (k + 1) / (6 * n_datasets))


def check_average_ranks(r: list) -> None:
    """At least two finite average ranks in [1, k] that sum to k(k+1)/2 within 1e-9."""
    k = len(r)
    if k < 2:
        raise ValidationError("average ranks need at least two models")
    if not all(map(math.isfinite, r)):
        raise ValidationError("average ranks must be finite")
    if min(r) < 1 or max(r) > k:
        raise ValidationError(f"average ranks must lie in [1, {k}]")
    total, target = math.fsum(r), k * (k + 1) / 2
    if abs(total - target) > max(1e-9 * max(abs(total), target), 1e-9):
        raise ValidationError(f"row 0 average rank sum {total} != k(k+1)/2 = {target}")


def rank_list(ranks) -> tuple:
    """AverageRanks, a sequence or a 1-d array of at least two finite ranks, as a tuple of floats."""
    message = "need a 1-d vector of at least two ranks"
    r = check_reals(ranks, message)
    if len(r) < 2:
        raise ValidationError(message)
    if not all(map(math.isfinite, r)):
        raise ValidationError("ranks must be finite")
    return r


def indistinguishable_groups(ranks, cd: float) -> list:
    """Maximal runs of rank-adjacent models whose rank spread is below the CD.

    Models are sorted by average rank (ties broken by index for determinism);
    every maximal contiguous run with spread < cd becomes one group, so a
    model far from all others comes back as a singleton.  No returned group
    is a subset of another and together they cover all k models.  ``ranks``
    may be AverageRanks or any finite rank vector.

    Returns a list of tuples of model indices, each tuple in rank order.
    """
    check_positive(cd, "cd")
    r = rank_list(ranks)
    k = len(r)
    order = sorted(range(k), key=lambda j: (r[j], j))
    sorted_r = [r[j] for j in order]

    # The run end never decreases as the start advances, so each scan resumes
    # there, and a run is maximal exactly when it reaches past the last kept run.
    groups = []
    last_end = end = -1
    for start in range(k):
        end = max(end, start)
        while end + 1 < k and sorted_r[end + 1] - sorted_r[start] < cd:
            end += 1
        if end > last_end:
            groups.append(tuple(order[start : end + 1]))
            last_end = end
    return groups

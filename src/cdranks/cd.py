"""The post-hoc critical-difference rule in rank units, on the standard library alone.

It needs at most 20 floats, so ``cdranks diagram`` runs without numpy.
"""

from __future__ import annotations

import math

from .errors import UnsupportedDesignError, ValidationError, check_datasets, check_positive

SUPPORTED_ALPHAS = (0.01, 0.05, 0.10)
SUPPORTED_K = range(2, 21)

# (1 - alpha) quantiles of the infinite-df studentized range divided by sqrt(2),
# for k = 2..20 groups, rounded to 6 decimals from quadrature quantiles.  A
# hardcoded table keeps CD values bit-for-bit reproducible across platforms;
# the test suite revalidates every entry against its own quadrature oracle.
_Q_TABLES = {
    0.01: {
        2: 2.575829, 3: 2.913494, 4: 3.113250, 5: 3.254686, 6: 3.363740,
        7: 3.452213, 8: 3.526471, 9: 3.590339, 10: 3.646291, 11: 3.696021,
        12: 3.740733, 13: 3.781318, 14: 3.818451, 15: 3.852655, 16: 3.884343,
        17: 3.913850, 18: 3.941446, 19: 3.967357, 20: 3.991770,
    },
    0.05: {
        2: 1.959964, 3: 2.343701, 4: 2.569032, 5: 2.727774, 6: 2.849705,
        7: 2.948320, 8: 3.030878, 9: 3.101730, 10: 3.163684, 11: 3.218654,
        12: 3.268004, 13: 3.312739, 14: 3.353618, 15: 3.391230, 16: 3.426041,
        17: 3.458425, 18: 3.488685, 19: 3.517073, 20: 3.543799,
    },
    0.10: {
        2: 1.644854, 3: 2.052293, 4: 2.291342, 5: 2.459516, 6: 2.588521,
        7: 2.692732, 8: 2.779884, 9: 2.854606, 10: 2.919889, 11: 2.977768,
        12: 3.029694, 13: 3.076734, 14: 3.119693, 15: 3.159199, 16: 3.195743,
        17: 3.229723, 18: 3.261461, 19: 3.291224, 20: 3.319233,
    },
}


def q_alpha(k: int, alpha: float) -> float:
    """Critical value for k groups: the (1-alpha) quantile of the infinite-df
    studentized range divided by sqrt(2).
    """
    table = _Q_TABLES.get(alpha)
    if table is None:
        supported = ", ".join(f"{a:.2f}" for a in SUPPORTED_ALPHAS)
        raise UnsupportedDesignError(
            f"alpha={alpha} is not tabulated; supported levels: {supported}"
        )
    if not isinstance(k, int) or isinstance(k, bool) or k not in table:
        raise UnsupportedDesignError(
            f"k={k!r} is outside the tabulated range {min(SUPPORTED_K)}..{max(SUPPORTED_K)}"
        )
    return table[k]


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


def rank_list(ranks) -> list:
    """AverageRanks, a sequence or a 1-d array of at least two finite ranks, as a list of floats."""
    try:
        r = [] if isinstance(ranks, (str, bytes)) else list(map(float, ranks))
    except (TypeError, ValueError, OverflowError):
        r = []
    if len(r) < 2:
        raise ValidationError("need a 1-d vector of at least two ranks")
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

    # The run end index is nondecreasing in the start index, so a run is
    # maximal exactly when it reaches further than the previous kept run.
    groups = []
    last_end = -1
    for start in range(k):
        end = start
        while end + 1 < k and sorted_r[end + 1] - sorted_r[start] < cd:
            end += 1
        if end > last_end:
            groups.append(tuple(order[start : end + 1]))
            last_end = end
    return groups

"""The two-stage comparison procedure.

Stage one is the Friedman omnibus test (chi-square form, or the
less-conservative F-form correction) on the average ranks of k models over N
datasets.  Stage two is the post-hoc Nemenyi test: a critical difference in
average rank decides every pairwise comparison, and models whose ranks fall
within the CD of each other are grouped as statistically indistinguishable.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from enum import Enum

from .cd import indistinguishable_groups, nemenyi_cd, rank_list
from .distributions import chi_square_sf, f_sf
from .errors import (
    DegenerateStatisticError,
    SmallSampleWarning,
    ValidationError,
    check_alpha,
    check_choice,
    check_datasets,
    check_models,
    check_positive,
)
from .ranks import AverageRanks, PerformanceMatrix, average_ranks

# Below this many datasets the chi-square approximation is rough and exact
# small-sample critical values would be preferable.
SMALL_SAMPLE_N = 15


class Variant(str, Enum):
    """Omnibus statistic form: the classic chi-square or the F-form correction."""

    FRIEDMAN = "friedman"
    IMAN_DAVENPORT = "iman_davenport"

    @classmethod
    def parse(cls, value: "str | Variant") -> "Variant":
        return check_choice(cls, value, "variant")


@dataclass(frozen=True)
class FriedmanResult:
    """Outcome of the omnibus test.

    ``df`` is the numerator degrees of freedom (k - 1); ``df2`` is the
    denominator degrees of freedom and is only set for the F-form variant.
    """

    statistic: float
    df: int
    p_value: float
    alpha: float
    reject_null: bool
    variant: Variant
    df2: int | None = None


@dataclass(frozen=True)
class NemenyiResult:
    """Outcome of the post-hoc test.

    ``significant[a][b]`` is True iff models a and b differ by at least the
    critical difference in average rank.  ``groups`` are the maximal runs of
    rank-adjacent models whose total spread stays below the CD; every model
    index appears in at least one group.
    """

    cd: float
    alpha: float
    significant: tuple
    groups: tuple

    def __post_init__(self):
        sig = tuple(tuple(map(bool, row)) for row in self.significant)
        object.__setattr__(self, "significant", sig)
        object.__setattr__(self, "groups", tuple(tuple(g) for g in self.groups))


def _sum_t2(ranks, n_datasets: int, k: int) -> int:
    """The integer sum of T_j^2, T_j = 2 S_j - N(k+1), from average ranks R_j = S_j / N.

    Each doubled rank sum 2 S_j is recovered as round(2N R_j).  Ranks that are
    not mid-rank sums over N datasets raise ValidationError: 2 S_j / (2N) must
    give R_j back, each 2 S_j must lie in [2N, 2Nk], and they must total N k(k+1).
    """
    check_models(k)
    r = rank_list(ranks)
    if len(r) != k:
        raise ValidationError(f"{len(r)} average ranks for k={k} models")
    check_datasets(n_datasets)
    two_n = 2 * n_datasets
    s2 = [round(two_n * v) for v in r]
    if sum(s2) != n_datasets * k * (k + 1) or any(
        not two_n <= s <= two_n * k or s / two_n != v for s, v in zip(s2, r)
    ):
        raise ValidationError(f"average ranks are not mid-rank sums over N={n_datasets} datasets")
    return sum((s - n_datasets * (k + 1)) ** 2 for s in s2)


def friedman_statistic(ranks, n_datasets: int, k: int) -> float:
    """The rank-based omnibus statistic 12N/(k(k+1)) * sum_j (R_j - (k+1)/2)^2.

    With the integers T_j = 2N R_j - N(k+1) this is 3 sum_j T_j^2 / (N k(k+1)),
    computed as one correctly rounded division of two ints.  Zero exactly
    when all average ranks are equal.  ``ranks`` is AverageRanks or any
    sequence of k average ranks over ``n_datasets`` datasets.
    """
    return 3 * _sum_t2(ranks, n_datasets, k) / (n_datasets * k * (k + 1))


def friedman_test(
    m: PerformanceMatrix,
    alpha: float = 0.05,
    variant: "str | Variant" = Variant.FRIEDMAN,
    ranks: "AverageRanks | None" = None,
) -> FriedmanResult:
    """Run the omnibus test on a performance matrix.

    ``ranks`` is ``average_ranks(m)`` when the caller already holds it, as
    the CLI does for the post-hoc; by default the matrix is ranked here.

    The ``friedman`` variant compares the statistic to chi-square with k - 1
    degrees of freedom.  The ``iman_davenport`` variant rescales it to
    F_F = (N-1) * chi2 / (N(k-1) - chi2) with (k-1, (k-1)(N-1)) degrees of
    freedom, which is less conservative.  It is computed exactly, as
    (N-1) 3 sum T^2 / (N^2 k(k^2-1) - 3 sum T^2) in :func:`friedman_statistic`'s ints.

    Raises
    ------
    DegenerateStatisticError
        Under ``iman_davenport`` when rankings are perfectly consistent
        (the integer denominator is 0), where the F statistic is undefined.
    """
    check_alpha(alpha)
    variant = Variant.parse(variant)
    n, k = m.n_datasets, m.k
    if n < SMALL_SAMPLE_N:
        warnings.warn(
            f"only N={n} datasets: the chi-square approximation to the rank "
            f"statistic is rough below N={SMALL_SAMPLE_N}",
            SmallSampleWarning,
            stacklevel=2,
        )
    three_t2 = 3 * _sum_t2(average_ranks(m) if ranks is None else ranks, n, k)

    if variant is Variant.FRIEDMAN:
        statistic, df, df2 = three_t2 / (n * k * (k + 1)), k - 1, None
        p = chi_square_sf(statistic, df)
    else:
        denom = n * n * k * (k * k - 1) - three_t2
        if denom == 0:
            raise DegenerateStatisticError(
                "rankings are perfectly consistent across datasets: the F-form "
                "statistic divides by N(k-1) - chi2 = 0"
            )
        statistic = (n - 1) * three_t2 / denom
        df, df2 = k - 1, (k - 1) * (n - 1)
        p = f_sf(statistic, df, df2)

    return FriedmanResult(
        statistic=statistic,
        df=df,
        p_value=p,
        alpha=alpha,
        reject_null=p < alpha,
        variant=variant,
        df2=df2,
    )


def pairwise_significance(ranks, cd: float) -> tuple:
    """k x k tuple of tuples of bools: True where |R_a - R_b| >= cd.

    A gap exactly equal to the CD counts as significant, making this the
    exact complement of membership in a common indistinguishable group.
    ``ranks`` may be AverageRanks or any finite rank vector.  The diagonal
    is False because a zero gap never reaches a positive CD.
    """
    check_positive(cd, "cd")
    r = rank_list(ranks)
    return tuple(tuple(abs(a - b) >= cd for b in r) for a in r)


def nemenyi_test(ranks, n_datasets: int, alpha: float = 0.05) -> NemenyiResult:
    """Run the post-hoc test: critical difference, pairwise calls, and groups."""
    check_alpha(alpha)
    cd = nemenyi_cd(len(rank_list(ranks)), n_datasets, alpha)
    return NemenyiResult(
        cd=cd,
        alpha=alpha,
        significant=pairwise_significance(ranks, cd),
        groups=indistinguishable_groups(ranks, cd),
    )


def build_report(
    m: PerformanceMatrix,
    friedman: FriedmanResult,
    nemenyi: NemenyiResult,
    ranks: AverageRanks,
) -> dict:
    """Assemble the JSON-serializable analysis report.

    Models are listed best rank first (label breaks ties).  The post-hoc
    section is always present; ``posthoc_licensed`` records whether the
    omnibus test actually rejected, since an accepted null leaves the
    pairwise conclusions unsupported.
    """
    k = m.k
    order = sorted(range(k), key=lambda j: (ranks.r[j], m.models[j].label))

    pairs = []
    for a_pos in range(k):
        for b_pos in range(a_pos + 1, k):
            a, b = order[a_pos], order[b_pos]
            if nemenyi.significant[a][b]:
                pairs.append([m.models[a].label, m.models[b].label])

    groups = [[m.models[j].label for j in group] for group in nemenyi.groups]

    report = {
        "statistic": friedman.statistic,
        "df": friedman.df,
        "p_value": friedman.p_value,
        "alpha": friedman.alpha,
        "reject_null": friedman.reject_null,
        "variant": friedman.variant.value,
        "cd": nemenyi.cd,
        "average_ranks": [
            {
                "label": m.models[j].label,
                "tags": dict(m.models[j].tags),
                "rank": float(ranks.r[j]),
            }
            for j in order
        ],
        "significant_pairs": pairs,
        "groups": groups,
        "posthoc_licensed": friedman.reject_null,
        "n_datasets": m.n_datasets,
    }
    if friedman.df2 is not None:
        report["df2"] = friedman.df2
    return report

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

import numpy as np

from .cd import indistinguishable_groups, nemenyi_cd, rank_list
from .distributions import chi_square_sf, f_sf
from .errors import (
    DegenerateStatisticError,
    SmallSampleWarning,
    UnsupportedDesignError,
    ValidationError,
    check_alpha,
    check_choice,
    check_positive,
)
from .ranks import AverageRanks, PerformanceMatrix, average_ranks, rank_vector

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
    significant: np.ndarray
    groups: tuple

    def __post_init__(self):
        sig = np.array(self.significant, dtype=bool)
        sig.setflags(write=False)
        object.__setattr__(self, "significant", sig)
        object.__setattr__(self, "groups", tuple(tuple(g) for g in self.groups))


def friedman_statistic(ranks, n_datasets: int, k: int):
    """The rank-based omnibus statistic 12N/(k(k+1)) * [sum_j R_j^2 - k(k+1)^2/4].

    Computed in the centered form 12N/(k(k+1)) * sum_j (R_j - (k+1)/2)^2,
    which is the same expression but cannot go negative through rounding.
    Zero exactly when all average ranks are equal.

    ``ranks`` is an AverageRanks (the result is a float) or an array of
    average-rank vectors along its last axis (the result is an array with
    one statistic per vector, each equal to the single-vector value).
    """
    if k < 3:
        raise UnsupportedDesignError(f"k={k} models unsupported: need k >= 3")
    r = rank_vector(ranks)
    if r.shape[-1] != k:
        raise ValidationError(f"{r.shape[-1]} average ranks for k={k} models")
    if n_datasets < 2:
        raise UnsupportedDesignError(f"N={n_datasets} datasets unsupported: need N >= 2")
    centered = r - (k + 1) / 2.0
    # A (1 x k) @ (k x 1) product runs the same BLAS dot as np.dot on each
    # vector, so a stack gives the single-vector bits whatever its shape.
    bracket = (centered[..., None, :] @ centered[..., :, None])[..., 0, 0]
    chi2 = (12.0 * n_datasets * bracket) / (k * (k + 1.0))
    return float(chi2) if chi2.ndim == 0 else chi2


def friedman_test(
    m: PerformanceMatrix,
    alpha: float = 0.05,
    variant: "str | Variant" = Variant.FRIEDMAN,
) -> FriedmanResult:
    """Run the omnibus test on a performance matrix.

    The ``friedman`` variant compares the statistic to chi-square with k - 1
    degrees of freedom.  The ``iman_davenport`` variant rescales it to
    F_F = (N-1) * chi2 / (N(k-1) - chi2) with (k-1, (k-1)(N-1)) degrees of
    freedom, which is less conservative.

    Raises
    ------
    DegenerateStatisticError
        Under ``iman_davenport`` when rankings are perfectly consistent
        (chi2 = N(k-1)), where the F statistic is undefined.
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
    chi2 = friedman_statistic(average_ranks(m), n, k)

    if variant is Variant.FRIEDMAN:
        statistic, df, df2 = chi2, k - 1, None
        p = chi_square_sf(chi2, df)
    else:
        denom = n * (k - 1) - chi2
        if denom <= 1e-9:
            raise DegenerateStatisticError(
                "rankings are perfectly consistent across datasets: the F-form "
                "statistic divides by N(k-1) - chi2 = 0"
            )
        statistic = (n - 1) * chi2 / denom
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


def pairwise_significance(ranks, cd: float) -> np.ndarray:
    """Boolean k x k matrix: True where |R_a - R_b| >= cd.

    A gap exactly equal to the CD counts as significant, making this the
    exact complement of membership in a common indistinguishable group.
    ``ranks`` may be AverageRanks, any finite rank vector, or an array of
    rank vectors along its last axis, which gives one k x k matrix per vector.
    The diagonal is False because a zero gap never reaches a positive CD.
    """
    check_positive(cd, "cd")
    r = rank_vector(ranks)
    sig = np.abs(r[..., :, None] - r[..., None, :]) >= cd
    sig.setflags(write=False)
    return sig


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

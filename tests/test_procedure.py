"""Omnibus test, critical difference, pairwise calls, and grouping."""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import friedmanchisquare, rankdata

from cdranks import (
    AverageRanks,
    DegenerateStatisticError,
    ModelId,
    PerformanceMatrix,
    SmallSampleWarning,
    UnsupportedDesignError,
    ValidationError,
    Variant,
    average_ranks,
    build_report,
    friedman_statistic,
    friedman_test,
    indistinguishable_groups,
    nemenyi_cd,
    nemenyi_test,
    pairwise_significance,
)


def matrix(values, labels=None, direction="maximize"):
    values = np.asarray(values, dtype=float)
    n, k = values.shape
    labels = labels or [f"m{j}" for j in range(k)]
    return PerformanceMatrix(
        datasets=tuple(f"d{i}" for i in range(n)),
        models=tuple(ModelId(l) for l in labels),
        values=values,
        direction=direction,
    )


def consistent_matrix(n, k):
    """Every dataset ranks the models identically: 1, 2, ..., k."""
    return matrix([[float(k - j) for j in range(k)]] * n)


class TestFriedmanStatistic:
    def test_equal_ranks_give_zero(self):
        r = AverageRanks(np.array([2.0, 2.0, 2.0]))
        assert friedman_statistic(r, 5, 3) == 0.0

    def test_hand_computed_3x3(self):
        r = AverageRanks(np.array([1.0, 2.0, 3.0]))
        assert friedman_statistic(r, 3, 3) == 6.0

    def test_hand_computed_8x31(self):
        r = AverageRanks(np.arange(1.0, 9.0))
        assert friedman_statistic(r, 31, 8) == 217.0

    @pytest.mark.parametrize("n,k", [(3, 3), (10, 5), (31, 8)])
    def test_consistent_rankings_hit_maximum(self, n, k):
        r = average_ranks(consistent_matrix(n, k))
        assert friedman_statistic(r, n, k) == n * (k - 1)

    @pytest.mark.filterwarnings("ignore::cdranks.errors.SmallSampleWarning")
    @pytest.mark.parametrize("k", [3, 8, 17])
    def test_exact_rational_correctly_rounded(self, k):
        # The statistic is 3 sum T^2 / (N k(k+1)) rounded once, T_j = 2 S_j - N(k+1),
        # with the rank sums S_j taken from SciPy's mid-ranks; tied and untied rows.
        rng = np.random.default_rng(k)
        for n in (5, 31, 1000):
            for values in (rng.standard_normal((n, k)), rng.integers(0, 3, (n, k)).astype(float)):
                s2 = (2 * rankdata(-values, axis=1)).sum(axis=0).astype(np.int64)
                sum_t2 = sum((int(s) - n * (k + 1)) ** 2 for s in s2)
                exact = float(Fraction(3 * sum_t2, n * k * (k + 1)))
                assert friedman_statistic(average_ranks(matrix(values)), n, k) == exact
                assert friedman_test(matrix(values)).statistic == exact

    @pytest.mark.parametrize("variant", ["friedman", "iman_davenport"])
    def test_given_ranks_equal_ranking_the_matrix(self, variant):
        m = matrix(np.random.default_rng(3).integers(0, 3, (20, 5)).astype(float))
        assert friedman_test(m, variant=variant, ranks=average_ranks(m)) == friedman_test(
            m, variant=variant
        )

    def test_ranks_that_are_not_rank_sums_rejected(self):
        # 1.1 is no multiple of 1/(2N) for N = 4, and [1, 1, 4] has no ranking with ranks >= 1
        for ranks, n in (([1.1, 2.0, 2.9], 4), ([1.0, 1.0, 4.0], 5)):
            with pytest.raises(ValidationError, match="not mid-rank sums over N="):
                friedman_statistic(ranks, n, 3)

    def test_nonfinite_ranks_rejected(self):
        with pytest.raises(ValidationError, match="finite"):
            friedman_statistic(np.array([1.0, np.nan, 5.0]), 5, 3)

    def test_domain_errors(self):
        with pytest.raises(UnsupportedDesignError):
            friedman_statistic(AverageRanks(np.array([1.0, 2.0])), 5, 2)
        with pytest.raises(UnsupportedDesignError):
            friedman_statistic(AverageRanks(np.array([1.0, 2.0, 3.0])), 1, 3)
        with pytest.raises(ValidationError):
            friedman_statistic(AverageRanks(np.array([1.0, 2.0, 3.0])), 5, 4)


class TestFriedmanTest:
    def test_consistent_3x3(self):
        with pytest.warns(SmallSampleWarning):
            res = friedman_test(consistent_matrix(3, 3), alpha=0.05)
        assert res.statistic == 6.0
        assert res.p_value == pytest.approx(math.exp(-3.0), abs=1e-9)
        assert res.df == 2
        assert res.reject_null
        assert res.variant is Variant.FRIEDMAN
        assert res.df2 is None

    def test_constant_matrix(self):
        with pytest.warns(SmallSampleWarning):
            res = friedman_test(matrix(np.full((4, 3), 0.7)))
        assert res.statistic == 0.0
        assert res.p_value == 1.0
        assert not res.reject_null

    def test_no_small_sample_warning_at_15(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", SmallSampleWarning)
            friedman_test(consistent_matrix(15, 3))

    def test_matches_scipy_on_tie_free_data(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n = int(rng.integers(15, 40))
            k = int(rng.integers(3, 9))
            values = rng.standard_normal((n, k))
            res = friedman_test(matrix(values))
            stat, p = friedmanchisquare(*values.T)
            assert res.statistic == pytest.approx(stat, rel=1e-10)
            assert res.p_value == pytest.approx(p, rel=1e-10)

    def test_reject_iff_p_below_alpha(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            res = friedman_test(matrix(rng.standard_normal((20, 4))), alpha=0.5)
            assert res.reject_null == (res.p_value < 0.5)

    def test_alpha_validated(self):
        with pytest.raises(ValidationError):
            friedman_test(consistent_matrix(15, 3), alpha=1.0)

    def test_variant_parsed(self):
        with pytest.raises(ValidationError):
            friedman_test(consistent_matrix(15, 3), variant="anova")


class TestImanDavenport:
    def test_f_form_relation(self):
        rng = np.random.default_rng(13)
        values = rng.standard_normal((20, 5))
        chi = friedman_test(matrix(values)).statistic
        res = friedman_test(matrix(values), variant="iman_davenport")
        n, k = 20, 5
        assert res.statistic == pytest.approx((n - 1) * chi / (n * (k - 1) - chi), rel=1e-12)
        assert res.df == k - 1
        assert res.df2 == (k - 1) * (n - 1)
        assert 0.0 <= res.p_value <= 1.0
        assert res.variant is Variant.IMAN_DAVENPORT

    def test_less_conservative_than_chi_square(self):
        # the F-form yields a smaller p-value on moderately strong effects
        rng = np.random.default_rng(14)
        values = rng.standard_normal((20, 5)) + np.linspace(0.0, 3.0, 5)
        p_chi = friedman_test(matrix(values)).p_value
        p_f = friedman_test(matrix(values), variant="iman_davenport").p_value
        assert p_f < p_chi

    def test_perfectly_consistent_is_degenerate(self):
        with pytest.warns(SmallSampleWarning):
            with pytest.raises(DegenerateStatisticError) as err:
                friedman_test(consistent_matrix(3, 3), variant="iman_davenport")
        assert isinstance(err.value, UnsupportedDesignError)
        assert err.value.exit_code == 3

    @pytest.mark.parametrize("n,k", [(15, 3), (31, 8), (400, 20)])
    def test_degenerate_exactly_at_zero_denominator(self, n, k):
        # Consistent rankings make the integer denominator N^2 k(k^2-1) - 3 sum T^2
        # zero and raise.  One adjacent swap in one dataset leaves the least
        # positive denominator, 24(N-1); F is then the exact ratio rounded once.
        with pytest.raises(DegenerateStatisticError):
            friedman_test(consistent_matrix(n, k), variant="iman_davenport")
        values = [[float(k - j) for j in range(k)] for _ in range(n)]
        values[0][:2] = values[0][1::-1]
        t = [2 * n + 2 - n * (k + 1), 4 * n - 2 - n * (k + 1)]
        t += [2 * n * j - n * (k + 1) for j in range(3, k + 1)]
        three_t2 = 3 * sum(x * x for x in t)
        assert n * n * k * (k * k - 1) - three_t2 == 24 * (n - 1)
        res = friedman_test(matrix(values), variant="iman_davenport")
        assert res.statistic == float(Fraction((n - 1) * three_t2, 24 * (n - 1)))


class TestNemenyiCd:
    def test_headline_configuration(self):
        cd = nemenyi_cd(8, 31, 0.05)
        assert cd == pytest.approx(1.885724447172697, abs=1e-9)
        assert abs(cd - 1.886) <= 0.001

    def test_two_model_closed_form(self):
        # k=2: CD = q * sqrt(6 / (6N)) = q / sqrt(N)
        assert nemenyi_cd(2, 100, 0.05) == pytest.approx(0.1959964, abs=1e-9)

    @pytest.mark.parametrize("k,n", [(8, 31), (5, 7), (3, 12), (20, 50)])
    def test_quadrupling_n_halves_cd_exactly(self, k, n):
        assert nemenyi_cd(k, 4 * n, 0.05) == nemenyi_cd(k, n, 0.05) / 2

    def test_domain_errors(self):
        with pytest.raises(UnsupportedDesignError):
            nemenyi_cd(8, 1, 0.05)
        with pytest.raises(UnsupportedDesignError, match=r"2 <= k <= 1000"):
            nemenyi_cd(1001, 31, 0.05)
        with pytest.raises(UnsupportedDesignError, match=r"alpha >= 1e-05"):
            nemenyi_cd(8, 31, 9.9e-6)

    def test_designs_past_the_old_table(self):
        # k > 20 and levels other than 0.01, 0.05 and 0.10 (scipy: 3.5690400, 3.2561259)
        assert nemenyi_cd(21, 31, 0.05) == 3.56904 * math.sqrt(21 * 22 / (6 * 31))
        assert nemenyi_cd(8, 31, 0.025) == 3.256126 * math.sqrt(8 * 9 / (6 * 31))


class TestPairwiseSignificance:
    def test_worked_example(self):
        sig = pairwise_significance((1.5, 2.0, 3.9, 4.6), 1.0)
        expected = {(0, 2), (0, 3), (1, 2), (1, 3)}
        got = {(a, b) for a in range(4) for b in range(a + 1, 4) if sig[a][b]}
        assert got == expected

    def test_boundary_gap_counts(self):
        sig = pairwise_significance((1.0, 2.0), 1.0)
        assert sig[0][1] and sig[1][0]

    def test_cd_wider_than_span_gives_all_false(self):
        assert not any(map(any, pairwise_significance((1.0, 2.0, 3.0), 5.0)))

    def test_symmetric_false_diagonal_readonly(self):
        sig = pairwise_significance((1.0, 2.5, 3.0), 1.0)
        assert sig == tuple(zip(*sig))
        assert not any(sig[j][j] for j in range(3))
        with pytest.raises(TypeError):
            sig[0][1] = False

    def test_accepts_average_ranks(self):
        r = AverageRanks(np.array([1.0, 2.0, 3.0]))
        assert pairwise_significance(r, 1.5)[0][2]

    def test_cd_validated(self):
        with pytest.raises(ValidationError):
            pairwise_significance((1.0, 2.0), 0.0)
        # an int past the float range, a bool, and non-finite values
        for cd in (10**400, True, math.inf, math.nan):
            with pytest.raises(ValidationError, match="^cd must be a positive real"):
                pairwise_significance([1.0, 2.0, 3.0], cd)


class TestIndistinguishableGroups:
    def test_worked_example(self):
        assert indistinguishable_groups((1.5, 2.0, 3.9, 4.6), 1.0) == [(0, 1), (2, 3)]

    def test_overlapping_runs(self):
        assert indistinguishable_groups((1.0, 1.8, 2.5), 1.0) == [(0, 1), (1, 2)]

    @pytest.mark.parametrize(
        "cd",
        [0.0, -1.0, math.nan, math.inf, True, 10**400],
        ids=["zero", "negative", "nan", "inf", "bool", "int_past_float_range"],
    )
    def test_cd_validated(self, cd):
        with pytest.raises(ValidationError, match="^cd must be a positive real"):
            indistinguishable_groups([1.0, 2.0, 3.0], cd)

    def test_cd_beyond_span_gives_one_group(self):
        assert indistinguishable_groups((1.0, 2.0, 3.0, 4.0), 5.0) == [(0, 1, 2, 3)]

    def test_tiny_cd_gives_singletons(self):
        assert indistinguishable_groups((1.0, 2.0, 3.0), 1e-9) == [(0,), (1,), (2,)]

    def test_ties_share_a_group(self):
        assert indistinguishable_groups((2.0, 2.0, 2.0), 0.5) == [(0, 1, 2)]

    def test_unsorted_input_reported_in_rank_order(self):
        assert indistinguishable_groups((4.6, 1.5, 3.9, 2.0), 1.0) == [(1, 3), (2, 0)]

    def test_every_index_covered_and_no_subsets(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            k = int(rng.integers(2, 9))
            r = rng.uniform(1.0, k, size=k)
            cd = float(rng.uniform(0.05, k))
            groups = indistinguishable_groups(r, cd)
            covered = {j for g in groups for j in g}
            assert covered == set(range(k))
            sets = [set(g) for g in groups]
            for a in range(len(sets)):
                for b in range(len(sets)):
                    assert a == b or not sets[a] <= sets[b]

    def test_groups_and_significance_are_complements_within_groups(self):
        rng = np.random.default_rng(22)
        for _ in range(200):
            k = int(rng.integers(2, 9))
            r = rng.uniform(1.0, k, size=k)
            cd = float(rng.uniform(0.05, k))
            sig = pairwise_significance(r, cd)
            for g in indistinguishable_groups(r, cd):
                for a in g:
                    for b in g:
                        assert not sig[a][b]


class TestNemenyiTest:
    def test_composes(self):
        r = average_ranks(consistent_matrix(31, 8))
        res = nemenyi_test(r, 31, alpha=0.05)
        assert res.cd == nemenyi_cd(8, 31, 0.05)
        assert res.significant[0][7]
        assert (0, 1) == res.groups[0]

    def test_significant_pairs_never_share_a_group(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            m = matrix(rng.standard_normal((12, 6)))
            res = nemenyi_test(average_ranks(m), 12)
            member = {}
            for gi, g in enumerate(res.groups):
                for j in g:
                    member.setdefault(j, set()).add(gi)
            for a in range(6):
                for b in range(6):
                    if res.significant[a][b]:
                        assert not (member[a] & member[b])


class TestBuildReport:
    def build(self, values, labels, alpha=0.05, variant="friedman", tags=None):
        models = tuple(
            ModelId(l, (tags or {}).get(l, {})) for l in labels
        )
        m = PerformanceMatrix(
            datasets=tuple(f"d{i}" for i in range(len(values))),
            models=models,
            values=np.asarray(values, dtype=float),
        )
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SmallSampleWarning)
            fried = friedman_test(m, alpha=alpha, variant=variant)
        ranks = average_ranks(m)
        nem = nemenyi_test(ranks, m.n_datasets, alpha=alpha)
        return build_report(m, fried, nem, ranks)

    def test_field_names_and_order(self):
        report = self.build([[0.3, 0.2, 0.1]] * 16, ["a", "b", "c"])
        assert list(report) == [
            "statistic",
            "df",
            "p_value",
            "alpha",
            "reject_null",
            "variant",
            "cd",
            "average_ranks",
            "significant_pairs",
            "groups",
            "posthoc_licensed",
            "n_datasets",
        ]

    def test_models_ordered_by_rank_then_label(self):
        # b and c tie on average rank; a is worst
        report = self.build([[0.1, 0.3, 0.2], [0.1, 0.2, 0.3]] * 8, ["a", "b", "c"])
        assert [e["label"] for e in report["average_ranks"]] == ["b", "c", "a"]

    def test_report_content(self):
        report = self.build(
            [[0.3, 0.2, 0.1]] * 16,
            ["a", "b", "c"],
            tags={"a": {"kind": "x"}},
        )
        assert report["df"] == 2
        assert report["reject_null"] and report["posthoc_licensed"]
        assert report["n_datasets"] == 16
        assert report["average_ranks"][0] == {"label": "a", "tags": {"kind": "x"}, "rank": 1.0}
        assert report["significant_pairs"] == [["a", "b"], ["a", "c"], ["b", "c"]]
        assert report["groups"] == [["a"], ["b"], ["c"]]
        assert "df2" not in report

    def test_iman_davenport_adds_df2(self):
        report = self.build(
            np.random.default_rng(24).standard_normal((20, 4)),
            ["a", "b", "c", "d"],
            variant="iman_davenport",
        )
        assert report["variant"] == "iman_davenport"
        assert report["df2"] == 57

    def test_not_licensed_when_null_accepted(self):
        report = self.build(np.full((16, 3), 0.5), ["a", "b", "c"])
        assert report["p_value"] == 1.0
        assert not report["posthoc_licensed"]
        assert report["cd"] > 0

"""Reference distributions: survival functions, the computed q, and the range oracle."""

import json
import math
import time

import numpy as np
import pytest
from scipy.special import betainc, betaincc, gammaincc, ndtri
from scipy.stats import studentized_range

from cdranks import (
    UnsupportedDesignError,
    ValidationError,
    chi_square_sf,
    f_sf,
    nemenyi_cd,
    q_alpha,
)
from cdranks import distributions
from cdranks.simulate import _reject_threshold
from studentized_range import studentized_range_cdf, studentized_range_quantile

# 0.05 critical value of chi-square with 7 df (high-precision root of the sf).
CHI2_CRIT_7 = 14.0671404493


class TestChiSquareSf:
    def test_at_zero(self):
        assert chi_square_sf(0.0, 7) == 1.0

    def test_df2_closed_form(self):
        # sf(x, 2) = exp(-x/2)
        assert chi_square_sf(6.0, 2) == pytest.approx(math.exp(-3.0), rel=1e-12)

    def test_critical_value_roundtrip(self):
        assert chi_square_sf(CHI2_CRIT_7, 7) == pytest.approx(0.05, abs=1e-9)

    def test_monotone_nonincreasing(self):
        xs = np.linspace(0.0, 40.0, 81)
        vals = [chi_square_sf(float(x), 5) for x in xs]
        assert all(a >= b for a, b in zip(vals, vals[1:]))
        assert all(0.0 <= v <= 1.0 for v in vals)

    def test_never_above_one(self):
        # unclipped, the sum reads 1.0000000000000002 at x = 0.00065, df = 9
        xs = np.linspace(0.0, 2.0, 4001).tolist()
        assert all(chi_square_sf(x, df) <= 1.0 for df in range(1, 61) for x in xs)

    def test_domain_errors(self):
        with pytest.raises(ValidationError):
            chi_square_sf(-1.0, 3)
        with pytest.raises(ValidationError):
            chi_square_sf(1.0, 0)
        with pytest.raises(ValidationError):
            chi_square_sf(float("nan"), 3)


class TestChiSquareSfAccuracy:
    # 0 to 2000, plus a fine band where exp(-x/2) is subnormal but the tail is not
    XS = np.concatenate([np.linspace(0.0, 2000.0, 2001), np.linspace(1420.0, 1500.0, 321)])

    @pytest.mark.parametrize("df", range(1, 61))
    def test_matches_scipy_gammaincc(self, df):
        ref = gammaincc(df / 2.0, self.XS / 2.0)
        got = np.array([chi_square_sf(x, df) for x in self.XS.tolist()])
        seen = ref > 1e-290
        assert np.all(np.abs(got[seen] - ref[seen]) <= 1e-12 * ref[seen])
        assert np.all(got[~seen] <= 1e-290)

    def test_subnormal_exp_keeps_the_tail(self):
        # exp(-750) is 0.0 in double precision; the tail is about 5.3e-274
        assert chi_square_sf(1500.0, 60) == pytest.approx(gammaincc(30.0, 750.0), rel=1e-12)

    @pytest.mark.parametrize("df", [10**6, 10**6 + 1, 10**7, 10**9, 10**12, 10**12 + 1])
    def test_huge_df_at_small_x_stops_early(self, df):
        # the sum stops near a = x/2, where every term left is below an ulp of it
        for x in (0.0, 1e-3, 0.5, 30.0, 200.0, 1000.0):
            start = time.perf_counter()
            got = chi_square_sf(x, df)
            assert time.perf_counter() - start < 0.05, x
            assert got == pytest.approx(float(gammaincc(df / 2.0, x / 2.0)), rel=1e-12), x

    # Up to df = 10^7 and x = df + 50 sqrt(df).  scipy is the oracle at
    # x = df + z sqrt(df) for z from -6 to 12, and for z up to 50 below df = 600.
    # Past that it is itself off by more than 1e-12 in two bands, against
    # 40-digit mpmath: by up to 7.6e-12 from z = 14 on at df from 800 to 14000,
    # and by up to 2.0e-8 at z from -9 to -6.5 from df = 1.2e6 on.
    LARGE_DFS = (61, 99, 100, 101, 150, 199, 200, 201, 500, 599, 999, 1000, 2001, 4321, 10**4,
                 12345, 30001, 10**5, 10**5 + 1, 333333, 10**6, 10**6 + 1, 3 * 10**6, 10**7 - 1, 10**7)

    @pytest.mark.parametrize("df", LARGE_DFS)
    def test_matches_scipy_gammaincc_to_df_1e7(self, df):
        zs = np.arange(-40.0, 50.25, 0.25) if df < 600 else np.arange(-6.0, 12.25, 0.25)
        xs = np.concatenate([df + zs * math.sqrt(df), df + np.array([-1.0, 0.0, 1.0, 2.0, 2.5])])
        xs = xs[xs >= 0.0]
        ref = gammaincc(df / 2.0, xs / 2.0)
        got = np.array([chi_square_sf(x, df) for x in xs.tolist()])
        seen = ref > 1e-290
        assert np.all(np.abs(got[seen] - ref[seen]) <= 1e-12 * ref[seen])

    @pytest.mark.parametrize(
        "df, x, expected",
        [
            # x = df + z sqrt(df) and the 40-digit mpmath value of Q(df/2, x/2); scipy's error
            (1000, 1948.6832980505137, 1.3773287096571022e-63),  # z = 30: 5.6e-13
            (2000, 3118.033988749895, 2.6555731960010644e-52),  # z = 25: 7.4e-13
            (4642, 7435.421199890915, 2.702180730350625e-134),  # z = 41: 5.8e-12
            (10000, 14400.0, 2.96429536836006e-166),  # z = 44: 6.8e-12
            (14678, 20735.639804412276, 7.46838836698245e-217),  # z = 50: 7.6e-12
            (100000, 115811.38830084189, 1.644740568890492e-248),  # z = 50: 1.1e-13
            (1000000, 1050000.0, 2.185638417489726e-265),  # z = 50: 2.6e-13
            (10000000, 10158113.883008419, 2.790693259705239e-271),  # z = 50: 6.2e-14
            (1234322, 1227100.497074708, 0.9999979353281605),  # z = -6.5: 4.2e-13
            (2154435, 2144160.4043875197, 0.9999996426328285),  # z = -7: 2.9e-12
            (3162278, 3149830.043460873, 0.9999996401890334),  # z = -7: 2.9e-11
            (10000000, 9979445.195208905, 0.9999978793962084),  # z = -6.5: 2.0e-8
            (10000000, 9977864.05637882, 0.9999996350894711),  # z = -7: 2.5e-9
            (10000000, 9974701.778718652, 0.9999999924964583),  # z = -8: 2.8e-11
        ],
    )
    def test_matches_mpmath_where_scipy_is_off(self, df, x, expected):
        assert chi_square_sf(x, df) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("df", [1, 2, 7, 8, 59, 60])
    def test_stacked_equals_scalar(self, df):
        # The simulate kernel's stacked form of the test: an integer sum of
        # T^2 rejects iff it reaches one threshold, as the scalar sf decides.
        n, k, alpha = 31, df + 1, 0.05
        threshold = _reject_threshold(n, k, alpha)
        largest = n * n * k * (k * k - 1) // 3
        near = threshold + np.arange(-60, 60)
        spread = np.linspace(0, largest, 120).round().astype(np.int64)
        ss = np.clip(np.concatenate([near, spread]), 0, largest).reshape(-1, 2, 3)
        scalar = np.vectorize(
            lambda s: chi_square_sf(3 * int(s) / (n * k * (k + 1)), df) < alpha
        )
        assert 0 < threshold <= largest
        assert (ss >= threshold).tolist() == scalar(ss).tolist()


class TestChiSquareSfSteps:
    @pytest.mark.parametrize("df", [10**6, 10**7, 10**8, 10**9])
    def test_x_at_df_is_fast(self, df):
        # the series takes about 8.6 sqrt(df/2) steps here; the finite sum took df/2
        start = time.perf_counter()
        got = chi_square_sf(float(df), df)
        assert time.perf_counter() - start < 0.1
        assert got == pytest.approx(float(gammaincc(df / 2.0, df / 2.0)), rel=1e-11)

    def test_threshold_at_k_1e5_is_fast(self):
        start = time.perf_counter()
        assert _reject_threshold(2, 10**5, 0.05) == 671578265710810
        assert time.perf_counter() - start < 0.1

    @pytest.mark.parametrize(
        "call",
        [
            lambda: chi_square_sf(1e4, 10**4),  # the series for P
            lambda: chi_square_sf(1.01e4, 10**4),  # the continued fraction for Q
            lambda: f_sf(1.0, 10**4, 10**4),  # the continued fraction for I_w
        ],
        ids=["chi2_series", "chi2_fraction", "f_fraction"],
    )
    def test_step_cap_raises(self, call, monkeypatch):
        assert 0.0 < call() < 1.0
        monkeypatch.setattr(distributions, "_MAX_STEPS", 20)
        message = "^the survival function does not converge within 20 steps$"
        with pytest.raises(UnsupportedDesignError, match=message):
            call()

    def test_chi_square_domain_edge(self):
        # the docstring's domain: df below about 1.94e9 converges at x = df, and 2e9 does not
        assert chi_square_sf(1.9e9, 19 * 10**8) == pytest.approx(float(gammaincc(9.5e8, 9.5e8)), rel=1e-9)
        with pytest.raises(UnsupportedDesignError, match="does not converge within 250000 steps$"):
            chi_square_sf(2e9, 2 * 10**9)

    @pytest.mark.parametrize(
        "call",
        [lambda: chi_square_sf(1e15, 10**15), lambda: chi_square_sf(1e15 + 2.0, 10**15),
         lambda: f_sf(1.0, 10**15, 10**15)],
        ids=["chi2_series", "chi2_fraction", "f_fraction"],
    )
    def test_huge_df_near_the_mean_reaches_the_cap(self, call):
        start = time.perf_counter()
        with pytest.raises(UnsupportedDesignError, match="does not converge within 250000 steps$"):
            call()
        assert time.perf_counter() - start < 1.0


def _f_sf_oracle(x: float, d1: int, d2: int) -> float:
    """I_w(d2/2, d1/2) at w = d2 / (d2 + d1 x), through the complement when w >= 1/2.

    Rounding w near 1 perturbs 1 - w, to which the tail is sensitive, so the
    oracle is handed whichever of w and 1 - w is the smaller.
    """
    t = d1 * x
    if d2 >= t:
        return float(betaincc(d1 / 2.0, d2 / 2.0, t / (d2 + t)))
    return float(betainc(d2 / 2.0, d1 / 2.0, d2 / (d2 + t)))


class TestFSfAccuracy:
    XS = [1e-6, 1e-3, 0.05, 0.3, 0.7, 0.95, 1.0, 1.05, 1.3, 1.7, 2.01, 3.0, 5.0, 12.0,
          40.0, 200.0, 1e4]

    @pytest.mark.parametrize(
        "d2s, rtol",
        [
            ((1, 2, 3, 5, 8, 13, 30, 60, 210, 999, 4321, 30000, 99991, 100000), 1e-11),
            ((250001, 1000000, 1999999, 2000000), 1e-11),
        ],
        ids=["d2_to_1e5", "d2_to_2e6"],
    )
    def test_matches_scipy_betainc(self, d2s, rtol):
        worst = 0.0
        for d1 in range(1, 40):
            for d2 in d2s:
                for x in self.XS:
                    ref = _f_sf_oracle(x, d1, d2)
                    if ref > 1e-290:
                        worst = max(worst, abs(f_sf(x, d1, d2) - ref) / ref)
        assert worst <= rtol

    def test_matches_plain_betainc(self):
        for d1, d2, x in [(7, 210, 2.01), (3, 30, 40.0), (39, 100000, 1.7)]:
            ref = float(betainc(d2 / 2.0, d1 / 2.0, d2 / (d2 + d1 * x)))
            assert f_sf(x, d1, d2) == pytest.approx(ref, rel=1e-9)

    @pytest.mark.parametrize("d2", [10**20, 10**50, 10**100, 10**150], ids=["1e20", "1e50", "1e100", "1e150"])
    def test_meets_the_chi_square_limit(self, d2):
        # d1 F_{d1,d2} tends to chi2_d1 as d2 grows; by d2 = 10^20 they differ by below 1e-14 here
        for d1 in (1, 2, 3, 7, 19, 39):
            for x in (0.001, 0.5, 1.0, 2.0, 5.0, 30.0):
                ref = chi_square_sf(d1 * x, d1)
                if ref > 1e-290:
                    assert f_sf(x, d1, d2) == pytest.approx(ref, rel=1e-12), (d1, x)

    @pytest.mark.parametrize(
        "x, d1, d2, expected",
        [
            # the 40-digit mpmath value of I_w(d2/2, d1/2) at w = d2 / (d2 + d1 x)
            (3.0, 5, 10**7, 0.01036237637141683),
            (1.0, 1, 10**7, 0.31731053205998594),
            (30.0, 7, 10**7, 8.735684262941512e-42),
            (2.0, 19, 10**7, 0.005934778372393363),
            (3.0, 5, 10**9, 0.010362338300342442),
            (1.0, 1, 10**9, 0.3173105081048848),
            (30.0, 7, 10**9, 8.726600849589085e-42),
            (2.0, 19, 10**9, 0.005934709700851081),
            (3.0, 5, 10**12, 0.010362337916170992),
            (1.0, 1, 10**12, 0.31731050786315607),
            (30.0, 7, 10**12, 8.726509236544832e-42),
            (2.0, 19, 10**12, 0.005934709007894776),
            (3.0, 5, 10**15, 0.01036233791578682),
            (1.0, 1, 10**15, 0.31731050786291437),
            (30.0, 7, 10**15, 8.726509144932255e-42),
            (2.0, 19, 10**15, 0.00593470900720182),
            (3.0, 5, 10**18, 0.010362337915786437),
            (1.0, 1, 10**18, 0.3173105078629141),
            (30.0, 7, 10**18, 8.726509144840644e-42),
            (2.0, 19, 10**18, 0.005934709007201127),
        ],
    )
    def test_matches_mpmath_at_huge_d2(self, x, d1, d2, expected):
        assert f_sf(x, d1, d2) == pytest.approx(expected, rel=1e-12)

    def test_underflowing_ratio_is_one(self):
        assert f_sf(5e-324, 1, 2000000) == 1.0


def test_tail_accuracy_script_maps_both_tails(capsys):
    pytest.importorskip("mpmath")
    import tail_accuracy

    argv = ["--per-decade", "1", "--z-step", "45", "--max-df", "1000", "--d1", "1,19", "--x", "0.5,5"]
    assert tail_accuracy.main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert list(report) == ["chi_square_sf", "f_sf", "f_sf_limit"]
    for grid in report.values():
        assert grid["points"] > 0 and grid["raised"] == 0
        assert grid["worst_rel_err"] < 1e-12


class TestFSf:
    def test_at_zero(self):
        assert f_sf(0.0, 7, 210) == 1.0

    def test_symmetry_at_one(self):
        for d in (3, 7, 30):
            assert f_sf(1.0, d, d) == pytest.approx(0.5, abs=1e-12)

    def test_frozen_oracle_value(self):
        # regularized incomplete beta at (105, 3.5, 210/(210 + 7*2.01))
        assert f_sf(2.01, 7, 210) == pytest.approx(0.055247278228, abs=1e-9)

    def test_monotone_nonincreasing(self):
        xs = np.linspace(0.0, 10.0, 51)
        vals = [f_sf(float(x), 4, 30) for x in xs]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_unsupported_designs_raise(self):
        # the tail is 7.1e-155, but w = 1 / (1 + d1 x / d2) would be 1 / inf = 0
        with pytest.raises(UnsupportedDesignError, match=r"^x=1e\+308 unsupported: d1 x / d2 passes the float range$"):
            f_sf(1e308, 2, 1)
        with pytest.raises(UnsupportedDesignError, match=r"unsupported: both pass 2\^53$"):
            f_sf(2.0, 2**53 + 1, 2**53 + 1)
        # at 2^53 the fraction still runs away from the mean: 3 standard deviations out, near 1 - Phi(3)
        assert f_sf(1.0 + 3.0 * math.sqrt(4.0 / 2**53), 2**53, 2**53) == pytest.approx(0.00134989803163, rel=1e-5)

    def test_domain_errors(self):
        with pytest.raises(ValidationError):
            f_sf(1.0, 0, 5)
        with pytest.raises(ValidationError):
            f_sf(1.0, 5, -1)
        with pytest.raises(ValidationError):
            f_sf(-0.5, 5, 5)


class TestStudentizedRangeCdf:
    def test_at_zero(self):
        assert studentized_range_cdf(0.0, 8) == 0.0

    def test_k2_reduces_to_normal_difference(self):
        # range of two normals: P(|Z1 - Z2| <= q) = 2 Phi(q / sqrt(2)) - 1
        for q in np.linspace(0.0, 6.0, 61):
            expected = 2.0 * 0.5 * math.erfc(-float(q) / 2.0) - 1.0
            assert studentized_range_cdf(float(q), 2) == pytest.approx(expected, abs=1e-6)

    def test_k2_95th_point(self):
        q = 1.959963984540054 * math.sqrt(2.0)
        assert studentized_range_cdf(q, 2) == pytest.approx(0.95, abs=1e-9)

    def test_k8_95th_point(self):
        q = q_alpha(8, 0.05) * math.sqrt(2.0)
        assert studentized_range_cdf(q, 8) == pytest.approx(0.95, abs=5e-6)

    def test_monotone_nondecreasing(self):
        vals = [studentized_range_cdf(float(q), 5) for q in np.linspace(0.0, 8.0, 33)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))
        assert all(0.0 <= v <= 1.0 for v in vals)

    def test_domain_errors(self):
        with pytest.raises(ValidationError):
            studentized_range_cdf(-0.1, 4)
        with pytest.raises(ValidationError):
            studentized_range_cdf(1.0, 1)

    def test_unreachable_tolerance_reports(self):
        with pytest.raises(RuntimeError, match="achieved"):
            studentized_range_cdf(3.0, 8, tol=1e-18)


class TestStudentizedRangeQuantile:
    def test_k8_95th_quantile(self):
        q = studentized_range_quantile(0.95, 8)
        assert q / math.sqrt(2.0) == pytest.approx(3.0308784, abs=2e-6)

    @pytest.mark.parametrize("p,k", [(0.9, 3), (0.95, 8), (0.99, 12)])
    def test_roundtrip(self, p, k):
        q = studentized_range_quantile(p, k)
        assert studentized_range_cdf(q, k) == pytest.approx(p, abs=1e-5)

    def test_domain_errors(self):
        with pytest.raises(ValidationError):
            studentized_range_quantile(0.0, 4)
        with pytest.raises(ValidationError):
            studentized_range_quantile(1.0, 4)


class TestQTable:
    ALPHAS = (1e-5, 1e-3, 0.01, 0.05, 0.10, 0.2, 0.5, 0.999)

    def test_k2_equals_two_sided_normal(self):
        # the range of two normals over sqrt(2) is |Z|
        for alpha in self.ALPHAS:
            assert q_alpha(2, alpha) == pytest.approx(float(ndtri(1 - alpha / 2)), rel=1e-6)

    def test_k8_headline_value(self):
        assert q_alpha(8, 0.05) == pytest.approx(3.031, abs=1e-3)

    def test_monotone_in_k(self):
        for alpha in (1e-5, 0.05, 0.5):
            qs = [q_alpha(k, alpha) for k in range(2, 101)]
            assert all(a < b for a, b in zip(qs, qs[1:]))

    def test_ordered_across_alpha(self):
        for k in (*range(2, 31), 100, 1000):
            qs = [q_alpha(k, alpha) for alpha in self.ALPHAS]
            assert all(a > b for a, b in zip(qs, qs[1:])), k

    def test_unsupported_alpha_names_domain(self):
        for alpha in (9.9e-6, 1e-6, 1e-12):
            with pytest.raises(UnsupportedDesignError, match=r"alpha >= 1e-05"):
                q_alpha(5, alpha)
        for alpha in (0.0, 1.0, 1):
            with pytest.raises(ValidationError, match="alpha must lie strictly in"):
                q_alpha(5, alpha)

    def test_unsupported_k_names_range(self):
        for k in (1, 0, 1001, 8.0, True, "8"):
            with pytest.raises(UnsupportedDesignError, match=r"2 <= k <= 1000"):
                q_alpha(k, 0.05)

    @pytest.mark.parametrize("k, alpha", [(1000, 1e-5), (2, 0.999)])
    def test_domain_corners_match_scipy(self, k, alpha):
        expected = float(studentized_range.ppf(1 - alpha, k, np.inf)) / math.sqrt(2.0)
        assert q_alpha(k, alpha) == pytest.approx(expected, rel=1e-6)
        assert nemenyi_cd(k, 31, alpha) > 0.0

    def test_rounds_to_seven_significant_digits(self):
        # 6 decimals would collapse q = 0.00125331... to 0.001253
        assert q_alpha(2, 0.999) == 0.001253314
        assert q_alpha(2, 0.5) == 0.6744898

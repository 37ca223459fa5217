"""Reference distributions: survival functions, the q table, and the range oracle."""

import math

import numpy as np
import pytest
from scipy.special import betainc, betaincc, gammaincc, ndtri

from cdranks import (
    SUPPORTED_ALPHAS,
    SUPPORTED_K,
    UnsupportedDesignError,
    ValidationError,
    chi_square_sf,
    f_sf,
    q_alpha,
)
from cdranks.cd import _Q_TABLES
from cdranks.distributions import _log_gamma_ratio
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
        xs = np.linspace(0.0, 2.0, 4001)
        assert all(chi_square_sf(xs, df).max() <= 1.0 for df in range(1, 61))

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
        got = chi_square_sf(self.XS, df)
        seen = ref > 1e-290
        assert np.all(np.abs(got[seen] - ref[seen]) <= 1e-12 * ref[seen])
        assert np.all(got[~seen] <= 1e-290)

    def test_subnormal_exp_keeps_the_tail(self):
        # exp(-750) is 0.0 in double precision; the tail is about 5.3e-274
        assert chi_square_sf(1500.0, 60) == pytest.approx(gammaincc(30.0, 750.0), rel=1e-12)

    @pytest.mark.parametrize("df", [1, 2, 7, 8, 59, 60])
    def test_stacked_equals_scalar(self, df):
        xs = self.XS[::7].reshape(-1, 1, 1) * np.ones((1, 2, 3))
        got = chi_square_sf(xs, df)
        assert got.shape == xs.shape
        assert got.tolist() == np.vectorize(lambda x: chi_square_sf(float(x), df))(xs).tolist()


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
            ((1, 2, 3, 5, 8, 13, 30, 60, 210, 999, 4321, 30000, 99991, 100000), 1e-9),
            ((250001, 1000000, 1999999, 2000000), 1e-8),
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

    @pytest.mark.parametrize("a", [3.5, 99.5, 100.0, 12345.25, 1e6, 1e8])
    def test_log_gamma_ratio_at_integer_steps(self, a):
        # Gamma(a + 1) / Gamma(a) = a; at a = 10^6 a plain lgamma difference is off by ~1e-9
        assert _log_gamma_ratio(a, 1.0) == pytest.approx(math.log(a), rel=1e-14, abs=1e-14)
        assert _log_gamma_ratio(a, 2.0) == pytest.approx(
            math.log(a) + math.log(a + 1.0), rel=1e-14, abs=1e-14
        )

    def test_underflowing_ratio_is_one(self):
        assert f_sf(5e-324, 1, 2000000) == 1.0


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
    def test_k2_equals_two_sided_normal(self):
        for alpha in SUPPORTED_ALPHAS:
            assert q_alpha(2, alpha) == pytest.approx(float(ndtri(1 - alpha / 2)), abs=1e-3)

    def test_k8_headline_value(self):
        assert q_alpha(8, 0.05) == pytest.approx(3.031, abs=1e-3)

    def test_monotone_in_k(self):
        for alpha in SUPPORTED_ALPHAS:
            for k in range(2, 20):
                assert q_alpha(k + 1, alpha) > q_alpha(k, alpha)

    def test_ordered_across_alpha(self):
        for k in SUPPORTED_K:
            assert q_alpha(k, 0.01) > q_alpha(k, 0.05) > q_alpha(k, 0.10)

    def test_unsupported_alpha_names_levels(self):
        with pytest.raises(UnsupportedDesignError, match="0.01, 0.05, 0.10"):
            q_alpha(5, 0.025)

    def test_unsupported_k_names_range(self):
        with pytest.raises(UnsupportedDesignError, match="2..20"):
            q_alpha(21, 0.05)
        with pytest.raises(UnsupportedDesignError):
            q_alpha(1, 0.05)

    def test_table_covers_all_k(self):
        for alpha in SUPPORTED_ALPHAS:
            assert sorted(_Q_TABLES[alpha]) == list(SUPPORTED_K)

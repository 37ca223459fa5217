"""Reference distributions: survival functions, the q table, and the range oracle."""

import math

import numpy as np
import pytest
from scipy.special import ndtri

from cdranks import (
    QTable,
    SUPPORTED_ALPHAS,
    SUPPORTED_K,
    UnsupportedDesignError,
    ValidationError,
    chi_square_sf,
    f_sf,
    q_alpha,
    q_table,
)
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

    def test_domain_errors(self):
        with pytest.raises(ValidationError):
            chi_square_sf(-1.0, 3)
        with pytest.raises(ValidationError):
            chi_square_sf(1.0, 0)
        with pytest.raises(ValidationError):
            chi_square_sf(float("nan"), 3)


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
            assert sorted(q_table(alpha).entries) == list(SUPPORTED_K)

    def test_qtable_rejects_non_increasing(self):
        with pytest.raises(ValidationError, match="strictly increasing"):
            QTable(0.05, {2: 2.0, 3: 1.9})
        with pytest.raises(ValidationError):
            QTable(0.05, {2: -1.0, 3: 2.0})

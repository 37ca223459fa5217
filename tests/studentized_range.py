"""Test oracle: the infinite-df studentized range by quadrature and bisection.

The package computes q_alpha by fixed-grid Simpson quadrature and Newton
steps; this independent route uses scipy's adaptive quadrature and plain
bisection instead.  It is not part of the package and is imported only by
the test suite.
"""

from __future__ import annotations

import math

from scipy import integrate

from cdranks import ValidationError

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def _norm_pdf(z: float) -> float:
    return math.exp(-0.5 * z * z) * _INV_SQRT_2PI


def _norm_cdf(z: float) -> float:
    return 0.5 * math.erfc(-z / _SQRT2)


def studentized_range_cdf(q: float, k: int, tol: float = 1e-8) -> float:
    """CDF of the range of k iid standard normals (infinite-df studentized range).

    Evaluates k * integral of phi(z) * [Phi(z) - Phi(z - q)]^(k-1) dz by
    adaptive quadrature over z in [-8, 8]; beyond +-8 the normal density
    contributes less than 1e-15.

    Raises
    ------
    RuntimeError
        If the quadrature cannot certify absolute accuracy ``tol``; the
        achieved tolerance is reported.
    """
    if not isinstance(k, int) or isinstance(k, bool) or k < 2:
        raise ValidationError(f"k must be an integer >= 2, got {k!r}")
    if not math.isfinite(q) or q < 0:
        raise ValidationError(f"q must be a finite nonnegative real, got {q!r}")
    if q == 0.0:
        return 0.0

    km1 = k - 1

    def integrand(z: float) -> float:
        return _norm_pdf(z) * (_norm_cdf(z) - _norm_cdf(z - q)) ** km1

    value, abserr = integrate.quad(integrand, -8.0, 8.0, epsabs=1e-12, epsrel=1e-12, limit=200)
    achieved = k * abserr
    if achieved > tol:
        raise RuntimeError(
            f"studentized range quadrature achieved abs error {achieved:.3e}, "
            f"needed {tol:.0e} (q={q}, k={k})"
        )
    return min(1.0, max(0.0, k * value))


def studentized_range_quantile(p: float, k: int, q_tol: float = 1e-6) -> float:
    """Quantile of the infinite-df studentized range, by bisection on the CDF."""
    if not 0.0 < p < 1.0:
        raise ValidationError(f"p must lie in (0, 1), got {p!r}")
    lo, hi = 0.0, 2.0
    while studentized_range_cdf(hi, k) < p:
        hi *= 2.0
        if hi > 64.0:
            raise RuntimeError(f"failed to bracket the {p} quantile for k={k}")
    while hi - lo > q_tol:
        mid = 0.5 * (lo + hi)
        if studentized_range_cdf(mid, k) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)

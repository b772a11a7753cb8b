"""Tests for the normal / chi distribution layer.

Every nontrivial expected value is produced by an independent oracle inside
the test: numeric quadrature of the normal density, the finite Poisson sum
for even dimensions, an enveloping asymptotic series for the deep normal
tail, and arbitrary-precision evaluation via mpmath.  None of these touch
the code paths under test.
"""

import math

import mpmath
import numpy as np
import pytest
from scipy import integrate

from spheretail.gaussian_chi import chi_tails
from spheretail import (
    chi_expectation,
    chi_moment,
    chi_pdf,
    chi_tail,
    chi_tail_inverse,
    chi_tail_log,
    phi_cdf,
    phi_tail,
)

SQRT2 = math.sqrt(2.0)


def poisson_sum_tail(d: int, u: float) -> float:
    """Oracle: P(||Z_d|| > u) for even d as exp(-x) sum_{k<d/2} x^k/k!."""
    assert d % 2 == 0
    x = 0.5 * u * u
    terms = [math.exp(-x) * x**k / math.factorial(k) for k in range(d // 2)]
    return math.fsum(terms)


def log_poisson_sum_tail(d: int, u: float) -> float:
    """Log-space version of the even-d oracle, safe for deep tails."""
    assert d % 2 == 0
    x = 0.5 * u * u
    logs = np.array([k * math.log(x) - math.lgamma(k + 1) for k in range(d // 2)])
    m = logs.max()
    return -x + m + math.log(np.exp(logs - m).sum())


def mills_bracket(x: float) -> tuple[float, float]:
    """Oracle: rigorous lower/upper bracket for 1 - Phi(x), x > 0.

    Partial sums of the asymptotic series phi(x)/x (1 - 1/x^2 + 3/x^4 - ...)
    envelop the true tail: truncating after a negative term gives a lower
    bound, after a positive term an upper bound.
    """
    phi = math.exp(-0.5 * x * x) / math.sqrt(2 * math.pi)
    s_lower = 1 - 1 / x**2 + 3 / x**4 - 15 / x**6
    s_upper = s_lower + 105 / x**8
    return phi / x * s_lower, phi / x * s_upper


def mpmath_chi_tail(d: int, u: float) -> mpmath.mpf:
    with mpmath.workdps(60):
        return mpmath.gammainc(
            mpmath.mpf(d) / 2, mpmath.mpf(u) ** 2 / 2, mpmath.inf, regularized=True
        )


class TestPhiCdf:
    def test_zero_is_half(self):
        assert phi_cdf(0.0) == 0.5

    def test_sqrt2_matches_quadrature_oracle(self):
        oracle, err = integrate.quad(
            lambda t: math.exp(-0.5 * t * t) / math.sqrt(2 * math.pi), 0.0, SQRT2
        )
        assert err < 1e-13
        assert abs(phi_cdf(SQRT2) - (0.5 + oracle)) < 1e-12
        assert abs(phi_cdf(SQRT2) - 0.9213503964748575) < 1e-14

    @pytest.mark.parametrize("x", [1.3, 0.2, 2.7, 5.0])
    def test_symmetry(self, x):
        assert abs(phi_cdf(-x) - (1.0 - phi_cdf(x))) < 1e-14

    def test_monotone(self):
        xs = np.linspace(-8, 8, 200)
        vals = [phi_cdf(x) for x in xs]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_nonfinite(self, bad):
        with pytest.raises(ValueError):
            phi_cdf(bad)
        with pytest.raises(ValueError):
            phi_tail(bad)

    def test_phi_tail_deep(self):
        lo, hi = mills_bracket(10.0)
        assert lo <= phi_tail(10.0) <= hi


class TestChiTail:
    def test_closed_form_value_d2(self):
        assert abs(chi_tail(2, 2.0) - math.exp(-2)) < 1e-14

    @pytest.mark.parametrize("d", [1, 2, 5, 30])
    def test_nonpositive_threshold(self, d):
        assert chi_tail(d, 0.0) == 1.0
        assert chi_tail(d, -3.7) == 1.0

    def test_d1_identity(self):
        for u in np.linspace(0.0, 8.0, 100):
            assert abs(chi_tail(1, float(u)) - 2.0 * (1.0 - phi_cdf(float(u)))) < 1e-12

    def test_even_d_closed_form_u17(self):
        x = 0.5 * 1.7 * 1.7
        assert abs(chi_tail(4, 1.7) - math.exp(-x) * (1 + x)) < 1e-14

    @pytest.mark.parametrize("d", [2, 4, 6, 8, 10])
    def test_poisson_sum_oracle(self, d):
        for u in np.linspace(0.1, 8.0, 40):
            oracle = poisson_sum_tail(d, float(u))
            assert abs(chi_tail(d, float(u)) - oracle) <= 1e-12 * max(oracle, 1e-3)

    def test_nondecreasing_in_d(self):
        for u in (0.5, 1.0, 2.5, 6.0):
            vals = [chi_tail(d, u) for d in range(1, 40)]
            assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_strictly_decreasing_in_u(self):
        us = np.linspace(0.1, 10.0, 60)
        for d in (1, 3, 10):
            vals = [chi_tail(d, float(u)) for u in us]
            assert all(b < a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize(
        "d,u", [(1, 10.0), (3, 12.0), (7, 5.0), (10, 20.0), (2, 1.3), (15, 3.1)]
    )
    def test_mpmath_oracle(self, d, u):
        oracle = float(mpmath_chi_tail(d, u))
        assert chi_tail(d, u) == pytest.approx(oracle, rel=1e-12)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            chi_tail(0, 1.0)
        with pytest.raises(ValueError):
            chi_tail(2.5, 1.0)
        with pytest.raises(ValueError):
            chi_tail(2, math.nan)

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 10, 30, 100, 1000])
    def test_array_form_is_the_scalar_bit_for_bit(self, d):
        # one gammaincc call on u^2 / 2, with Q(d/2, 0) = 1 at u <= 0; the
        # limits +-inf, which chi_tail rejects, have tails 0 and 1
        rng = np.random.default_rng(d)
        us = np.concatenate([
            [-1e300, -3.0, -0.0, 0.0, 5e-324, 1e-160, 1e154, 1.4e154, 1e200],
            rng.uniform(0.0, 3.0 * math.sqrt(d) + 10.0, 200),
        ]).tolist()
        tails = chi_tails(d, us)
        assert [t.hex() for t in tails] == [chi_tail(d, u).hex() for u in us]
        assert chi_tails(d, [math.inf, -math.inf]) == [0.0, 1.0]
        assert chi_tails(d, []) == []

    def test_array_form_rejects_nan(self):
        with pytest.raises(ValueError, match="not NaN"):
            chi_tails(2, [1.0, math.nan])


class TestChiTailLog:
    def test_d2_exact(self):
        assert chi_tail_log(2, 40.0) == -800.0

    @pytest.mark.parametrize("d", [1, 2, 3, 11])
    def test_zero_threshold(self, d):
        assert chi_tail_log(d, 0.0) == 0.0

    def test_d1_mills_bracket(self):
        lo, hi = mills_bracket(10.0)
        value = chi_tail_log(1, 10.0)
        assert math.log(2 * lo) <= value <= math.log(2 * hi)

    def test_agreement_with_linear(self):
        for d in (1, 2, 3, 4, 7, 12, 51):
            for u in np.linspace(0.05, 20.0, 50):
                linear = chi_tail(d, float(u))
                if linear < 1e-290:
                    continue
                assert math.exp(chi_tail_log(d, float(u))) == pytest.approx(
                    linear, rel=1e-10
                )

    @pytest.mark.parametrize("d", [2, 4, 10])
    @pytest.mark.parametrize("u", [30.0, 60.0])
    def test_even_d_deep_oracle(self, d, u):
        assert chi_tail_log(d, u) == pytest.approx(log_poisson_sum_tail(d, u), abs=1e-10)

    @pytest.mark.parametrize("d,u", [(1, 30.0), (3, 50.0), (9, 45.0), (100, 70.0)])
    def test_mpmath_deep_oracle(self, d, u):
        with mpmath.workdps(60):
            oracle = float(mpmath.log(mpmath_chi_tail(d, u)))
        assert chi_tail_log(d, u) == pytest.approx(oracle, rel=1e-12, abs=1e-9)

    def test_monotone_decreasing(self):
        vals = [chi_tail_log(5, u) for u in np.linspace(1.0, 100.0, 60)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_rejects_negative_u(self):
        with pytest.raises(ValueError):
            chi_tail_log(3, -0.1)


class TestChiMoment:
    @pytest.mark.parametrize("d", [1, 2, 3, 9, 40])
    def test_second_moment_is_d(self, d):
        assert chi_moment(d, 2) == float(d)

    def test_fourth_moment_d3(self):
        assert chi_moment(3, 4) == 15.0

    @pytest.mark.parametrize("d", [1, 4, 17])
    def test_zeroth_moment(self, d):
        assert chi_moment(d, 0) == 1.0

    @pytest.mark.parametrize("d", range(1, 11))
    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 6, 2.5])
    def test_quadrature_oracle(self, d, p):
        oracle, err = integrate.quad(
            lambda r: r**p * chi_pdf(d, r), 0.0, np.inf, limit=200
        )
        assert err < 1e-6 * max(1.0, abs(oracle))
        assert chi_moment(d, p) == pytest.approx(oracle, rel=1e-8)


class TestChiPdfAndInverse:
    @pytest.mark.parametrize("d", [1, 2, 5, 12])
    def test_density_integrates_to_one(self, d):
        total, _ = integrate.quad(lambda r: chi_pdf(d, r), 0.0, np.inf, limit=200)
        assert total == pytest.approx(1.0, rel=1e-10)

    def test_inverse_roundtrip(self):
        for d in (1, 2, 6, 25):
            for q in (0.9, 0.5, 0.1, 1e-3, 1e-8):
                u = chi_tail_inverse(d, q)
                assert chi_tail(d, u) == pytest.approx(q, rel=1e-9)
        assert chi_tail_inverse(3, 1.0) == 0.0

    def test_inverse_rejects_bad_quantile(self):
        with pytest.raises(ValueError):
            chi_tail_inverse(3, 0.0)
        with pytest.raises(ValueError):
            chi_tail_inverse(3, 1.5)

    def test_expectation_matches_moment(self):
        for d in (1, 3, 8):
            quad_val = chi_expectation(d, lambda r: r**3)
            assert quad_val == pytest.approx(chi_moment(d, 3), rel=1e-9)

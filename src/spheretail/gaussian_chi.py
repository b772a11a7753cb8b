"""Standard normal and chi (Gaussian vector norm) distribution evaluations.

Conventions used throughout the package:

    phi_cdf(x)        Phi(x), the standard normal distribution function
    chi_tail(d, u)    P(||Z_d|| > u) for a standard Gaussian vector Z_d in
                      R^d; equals Q(d/2, u^2/2), the upper regularized
                      incomplete gamma function
    chi_moment(d, p)  E ||Z_d||^p = 2^(p/2) Gamma((d+p)/2) / Gamma(d/2)

The laws here are continuous, so ">" versus ">=" at the threshold is
immaterial; all tail routines use strict ">" semantics to match the discrete
oracles elsewhere in the package.

``chi_tail_log`` stays in log space and remains finite far beyond the
underflow point of ``chi_tail`` (u^2/2 in the tens of thousands is fine); it
backs deep-tail bound tables that a linear-space evaluation cannot reach.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np
from scipy import special

_SQRT2 = math.sqrt(2.0)


def check_dimension(d) -> int:
    """Validate an ambient dimension: a positive integer, returned as int."""
    if isinstance(d, bool) or not isinstance(d, (int, np.integer)):
        raise ValueError(f"dimension must be a positive integer, got {d!r}")
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    return int(d)


def phi_cdf(x: float) -> float:
    """Standard normal CDF Phi(x), absolute error below 1e-14.

    Evaluated through the complementary error function, which keeps full
    accuracy in both tails.  Non-finite input is rejected.
    """
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"phi_cdf requires finite input, got {x!r}")
    return 0.5 * math.erfc(-x / _SQRT2)


def phi_tail(x: float) -> float:
    """Upper tail 1 - Phi(x), accurate far into the tail (no cancellation)."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"phi_tail requires finite input, got {x!r}")
    return 0.5 * math.erfc(x / _SQRT2)


def chi_tail(d, u: float) -> float:
    """P(||Z_d|| > u): the chi distribution's upper tail.

    Parameters
    ----------
    d : int
        Ambient dimension, >= 1.
    u : float
        Threshold; any finite real.  For u <= 0 the tail is 1 (the norm is
        almost surely positive).

    Returns
    -------
    float
        Q(d/2, u^2/2), the upper regularized incomplete gamma function.
        Strictly decreasing in u on [0, oo), nondecreasing in d; for d = 1
        equals 2 (1 - Phi(u)).
    """
    d = check_dimension(d)
    u = float(u)
    if not math.isfinite(u):
        raise ValueError(f"chi_tail requires finite threshold, got {u!r}")
    if u <= 0.0:
        return 1.0
    return float(special.gammaincc(0.5 * d, 0.5 * u * u))


def chi_tail_log(d, u: float) -> float:
    """log P(||Z_d|| > u), computed entirely in log space.

    Uses the telescoped half-integer identity

        Q(d/2, x) = Q(a0, x) + exp(-x) * sum_{j=0}^{m-1} x^(a0+j) / Gamma(a0+j+1)

    with x = u^2/2, a0 = 1 (d even, Q(1,x) = exp(-x)) or a0 = 1/2 (d odd,
    Q(1/2, x) = erfc(sqrt x), evaluated via the scaled erfcx so the log never
    underflows).  The sum is a single logsumexp, so the result is accurate to
    ~1e-12 absolute on the log scale for any u >= 0.

    Requires u >= 0; returns 0.0 at u = 0.
    """
    d = check_dimension(d)
    u = float(u)
    if not math.isfinite(u) or u < 0.0:
        raise ValueError(f"chi_tail_log requires finite u >= 0, got {u!r}")
    if u == 0.0:
        return 0.0
    x = 0.5 * u * u
    if d % 2 == 0:
        a0 = 1.0
        log_q0 = -x
    else:
        z = u / _SQRT2
        a0 = 0.5
        log_q0 = math.log(special.erfcx(z)) - z * z
    n_terms = (d - round(2 * a0)) // 2
    if n_terms == 0:
        return min(0.0, log_q0)
    a = a0 + np.arange(n_terms, dtype=float)
    log_terms = a * math.log(x) - x - special.gammaln(a + 1.0)
    total = special.logsumexp(np.concatenate(([log_q0], log_terms)))
    return min(0.0, float(total))


def chi_moment(d, p: float) -> float:
    """E ||Z_d||^p = 2^(p/2) Gamma((d+p)/2) / Gamma(d/2), for p >= 0.

    Even integer p is computed by the exact product prod_{k<p/2} (d + 2k),
    so the identities E||Z_d||^2 = d and E||Z_d||^4 = d(d+2) hold exactly in
    floating point; other p go through log-gamma.
    """
    d = check_dimension(d)
    p = float(p)
    if not math.isfinite(p) or p < 0.0:
        raise ValueError(f"chi_moment requires finite p >= 0, got {p!r}")
    if p == int(p) and int(p) % 2 == 0:
        out = 1.0
        for k in range(int(p) // 2):
            out *= d + 2 * k
        return out
    return math.exp(
        0.5 * p * math.log(2.0)
        + math.lgamma(0.5 * (d + p))
        - math.lgamma(0.5 * d)
    )


def chi_pdf(d, r) -> np.ndarray | float:
    """Density of ||Z_d|| at r >= 0 (vectorized in r); zero for r < 0."""
    d = check_dimension(d)
    r_arr = np.asarray(r, dtype=float)
    scalar = r_arr.ndim == 0
    r_arr = np.atleast_1d(r_arr)
    out = np.zeros_like(r_arr)
    log_norm = (0.5 * d - 1.0) * math.log(2.0) + math.lgamma(0.5 * d)
    pos = r_arr > 0.0
    rp = r_arr[pos]
    out[pos] = np.exp((d - 1) * np.log(rp) - 0.5 * rp * rp - log_norm)
    if d == 1:
        out[r_arr == 0.0] = math.sqrt(2.0 / math.pi)
    return float(out[0]) if scalar else out


def chi_expectation(d, fn: Callable[[np.ndarray], np.ndarray]) -> float:
    """E fn(||Z_d||) by adaptive quadrature against the chi density.

    ``fn`` must accept a float array.  Intended for smooth scalar test
    profiles (cosh, softplus variants); for pure powers prefer the exact
    ``chi_moment``.  The upper limit is pushed outward until the integrand
    has decayed below 1e-18, so profiles that grow (but slower than the
    density decays) stay representable; an integrand still growing at the
    overflow edge is rejected rather than silently truncated.
    """
    d = check_dimension(d)

    def integrand(r: float) -> float:
        return float(fn(np.asarray([r]))[0]) * chi_pdf(d, r)

    upper = math.sqrt(d) + 8.0
    for _ in range(400):
        # an overflow here is reported by the finiteness check below
        with np.errstate(over="ignore", invalid="ignore"):
            edge = integrand(upper)
        if not math.isfinite(edge):
            raise ValueError(
                "integrand is non-finite before the chi density decays; "
                "the expectation may diverge"
            )
        if abs(edge) < 1e-18:
            break
        upper += 2.0
    else:
        raise ValueError("could not locate a decayed upper integration limit")
    from scipy import integrate  # here, so importing the package does not load it

    value, _ = integrate.quad(integrand, 0.0, upper, limit=200)
    return value


def chi_tail_inverse(d, q: float) -> float:
    """Threshold u with chi_tail(d, u) = q, for q in (0, 1]."""
    d = check_dimension(d)
    q = float(q)
    if not 0.0 < q <= 1.0:
        raise ValueError(f"tail quantile must lie in (0, 1], got {q!r}")
    return float(math.sqrt(2.0 * special.gammainccinv(0.5 * d, q)))

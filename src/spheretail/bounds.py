"""Closed-form tail-comparison bounds and the comparison-constant catalog.

The central inequality bounds the tail of a norm of a sum of independent
uniform-on-sphere vectors by a constant multiple of a Gaussian chi tail:

    P(||a_1 U_1 + ... + a_n U_n|| > u)  <=  c * P(a ||Z_d|| > u),
    a = sqrt((a_1^2 + ... + a_n^2) / d),

valid for every real u, where the U_i are independent uniform unit vectors
in R^d and Z_d is a standard Gaussian vector in R^d.  Four constants c are
cataloged:

    C3        = 2 e^3 / 9 = 4.4634...   the headline constant
    C_STAR    = 3.1786...               the sharp d = 1 constant,
                P(|eps_1 + eps_2| >= 2) / P(|Z_1| >= sqrt 2), computed at
                runtime from Phi rather than stored at 3 digits
    E_SQUARED = e^2 = 7.389...          an intermediate improvement
    NT397     = 397                     the earlier baseline that C3
                improves on (about 89 times larger)

Bounds are reported both raw (the constant times the chi tail, which may
exceed 1) and capped at 1; the raw form is what the inequality asserts, the
capped form is what a practitioner uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from .gaussian_chi import check_dimension, chi_tail, phi_cdf, phi_tail

_SQRT2 = math.sqrt(2.0)


def fsum_inf(values) -> float:
    """The sum of VALUES, correctly rounded (math.fsum); inf on overflow."""
    try:
        return math.fsum(values)
    except OverflowError:  # fsum raises on an intermediate overflow
        return math.inf


def sum_sq(entries: Sequence[float]) -> float:
    """a_1^2 + ... + a_n^2 by ``fsum_inf``, so it depends on neither the order
    nor the signs of the entries; inf on overflow."""
    return fsum_inf([v * v for v in np.asarray(entries, dtype=float).tolist()])


def pow2_above(x: float) -> float:
    """2^e with 2^(e-1) <= x < 2^e for a finite x > 0, so x / 2^e lies in [1/2, 1)."""
    return math.ldexp(1.0, math.frexp(x)[1])


def check_threshold(u) -> float:
    """Validate a threshold: a finite real, returned as float."""
    u = float(u)
    if not math.isfinite(u):
        raise ValueError(f"threshold must be finite, got {u!r}")
    return u


def coeff_array(entries: Sequence[float]) -> np.ndarray:
    """Validate a coefficient vector: finite entries, at least one nonzero."""
    a = np.atleast_1d(np.asarray(entries, dtype=float))
    if a.ndim != 1 or a.size < 1:
        raise ValueError("coefficients must be a nonempty 1-d sequence")
    if not np.all(np.isfinite(a)):
        raise ValueError("coefficients must all be finite")
    if not 0.0 < sum_sq(a) < math.inf:
        raise ValueError("coefficients need a positive, finite sum of squares")
    return a


@dataclass(frozen=True)
class BoundConstant:
    """A named comparison constant with a provenance note."""

    name: str
    value: float
    note: str


def _c_star() -> float:
    # numerator: P(|eps_1 + eps_2| >= 2) = 1/2 for independent signs;
    # denominator: P(|Z_1| >= sqrt 2) = 2 (1 - Phi(sqrt 2)).
    value = 0.5 / (2.0 * (1.0 - phi_cdf(_SQRT2)))
    if not 3.0 < value < 3.3:
        raise RuntimeError(f"sharp-constant sanity window violated: {value}")
    return value


C3 = BoundConstant("C3", 2.0 * math.e**3 / 9.0, "2e^3/9, the headline constant")
C_STAR = BoundConstant(
    "C_STAR",
    _c_star(),
    "sharp d=1 constant P(|eps1+eps2|>=2)/P(|Z_1|>=sqrt2), computed from Phi",
)
E_SQUARED = BoundConstant("E_SQUARED", math.e**2, "e^2, intermediate improvement")
NT397 = BoundConstant("NT397", 397.0, "earlier baseline constant, ~89x C3")

_CONSTANTS = (C3, C_STAR, E_SQUARED, NT397)
_ALIASES = {c.name.lower(): c for c in _CONSTANTS}
_ALIASES |= {"cstar": C_STAR, "e2": E_SQUARED, "397": NT397}


def constant_table() -> list[BoundConstant]:
    """All cataloged comparison constants, in canonical order."""
    return list(_CONSTANTS)


def get_constant(which: str | BoundConstant) -> BoundConstant:
    """Look up a constant by name (case-insensitive) or pass one through."""
    if isinstance(which, BoundConstant):
        return which
    key = str(which).strip().lower()
    try:
        return _ALIASES[key]
    except KeyError:
        names = ", ".join(sorted(set(_ALIASES)))
        raise ValueError(f"unknown constant {which!r}; choose from: {names}") from None


@dataclass(frozen=True)
class TailQuery:
    """One inequality instance: dimension, coefficients, threshold."""

    d: int
    coeffs: tuple[float, ...]
    u: float

    def __post_init__(self):
        a = coeff_array(self.coeffs)
        object.__setattr__(self, "d", check_dimension(self.d))
        object.__setattr__(self, "coeffs", tuple(float(v) for v in a))
        object.__setattr__(self, "u", check_threshold(self.u))


@dataclass(frozen=True)
class BoundResult:
    """An evaluated bound: constant, comparator scale, the comparator tail
    P(scale ||Z_d|| > u) that the constant multiplies, raw and capped values."""

    constant: BoundConstant
    scale: float
    tail: float
    raw: float
    capped: float


def scale(coeffs: Sequence[float], d) -> float:
    """Comparator scale sqrt((a_1^2 + ... + a_n^2) / d), summed over a / s for
    s = min(pow2_above(max |a_i|), 1), so no square of a tiny vector is subnormal;
    where every a_i^2 and the sum over d are normal, s changes no bit."""
    a = coeff_array(coeffs)
    s = min(pow2_above(np.abs(a).max()), 1.0)
    return s * math.sqrt(sum_sq(a / s) / check_dimension(d))


def comparator_tail(d: int, u: float, s: float) -> float:
    """P(s ||Z_d|| > u) = chi_tail(d, u / s) for a finite u and a scale s > 0.

    A ratio that overflows lies beyond every finite chi threshold, so its
    tail is 0 (and 1 when it overflows below zero).
    """
    ratio = check_threshold(u) / s
    if math.isinf(ratio):
        return 0.0 if ratio > 0.0 else 1.0
    return chi_tail(d, ratio)


def comparator_bound(constant: str | BoundConstant, s: float, d: int, u: float) -> BoundResult:
    """c * P(s ||Z_d|| > u), raw and capped at 1: the one bound formula."""
    c = get_constant(constant)
    tail = comparator_tail(d, u, s)
    raw = c.value * tail
    return BoundResult(constant=c, scale=s, tail=tail, raw=raw, capped=min(raw, 1.0))


def theorem_bound(query: TailQuery, constant: str | BoundConstant = C3) -> BoundResult:
    """Evaluate c * P(a ||Z_d|| > u) for one query.

    The chi-tail factor is 1 for u <= 0, so the raw bound degenerates to the
    constant itself there (the inequality is stated for all real u).
    """
    return comparator_bound(constant, scale(query.coeffs, query.d), query.d, query.u)


CorollaryVariant = Literal["per_dimension", "as_printed"]


def corollary_bound(
    d,
    radius_bounds: Sequence[float],
    u: float,
    constant: str | BoundConstant = C3,
    variant: CorollaryVariant = "per_dimension",
) -> BoundResult:
    """Bound for sums of independent bounded spherically invariant vectors.

    ``radius_bounds`` are almost-sure bounds b_1, ..., b_n on the summands'
    norms; all must be positive.  Two comparator scales are exposed:

    * ``"as_printed"``: sqrt(b_1^2 + ... + b_n^2), the displayed form;
    * ``"per_dimension"``: sqrt((b_1^2 + ... + b_n^2)/d), the tighter scale
      the conditioning argument actually yields (default).

    The per-dimension raw value never exceeds the as-printed one for u > 0,
    with equality at d = 1.
    """
    d = check_dimension(d)
    b = coeff_array(radius_bounds)
    if np.any(b <= 0.0):
        raise ValueError("radius bounds must all be positive")
    if variant not in ("per_dimension", "as_printed"):
        raise ValueError(f"unknown corollary variant {variant!r}")
    return comparator_bound(constant, scale(b, d if variant == "per_dimension" else 1), d, u)


def g_lower(d) -> float:
    """P(||Z_d|| >= sqrt(d+2)); equals 1/e^2 at d = 2 and exceeds it after."""
    d = check_dimension(d)
    return chi_tail(d, math.sqrt(d + 2.0))


def q_lower(d) -> float:
    """1 - Phi((sqrt(d+2) - sqrt(d-1)) sqrt 2), a strictly increasing
    normal-tail lower bound for g_lower."""
    d = check_dimension(d)
    return phi_tail((math.sqrt(d + 2.0) - math.sqrt(d - 1.0)) * _SQRT2)

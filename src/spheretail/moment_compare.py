"""Structural predicates and moment comparisons for spherically invariant
test functions.

This module turns the structural hypotheses behind the tail-comparison
bounds into testable predicates:

* class-C membership of a scalar profile h (even, twice differentiable,
  with convex second derivative), decided in closed form from its kind,
  exponent and sign;
* bisubharmonicity of the radial lift f(x) = h(||x||), decided in closed
  form by ``bisub_rule``; ``is_bisubharmonic_numeric`` is its numerical
  reference, convexity of t -> E f(y + U sqrt t) at finitely many centres y,
  by Monte Carlo or by ``sampling.cos_rule``;
* Schur majorization of squared-coefficient tuples;
* the moment comparisons between sums of scaled unit vectors, their
  redistributed counterparts, and their Gaussian comparators, including the
  p-th moment comparison against E ||a Z_d sqrt(d)||^p for p >= 3.

Honesty of verdicts
-------------------
A finite function suite or a Monte Carlo run can never prove a "for all"
statement.  Every verdict is ``sampling.judge`` of a confidence interval
for the margin (a point when both sides are exact): HOLDS or VIOLATED only
when it excludes 0, INCONCLUSIVE otherwise -- never a silent pass.
Hypothesis-style checks report "consistent", never "proven".
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np
from scipy import special

from .bounds import coeff_array, fsum_inf, sum_sq
from .gaussian_chi import check_dimension, chi_moment
from .sampling import check_alpha, cos_rule, judge, map_sum_norms

_LN2 = math.log(2.0)


# ---------------------------------------------------------------------------
# Test functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TestFunction:
    """A scalar test profile h, used directly or as the radial part of
    f(x) = h(||x||): kind "power" (|x|^p, p >= 0), "cosh" (cosh(rate * x),
    rate > 0) or "softplus_squared" (a smooth even profile built from
    softplus, for exercising the numeric classifiers), times a nonzero
    ``sign`` (a negated profile needs no kind of its own).  Parameter and
    sign are finite, checked when built, so no rule meets an invalid profile.
    """

    kind: str
    param: float = 0.0
    sign: float = 1.0

    def __post_init__(self):
        p = self.param
        if self.kind not in ("power", "cosh", "softplus_squared"):
            raise ValueError(f"unknown test-function kind {self.kind!r}")
        if self.kind == "power" and not (math.isfinite(p) and p >= 0):
            raise ValueError(f"power exponent must be finite and >= 0, got {p!r}")
        if self.kind == "cosh" and not (math.isfinite(p) and p > 0):
            raise ValueError(f"cosh rate must be finite and > 0, got {p!r}")
        if self.kind == "softplus_squared" and p != 0:
            raise ValueError(f"softplus_squared takes no parameter, got {p!r}")
        if not (math.isfinite(self.sign) and self.sign != 0):
            raise ValueError(f"test-function sign must be finite and nonzero, got {self.sign!r}")

    def h(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.kind == "power":
            v = np.abs(x) ** self.param
        elif self.kind == "cosh":
            v = np.cosh(self.param * x)
        else:
            sp = np.logaddexp(0.0, x)
            sm = np.logaddexp(0.0, -x)
            v = sp * sp + sm * sm - 2.0 * _LN2 * _LN2
        return self.sign * v

    @property
    def label(self) -> str:
        prefix = "-" if self.sign < 0 else ""
        if self.kind == "power":
            return f"{prefix}power{self.param:g}"
        if self.kind == "cosh":
            return f"{prefix}cosh{self.param:g}"
        return f"{prefix}{self.kind}"

    def negate(self) -> "TestFunction":
        return replace(self, sign=-self.sign)


def power(p: float) -> TestFunction:
    return TestFunction("power", float(p))


def cosh_profile(rate: float = 1.0) -> TestFunction:
    return TestFunction("cosh", float(rate))


def softplus_squared() -> TestFunction:
    return TestFunction("softplus_squared")


def _number(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


def parse_test_function(token: str) -> TestFunction:
    """Parse CLI tokens like ``power4``, ``power2.5``, ``cosh1.5``,
    ``softplus_squared``; a leading ``-`` or ``neg_`` negates."""
    t = token.strip().lower()
    negated = t.startswith("-") or t.startswith("neg_")
    if negated:
        t = t[1:] if t.startswith("-") else t[4:]
    profiles = {"power": power, "cosh": cosh_profile}
    kind = next((k for k in profiles if t.startswith(k)), None)
    if t == "cosh":
        fn = cosh_profile(1.0)
    elif t in ("softplus_squared", "softplus-squared", "softplus2"):
        fn = softplus_squared()
    elif kind and (param := _number(t[len(kind) :].lstrip(":"))) is not None:
        fn = profiles[kind](param)
    else:
        raise ValueError(
            f"unknown test function {token!r}; expected power<p>, cosh[<rate>] "
            "or softplus_squared, optionally prefixed with '-'"
        )
    return fn.negate() if negated else fn


def _z(alpha: float) -> float:
    return float(special.ndtri(1.0 - check_alpha(alpha) / 2.0))


def _finite(value, what: str):
    """VALUE, if every entry of it is finite (a nan comes from inf - inf)."""
    if not (math.isfinite(value) if isinstance(value, float) else np.isfinite(value).all()):
        raise ValueError(f"{what} overflows double precision")
    return value


def _mc_means(
    values: Callable[[np.ndarray], np.ndarray], rows, d: int, samples: int, seed: int
) -> list[tuple[float, float]]:
    """(mean, standard error) of each row of values(norms), over the sample
    stream of ``rows`` (see ``sampling.map_sum_norms``).

    Each chunk sums its squared deviations about its own mean; the chunks
    merge as M2 = sum M2_k + sum n_k (mean_k - mean)^2 (Chan, Golub and
    LeVeque), which does not cancel; a constant sample's error is rounding noise.
    One sample has no error estimate, so fewer than 2 are rejected.
    """
    if samples < 2:
        raise ValueError("Monte Carlo needs at least 2 samples to estimate its error")

    def moments(r: np.ndarray):
        v = values(r)
        total = v.sum(axis=1)
        dev = v - (total / v.shape[1])[:, None]
        return v.shape[1], total, np.einsum("ij,ij->i", dev, dev)

    with np.errstate(over="ignore", invalid="ignore"):  # _finite rejects the result
        sizes, totals, m2s = zip(*map_sum_norms([(moments, rows, d)], samples, seed)[0])
        sizes, totals = np.array(sizes, dtype=float), np.array(totals)
        means = np.sum(totals, axis=0) / samples
        m2 = np.sum(m2s, axis=0) + sizes @ (totals / sizes[:, None] - means) ** 2
    _finite(np.append(means, m2), "a Monte Carlo mean or its error")
    return [(float(m), math.sqrt(v / (samples - 1) / samples)) for m, v in zip(means, m2)]


# ---------------------------------------------------------------------------
# Numerical bisubharmonicity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BisubTriple:
    y_norm: float
    t_low: float
    t_mid: float
    t_high: float
    margin: float
    se: float
    status: str  # "pass" | "fail" | "inconclusive"


#: a triple's status for each verdict of ``judge``, from best to worst
_BISUB_STATUS = {"HOLDS": "pass", "INCONCLUSIVE": "inconclusive", "VIOLATED": "fail"}


@dataclass(frozen=True)
class BisubReport:
    """Outcome of the convexity-in-t test of t -> E f(y + U sqrt t)."""

    status: str  # "pass" | "fail" | "inconclusive"
    triples: tuple[BisubTriple, ...]
    method: str
    atol: float

    @property
    def passed(self) -> bool:
        return self.status == "pass"


def _bisub_mc(fn, d, norms, ts, npairs, seed):
    """Monte Carlo profiles E h(||y + U sqrt t||) (one row per center), their
    midpoint margins and the margins' standard errors.

    ||y + U sqrt t|| has the law of ||sqrt t U_1 + |y| U_2||, a two-term sum
    on the engine.  The rows (sqrt t, +|y|) and (sqrt t, -|y|) share every
    cosine draw, so they are antithetic pairs; all centers and grid points
    share the draws too.  The chain starts at R = sqrt t without a draw, so
    a zero center leaves every sample exact.
    """
    k, m = len(norms), ts.size
    y = np.repeat(norms, m)
    root_t = np.tile(np.sqrt(ts), k)
    rows = np.concatenate([np.stack([root_t, y], axis=1), np.stack([root_t, -y], axis=1)])

    def values(r: np.ndarray) -> np.ndarray:
        h = fn.h(r).reshape(2, k, m, -1)
        prof = 0.5 * (h[0] + h[1])
        marg = prof[:, :-2] + prof[:, 2:] - 2.0 * prof[:, 1:-1]
        return np.concatenate([prof.reshape(k * m, -1), marg.reshape(k * (m - 2), -1)])

    est = np.array(_mc_means(values, rows, d, npairs, seed))
    margins, ses = est[k * m :].T.reshape(2, k, m - 2)
    return est[: k * m, 0].reshape(k, m), margins, ses


def is_bisubharmonic_numeric(
    fn: TestFunction,
    d,
    y_set: Sequence = (0.0, 1.0, 2.0),
    t_grid=None,
    samples: int = 20_000,
    seed: int = 0,
    method: str = "mc",
) -> BisubReport:
    """Test convexity of t -> E f(y + U sqrt t) for the radial f = h(||.||).

    Each consecutive triple (t1, t2, t3) of the grid and each center y gives
    a midpoint-convexity margin m(t1) + m(t3) - 2 m(t2), which must not be
    conclusively negative.  Since f is radial, a center enters only through
    its norm: ``y_set`` may hold vectors or plain norms.

    method="mc" estimates the margins from samples // 2 antithetic pairs on
    the sampling engine, with common random numbers across the whole grid
    (for pure powers 2 and 4 the margin is then exact); a triple is a *fail*
    only when its 99% confidence interval sits entirely below -atol, a *pass*
    when it sits entirely above, and *inconclusive* otherwise -- wide
    intervals are never reported as a pass.  A centre's atol is 1e-9 times
    its own profile scale, so a large centre hides no failure at a small one
    (the report keeps the largest).  method="quadrature" integrates h over
    ||y + U sqrt t||^2 = |y|^2 + t + 2 sqrt(t) |y| C with ``sampling.cos_rule``
    instead, and the Monte Carlo default is its cross-check.  No verdict rests
    on this test: ``bisub_rule`` decides, and the tests check it against this.
    """
    d = check_dimension(d)
    ts = np.asarray(
        np.linspace(0.5, 4.0, 8) if t_grid is None else t_grid, dtype=float
    )
    if ts.ndim != 1 or ts.size < 3:
        raise ValueError("t_grid needs at least 3 points")
    if not np.all(np.isfinite(ts)) or np.any(ts <= 0) or np.any(np.diff(ts) <= 0):
        raise ValueError("t_grid must be finite, positive and strictly increasing")
    norms = [math.hypot(*np.atleast_1d(y)) for y in y_set]
    if not norms:
        raise ValueError("y_set must be nonempty")
    if not all(map(math.isfinite, norms)):
        raise ValueError(f"centre norms must be finite, got {norms}")
    _finite([y * y for y in norms], "the squared norm of a centre")
    if method not in ("mc", "quadrature"):
        raise ValueError(f"unknown method {method!r}")

    if method == "quadrature":
        cosv, wts = cos_rule(d)
        with np.errstate(over="ignore", invalid="ignore"):  # _finite rejects the result
            # h on each centre's (t, node) grid; a 1-D dot per t fixes the summation order
            r2 = [(y * y + ts)[:, None] + 2.0 * np.sqrt(ts)[:, None] * y * cosv for y in norms]
            h = [fn.h(np.sqrt(np.clip(r, 0.0, None))) for r in r2]
            profiles = np.array([[wts @ row for row in grid] for grid in h])
            margins = profiles[:, :-2] + profiles[:, 2:] - 2.0 * profiles[:, 1:-1]
        _finite(np.append(profiles, margins), f"E {fn.label}(||y + U sqrt t||) on the t grid")
        ses = np.zeros_like(margins)
    else:
        profiles, margins, ses = _bisub_mc(fn, d, norms, ts, max(2, samples // 2), seed)
    atols = 1e-9 * np.maximum(1.0, np.abs(profiles).max(axis=1))
    z = _z(0.01)
    triples = tuple(
        BisubTriple(
            y, *ts[j : j + 3].tolist(), m, s, _BISUB_STATUS[judge(m - z * s, m + z * s, -atol)]
        )
        for y, atol, m_row, s_row in zip(norms, atols.tolist(), margins.tolist(), ses.tolist())
        for j, (m, s) in enumerate(zip(m_row, s_row))
    )
    overall = max((t.status for t in triples), key=list(_BISUB_STATUS.values()).index)
    return BisubReport(overall, triples, method, float(atols.max()))


# ---------------------------------------------------------------------------
# Schur majorization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MajorizationPair:
    """Squared-coefficient tuples (a^2, b^2) with b^2 to be majorized by a^2."""

    a_sq: tuple[float, ...]
    b_sq: tuple[float, ...]

    def __post_init__(self):
        a = np.asarray(self.a_sq, dtype=float)
        b = np.asarray(self.b_sq, dtype=float)
        if a.ndim != 1 or b.ndim != 1 or a.size < 1:
            raise ValueError("a_sq and b_sq must be nonempty 1-d sequences")
        if a.size != b.size:
            raise ValueError(
                f"length mismatch: len(a_sq)={a.size}, len(b_sq)={b.size}"
            )
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise ValueError("entries must be finite")
        if np.any(a < 0) or np.any(b < 0):
            raise ValueError("squared coefficients must be nonnegative")
        for name, sq in (("a_sq", a), ("b_sq", b)):
            _finite(fsum_inf(sq.tolist()), f"the sum of {name}")
        object.__setattr__(self, "a_sq", tuple(float(v) for v in a))
        object.__setattr__(self, "b_sq", tuple(float(v) for v in b))


def majorization_failure(pair: MajorizationPair) -> int | None:
    """Index of the first failing sorted partial sum, or None if (b_sq) is
    majorized by (a_sq).  Index len(a_sq) flags a total-sum mismatch."""
    a = np.sort(np.asarray(pair.a_sq))[::-1]
    b = np.sort(np.asarray(pair.b_sq))[::-1]
    ca = np.cumsum(a)
    cb = np.cumsum(b)
    tol = 1e-12 * max(1.0, float(ca[-1]), float(cb[-1]))
    if abs(float(ca[-1] - cb[-1])) > tol:
        return int(a.size)
    bad = np.nonzero(cb > ca + tol)[0]
    return int(bad[0]) if bad.size else None


# ---------------------------------------------------------------------------
# Moment oracles and comparison verdicts
# ---------------------------------------------------------------------------


def _moments(sq: Sequence[float], d: int) -> tuple[float, float]:
    """(E ||S||^2, E ||S||^4) for S = sum a_i U_i in R^d, from sq = (a_i^2).

    Cross terms vanish in the second moment; expanding (||S||^2)^2 with
    E (U_i . U_j)^2 = 1/d for i != j gives sum a_i^4 + (2 + 4/d) sum_{i<j}
    a_i^2 a_j^2.  Both sums are ``fsum_inf``, so neither moment depends on
    the order or the signs of the coefficients, and overflow gives inf or nan.
    """
    t2 = fsum_inf(sq)
    t4 = fsum_inf(v * v for v in sq)
    return t2, t4 + (2.0 + 4.0 / d) * 0.5 * (t2 * t2 - t4)


def second_moment_exact(coeffs: Sequence[float]) -> float:
    """E ||sum a_i U_i||^2 = sum a_i^2, in every dimension."""
    return sum_sq(coeff_array(coeffs))


def fourth_moment_exact(coeffs: Sequence[float], d) -> float:
    """E ||sum a_i U_i||^4 in R^d, in closed form (see ``_moments``)."""
    a = coeff_array(coeffs)
    return _finite(_moments((a * a).tolist(), check_dimension(d))[1], "E ||sum a_i U_i||^4")


def gaussian_fourth_moment(coeffs: Sequence[float], d) -> float:
    """E ||a Z_d||^4 = (sum a_i^2)^2 (1 + 2/d) with a = sqrt(sum a_i^2 / d); it
    exceeds ``fourth_moment_exact`` by exactly (2/d) sum a_i^4."""
    return _gauss_side(power(4), second_moment_exact(coeffs), check_dimension(d))


def _exact_sphere_side(fn: TestFunction, sq: Sequence[float], d: int) -> tuple[float | None, str]:
    """(E h(||sum a_i U_i||), method) from sq = (a_i^2), or (None, "") when
    no exact law is known.  Powers 2 and 4 are the sign times the closed
    forms of ``_moments`` (the ``oracle m2``/``m4`` values) at every length;
    any other profile of one nonzero coefficient has the constant norm sqrt(max(sq))."""
    if fn.kind == "power" and fn.param in (2.0, 4.0):
        m2, m4 = _moments(sq, d)
        value, method = fn.sign * (m2 if fn.param == 2.0 else m4), f"exact-m{fn.param:g}"
    elif np.count_nonzero(sq) <= 1:
        with np.errstate(over="ignore"):  # _finite rejects the result
            value, method = float(fn.h(math.sqrt(max(sq)))), "exact-constant-norm"
    else:
        return None, ""
    return _finite(value, f"E {fn.label}(||sum a_i U_i||)"), method


def _gauss_side(fn: TestFunction, t2: float, d: int) -> float:
    """E h(sqrt(t2 / d) ||Z_d||): a chi moment for powers, E cosh(m ||Z_d||) =
    1F1(d/2; 1/2; m^2 / 2) for cosh (inf past overflow).  E ||Z_d||^2 = d, so
    the second moment is t2 itself, which keeps a p = 2 variance match exact;
    at t2 = d the scale is exactly 1, so every power gives ``chi_moment``."""
    p = fn.param
    try:
        if fn.kind == "cosh":
            value = fn.sign * float(special.hyp1f1(0.5 * d, 0.5, p * p * t2 / (2 * d)))
        else:
            value = fn.sign * (t2 if p == 2.0 else (t2 / d) ** (0.5 * p) * chi_moment(d, p))
    except OverflowError:  # float ** and math.exp raise it instead of returning inf
        value = math.inf
    return _finite(value, f"E {fn.label}(a ||Z_d||)")


@dataclass(frozen=True)
class ComparisonVerdict:
    """Two-sided comparison lhs <= rhs with margin = rhs - lhs.

    The verdict judges the interval margin +- z margin_se (an exact margin
    has margin_se 0): HOLDS or VIOLATED, and then ``conclusive``, when it
    excludes 0, INCONCLUSIVE otherwise.
    """

    lhs: float
    rhs: float
    margin: float
    lhs_se: float
    rhs_se: float
    margin_se: float
    conclusive: bool
    verdict: str
    method: str
    alpha: float
    note: str = ""

    @property
    def holds(self) -> bool:
        return self.verdict == "HOLDS"


def _verdict(
    lhs, rhs, margin, margin_se, alpha, method, lhs_se=0.0, rhs_se=0.0, note=""
) -> ComparisonVerdict:
    half = _z(alpha) * margin_se
    verdict = judge(margin - half, margin + half)
    conclusive = verdict != "INCONCLUSIVE"
    return ComparisonVerdict(
        lhs, rhs, margin, lhs_se, rhs_se, margin_se, conclusive, verdict, method, alpha, note
    )


@dataclass(frozen=True)
class ClassCReport:
    """Class-C membership of a profile; ``failed`` names the condition that
    fails, and is empty when the profile passes."""

    passed: bool
    failed: str


def is_class_c(fn: TestFunction) -> ClassCReport:
    """Decide class C (h even, twice differentiable, with convex h'') in
    closed form; every profile is even.  s |x|^p has h'' = s p (p-1)
    |x|^(p-2): constant at p in {0, 2}, unbounded at 0 for p < 2, not convex
    for 2 < p < 3, and convex for p >= 3 iff s > 0.  s cosh(c x) has
    h'' = s c^2 cosh(c x), convex iff s > 0.  softplus^2 has h'''' < 0 at
    1.028 < |x| < 4.003 and h'''' = 0.403 at 0, so neither sign passes."""
    p = fn.param
    if fn.kind == "cosh":
        failed = "" if fn.sign > 0 else "a cosh profile needs sign > 0"
    elif fn.kind == "softplus_squared":
        failed = "h'''' < 0 at 1.028 < |x| < 4.003" if fn.sign > 0 else "h'''' < 0 at x = 0"
    elif p in (0.0, 2.0) or (p >= 3.0 and fn.sign > 0):
        failed = ""
    elif p < 2.0:
        failed = f"p = {p:g} < 2 leaves h'' unbounded at 0"
    elif p < 3.0:
        failed = f"h'' ~ |x|^(p-2) is not convex for 2 < p = {p:g} < 3"
    else:
        failed = "a power p >= 3 needs sign > 0"
    return ClassCReport(not failed, failed)


def bisub_rule(fn: TestFunction, d) -> tuple[str, str]:
    """(status, failed) of f = h(||x||) in R^d in closed form: "pass", or "fail" or
    "inconclusive" and the failed condition.  Off 0, Delta^2 |x|^p = p (p+d-2) (p-2)
    (p+d-4) |x|^(p-4), and 0 adds no negative mass iff p + d >= 4; cosh(c |x|) sums
    |x|^(2k) with positive coefficients.  Delta^2 f(0) = d (d+2) h''''(0) / 3 < 0 for
    -cosh and -softplus^2, and Delta^2 f(d + 1) < 0 for softplus^2 at d <= 50 (mpmath)."""
    s_p2, p_d = fn.sign * (fn.param - 2.0), fn.param + check_dimension(d)
    if fn.kind == "softplus_squared" and fn.sign > 0 and d > 50:
        return "inconclusive", "no witness beyond d = 50"
    if fn.kind == "cosh":
        failed = "" if fn.sign > 0 else "a cosh profile needs sign > 0"
    elif fn.kind == "softplus_squared":
        failed = f"Delta^2 f < 0 at |x| = {d + 1 if fn.sign > 0 else 0}"
    elif fn.param in (0.0, 2.0) or (s_p2 > 0 and p_d >= 4):
        failed = ""
    else:
        failed = f"p + d = {p_d:g} < 4" if s_p2 > 0 else f"sign (p - 2) = {s_p2:g} <= 0"
    return ("fail" if failed else "pass"), failed


def _certify_comparison_function(fn: TestFunction, d: int) -> None:
    if (rule := bisub_rule(fn, d))[0] != "pass":
        raise ValueError(f"{fn.label} is not certified bisubharmonic for d={d} ({rule[1]})")


def _vs_gauss(fn, a, d, t2, samples, seed, alpha) -> ComparisonVerdict:
    """The verdict on E h(||sum a_i U_i||) <= E h(sqrt(t2 / d) ||Z_d||).

    The Gaussian side is exact (``_gauss_side``).  The sphere side is exact
    where ``_exact_sphere_side`` knows its law and Monte Carlo (mc-vs-exact)
    otherwise, so only one side ever carries statistical error.
    """
    rhs = _gauss_side(fn, t2, d)
    lhs, method = _exact_sphere_side(fn, (a * a).tolist(), d)
    lhs_se = 0.0
    if lhs is None:
        [(lhs, lhs_se)] = _mc_means(fn.h, a, d, samples, seed)
        method = "mc-vs-exact"
    return _verdict(lhs, rhs, rhs - lhs, lhs_se, alpha, method, lhs_se=lhs_se)


def bc_comparison_check(
    fn: TestFunction,
    pair: MajorizationPair,
    d,
    samples: int = 200_000,
    seed: int = 0,
    alpha: float = 0.01,
) -> ComparisonVerdict:
    """Check E f(sum a_i U_i) <= E f(sum b_i U_i) for (b^2) majorized by (a^2).

    Powers 2 and 4 (the moment oracles) and one nonzero coefficient on each side are settled
    exactly (for the second moment the two sides coincide, otherwise the margin is exact).
    Other certified profiles are compared by Monte Carlo with common random
    numbers: both radial chains reuse the same cosine draws, which leaves
    each side's marginal law unchanged but shrinks the variance of the
    difference.  Unequal totals are majorized only within tolerance: never VIOLATED, and
    INCONCLUSIVE where the gap alone can make an exact margin (any, for a constant norm).
    """
    d = check_dimension(d)
    _z(alpha)  # a bad alpha fails before any sample is drawn
    idx = majorization_failure(pair)
    if idx is not None:
        raise ValueError(
            "(b_sq) is not majorized by (a_sq): partial sums fail at "
            f"sorted index {idx}"
        )
    _certify_comparison_function(fn, d)
    gap = fsum_inf([*pair.b_sq, *(-v for v in pair.a_sq)])  # the exact gap, rounded once

    # the exact sides work on the squared tuples directly (no sqrt
    # round-trip), so equal-sum pairs compare with margin exactly zero
    (lhs, method), (rhs, _) = (_exact_sphere_side(fn, sq, d) for sq in (pair.a_sq, pair.b_sq))
    if lhs is not None and rhs is not None:
        note = "equal-sum second moments" if method == "exact-m2" else ""
        result = _verdict(lhs, rhs, rhs - lhs, 0.0, alpha, method, note=note)
    else:
        def sides(r: np.ndarray) -> np.ndarray:
            la, lb = fn.h(r)
            return np.stack([la, lb, lb - la])

        rows = np.sqrt(np.array([pair.a_sq, pair.b_sq]))
        (lhs, lhs_se), (rhs, rhs_se), (m, m_se) = _mc_means(sides, rows, d, samples, seed)
        result = _verdict(lhs, rhs, m, m_se, alpha, "mc-crn", lhs_se=lhs_se, rhs_se=rhs_se)
    # what a unit gap can add to a margin: m2 1, m4 (1 + 2/d)(T_a + T_b), other exact laws all
    t4 = (1 + 2 / d) * fsum_inf(pair.a_sq + pair.b_sq)
    per_gap = {"mc-crn": -math.inf, "exact-m2": 1.0, "exact-m4": t4}
    room = abs(fn.sign * gap) * per_gap.get(result.method, math.inf)
    within = abs(result.margin) <= room + 4 * math.ulp(max(abs(result.lhs), abs(result.rhs)))
    if gap and (result.verdict == "VIOLATED" or within):
        note = f"sum b_sq - sum a_sq = {gap:.3g}, majorized only within tolerance"
        return replace(result, verdict="INCONCLUSIVE", conclusive=False, note=note)
    return result


def gaussian_comparison_check(
    fn: TestFunction,
    coeffs: Sequence[float],
    d,
    samples: int = 200_000,
    seed: int = 0,
    alpha: float = 0.01,
) -> ComparisonVerdict:
    """Check E f(sum a_i U_i) <= E f(a Z_d), a = sqrt(sum a_i^2 / d).

    The Gaussian side is exact (a chi moment for powers, 1F1 for cosh);
    the sphere side is the moment oracle for powers 2 and 4 at
    every length and sign, exact for one nonzero coefficient, and Monte Carlo otherwise.
    """
    d = check_dimension(d)
    a = coeff_array(coeffs)
    _z(alpha)  # a bad alpha fails before any sample is drawn
    _certify_comparison_function(fn, d)
    return _vs_gauss(fn, a, d, second_moment_exact(a), samples, seed, alpha)


@dataclass(frozen=True)
class HypothesisResult:
    """Per-profile outcome of a generalized-moment hypothesis check; a
    skipped profile has no sides (nan) and is not conclusive."""

    label: str
    verdict: str  # "CONSISTENT" | "VIOLATED" | "SKIPPED_CLASS_C"
    lhs: float = math.nan
    lhs_se: float = math.nan
    rhs: float = math.nan
    margin: float = math.nan
    conclusive: bool = False
    class_c: ClassCReport | None = None
    note: str = ""


def lemma2_hypothesis_check(
    xi_samples: Sequence[float],
    d,
    h_suite: Sequence[TestFunction],
    alpha: float = 0.01,
) -> list[HypothesisResult]:
    """Check E h(xi) <= E h(||Z_d||) against an empirical sample of xi for
    each profile in the suite.

    A profile that the closed-form rule ``is_class_c`` puts outside class C
    is skipped, and its result's ``class_c`` names the failed condition.  A
    finite suite is necessarily a partial certificate: outcomes are
    "consistent with the hypothesis" or "violated", never "proven".
    """
    d = check_dimension(d)
    xi = np.asarray(xi_samples, dtype=float)
    if xi.ndim != 1 or xi.size < 2:
        raise ValueError("xi_samples must be a 1-d sample with >= 2 points")
    if not np.all(np.isfinite(xi)) or np.any(xi < 0):
        raise ValueError("xi_samples must be finite and nonnegative")
    _z(alpha)  # a bad alpha fails before any profile is evaluated

    results = []
    for fn in h_suite:
        report = is_class_c(fn)
        if not report.passed:
            note = "profile is not in class C; check aborted"
            results.append(
                HypothesisResult(fn.label, "SKIPPED_CLASS_C", class_c=report, note=note)
            )
            continue
        rhs = _gauss_side(fn, d, d)
        with np.errstate(over="ignore", invalid="ignore"):  # _finite rejects the result
            vals = fn.h(xi)
            lhs = float(vals.mean())
            lhs_se = float(vals.std(ddof=1) / math.sqrt(xi.size))
        _finite([lhs, lhs_se], f"E {fn.label}(xi)")
        v = _verdict(lhs, rhs, rhs - lhs, lhs_se, alpha, "")
        if v.verdict == "VIOLATED":
            verdict, note = v.verdict, "empirical mean conclusively exceeds the Gaussian side"
        else:
            verdict = "CONSISTENT"
            note = "consistent with the hypothesis (finite suite, not a proof)"
        results.append(
            HypothesisResult(
                fn.label, verdict, lhs, lhs_se, rhs, v.margin, v.conclusive, report, note
            )
        )
    return results


def kwapien_check(
    coeffs: Sequence[float],
    d,
    p: float,
    samples: int = 200_000,
    seed: int = 0,
    alpha: float = 0.01,
) -> ComparisonVerdict:
    """Check E ||sum a_i U_i||^p <= E ||a Z_d sqrt(d)||^p for real p >= 3.

    The right side is exact, (sum a_i^2)^(p/2) * E||Z_d||^p; the left side is
    exact at p = 4 and for one nonzero coefficient, and Monte Carlo otherwise.
    p below 3 is outside the cited comparison and rejected.
    """
    d = check_dimension(d)
    a = coeff_array(coeffs)
    p = float(p)
    if not p >= 3.0:
        raise ValueError(f"p={p} is outside the p >= 3 range of the comparison")
    _z(alpha)  # a bad alpha fails before any sample is drawn
    return _vs_gauss(power(p), a, d, d * second_moment_exact(a), samples, seed, alpha)

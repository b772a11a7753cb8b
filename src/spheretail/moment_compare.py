"""Structural predicates and moment comparisons for spherically invariant
test functions.

This module turns the structural hypotheses behind the tail-comparison
bounds into testable predicates:

* class-C membership of a scalar profile h (even, twice differentiable,
  with convex second derivative), decided by finite differences on a grid;
* numerical bisubharmonicity of the radial lift f(x) = h(||x||), via the
  equivalence "f bisubharmonic iff t -> E f(y + U sqrt t) is convex on
  (0, oo) for every center y";
* Schur majorization of squared-coefficient tuples;
* the moment comparisons between sums of scaled unit vectors, their
  redistributed counterparts, and their Gaussian comparators, including the
  p-th moment comparison against E ||a Z_d sqrt(d)||^p for p >= 3.

Honesty of verdicts
-------------------
A finite function suite or a Monte Carlo run can never prove a "for all"
statement.  Statistical comparisons are therefore reported as HOLDS /
VIOLATED only when the relevant confidence interval separates the sides
(or both sides are exact), and INCONCLUSIVE otherwise -- never as a silent
pass.  Hypothesis-style checks report "consistent", never "proven".
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np
from scipy import stats

from .bounds import coeff_array, scale
from .gaussian_chi import check_dimension, chi_expectation, chi_moment
from .sampling import (
    RngStream,
    cos_marginal,
    fourth_moment_exact,
    gaussian_fourth_moment,
    map_sum_norms,
    second_moment_exact,
)

_LN2 = math.log(2.0)


# ---------------------------------------------------------------------------
# Test functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TestFunction:
    """A scalar test profile h, used directly or as the radial part of
    f(x) = h(||x||).

    kind is one of "power" (|x|^p), "cosh" (cosh(rate * x)),
    "softplus_squared" (a smooth even profile built from softplus, useful
    for exercising the numeric classifiers), or "table" (linear
    interpolation of tabulated values).  ``sign`` lets the classifier tests
    negate a profile without a separate kind.
    """

    kind: str
    param: float = 0.0
    sign: float = 1.0
    xs: tuple[float, ...] = ()
    ys: tuple[float, ...] = ()
    declared_even: bool = True

    def h(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.kind == "power":
            v = np.abs(x) ** self.param
        elif self.kind == "cosh":
            v = np.cosh(self.param * x)
        elif self.kind == "softplus_squared":
            sp = np.logaddexp(0.0, x)
            sm = np.logaddexp(0.0, -x)
            v = sp * sp + sm * sm - 2.0 * _LN2 * _LN2
        elif self.kind == "table":
            xs = np.asarray(self.xs)
            if np.any(x < xs[0]) or np.any(x > xs[-1]):
                raise ValueError(
                    f"argument outside tabulated domain [{xs[0]}, {xs[-1]}]"
                )
            v = np.interp(x, xs, np.asarray(self.ys))
        else:
            raise ValueError(f"unknown test-function kind {self.kind!r}")
        return self.sign * v

    def radial(self, vectors) -> np.ndarray:
        """f(x) = h(||x||) applied along the last axis."""
        v = np.asarray(vectors, dtype=float)
        return self.h(np.sqrt(np.einsum("...k,...k->...", v, v)))

    @property
    def even(self) -> bool:
        return True if self.kind != "table" else self.declared_even

    @property
    def domain(self) -> tuple[float, float]:
        if self.kind == "table":
            return (self.xs[0], self.xs[-1])
        return (-math.inf, math.inf)

    @property
    def label(self) -> str:
        prefix = "-" if self.sign < 0 else ""
        if self.kind == "power":
            return f"{prefix}power{self.param:g}"
        if self.kind == "cosh":
            return f"{prefix}cosh{self.param:g}"
        if self.kind == "table":
            return f"{prefix}table[{len(self.xs)}]"
        return f"{prefix}{self.kind}"

    def negate(self) -> "TestFunction":
        return replace(self, sign=-self.sign)


def power(p: float) -> TestFunction:
    if not (math.isfinite(p) and p >= 0):
        raise ValueError(f"power exponent must be finite and >= 0, got {p!r}")
    return TestFunction("power", float(p))


def cosh_profile(rate: float = 1.0) -> TestFunction:
    if not (math.isfinite(rate) and rate > 0):
        raise ValueError(f"cosh rate must be finite and > 0, got {rate!r}")
    return TestFunction("cosh", float(rate))


def softplus_squared() -> TestFunction:
    return TestFunction("softplus_squared")


def from_table(xs: Sequence[float], ys: Sequence[float], even: bool = False) -> TestFunction:
    xs = tuple(float(v) for v in xs)
    ys = tuple(float(v) for v in ys)
    if len(xs) != len(ys) or len(xs) < 2:
        raise ValueError("table needs matching x/y sequences of length >= 2")
    if any(b <= a for a, b in zip(xs, xs[1:])):
        raise ValueError("table x values must be strictly increasing")
    return TestFunction("table", xs=xs, ys=ys, declared_even=even)


def parse_test_function(token: str) -> TestFunction:
    """Parse CLI tokens like ``power4``, ``power2.5``, ``cosh1.5``,
    ``softplus_squared``; a leading ``-`` or ``neg_`` negates."""
    t = token.strip().lower()
    negated = t.startswith("-") or t.startswith("neg_")
    if negated:
        t = t[1:] if t.startswith("-") else t[4:]
    if t.startswith("power"):
        fn = power(float(t[5:].lstrip(":")))
    elif t == "cosh":
        fn = cosh_profile(1.0)
    elif t.startswith("cosh"):
        fn = cosh_profile(float(t[4:].lstrip(":")))
    elif t in ("softplus_squared", "softplus-squared", "softplus2"):
        fn = softplus_squared()
    else:
        raise ValueError(
            f"unknown test function {token!r}; expected power<p>, cosh[<rate>] "
            "or softplus_squared, optionally prefixed with '-'"
        )
    return fn.negate() if negated else fn


def _is_power(fn: TestFunction, p: float) -> bool:
    return fn.kind == "power" and fn.param == p and fn.sign > 0


# ---------------------------------------------------------------------------
# Class-C membership
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClassCReport:
    """Diagnostics for the class-C membership check."""

    passed: bool
    even_ok: bool
    second_derivative_convex: bool
    max_evenness_violation: float
    min_convexity_margin: float
    tol: float
    n_points: int
    warnings: tuple[str, ...] = ()


def default_classc_grid() -> np.ndarray:
    return np.linspace(-2.0, 2.0, 81)


def is_class_c(fn: TestFunction, grid=None, tol: float | None = None) -> ClassCReport:
    """Decide class-C membership of h on a symmetric grid.

    Checks (i) evenness h(-x) = h(x) at the grid points and (ii) convexity
    of a finite-difference second derivative h'' via its (nonuniform-safe)
    second differences, which must stay above -tol.  The default tolerance
    is 1e-6 times the scale of h''.  Grids with fewer than 21 points are
    flagged as coarse in the report's warnings rather than silently trusted.
    """
    x = default_classc_grid() if grid is None else np.asarray(grid, dtype=float)
    if x.ndim != 1 or x.size < 5:
        raise ValueError("grid must be a 1-d sequence with at least 5 points")
    if np.any(np.diff(x) <= 0):
        raise ValueError("grid must be strictly increasing")
    span = float(x[-1] - x[0])
    if not np.allclose(x, -x[::-1], atol=1e-12 * max(1.0, span), rtol=0.0):
        raise ValueError("grid must be symmetric about 0")
    warnings: list[str] = []
    if x.size < 21:
        warnings.append(
            f"grid has only {x.size} points; the finite-difference "
            "classification may miss curvature defects"
        )

    y = fn.h(x)
    h_scale = max(1.0, float(np.abs(y).max()))
    evenness_violation = float(np.abs(y - y[::-1]).max())
    even_ok = evenness_violation <= 1e-9 * h_scale

    # 3-point second derivative at interior points (nonuniform-safe)
    dl = x[1:-1] - x[:-2]
    dr = x[2:] - x[1:-1]
    dd = x[2:] - x[:-2]
    h2 = 2.0 * (y[:-2] / (dl * dd) - y[1:-1] / (dr * dl) + y[2:] / (dr * dd))
    x2 = x[1:-1]

    # discrete convexity of h'': slope increments scaled back to plain
    # second differences on a uniform grid
    slopes = np.diff(h2) / np.diff(x2)
    second_diff = np.diff(slopes) * 0.5 * (x2[2:] - x2[:-2])
    tol_used = tol if tol is not None else 1e-6 * max(1.0, float(np.abs(h2).max()))
    min_margin = float(second_diff.min()) if second_diff.size else 0.0
    convex_ok = min_margin >= -tol_used

    return ClassCReport(
        passed=even_ok and convex_ok,
        even_ok=even_ok,
        second_derivative_convex=convex_ok,
        max_evenness_violation=evenness_violation,
        min_convexity_margin=min_margin,
        tol=tol_used,
        n_points=int(x.size),
        warnings=tuple(warnings),
    )


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


@dataclass(frozen=True)
class BisubReport:
    """Outcome of the convexity-in-t test of t -> E f(y + U sqrt t)."""

    status: str  # "pass" | "fail" | "inconclusive"
    triples: tuple[BisubTriple, ...]
    method: str
    atol: float
    alpha: float

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    @property
    def min_margin(self) -> float:
        return min(t.margin for t in self.triples)


def _y_norms(y_set) -> list[float]:
    norms = []
    for y in y_set:
        arr = np.atleast_1d(np.asarray(y, dtype=float))
        norms.append(float(np.sqrt(arr @ arr)))
    return norms


def _cos_weights(d: int, nodes: int = 257) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature for E over cos(angle between U and a fixed direction).

    Returns (cos theta_i, normalized weights) with weight density
    proportional to sin^(d-2) theta on [0, pi]; self-normalized so constants
    integrate exactly to 1.
    """
    t, w = np.polynomial.legendre.leggauss(nodes)
    theta = 0.5 * math.pi * (t + 1.0)
    w = w * (0.5 * math.pi) * np.sin(theta) ** (d - 2)
    return np.cos(theta), w / w.sum()


def _mean_profile_quadrature(fn, d, y_norm, ts) -> np.ndarray:
    """m(t) = E h(||y + U sqrt t||) via the cosine-marginal quadrature."""
    if d == 1:
        cosv = np.array([1.0, -1.0])
        wts = np.array([0.5, 0.5])
    else:
        cosv, wts = _cos_weights(d)
    y2 = y_norm * y_norm
    out = np.empty(len(ts))
    for j, t in enumerate(ts):
        r2 = np.clip(y2 + t + 2.0 * math.sqrt(t) * y_norm * cosv, 0.0, None)
        out[j] = float(wts @ fn.h(np.sqrt(r2)))
    return out


def is_bisubharmonic_numeric(
    fn: TestFunction,
    d,
    y_set: Sequence = (0.0, 1.0, 2.0),
    t_grid=None,
    samples: int = 20_000,
    seed: int = 0,
    alpha: float = 0.01,
    atol: float | None = None,
    method: str = "mc",
) -> BisubReport:
    """Test convexity of t -> E f(y + U sqrt t) for the radial f = h(||.||).

    Each consecutive triple (t1, t2, t3) of the grid and each center y gives
    a midpoint-convexity margin m(t1) + m(t3) - 2 m(t2), which must not be
    conclusively negative.  Since f is radial, a center enters only through
    its norm: ``y_set`` may hold vectors or plain norms.

    method="mc" estimates the margins with antithetic pairs and common
    random numbers across the whole grid (for pure powers 2 and 4 the margin
    is then exact); a triple is a *fail* only when its confidence interval
    sits entirely below -atol, a *pass* when it sits entirely above, and
    *inconclusive* otherwise -- wide intervals are never reported as a pass.
    method="quadrature" computes the profile deterministically from the
    cosine marginal instead.
    """
    d = check_dimension(d)
    ts = np.asarray(
        np.linspace(0.5, 4.0, 8) if t_grid is None else t_grid, dtype=float
    )
    if ts.ndim != 1 or ts.size < 3:
        raise ValueError("t_grid needs at least 3 points")
    if np.any(ts <= 0) or np.any(np.diff(ts) <= 0):
        raise ValueError("t_grid must be strictly increasing and positive")
    norms = _y_norms(y_set)
    if not norms:
        raise ValueError("y_set must be nonempty")
    if method not in ("mc", "quadrature"):
        raise ValueError(f"unknown method {method!r}")
    z = float(stats.norm.ppf(1.0 - alpha / 2.0))

    triples: list[BisubTriple] = []
    profile_scale = 1.0
    for yi, y_norm in enumerate(norms):
        if method == "quadrature":
            m = _mean_profile_quadrature(fn, d, y_norm, ts)
            means = m[:-2] + m[2:] - 2.0 * m[1:-1]
            ses = np.zeros_like(means)
            profile_scale = max(profile_scale, float(np.abs(m).max()))
        else:
            npairs = max(2, samples // 2)
            c = y_norm * cos_marginal(RngStream(seed, yi).generator(), d, npairs)
            y2 = y_norm * y_norm
            vt = np.empty((npairs, ts.size))
            for j, t in enumerate(ts):
                shift = 2.0 * math.sqrt(t) * c
                rp = np.sqrt(np.clip(y2 + t + shift, 0.0, None))
                rm = np.sqrt(np.clip(y2 + t - shift, 0.0, None))
                vt[:, j] = 0.5 * (fn.h(rp) + fn.h(rm))
            mvals = vt[:, :-2] + vt[:, 2:] - 2.0 * vt[:, 1:-1]
            means = mvals.mean(axis=0)
            ses = mvals.std(axis=0, ddof=1) / math.sqrt(npairs)
            profile_scale = max(profile_scale, float(np.abs(vt.mean(axis=0)).max()))
        for j in range(means.size):
            triples.append(
                BisubTriple(
                    y_norm=y_norm,
                    t_low=float(ts[j]),
                    t_mid=float(ts[j + 1]),
                    t_high=float(ts[j + 2]),
                    margin=float(means[j]),
                    se=float(ses[j]),
                    status="",
                )
            )

    tol_used = atol if atol is not None else 1e-9 * profile_scale
    judged = []
    for tr in triples:
        if tr.margin + z * tr.se < -tol_used:
            status = "fail"
        elif tr.margin - z * tr.se >= -tol_used:
            status = "pass"
        else:
            status = "inconclusive"
        judged.append(replace(tr, status=status))

    if any(t.status == "fail" for t in judged):
        overall = "fail"
    elif any(t.status == "inconclusive" for t in judged):
        overall = "inconclusive"
    else:
        overall = "pass"
    return BisubReport(
        status=overall, triples=tuple(judged), method=method, atol=tol_used, alpha=alpha
    )


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
        object.__setattr__(self, "a_sq", tuple(float(v) for v in a))
        object.__setattr__(self, "b_sq", tuple(float(v) for v in b))


def majorization_failure(pair: MajorizationPair, tol: float = 1e-12) -> int | None:
    """Index of the first failing sorted partial sum, or None if (b_sq) is
    majorized by (a_sq).  Index len(a_sq) flags a total-sum mismatch."""
    a = np.sort(np.asarray(pair.a_sq))[::-1]
    b = np.sort(np.asarray(pair.b_sq))[::-1]
    ca = np.cumsum(a)
    cb = np.cumsum(b)
    scl = max(1.0, float(ca[-1]), float(cb[-1]))
    if abs(float(ca[-1] - cb[-1])) > tol * scl:
        return int(a.size)
    bad = np.nonzero(cb > ca + tol * scl)[0]
    return int(bad[0]) if bad.size else None


def schur_majorizes(pair: MajorizationPair, tol: float = 1e-12) -> bool:
    """True iff (b_sq) is majorized by (a_sq): equal totals and every sorted
    partial sum of b_sq bounded by the corresponding one of a_sq."""
    return majorization_failure(pair, tol) is None


# ---------------------------------------------------------------------------
# Comparison verdicts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ComparisonVerdict:
    """Two-sided comparison lhs <= rhs with margin = rhs - lhs.

    ``conclusive`` is True only when the margin's confidence interval
    excludes 0 or both sides are exact; the verdict is then HOLDS or
    VIOLATED, and INCONCLUSIVE otherwise.
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


def _build_verdict(
    lhs, rhs, margin, margin_se, alpha, method, lhs_se=0.0, rhs_se=0.0, note=""
) -> ComparisonVerdict:
    if margin_se == 0.0:
        verdict = "HOLDS" if margin >= 0.0 else "VIOLATED"
        conclusive = True
    else:
        z = float(stats.norm.ppf(1.0 - alpha / 2.0))
        if margin - z * margin_se > 0.0:
            verdict, conclusive = "HOLDS", True
        elif margin + z * margin_se < 0.0:
            verdict, conclusive = "VIOLATED", True
        else:
            verdict, conclusive = "INCONCLUSIVE", False
    return ComparisonVerdict(
        lhs=lhs,
        rhs=rhs,
        margin=margin,
        lhs_se=lhs_se,
        rhs_se=rhs_se,
        margin_se=margin_se,
        conclusive=conclusive,
        verdict=verdict,
        method=method,
        alpha=alpha,
        note=note,
    )


def _judge(lhs, rhs, margin_se, alpha, method, lhs_se=0.0, rhs_se=0.0, note=""):
    return _build_verdict(
        lhs, rhs, rhs - lhs, margin_se, alpha, method, lhs_se, rhs_se, note
    )


def _fourth_moment_from_squares(sq: Sequence[float], d: int) -> float:
    t2 = math.fsum(sq)
    t4 = math.fsum(v * v for v in sq)
    return t4 + (2.0 + 4.0 / d) * 0.5 * (t2 * t2 - t4)


def _certify_comparison_function(fn: TestFunction, d: int) -> None:
    """Reject test functions whose radial lift is not (certifiably)
    bisubharmonic: powers 2 and 4 are certified analytically, anything else
    must pass the deterministic quadrature convexity test."""
    if _is_power(fn, 2.0) or _is_power(fn, 4.0):
        return
    report = is_bisubharmonic_numeric(fn, d, method="quadrature")
    if report.status != "pass":
        raise ValueError(
            f"{fn.label} is not certified bisubharmonic for d={d} "
            f"(convexity test: {report.status}, min margin {report.min_margin:.3g})"
        )


def _mc_means(
    values: Callable[[np.ndarray], np.ndarray], rows, d: int, samples: int, seed: int
) -> list[tuple[float, float]]:
    """(mean, standard error) of each row of values(norms), over the sample
    stream of ``rows`` (see ``sampling.map_sum_norms``)."""

    def moments(r: np.ndarray) -> np.ndarray:
        v = np.atleast_2d(values(r))
        return np.stack([v.sum(axis=1), (v * v).sum(axis=1)])

    total, total_sq = np.sum(map_sum_norms(moments, rows, d, samples, seed), axis=0)
    means = total / samples
    var = np.maximum(0.0, (total_sq - samples * means * means) / max(1, samples - 1))
    return [(float(m), math.sqrt(v / samples)) for m, v in zip(means, var)]


def bc_comparison_check(
    fn: TestFunction,
    pair: MajorizationPair,
    d,
    samples: int = 200_000,
    seed: int = 0,
    alpha: float = 0.01,
) -> ComparisonVerdict:
    """Check E f(sum a_i U_i) <= E f(sum b_i U_i) for (b^2) majorized by (a^2).

    Powers 2 and 4 are settled by the exact moment oracles (for the second
    moment the two sides coincide, for the fourth the margin is exact).
    Other certified profiles are compared by Monte Carlo with common random
    numbers: both radial chains reuse the same cosine draws, which leaves
    each side's marginal law unchanged but shrinks the variance of the
    difference.
    """
    d = check_dimension(d)
    idx = majorization_failure(pair)
    if idx is not None:
        raise ValueError(
            "(b_sq) is not majorized by (a_sq): partial sums fail at "
            f"sorted index {idx}"
        )
    _certify_comparison_function(fn, d)
    a = np.sqrt(np.asarray(pair.a_sq))
    b = np.sqrt(np.asarray(pair.b_sq))

    # exact moment paths work on the squared tuples directly (no sqrt
    # round-trip), so equal-sum pairs compare with margin exactly zero
    if _is_power(fn, 2.0):
        lhs = math.fsum(pair.a_sq)
        rhs = math.fsum(pair.b_sq)
        return _judge(lhs, rhs, 0.0, alpha, "exact-m2", note="equal-sum second moments")
    if _is_power(fn, 4.0):
        lhs = _fourth_moment_from_squares(pair.a_sq, d)
        rhs = _fourth_moment_from_squares(pair.b_sq, d)
        return _judge(lhs, rhs, 0.0, alpha, "exact-m4")

    def sides(r: np.ndarray) -> np.ndarray:
        la, lb = fn.h(r)
        return np.stack([la, lb, lb - la])

    (lhs, lhs_se), (rhs, rhs_se), (margin, margin_se) = _mc_means(
        sides, np.stack([a, b]), d, samples, seed
    )
    return _build_verdict(
        lhs, rhs, margin, margin_se, alpha, "mc-crn", lhs_se=lhs_se, rhs_se=rhs_se
    )


def gaussian_comparison_check(
    fn: TestFunction,
    coeffs: Sequence[float],
    d,
    samples: int = 200_000,
    seed: int = 0,
    alpha: float = 0.01,
) -> ComparisonVerdict:
    """Check E f(sum a_i U_i) <= E f(a Z_d), a = sqrt(sum a_i^2 / d).

    The Gaussian side is exact: closed-form chi moments for powers,
    quadrature against the chi density otherwise.  The sphere side is exact
    for powers 2 and 4 and Monte Carlo otherwise, so only one side ever
    carries statistical error.
    """
    d = check_dimension(d)
    a = coeff_array(coeffs)
    _certify_comparison_function(fn, d)
    a_cmp = scale(a, d)

    # for powers 2 and 4 the Gaussian moment collapses to closed forms in
    # sum a_i^2, evaluated directly so the p = 2 variance-matching identity
    # (both sides equal sum a_i^2) is exact in floating point
    if _is_power(fn, 2.0):
        rhs = second_moment_exact(a)
    elif _is_power(fn, 4.0):
        rhs = gaussian_fourth_moment(a, d)
    elif fn.kind == "power":
        rhs = fn.sign * a_cmp**fn.param * chi_moment(d, fn.param)
    else:
        rhs = chi_expectation(d, lambda r: fn.h(a_cmp * r))

    if _is_power(fn, 2.0):
        lhs, lhs_se = second_moment_exact(a), 0.0
        method = "exact-m2"
    elif _is_power(fn, 4.0):
        lhs, lhs_se = fourth_moment_exact(a, d), 0.0
        method = "exact-m4"
    else:
        [(lhs, lhs_se)] = _mc_means(fn.h, a, d, samples, seed)
        method = "mc-vs-exact"
    return _judge(lhs, rhs, lhs_se, alpha, method, lhs_se=lhs_se)


@dataclass(frozen=True)
class HypothesisResult:
    """Per-profile outcome of a generalized-moment hypothesis check."""

    label: str
    verdict: str  # "CONSISTENT" | "VIOLATED" | "SKIPPED_CLASS_C"
    lhs: float
    lhs_se: float
    rhs: float
    margin: float
    conclusive: bool
    class_c: ClassCReport | None = None
    note: str = ""


def lemma2_hypothesis_check(
    xi_samples: Sequence[float],
    d,
    h_suite: Sequence[TestFunction],
    alpha: float = 0.01,
    grid=None,
) -> list[HypothesisResult]:
    """Check E h(xi) <= E h(||Z_d||) against an empirical sample of xi for
    each profile in the suite.

    Any profile failing the class-C test is skipped (its result records the
    failed report).  A finite suite is necessarily a partial certificate:
    outcomes are "consistent with the hypothesis" or "violated", never
    "proven".
    """
    d = check_dimension(d)
    xi = np.asarray(xi_samples, dtype=float)
    if xi.ndim != 1 or xi.size < 2:
        raise ValueError("xi_samples must be a 1-d sample with >= 2 points")
    if not np.all(np.isfinite(xi)) or np.any(xi < 0):
        raise ValueError("xi_samples must be finite and nonnegative")
    z = float(stats.norm.ppf(1.0 - alpha / 2.0))

    results = []
    for fn in h_suite:
        report = is_class_c(fn, grid=grid)
        if not report.passed:
            results.append(
                HypothesisResult(
                    label=fn.label,
                    verdict="SKIPPED_CLASS_C",
                    lhs=math.nan,
                    lhs_se=math.nan,
                    rhs=math.nan,
                    margin=math.nan,
                    conclusive=False,
                    class_c=report,
                    note="profile is not in class C; check aborted",
                )
            )
            continue
        vals = fn.h(xi)
        lhs = float(vals.mean())
        lhs_se = float(vals.std(ddof=1) / math.sqrt(xi.size))
        if fn.kind == "power":
            rhs = fn.sign * chi_moment(d, fn.param)
        else:
            rhs = chi_expectation(d, fn.h)
        margin = rhs - lhs
        violated = margin + z * lhs_se < 0.0
        conclusive = violated or (margin - z * lhs_se > 0.0)
        results.append(
            HypothesisResult(
                label=fn.label,
                verdict="VIOLATED" if violated else "CONSISTENT",
                lhs=lhs,
                lhs_se=lhs_se,
                rhs=rhs,
                margin=margin,
                conclusive=conclusive,
                class_c=report,
                note="consistent with the hypothesis (finite suite, not a proof)"
                if not violated
                else "empirical mean conclusively exceeds the Gaussian side",
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
    allow_p2: bool = False,
) -> ComparisonVerdict:
    """Check E ||sum a_i U_i||^p <= E ||a Z_d sqrt(d)||^p for real p >= 3.

    The right side is exact: (sum a_i^2)^(p/2) * E||Z_d||^p.  The left side
    is exact for a single coefficient (the norm is then constant), for p = 2
    and p = 4 (moment oracles), and Monte Carlo otherwise.  p below 3 is
    outside the cited comparison and rejected unless ``allow_p2`` explicitly
    opts into the exploratory p = 2 case.
    """
    d = check_dimension(d)
    a = coeff_array(coeffs)
    p = float(p)
    if p < 3.0 and not (allow_p2 and p == 2.0):
        raise ValueError(
            f"p={p} is outside the p >= 3 range; pass allow_p2=True for the "
            "exploratory p = 2 case"
        )
    t2 = float(a @ a)
    rhs = t2 ** (0.5 * p) * chi_moment(d, p)
    note = "exploratory p=2 (holds with slack factor d)" if p == 2.0 else ""

    if a.size == 1:
        lhs, lhs_se, method = abs(float(a[0])) ** p, 0.0, "exact-constant-norm"
    elif p == 2.0:
        lhs, lhs_se, method = second_moment_exact(a), 0.0, "exact-m2"
    elif p == 4.0:
        lhs, lhs_se, method = fourth_moment_exact(a, d), 0.0, "exact-m4"
    else:
        [(lhs, lhs_se)] = _mc_means(lambda r: r**p, a, d, samples, seed)
        method = "mc-vs-exact"
    return _judge(lhs, rhs, lhs_se, alpha, method, lhs_se=lhs_se, note=note)

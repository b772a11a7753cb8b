"""Reference values the benchmark checks the program's outputs against.

Each reference is computed here from a closed form or by brute force, never
by calling the function it checks.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special, stats


def _logsumexp(terms: list[float]) -> float:
    top = max(terms)
    if top == -math.inf:
        return -math.inf
    return top + math.log(math.fsum(math.exp(t - top) for t in terms))


def chi_tail_log_ref(d: int, u: float) -> float:
    """log P(||Z_d|| > u) from the half-integer incomplete-gamma sums.

    Even d is the Poisson sum Q(k, x) = e^-x sum_{j<k} x^j / j!; odd d adds
    erfc(sqrt x) to the half-integer terms.  Both stay in log space.
    """
    if u <= 0.0:
        return 0.0
    x = 0.5 * u * u
    lx = math.log(x)
    if d % 2 == 0:
        terms = [j * lx - math.lgamma(j + 1.0) for j in range(d // 2)]
        return min(0.0, _logsumexp(terms) - x)
    z = math.sqrt(x)
    terms = [math.log(special.erfcx(z))]
    terms += [(j + 0.5) * lx - math.lgamma(j + 1.5) for j in range((d - 1) // 2)]
    return min(0.0, _logsumexp(terms) - x)


def chi_tail_ref(d: int, u: float) -> float:
    """P(||Z_d|| > u); closed forms for d = 1 and 2, the log sums otherwise."""
    if u <= 0.0:
        return 1.0
    if d == 1:
        return math.erfc(u / math.sqrt(2.0))
    if d == 2:
        return math.exp(-0.5 * u * u)
    return math.exp(chi_tail_log_ref(d, u))


def close(value: float, ref: float, rel: float, abs_tol: float = 0.0) -> bool:
    return math.isfinite(value) and abs(value - ref) <= rel * abs(ref) + abs_tol


def rademacher_hits(coeffs: np.ndarray, thresholds, strict: bool) -> list[int]:
    """Count sign patterns with |sum eps_i a_i| above each threshold.

    Every one of the 2^n sums is formed explicitly, block by block, as a
    left-half sum plus a right-half sum.
    """
    def all_sums(a):
        sums = np.zeros(1)
        for v in a:
            sums = np.concatenate([sums - v, sums + v])
        return sums

    n = coeffs.size
    left = all_sums(coeffs[: n // 2])
    right = all_sums(coeffs[n // 2 :])
    hits = [0] * len(thresholds)
    block = max(1, (1 << 20) // right.size)
    for start in range(0, left.size, block):
        s = np.abs(left[start : start + block, None] + right[None, :])
        for j, u in enumerate(thresholds):
            hits[j] += int(np.count_nonzero(s > u if strict else s >= u))
    return hits


def binomial_covers(hits: int, n: int, p0: float, alpha: float) -> bool:
    """Whether the two-sided Clopper-Pearson interval of level 1 - alpha
    around hits / n contains p0."""
    low = 0.0 if hits == 0 else float(stats.beta.ppf(alpha / 2.0, hits, n - hits + 1))
    high = 1.0 if hits == n else float(stats.beta.ppf(1.0 - alpha / 2.0, hits + 1, n - hits))
    return low <= p0 <= high

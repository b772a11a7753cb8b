"""Deterministic Monte Carlo tail estimation for norms of sums of uniform
unit vectors, and exact small-instance oracles.

Radial chain
------------
The summands a_i U_i are spherically invariant, so the norm of a partial sum
is a Markov chain: adding a U to a sum of norm R gives norm

    sqrt((R + a C)^2 + a^2 (1 - C^2)),

where C is one coordinate of a uniform unit vector in R^d, drawn
independently of the past (``cos_marginal`` holds its law).  The chain
starts at R = |a_1| without a draw, so a sample costs O(n) time in any
dimension.  This form of the update gives |R +- a| exactly for d = 1 and
keeps a one-coefficient norm exactly |a_1|.

Determinism contract
--------------------
Every Monte Carlo result here depends only on (seed, n_samples, coefficients,
dimension, threshold).  Samples are drawn in fixed chunks of ``CHUNK_SIZE``;
chunk k derives its generator from ``SeedSequence(seed, spawn_key=(k,))``.
Workers only map chunks to threads, so the drawn sample stream, the hit
count, and hence the reported estimate are identical for any degree of
parallelism.

Confidence intervals are exact binomial (Clopper-Pearson), so statistical
verdicts built on them stay conservative even at very small tail
probabilities.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy import stats

from .bounds import TailQuery, coeff_array
from .gaussian_chi import check_dimension

#: fixed Monte Carlo chunk size; part of the reproducibility contract
CHUNK_SIZE = 1 << 15

#: hard cap for exhaustive sign-pattern enumeration (2^n patterns)
ENUMERATION_MAX = 26


class CapacityError(Exception):
    """A request exceeds a hard capacity limit (enumeration size, budget)."""


@dataclass(frozen=True)
class RngStream:
    """A reproducible substream: (seed, stream_index) -> identical samples
    on any platform and any worker layout."""

    seed: int
    stream_index: int = 0

    def __post_init__(self):
        if self.seed < 0 or self.stream_index < 0:
            raise ValueError("seed and stream_index must be nonnegative")

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_index,))
        return np.random.Generator(np.random.PCG64(ss))


@dataclass(frozen=True)
class McEstimate:
    """Empirical tail probability with an exact binomial confidence interval."""

    p_hat: float
    ci_low: float
    ci_high: float
    n_samples: int
    hits: int
    seed: int
    alpha: float


def clopper_pearson(hits: int, n: int, alpha: float = 0.01) -> tuple[float, float]:
    """Exact two-sided binomial confidence interval at level 1 - alpha."""
    if not 0 <= hits <= n:
        raise ValueError(f"need 0 <= hits <= n, got hits={hits}, n={n}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    low = 0.0 if hits == 0 else float(stats.beta.ppf(alpha / 2.0, hits, n - hits + 1))
    high = 1.0 if hits == n else float(stats.beta.ppf(1.0 - alpha / 2.0, hits + 1, n - hits))
    return low, high


def cos_marginal(rng: np.random.Generator, d, size: int) -> np.ndarray:
    """``size`` draws of C, one coordinate of a uniform unit vector in R^d.

    C is +-1 for d = 1, the cosine of a uniform angle for d = 2, uniform on
    [-1, 1] for d = 3 (Archimedes) and 2 Beta((d-1)/2, (d-1)/2) - 1 in
    general.  The d <= 3 branches draw the same laws faster than numpy's
    beta sampler does.
    """
    d = check_dimension(d)
    if d == 1:
        return 2.0 * rng.integers(0, 2, size) - 1.0
    if d == 2:
        return np.cos(math.pi * rng.random(size))
    if d == 3:
        return rng.uniform(-1.0, 1.0, size)
    half = 0.5 * (d - 1)
    return 2.0 * rng.beta(half, half, size) - 1.0


def _radial_chain(rows: np.ndarray, d: int, rng: np.random.Generator, size: int) -> np.ndarray:
    """(len(rows), size) samples of ||sum_j rows[i, j] U_j||; all rows share
    the C draws."""
    r = np.repeat(np.abs(rows[:, :1]), size, axis=1)
    for a in rows.T[1:, :, None]:
        c = cos_marginal(rng, d, size)
        r += a * c
        r *= r
        r += (a * a) * (1.0 - c * c)
        np.sqrt(r, out=r)
    return r


def map_sum_norms(
    fn: Callable[[np.ndarray], object], rows, d, n_samples: int, seed: int, workers: int = 1
) -> list:
    """[fn(norms_k) for each chunk k], in chunk order.

    ``rows`` is one coefficient vector, giving norms_k of shape (size,), or
    a stack of equal-length vectors, giving norms_k of shape
    (len(rows), size) in which every row uses the same C draws (common
    random numbers).  Chunk k draws from ``RngStream(seed, k)``, so the
    result does not depend on ``workers``.
    """
    a = np.asarray(rows, dtype=float)
    d = check_dimension(d)
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    stack = np.atleast_2d(a)
    full, rem = divmod(n_samples, CHUNK_SIZE)
    sizes = [CHUNK_SIZE] * full + ([rem] if rem else [])

    def chunk(k: int):
        r = _radial_chain(stack, d, RngStream(seed, k).generator(), sizes[k])
        return fn(r if a.ndim == 2 else r[0])

    if workers == 1:
        return [chunk(k) for k in range(len(sizes))]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(chunk, range(len(sizes))))


def sample_sum_norms(coeffs: Sequence[float], d, n_samples: int, seed: int) -> np.ndarray:
    """n_samples draws of ||a_1 U_1 + ... + a_n U_n||, a fixed function of
    (coeffs, d, n_samples, seed)."""
    return np.concatenate(map_sum_norms(lambda r: r, coeff_array(coeffs), d, n_samples, seed))


def mc_tail_multi(
    d,
    coeffs: Sequence[float],
    u_values: Sequence[float],
    n_samples: int,
    seed: int,
    alpha: float = 0.01,
    workers: int = 1,
) -> list[McEstimate]:
    """Estimate P(||sum a_i U_i|| > u) for several thresholds at once.

    All thresholds are counted against the same sample stream, so the entry
    for each u is exactly what ``mc_tail`` would return for that u alone:
    the stream depends on (seed, n_samples, coeffs, d) but not on u.
    """
    a = coeff_array(coeffs)
    us = np.asarray(u_values, dtype=float)
    if us.ndim != 1 or us.size < 1 or not np.all(np.isfinite(us)):
        raise ValueError("u_values must be a nonempty sequence of finite reals")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")

    def chunk_hits(r: np.ndarray) -> np.ndarray:
        return np.array([np.count_nonzero(r > ui) for ui in us], dtype=np.int64)

    hits = np.sum(map_sum_norms(chunk_hits, a, d, n_samples, seed, workers), axis=0)
    out = []
    for ui, h in zip(us, hits):
        h = int(h)
        low, high = clopper_pearson(h, n_samples, alpha)
        out.append(
            McEstimate(
                p_hat=h / n_samples,
                ci_low=low,
                ci_high=high,
                n_samples=n_samples,
                hits=h,
                seed=seed,
                alpha=alpha,
            )
        )
    return out


def mc_tail(
    query: TailQuery,
    n_samples: int,
    seed: int,
    alpha: float = 0.01,
    workers: int = 1,
) -> McEstimate:
    """Seeded Monte Carlo estimate of P(||sum a_i U_i|| > u), strict ">"."""
    return mc_tail_multi(
        query.d, query.coeffs, [query.u], n_samples, seed, alpha, workers
    )[0]


def _signed_sums(a: np.ndarray) -> np.ndarray:
    """All 2^len(a) values of sum_i s_i a_i over sign patterns s in {-1,+1}^n."""
    sums = np.zeros(1)
    for ai in a:
        sums = np.concatenate([sums - ai, sums + ai])
    return sums


def exact_rademacher_tail(coeffs: Sequence[float], u: float, strict: bool = True) -> float:
    """Exact P(|sum eps_i a_i| > u) (or >= u when strict=False) by enumeration.

    eps_i are independent signs.  Uses a meet-in-the-middle split, so the
    cost is O(2^(n/2) log) up to the hard cap of n = 26.  The returned value
    is hits / 2^n, which is an exact dyadic rational in double precision.
    """
    a = coeff_array(coeffs)
    n = a.size
    if n > ENUMERATION_MAX:
        raise CapacityError(
            f"sign-pattern enumeration supports n <= {ENUMERATION_MAX}, got n = {n}"
        )
    u = float(u)
    if not math.isfinite(u):
        raise ValueError(f"threshold must be finite, got {u!r}")
    if u < 0.0 or (u == 0.0 and not strict):
        return 1.0
    left = _signed_sums(a[: n // 2])
    right = np.sort(_signed_sums(a[n // 2 :]))
    m = right.size
    if strict:
        above = m - np.searchsorted(right, u - left, side="right")
        below = np.searchsorted(right, -u - left, side="left")
    else:
        above = m - np.searchsorted(right, u - left, side="left")
        below = np.searchsorted(right, -u - left, side="right")
    hits = int(above.sum() + below.sum())
    return hits / float(2**n)


def second_moment_exact(coeffs: Sequence[float]) -> float:
    """E ||sum a_i U_i||^2 = sum a_i^2 (cross terms vanish: E U_i . U_j = 0)."""
    a = coeff_array(coeffs)
    return float(a @ a)


def fourth_moment_exact(coeffs: Sequence[float], d) -> float:
    """E ||sum a_i U_i||^4, in closed form.

    Expanding (||S||^2)^2 and using E ||U_i||^4 = 1, E ||U_i||^2 ||U_j||^2 = 1
    and E (U_i . U_j)^2 = 1/d for i != j gives

        sum a_i^4 + (2 + 4/d) sum_{i<j} a_i^2 a_j^2.
    """
    a = coeff_array(coeffs)
    d = check_dimension(d)
    sq = a * a
    t2 = float(sq.sum())
    t4 = float(sq @ sq)
    pair = 0.5 * (t2 * t2 - t4)
    return t4 + (2.0 + 4.0 / d) * pair


def gaussian_fourth_moment(coeffs: Sequence[float], d) -> float:
    """E ||a Z_d||^4 with a = sqrt(sum a_i^2 / d): equals (sum a_i^2)^2 (1 + 2/d).

    Dominates ``fourth_moment_exact`` with gap exactly (2/d) sum a_i^4, the
    fourth-power instance of the Gaussian moment comparison.
    """
    a = coeff_array(coeffs)
    d = check_dimension(d)
    t2 = float(a @ a)
    return t2 * t2 * (1.0 + 2.0 / d)

"""The seeded Monte Carlo engine for norms of sums of uniform unit vectors,
and the exact Rademacher tail oracle (the d = 1 law) that cross-checks it.

Radial chain
------------
The summands a_i U_i are spherically invariant, so the norm of a partial sum
is a Markov chain: adding a U to a sum of norm R gives norm

    sqrt((R + a C)^2 + a^2 (1 - C^2)),

where C is one coordinate of a uniform unit vector in R^d, drawn
independently of the past (``cos_marginal`` samples its law, ``cos_rule``
is its quadrature).  The chain starts at R = |a_1| without a draw, so a
sample costs O(n) time in any dimension.  At d = 1 the step is |R + a C|,
the form above bit for bit wherever (R + a C)^2 does not underflow, and exact.
``_radial_chain`` runs each row on its coefficients over the power of two
that brings its largest below 1 (``bounds.pow2_above``, the rule that
``bounds.scale`` also uses) and scales its norms back, so no squared partial
norm overflows; a zero coefficient is no step at all (it would only round a
tiny R^2 into the subnormals), so it leaves R exact.  Each row's norms are
therefore bit for bit its one-row call's.

Determinism contract
--------------------
Every Monte Carlo result here depends only on (seed, n_samples, coefficients,
dimension, threshold).  Samples are drawn in fixed chunks of ``CHUNK_SIZE``;
chunk k derives its generator from ``SeedSequence(seed, spawn_key=(k,))``.
``map_sum_norms`` is the one chunk map that every sample goes through.  Tasks
of one d draw identical C columns, a task of length n reads the first n - 1,
and every d outside {1, 2, 3, 5} reads the same uniforms, so a call draws
each column's uniforms once per chunk and each task runs its own chain on
them; every norm equals the one-task call's.  Workers only map jobs to
threads, so the sample stream, the hit count, and hence the reported estimate
are identical for any degree of parallelism (see ``RngStream`` for platforms).

Memory: a job draws and runs its chains in ``CHUNK_SIZE`` float64 buffers
(256 KiB each) from one free list and returns them as it ends, so a repeated
call faults in no fresh pages; the list keeps at most ``FREE_BUFFERS_MAX``.

Confidence intervals are exact binomial (Clopper-Pearson), so statistical
verdicts built on them stay conservative even at very small tail
probabilities.
"""

from __future__ import annotations

import functools
import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy import special

from .bounds import check_threshold, coeff_array, pow2_above
from .gaussian_chi import check_dimension

#: fixed Monte Carlo chunk size; part of the reproducibility contract
CHUNK_SIZE = 1 << 15

#: hard cap for exhaustive sign-pattern enumeration (2^n patterns)
ENUMERATION_MAX = 26

#: CHUNK_SIZE float64 buffers that no job holds (see "Memory" above), at most
#: FREE_BUFFERS_MAX (32 MiB); a stack, so a job takes the last put back, still in cache
_FREE_BUFFERS: list[np.ndarray] = []
FREE_BUFFERS_MAX = 128


class CapacityError(Exception):
    """A request exceeds a hard capacity limit (enumeration size, budget)."""


@dataclass(frozen=True)
class RngStream:
    """(seed, stream_index) -> identical uniforms on any platform and worker
    layout; C and the norms only for one numpy build at one SIMD level, and
    reports across SIMD levels unless a norm is within rounding of a threshold."""

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


def check_alpha(alpha: float) -> float:
    """Validate a significance level: alpha in (0, 1), returned unchanged."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    return alpha


def clopper_pearson(hits, n: int, alpha: float = 0.01):
    """Exact two-sided binomial confidence interval at level 1 - alpha.

    ``hits`` is a count or an array of counts out of n; a count gives two
    floats, an array gives the arrays of lower and upper limits.
    """
    h = np.asarray(hits)
    if np.any(h < 0) or np.any(h > n):
        raise ValueError(f"need 0 <= hits <= n, got hits={hits}, n={n}")
    check_alpha(alpha)
    # beta quantiles; the laws are undefined at hits = 0 and hits = n, where
    # the limits are 0 and 1, so clamped parameters keep them out of the call
    q = alpha / 2.0
    low = np.where(h == 0, 0.0, special.betaincinv(np.maximum(h, 1), n - h + 1, q))
    high = np.where(h == n, 1.0, special.betaincinv(h + 1, np.maximum(n - h, 1), 1.0 - q))
    return (float(low), float(high)) if h.ndim == 0 else (low, high)


def judge(low: float, high: float, floor: float = 0.0) -> str:
    """The verdict on an interval [low, high] for bound - quantity.

    VIOLATED if it lies entirely below ``floor``, HOLDS if it lies at or
    above it, INCONCLUSIVE if it straddles it.  An exact value x is the
    interval [x, x].  Every verdict in the package comes from here.
    """
    if high < floor:
        return "VIOLATED"
    if low >= floor:
        return "HOLDS"
    return "INCONCLUSIVE"


def cos_marginal(rng: np.random.Generator, d, size: int) -> np.ndarray:
    """``size`` draws of C, one coordinate of a uniform unit vector in R^d.

    C is +-1 for d = 1 (eight signs per random byte), uniform on [-1, 1] for
    d = 3 (Archimedes), cbrt(V) W for d = 5 (V uniform on [0, 1), W uniform
    on [-1, 1]: the first three coordinates have squared norm Beta(3/2, 1)
    and an independent uniform direction), and sin(theta) sqrt(B) at every
    other d: the first two coordinates of a uniform point on S^(d-1) have a
    uniform angle theta = pi (U - 1/2) and an independent squared norm
    B ~ Beta(1, (d-2)/2), drawn as its quantile 1 - (1-V)^(2/(d-2)) (B = 1
    at d = 2).  sin(theta) is 2t / (1 + t^2) with t = tan(theta / 2) in
    [-1, 1], the range where numpy's vectorised tangent needs no reduction.
    """
    d = check_dimension(d)
    take = functools.partial(np.empty, size)
    return _cos_column(d, _cos_draw(rng, d, take, take()), take)


def _cos_draw(rng: np.random.Generator, d: int, take: Callable, tmp: np.ndarray):
    """The next column's draw of len(tmp) C at d, in arrays from ``take()``
    (``tmp`` is scratch): the column itself at d in {1, 2, 3, 5}, else
    (sin(theta), log1p(-V)), which ``_cos_column`` finishes for one d."""
    size = len(tmp)
    if d == 1:  # 2 bit - 1
        bits = np.unpackbits(rng.integers(0, 256, -(-size // 8), dtype=np.uint8))
        c = np.multiply(bits[:size], 2.0, out=take())
        return np.subtract(c, 1.0, out=c)
    if d == 3:  # uniform(-1, 1), which has no out, is -1 + 2 U bit for bit
        c = rng.random(size, out=take())
        return np.subtract(np.multiply(c, 2.0, out=c), 1.0, out=c)
    if d == 5:
        c = np.cbrt(rng.random(size, out=tmp), out=take())
        w = np.multiply(rng.random(size, out=tmp), 2.0, out=tmp)
        return np.multiply(c, np.subtract(w, 1.0, out=w), out=c)
    t = rng.random(size, out=take() if d > 2 else tmp)
    t *= 0.5 * math.pi
    t -= 0.25 * math.pi
    np.tan(t, out=t)  # t = tan(theta / 2) in [-1, 1]
    s = np.multiply(t, t, out=take())
    s += 1.0
    t += t
    np.divide(t, s, out=s)  # sin(theta) = 2t / (1 + t^2), never above 1
    if d == 2:
        return s
    v = np.negative(rng.random(size, out=t), out=t)  # V in the angle's buffer
    return s, np.log1p(v, out=v)  # finite at V = 0, where log(V) is not


def _cos_column(d: int, draw, take: Callable) -> np.ndarray:
    """The column of C at d from its ``_cos_draw``: a finished column as it
    is, else sin(theta) times sqrt(1 - (1-V)^(2/(d-2))) in ``take()``."""
    if not isinstance(draw, tuple):
        return draw
    s, v = draw
    c = np.multiply(v, 2.0 / (d - 2), out=take())
    np.sqrt(np.negative(np.expm1(c, out=c), out=c), out=c)
    return np.multiply(c, s, out=c)


@functools.cache
def _angle_rule() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(cos theta_i, sin theta_i, w_i): the 257-node Gauss-Legendre rule
    mapped onto [0, pi], built on first use and then shared (read-only)."""
    t, w = np.polynomial.legendre.leggauss(257)
    theta = 0.5 * math.pi * (t + 1.0)
    rule = (np.cos(theta), np.sin(theta), w * (0.5 * math.pi))
    for v in rule:
        v.flags.writeable = False
    return rule


def cos_rule(d) -> tuple[np.ndarray, np.ndarray]:
    """(nodes, weights) of a quadrature for E g(C) under the law that
    ``cos_marginal`` samples: +-1 with weight 1/2 for d = 1, else the cosines
    of ``_angle_rule``'s nodes, weighted by sin^(d-2) theta and normalised
    to sum to 1.  Only the weighting is computed per call."""
    d = check_dimension(d)
    if d == 1:
        return np.array([1.0, -1.0]), np.array([0.5, 0.5])
    cosv, sinv, w = _angle_rule()
    w = w * sinv ** (d - 2)
    return cosv, w / w.sum()


def _radial_chain(tasks: list, cols: list, take: Callable, tmp: np.ndarray, d: int) -> list:
    """[(i, fn(norms)) for each task (i, fn, rows)]: row m of norms holds
    len(tmp) samples of ||sum_j rows[m, j] U_j|| in R^d, column j >= 1 of
    every row using the C draws cols[j - 1].  The chains advance a column at
    a time in buffers from ``take()``; at d > 1, once every row has added its
    a C, the column becomes 1 - C^2 for every row to read, and ``tmp`` holds
    each product.  A task's norms are a fresh array, made just before its fn runs."""
    chains, steps = [], [[] for _ in cols]  # per column, (R, a) of each nonzero step
    for row in itertools.chain.from_iterable(rows for _, _, rows in tasks):
        s = pow2_above(np.abs(row).max())
        row, r = row / s, take()
        r[:] = abs(row[0])
        chains.append((r, s))
        for column, a in zip(steps, row[1:]):
            if a:
                column.append((r, a))
    fold = np.abs if d == 1 else np.square  # C = +-1 at d = 1: the norm is |R + a C|
    for c, column in zip(cols, steps):
        for r, a in column:
            r += np.multiply(c, a, out=tmp)
            fold(r, out=r)
        if d > 1:
            np.subtract(1.0, np.multiply(c, c, out=c), out=c)
            for r, a in column:
                r += np.multiply(c, a * a, out=tmp)
                np.sqrt(r, out=r)
    scaled = iter(chains)

    def norms(count: int) -> np.ndarray:
        out = np.empty((count, len(tmp)))
        for row, (r, s) in zip(out, scaled):
            np.multiply(r, s, out=row)
        return out

    return [(i, fn(norms(len(rows)))) for i, fn, rows in tasks]


def map_sum_norms(tasks, n_samples: int, seed: int, workers: int = 1) -> list[list]:
    """[[fn(norms_k) for each chunk k] for each task (fn, rows, d)].

    ``rows`` is a stack of equal-length coefficient vectors (one vector
    counts as a stack of one), and norms_k has shape (len(rows), size):
    every row of a task uses the same C draws (common random numbers).
    Chunk k draws its columns in turn from ``RngStream(seed, k)``, for one d
    or for every d outside {1, 2, 3, 5} at once, and finishes each d's
    columns just before its chains run.  One pool maps every (family, chunk)
    job, and the results do not depend on ``workers``.
    """
    groups: dict[int, list] = {}  # d -> [(task, fn, rows)]
    for i, (fn, a, d) in enumerate(tasks):
        a = np.array(a, dtype=float, ndmin=2)
        groups.setdefault(check_dimension(d), []).append((i, fn, a))
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    full, rem = divmod(n_samples, CHUNK_SIZE)
    sizes = [CHUNK_SIZE] * full + ([rem] if rem else [])
    shared = tuple(d for d in groups if d not in (1, 2, 3, 5))
    families = [(d,) for d in groups if d not in shared] + ([shared] if shared else [])
    jobs = [(family, k) for family in families for k in range(len(sizes))]

    def chunk(job: tuple[tuple[int, ...], int]):
        family, k = job
        n = {d: max(a.shape[1] for _, _, a in groups[d]) - 1 for d in family}
        rng = RngStream(seed, k).generator()
        held: list[np.ndarray] = []  # the buffers this job took from _FREE_BUFFERS

        def take() -> np.ndarray:
            try:
                held.append(_FREE_BUFFERS.pop())  # atomic, as append is
            except IndexError:
                held.append(np.empty(CHUNK_SIZE))
            return held[-1][: sizes[k]]

        def give_back(start: int) -> None:
            while len(held) > start:
                _FREE_BUFFERS.append(held.pop())
            del _FREE_BUFFERS[FREE_BUFFERS_MAX:]  # one tall task pins no memory for good

        tmp = take()
        draws = [_cos_draw(rng, family[0], take, tmp) for _ in range(max(n.values()))]
        out = []
        for d in family:
            start = len(held)
            cols = [_cos_column(d, x, take) for x in draws[: n[d]]]  # the chain overwrites them
            out += [(i, k, v) for i, v in _radial_chain(groups[d], cols, take, tmp, d)]
            give_back(start)  # a job holds its shared draws and one d's columns
        give_back(0)
        return out

    if workers == 1:
        results = [chunk(job) for job in jobs]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(chunk, jobs))
    out: list[list] = [[None] * len(sizes) for _ in tasks]
    for i, k, value in itertools.chain.from_iterable(results):
        out[i][k] = value
    return out


def sample_sum_norms(coeffs: Sequence[float], d, n_samples: int, seed: int) -> np.ndarray:
    """n_samples draws of ||a_1 U_1 + ... + a_n U_n||, a fixed function of
    (coeffs, d, n_samples, seed)."""
    [chunks] = map_sum_norms([(lambda r: r[0], coeff_array(coeffs), d)], n_samples, seed)
    return np.concatenate(chunks)


def _hit_counter(us: list[float]) -> Callable[[np.ndarray], np.ndarray]:
    """norms -> the number of norms above each threshold in ``us``."""
    return lambda r: np.array([np.count_nonzero(r > ui) for ui in us], dtype=np.int64)


def mc_tail_batch(
    instances: Sequence[tuple[int, Sequence[float], Sequence[float]]],
    n_samples: int,
    seed: int,
    alpha: float = 0.01,
    workers: int = 1,
) -> list[list[McEstimate]]:
    """``mc_tail_multi(d, coeffs, u_values, ...)`` for each (d, coeffs,
    u_values) in ``instances``, in that order, from one ``map_sum_norms``
    call (one pool for the whole batch), so every estimate equals the
    one-instance call and does not depend on ``workers``.  Instances of one d
    and vector, trailing zeros dropped, are one task counting each u once."""
    counted, queries = {}, []  # counted: (d, coefficients) -> {u: its hits}
    for d, coeffs, u_values in instances:
        key = (check_dimension(d), tuple(np.trim_zeros(coeff_array(coeffs), "b").tolist()))
        us = np.asarray(u_values, dtype=float)
        if us.ndim != 1 or us.size < 1:
            raise ValueError("u_values must be a nonempty sequence of reals")
        queries.append((key, [check_threshold(u) for u in us]))
        counted.setdefault(key, {}).update(dict.fromkeys(queries[-1][1], 0))
    check_alpha(alpha)
    tasks = [(_hit_counter(list(us)), a, d) for (d, a), us in counted.items()]
    for counts, chunks in zip(counted.values(), map_sum_norms(tasks, n_samples, seed, workers)):
        counts.update(zip(list(counts), np.sum(chunks, axis=0).tolist()))
    hits = [[counted[key][u] for u in us] for key, us in queries]
    every = np.fromiter(itertools.chain(*hits), np.int64)  # one elementwise interval call
    intervals = zip(*(x.tolist() for x in clopper_pearson(every, n_samples, alpha)))
    return [
        [McEstimate(h / n_samples, *next(intervals), n_samples, h, seed, alpha) for h in hs]
        for hs in hits
    ]


def mc_tail_multi(
    d,
    coeffs: Sequence[float],
    u_values: Sequence[float],
    n_samples: int,
    seed: int,
    alpha: float = 0.01,
    workers: int = 1,
) -> list[McEstimate]:
    """Seeded Monte Carlo estimates of P(||sum a_i U_i|| > u), strict ">",
    for several thresholds at once.

    All thresholds are counted against the same sample stream, so the entry
    for each u is exactly what a call with that u alone would return: the
    stream depends on (seed, n_samples, coeffs, d) but not on u.  This is
    the one-instance case of ``mc_tail_batch``.
    """
    return mc_tail_batch([(d, coeffs, u_values)], n_samples, seed, alpha, workers)[0]


def _signed_sums(a: np.ndarray) -> np.ndarray:
    """All 2^len(a) values of sum_i s_i a_i over sign patterns s in {-1,+1}^n."""
    sums = np.zeros(1, a.dtype)
    for ai in a:
        sums = np.concatenate([sums - ai, sums + ai])
    return sums


def exact_rademacher_tail(coeffs: Sequence[float], u: float, strict: bool = True) -> float:
    """Exact P(|sum eps_i a_i| > u) (or >= u when strict=False) by enumeration.

    eps_i are independent signs.  Every input double is an integer on the
    finest power-of-two grid among the inputs, so the signed sums are exact
    integers and ties are decided exactly.  A meet-in-the-middle split keeps
    the cost at O(2^(n/2) log) up to the hard cap of n = 26.  The returned
    value is hits / 2^n, which is an exact dyadic rational in double precision.
    """
    a = coeff_array(coeffs)
    n = a.size
    if n > ENUMERATION_MAX:
        raise CapacityError(
            f"sign-pattern enumeration supports n <= {ENUMERATION_MAX}, got n = {n}"
        )
    u = check_threshold(u)
    ratios = [v.as_integer_ratio() for v in (*a.tolist(), u)]
    grid = max(q for _, q in ratios)
    *ints, big_u = (p * (grid // q) for p, q in ratios)
    if not strict:
        big_u -= 1  # on integers, |s| >= U is |s| > U - 1
    if big_u < 0:
        return 1.0
    dtype = np.int64 if sum(map(abs, ints)) + abs(big_u) < 2**62 else object
    left = _signed_sums(np.array(ints[: n // 2], dtype))
    right = np.sort(_signed_sums(np.array(ints[n // 2 :], dtype)))
    above = right.size - np.searchsorted(right, big_u - left, side="right")
    below = np.searchsorted(right, -big_u - left, side="left")
    return int(above.sum() + below.sum()) / float(2**n)

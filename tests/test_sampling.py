"""Tests for the radial-chain sampler, Monte Carlo estimation, and the exact
oracles.

The enumeration oracle is cross-checked against a fully independent
itertools-based brute force; the Monte Carlo machinery is checked against
the exact oracles and for worker-count independence.
"""

import functools
import itertools
import math
import sys
import threading
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special, stats

from spheretail import (
    CapacityError,
    RngStream,
    clopper_pearson,
    exact_rademacher_tail,
    fourth_moment_exact,
    gaussian_fourth_moment,
    judge,
    mc_tail_multi,
    sample_sum_norms,
    second_moment_exact,
)
from spheretail.bounds import pow2_above
from spheretail.report import CoefficientPattern
from spheretail import sampling
from spheretail.sampling import (
    CHUNK_SIZE,
    cos_marginal,
    cos_rule,
    map_sum_norms,
    mc_tail_batch,
)

from coefficient_strategies import coefficient_lists, signs_and_order_moved


def brute_force_rademacher(coeffs, u, strict=True) -> float:
    """Independent oracle: full sign-pattern enumeration via itertools, with
    every sum computed exactly in rationals."""
    exact = [Fraction(float(a)) for a in coeffs]
    u = Fraction(float(u))
    hits = 0
    for signs in itertools.product((-1, 1), repeat=len(exact)):
        s = abs(sum(si * ai for si, ai in zip(signs, exact)))
        hits += (s > u) if strict else (s >= u)
    return hits / 2.0 ** len(exact)


@st.composite
def near_ties(draw):
    """Decimal coefficients and u = |fsum(eps . a)| for a drawn sign pattern,
    so u is the rounded value of an exact signed sum: a near-tie."""
    coeffs = draw(st.lists(st.integers(-999, 999).map(lambda k: k / 100), min_size=1, max_size=8))
    coeffs = [a if a else 1.0 for a in coeffs]
    signs = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=len(coeffs), max_size=len(coeffs)))
    return coeffs, abs(math.fsum(s * a for s, a in zip(signs, coeffs)))


def gaussian_reference_norms(coeffs, d, n_samples, seed, step=50_000):
    """Independent sampler: normalised Gaussian vectors, summed in R^d."""
    rng = np.random.default_rng(seed)
    a = np.asarray(coeffs)
    out = []
    for start in range(0, n_samples, step):
        g = rng.normal(size=(min(step, n_samples - start), a.size, d))
        g /= np.linalg.norm(g, axis=2, keepdims=True)
        s = (a[None, :, None] * g).sum(axis=1)
        out.append(np.linalg.norm(s, axis=1))
    return np.concatenate(out)


def reference_chain(rows, cols, size):
    """The radial chain of each row alone: the row over its own power of two,
    its zero coefficients dropped with their C columns, and every other step
    run.  ``sampling._radial_chain`` must equal it bit for bit."""
    out = []
    for row in rows:
        s = pow2_above(np.abs(row).max())
        steps = [(a / s, c) for a, c in zip(row[1:], cols) if a != 0.0]
        r = np.full(size, abs(row[0]) / s)
        for a, c in steps:
            t = r + a * c
            r = np.sqrt(t * t + (a * a) * (1.0 - c * c))
        out.append(r * s)
    return np.array(out)


def engine_chain(rows, cols, size, d):
    """``sampling._radial_chain`` of one stack at d, in fresh buffers and on
    copies of its columns, which the chain overwrites by 1 - C^2."""
    take = functools.partial(np.empty, size)
    copies = [c.copy() for c in cols]
    [(_, norms)] = sampling._radial_chain([(0, np.copy, rows)], copies, take, take(), d)
    return norms


class TestSphereSampling:
    """The law of C, one coordinate of a uniform unit vector in R^d."""

    def test_values_lie_in_unit_interval(self):
        for d in (1, 2, 3, 4, 5, 6, 7, 10, 40, 100):
            c = cos_marginal(RngStream(123, d).generator(), d, 10_000)
            assert c.shape == (10_000,)
            assert np.all(np.abs(c) <= 1.0)

    def test_d1_is_two_point(self):
        values = set(cos_marginal(RngStream(5, 0).generator(), 1, 64).tolist())
        assert values == {-1.0, 1.0}

    @pytest.mark.parametrize("size", [1, 7, 8, 9, 70_001])
    def test_d1_draws_exactly_size_balanced_signs(self, size):
        # eight signs come from each random byte, so sizes around a multiple
        # of 8 must still give exactly ``size`` values, half of them +1
        c = cos_marginal(RngStream(11, size).generator(), 1, size)
        assert c.shape == (size,)
        assert set(c.tolist()) <= {-1.0, 1.0}
        assert stats.binomtest(int(np.count_nonzero(c > 0)), size).pvalue > 1e-3

    @pytest.mark.parametrize("d", [2, 4, 5, 6, 7, 9, 10, 15, 30, 31, 100, 101])
    def test_draws_follow_the_beta_law(self, d):
        # d = 5 draws cbrt(V) W and every other d here sin(theta) sqrt(B):
        # all must have the law 2 Beta((d-1)/2, (d-1)/2) - 1 (the arcsine
        # law at d = 2)
        c = cos_marginal(RngStream(2024, d).generator(), d, 1_000_000)
        law = stats.beta((d - 1) / 2, (d - 1) / 2, loc=-1.0, scale=2.0)
        assert stats.kstest(c, law.cdf).pvalue > 1e-3

    @pytest.mark.parametrize("d", [2, 4, 5, 6, 7, 9, 10, 15, 30, 31, 100, 101])
    def test_fourth_moment(self, d):
        # E C^4 = 3 / (d (d + 2)), the fourth moment of the Beta law (3/8 at d = 2)
        c4 = cos_marginal(RngStream(9, d).generator(), d, 1_000_000) ** 4
        se = c4.std(ddof=1) / math.sqrt(c4.size)
        assert abs(c4.mean() - 3.0 / (d * (d + 2))) <= 5.0 * se

    def test_d2_is_the_sine_of_a_uniform_angle(self):
        # sin(theta), theta = pi (U - 1/2), drawn as 2t / (1 + t^2) with
        # t = tan(theta / 2): that form bit for bit, and the sine to rounding
        c = cos_marginal(RngStream(3, 2).generator(), 2, 70_001)
        u = RngStream(3, 2).generator().random(70_001)
        t = np.tan(u * (0.5 * math.pi) - 0.25 * math.pi)
        assert np.array_equal(c, 2.0 * t / (1.0 + t * t))
        assert np.max(np.abs(c - np.sin(math.pi * (u - 0.5)))) <= 4e-16

    @pytest.mark.parametrize("d", [2, 4, 6, 7, 10, 100, 101])
    def test_closed_form_at_the_ends_of_the_uniforms(self, d):
        # U and V at and next to 0, 1/2 and 1: log(V) would warn at V = 0,
        # and t = tan(theta / 2) reaches -1 at U = 0 and 0 at U = 1/2
        class EdgeUniforms:
            def random(self, size, out=None):
                ends = [0.0, 2.0**-53, 0.5 - 2.0**-53, 0.5, np.nextafter(1.0, 0.0)]
                if out is None:
                    return np.resize(ends, size)
                out[:] = np.resize(ends, size)
                return out

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            c = cos_marginal(EdgeUniforms(), d, 5)
        assert np.all(np.isfinite(c)) and np.all(np.abs(c) <= 1.0)

    @pytest.mark.parametrize("d", [2, 4, 7, 100])
    def test_no_draw_leaves_the_unit_interval_at_the_ends(self, d):
        # the 2^20 uniforms nearest each end of [0, 1), where t nears -1 and
        # 1: 1 - C^2, which the chain takes a square root of, stays >= 0
        k = np.arange(1 << 20) * 2.0**-53
        ends = np.concatenate([k, 1.0 - (k + 2.0**-53)])

        class EndUniforms:
            def random(self, size, out=None):
                if out is None:
                    return ends.copy()
                out[:] = ends
                return out

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            c = cos_marginal(EndUniforms(), d, ends.size)
        assert np.all(np.isfinite(c)) and np.all(np.abs(c) <= 1.0)

    @pytest.mark.parametrize("size", [1, 9, 4097])
    def test_draws_into_buffers_keep_numpys_columns(self, size):
        # d = 1, 3 and 5 write 2 x - 1 into a buffer; they must give the
        # columns that indexing [-1, 1] by the bits and Generator.uniform give
        def rng():
            return RngStream(9, size).generator()

        bits = np.unpackbits(rng().integers(0, 256, -(-size // 8), dtype=np.uint8))[:size]
        assert np.array_equal(cos_marginal(rng(), 1, size), np.array([-1.0, 1.0])[bits])
        assert np.array_equal(cos_marginal(rng(), 3, size), rng().uniform(-1.0, 1.0, size))
        g = rng()
        expected = np.cbrt(g.random(size)) * g.uniform(-1.0, 1.0, size)
        assert np.array_equal(cos_marginal(rng(), 5, size), expected)

    def test_d3_first_coordinate_uniform(self):
        # Archimedes: the first coordinate of a uniform point on S^2 is
        # uniform on [-1, 1]
        c = cos_marginal(RngStream(2024, 0).generator(), 3, 1_000_000)
        ks = stats.kstest(c, "uniform", args=(-1.0, 2.0))
        assert ks.pvalue > 1e-3

    def test_second_moment_is_one_over_d(self):
        # E C^2 = 1/d is the diagonal of Cov(U) = I/d
        d = 4
        c2 = cos_marginal(RngStream(7, 0).generator(), d, 1_000_000) ** 2
        se = c2.std(ddof=1) / math.sqrt(c2.size)
        assert abs(c2.mean() - 1.0 / d) <= 5.0 * se

    def test_rejects_zero_dimension(self):
        with pytest.raises(ValueError):
            cos_marginal(RngStream(1, 0).generator(), 0, 8)

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 10, 100, 1000])
    def test_rule_integrates_the_moments_of_the_law(self, d):
        # E C^2 = 1/d and E C^4 = 3 / (d (d + 2)), the moments of the law
        # cos_marginal samples, and the weights sum to 1
        nodes, weights = cos_rule(d)
        assert math.fsum(weights) == pytest.approx(1.0, rel=1e-15)
        assert weights @ nodes**2 == pytest.approx(1.0 / d, rel=1e-12)
        assert weights @ nodes**4 == pytest.approx(3.0 / (d * (d + 2)), rel=1e-12)


class TestRadialChain:
    @pytest.mark.parametrize("d, n", [(2, 3), (4, 3), (5, 4), (10, 4), (30, 3)])
    def test_matches_gaussian_reference(self, d, n):
        coeffs = np.linspace(1.0, 0.4, n)
        chain = sample_sum_norms(coeffs, d, 1_000_000, seed=d)
        reference = gaussian_reference_norms(coeffs, d, 1_000_000, seed=100 + d)
        assert stats.ks_2samp(chain, reference).pvalue > 1e-3

    def test_constant_norms_are_exact(self):
        single = CoefficientPattern("single").materialize(6)
        for d in (1, 2, 3, 5, 30):
            assert np.all(sample_sum_norms([-0.7], d, 5000, seed=d) == 0.7)
            assert np.all(sample_sum_norms(single, d, 5000, seed=d) == 1.0)

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_skipped_zero_steps_match_the_reference_step(self, d):
        # zero coefficients inside and at the end of a row or of a stack,
        # the single pattern, rows whose R^2 would underflow in a zero step,
        # and stacks whose rows differ in scale by up to 2^1000
        rows = [
            [[0.5, 0.0, 2.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0]],
            [CoefficientPattern("single").materialize(10)],
            [[1.0, 2.0, 0.0, 3.0, 0.0], [0.5, 0.0, 0.0, 4e153, 0.0]],
            [[1e-300, 0.0, 3.0]],
            [[0.0, 0.0, 1.0]],
            [[1e-160, 0.0], [3.0, 0.0]],
            [[1e-300, 0.0], [3.0, 0.0]],
        ]
        size = 5000
        rng = RngStream(31, d).generator()
        cols = [cos_marginal(rng, d, size) for _ in range(9)]
        for a in map(np.array, rows):
            assert np.array_equal(engine_chain(a, cols, size, d), reference_chain(a, cols, size))

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 7, 10])
    @pytest.mark.parametrize(
        "stack",
        [
            [[1e-160, 0.0], [3.0, 0.0]],
            [[1e-300, 0.0], [3.0, 0.0]],
            [[1.0, 2.0, 0.0, 3.0, 0.0], [0.5, 0.0, 0.0, 4e153, 0.0]],
        ],
        ids=["1e-160", "1e-300", "4e153"],
    )
    def test_each_row_of_a_stack_is_its_one_row_call(self, stack, d):
        # a row keeps its own scale and skips its own zero steps, so the
        # rows stacked with it change none of its norms
        n = CHUNK_SIZE + 5000
        [together] = map_sum_norms([(np.copy, stack, d)], n, seed=12)
        for i, row in enumerate(stack):
            [alone] = map_sum_norms([(np.copy, row, d)], n, seed=12)
            assert all(np.array_equal(t[i], a[0]) for t, a in zip(together, alone, strict=True))
        if stack[0][1:] == [0.0]:  # a constant norm, whatever its size
            assert all(np.all(t[0] == stack[0][0]) for t in together)

    def test_norms_whose_square_overflows(self):
        # partial norms up to 10 * 2^510 square past the largest double; a
        # power-of-two scale is exact, so they are 2^510 times the unit norms
        big = 2.0**510
        for d in (1, 2, 3, 5):
            unit = sample_sum_norms([1.0] * 10, d, 5000, seed=d)
            assert np.array_equal(sample_sum_norms([big] * 10, d, 5000, seed=d), big * unit)

    def test_d1_steps_are_exact_where_the_square_underflows(self):
        # |R + a C| at d = 1: 1 - 1 + 1e-300 is 1e-300, whose square would
        # underflow to 0 and read that norm as 0
        norms = sample_sum_norms([1.0, 1.0, 1e-300], 1, 2000, seed=3)
        assert set(norms.tolist()) == {1e-300, 2.0}
        [est] = mc_tail_multi(1, [1.0, 1.0, 1e-300], [5e-301], 2000, seed=3)
        assert est.hits / 2000 == exact_rademacher_tail([1.0, 1.0, 1e-300], 5e-301) == 1.0

    def test_no_hits_above_the_largest_norm(self):
        # ||sum a_i U_i|| <= sum |a_i| = 4e154
        [est] = mc_tail_multi(1, [4e153] * 10, [4.1e154], 20000, 0)
        assert est.hits == 0


@pytest.fixture
def uniform_blocks(monkeypatch):
    """One list per generator the engine makes, that is per (family, chunk)
    job, of the draw calls (``random``, ``uniform`` or ``integers``) it makes;
    each call draws one block of uniforms or random bytes."""
    logs = []
    make = sampling.RngStream.generator

    class Counting:
        def __init__(self, rng, log):
            self._rng, self._log = rng, log

        def __getattr__(self, name):
            def draw(*args, **kwargs):
                self._log.append(name)
                return getattr(self._rng, name)(*args, **kwargs)

            return draw

    def counting(stream):
        logs.append([])
        return Counting(make(stream), logs[-1])

    monkeypatch.setattr(sampling.RngStream, "generator", counting)
    return logs


class TestMcTail:
    def test_single_vector_trivial_cases(self):
        for d in (1, 2, 6):
            assert mc_tail_multi(d, (1.0,), [0.5], 1000, seed=0)[0].p_hat == 1.0
            assert mc_tail_multi(d, (1.0,), [1.5], 1000, seed=0)[0].p_hat == 0.0

    def test_worker_count_invariance(self):
        [base] = mc_tail_multi(3, (0.5, 0.8, 1.1), [1.2], 150_000, seed=21, workers=1)
        for workers in (2, 4, 7):
            [other] = mc_tail_multi(3, (0.5, 0.8, 1.1), [1.2], 150_000, seed=21, workers=workers)
            assert other.hits == base.hits
            assert other.p_hat == base.p_hat

    def test_batch_matches_one_instance_calls(self):
        # one pool maps every (d, chunk) pair; each instance keeps its own
        # stream, here two chunks with the last one partial.  The d = 3
        # instances share their columns although their power-of-two scales
        # differ by 2^1500, and the last one repeats an earlier vector.
        instances = [
            (1, (1.0, 1.0), [0.5, 1.9]),
            (3, (0.5, 0.8, 1.1), [1.2]),
            (10, (1.0,), [0.5]),
            (3, (4e153,) * 3, [4e153, 8e153]),
            (3, (1e-300, 3.0, 1.0), [2.5, 3.5]),
            (3, (1.0, 2.0, 0.5), [1.5, 2.5]),
            (3, (0.5, 0.8, 1.1), [0.9, 1.5]),
        ]
        n = CHUNK_SIZE + 1000
        alone = [mc_tail_multi(d, a, us, n, seed=4) for d, a, us in instances]
        for workers in (1, 2, 3):
            assert mc_tail_batch(instances, n, seed=4, workers=workers) == alone

    def test_repeated_vectors_share_one_task(self, monkeypatch):
        # [1.0], [1.0, 0.0] and [1.0] are one vector once trailing zeros go,
        # as are [1, 0.5] and [1, 0.5, 0, 0]: one task counts each of their
        # thresholds once, and every estimate is still its one-instance
        # call's; another order or another d is another stream
        instances = [
            (2, (1.0,), [0.5, 1.5]),
            (2, (1.0, 0.0), [1.5, 0.9]),
            (2, (1.0,), [0.5]),
            (3, (1.0, 0.5), [1.2, 0.8]),
            (3, (1.0, 0.5, 0.0, 0.0), [0.8, 1.4]),
            (3, (0.5, 1.0), [1.2]),
            (1, (1.0,), [0.5]),
        ]
        n = CHUNK_SIZE + 1000
        alone = [mc_tail_multi(d, a, us, n, seed=6) for d, a, us in instances]
        counted = []
        make = sampling._hit_counter
        monkeypatch.setattr(sampling, "_hit_counter", lambda us: counted.append(us) or make(us))
        for workers in (1, 2):
            counted.clear()
            assert mc_tail_batch(instances, n, seed=6, workers=workers) == alone
            assert counted == [[0.5, 1.5, 0.9], [1.2, 0.8, 1.4], [1.2], [0.5]]

    def test_trailing_zeros_draw_no_column(self, uniform_blocks):
        # a d whose vectors have one nonzero coefficient draws nothing, and
        # d = 5 draws the V and W blocks of its one column, in each chunk
        instances = [(2, (1.0, 0.0, 0.0), [0.5]), (5, (2.0, 1.0, 0.0), [0.5])]
        mc_tail_batch(instances, 2 * CHUNK_SIZE, seed=0)
        assert sorted(map(len, uniform_blocks)) == [0, 0, 2, 2]

    def test_stacked_task_grouped_with_one_row_tasks(self):
        # each row of a two-row task keeps its own scale beside other tasks
        tasks = [
            (np.copy, [[1.0, 2.0, 3.0], [0.5, 0.5, 4e153]], 2),
            (np.copy, [1e-300, 2.0, 1.0], 2),
            (np.copy, [1.0, 1.0], 5),
        ]
        n = 2 * CHUNK_SIZE + 7
        alone = [map_sum_norms([task], n, seed=8)[0] for task in tasks]
        for workers in (1, 2, 3):
            together = map_sum_norms(tasks, n, seed=8, workers=workers)
            assert len(together) == len(tasks)
            for chunks, expected in zip(together, alone):
                assert [c.shape for c in chunks] == [e.shape for e in expected]
                assert all(np.array_equal(c, e) for c, e in zip(chunks, expected))

    def test_tasks_of_one_dimension_read_a_prefix_of_its_columns(self, uniform_blocks):
        # a task of length n reads the first n - 1 of the columns its d
        # draws, so it sees the same C values whether the longest task of
        # its d has length n or 10; the length-3 rows span 2^1500 in scale.
        # d = 4, 7, 30 and 100 share their draws in one job, each finishing
        # its own columns, and each must still see what it draws alone.
        tasks = [
            (np.copy, [2.0], 5),
            (np.copy, [1.0, 1.0], 5),
            (np.copy, (4e153,) * 3, 5),
            (np.copy, [1e-300, 3.0, 1.0], 5),
            (np.copy, [[1.0, 2.0, 3.0], [0.5, 0.5, 4e153]], 5),
            (np.copy, np.linspace(0.1, 1.0, 10), 5),
            (np.copy, [[3.0], [0.25]], 4),
            (np.copy, [1.0, 0.5, 0.25, 0.125], 7),
            (np.copy, [[1.0, 1.0], [0.5, 4e153]], 7),
            (np.copy, np.linspace(1.0, 0.2, 6), 30),
            (np.copy, [2.0, 0.0, 1.0], 30),
            (np.copy, np.linspace(1.0, 0.3, 8), 100),
            (np.copy, [1e-300, 1.0], 100),
        ]
        n = 2 * CHUNK_SIZE + 7
        alone = [map_sum_norms([task], n, seed=8)[0] for task in tasks]
        for workers in (1, 2, 3, 4):
            together = map_sum_norms(tasks, n, seed=8, workers=workers)
            for chunks, expected in zip(together, alone, strict=True):
                assert [c.shape for c in chunks] == [e.shape for e in expected]
                assert all(np.array_equal(c, e) for c, e in zip(chunks, expected))
        # per chunk, d = 5 draws 9 columns (a V and a W block each), and
        # d = 4, 7, 30 and 100 draw the 7 columns of the longest of them (a U
        # and a V block each) in one job; the d = 4 rows all have length 1
        uniform_blocks.clear()
        map_sum_norms(tasks, n, seed=8, workers=2)
        assert sorted(map(len, uniform_blocks)) == [14] * 3 + [18] * 3

    def test_a_job_holds_its_shared_draws_and_one_dimensions_columns(self, monkeypatch):
        # the dimensions outside {1, 2, 3, 5} share two arrays per column,
        # sin(theta) and log1p(-V), and each d finishes its columns just
        # before its chains run, so a job's memory does not grow with the
        # number of d it serves: 3 arrays per column, plus the chain's own.
        # Each call starts from an empty free list, so every buffer the job
        # holds is allocated under the trace.
        n, column = 9, 8 * CHUNK_SIZE

        def peak(dims):
            tasks = [(np.sum, np.ones(n), d) for d in dims]
            monkeypatch.setattr(sampling, "_FREE_BUFFERS", [])
            tracemalloc.start()
            try:
                map_sum_norms(tasks, CHUNK_SIZE, seed=2)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        few, many = peak((4, 6)), peak([d for d in range(4, 40) if d != 5])
        assert few < (3 * (n - 1) + 4) * column
        assert many < few + column

    def test_a_repeated_call_allocates_only_the_norms_it_hands_out(self):
        # every draw, column and chain buffer of a job comes back to the free
        # list, so a second identical call reuses them: its only CHUNK_SIZE
        # allocation is each task's norms array, made just before its fn runs
        tasks = [(np.sum, np.linspace(1.0, 0.1, 2 + d % 5), d) for d in (1, 2, 3, 4, 5, 7, 30)]
        tasks.append((np.sum, [[1.0, 0.0, 2.0], [3.0, 1.0, 0.0]], 7))
        n, column = 2 * CHUNK_SIZE, 8 * CHUNK_SIZE
        first = map_sum_norms(tasks, n, seed=6)
        tracemalloc.start()
        try:
            again = map_sum_norms(tasks, n, seed=6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert again == first
        assert peak < 2 * column + column // 2  # the two-row norms, and no buffer

    def test_the_free_list_keeps_at_most_its_cap(self, monkeypatch):
        # a 400-row task holds a chain buffer per row, 403 in all; the free
        # list keeps 128 of them (32 MiB) and lets the rest go
        free = []
        monkeypatch.setattr(sampling, "_FREE_BUFFERS", free)
        map_sum_norms([(np.sum, np.ones((400, 3)), 3)], 10, seed=1)
        assert len(free) == sampling.FREE_BUFFERS_MAX == 128

    def test_no_buffer_of_the_free_list_reaches_a_task(self, monkeypatch):
        # a task may keep its norms (sample_sum_norms keeps views of them),
        # so they are never one of the recycled buffers
        free = []
        monkeypatch.setattr(sampling, "_FREE_BUFFERS", free)
        seen = []
        tasks = [(seen.append, np.linspace(1.0, 0.5, 4), d) for d in (1, 2, 3, 5, 4, 10)]
        for seed in (1, 2):
            map_sum_norms(tasks, 2 * CHUNK_SIZE + 5, seed=seed, workers=2)
        assert free and len(seen) == 2 * len(tasks) * 3
        assert not any(np.shares_memory(norms, buf) for norms in seen for buf in free)
        kept = sample_sum_norms([1.0, 0.5, 0.25], 4, CHUNK_SIZE + 9, seed=3)
        copy = kept.copy()
        sample_sum_norms([1.0, 0.5, 0.25], 4, CHUNK_SIZE + 9, seed=4)
        assert np.array_equal(kept, copy)

    def test_concurrent_calls_share_the_free_list(self):
        # two threads, each mapping its jobs onto two more, take and return
        # buffers of one free list at once; each call still gets its serial
        # norms, so no buffer is held by two jobs
        tasks = [(np.copy, np.linspace(1.0, 0.2, 5), d) for d in (1, 3, 4, 5, 7)]
        n = 3 * CHUNK_SIZE + 11
        serial = {seed: map_sum_norms(tasks, n, seed) for seed in (1, 2)}
        results = {}

        def call(seed):
            for rep in range(3):
                results[seed, rep] = map_sum_norms(tasks, n, seed, workers=2)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=call, args=(seed,)) for seed in (1, 2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(results) == 6
        for (seed, _), got in results.items():
            for chunks, expected in zip(got, serial[seed], strict=True):
                assert all(np.array_equal(c, e) for c, e in zip(chunks, expected, strict=True))

    def test_each_dimension_draws_its_cosines_once(self, uniform_blocks):
        # instances of one d draw the same C columns, and the dimensions
        # outside {1, 2, 3, 5} read the same uniforms, so a chunk draws
        # max(n) - 1 columns per family: one U block per column at d = 2,
        # a V and a W block at d = 5, and a U and a V block for d = 7 and 10
        # together
        patterns = [CoefficientPattern(k) for k in ("equal", "single", "geometric")]
        dims, ns, chunks = (2, 5, 7, 10), (1, 2, 5), 2
        instances = [(d, p.materialize(n), [0.5]) for d in dims for n in ns for p in patterns]
        mc_tail_batch(instances, chunks * CHUNK_SIZE, seed=0, workers=2)
        columns = max(ns) - 1
        expected = [columns, 2 * columns, 2 * columns] * chunks
        assert sorted(map(len, uniform_blocks)) == sorted(expected)
        assert all(set(log) == {"random"} for log in uniform_blocks if len(log) == columns)

    def test_every_dimension_draws_the_columns_it_draws_alone(self, monkeypatch):
        # one call mixes every kind of draw; column j of each d in chunk k is
        # the j-th cos_marginal draw of a fresh RngStream(seed, k) generator,
        # bit for bit, although the dimensions outside {1, 2, 3, 5} share
        # their uniforms, at any number of workers
        dims = (1, 2, 3, 4, 5, 6, 7, 10, 30, 100)
        lengths = {d: 2 + i % 4 for i, d in enumerate(dims)}
        tasks = [(np.copy, [float(d)] + [1.0] * (lengths[d] - 1), d) for d in dims]
        seen = {}
        chain = sampling._radial_chain

        def recording(tasks, cols, take, tmp, d):
            # copies: the chain overwrites its columns, and their buffers are reused
            [(_, _, rows)] = tasks
            seen[int(rows[0, 0]), len(tmp)] = [c.copy() for c in cols]
            return chain(tasks, cols, take, tmp, d)

        monkeypatch.setattr(sampling, "_radial_chain", recording)
        sizes = (CHUNK_SIZE, 1000)
        for workers in (1, 2, 3):
            seen.clear()
            map_sum_norms(tasks, sum(sizes), seed=13, workers=workers)
            assert len(seen) == len(dims) * len(sizes)
            for d in dims:
                for k, size in enumerate(sizes):
                    rng = RngStream(13, k).generator()
                    expected = [cos_marginal(rng, d, size) for _ in range(lengths[d] - 1)]
                    assert len(seen[d, size]) == len(expected)
                    assert all(map(np.array_equal, seen[d, size], expected)), (d, k, workers)

    def test_two_coefficients_match_the_exact_law_of_c(self):
        # ||a_1 U_1 + a_2 U_2|| > u iff C > c = (u^2 - a_1^2 - a_2^2) / (2 |a_1 a_2|),
        # and P(C > c) = I_{(1-c)/2}((d-1)/2, (d-1)/2).  Thresholds at
        # c = -1/sqrt(d), 0 and 0.9/sqrt(d) keep every tail informative.  The
        # six dimensions run in one batch, so d >= 4 share their uniforms,
        # and each estimate is also mc_tail_multi's; 18 intervals at a
        # family alpha of 0.01.
        dims, a = (2, 4, 7, 10, 30, 100), (1.0, -0.6)
        n, alpha = 4 * CHUNK_SIZE, 0.01 / (6 * 3)
        us = [np.sqrt(1.36 + 1.2 * np.array([-1.0, 0.0, 0.9]) / math.sqrt(d)) for d in dims]
        batch = mc_tail_batch(list(zip(dims, [a] * 6, us)), n, seed=3, alpha=alpha, workers=2)
        for d, u_values, estimates in zip(dims, us, batch, strict=True):
            assert estimates == mc_tail_multi(d, a, u_values, n, seed=3, alpha=alpha)
            for u, est in zip(u_values, estimates):
                c = (u * u - 1.36) / 1.2
                exact = special.betainc((d - 1) / 2, (d - 1) / 2, (1.0 - c) / 2)
                assert est.ci_low <= exact <= est.ci_high, (d, u, exact, est)

    def test_batch_checks_workers_before_the_pool(self):
        with pytest.raises(ValueError, match=r"workers must be >= 1, got 0"):
            mc_tail_batch([(2, (1.0,), [0.5])], 10, seed=0, workers=0)

    def test_multi_u_matches_single_u(self):
        us = [0.4, 1.0, 1.7]
        multi = mc_tail_multi(2, (1.0, 1.0), us, 40_000, seed=9)
        for u, est in zip(us, multi):
            [single] = mc_tail_multi(2, (1.0, 1.0), [u], 40_000, seed=9)
            assert single.hits == est.hits

    def test_ci_covers_exact_d1(self):
        exact = exact_rademacher_tail([1.0, 1.0], 1.9)
        assert exact == 0.5
        [est] = mc_tail_multi(1, (1.0, 1.0), [1.9], 200_000, seed=3, alpha=0.01)
        assert est.ci_low <= exact <= est.ci_high
        assert est.ci_low <= est.p_hat <= est.ci_high

    def test_coverage_calibration_100_seeds(self):
        # Clopper-Pearson at alpha = 0.01 must cover the exact value in at
        # least 99 of these 100 fixed-seed trials
        exact = exact_rademacher_tail([1.0, 1.0], 1.9)
        covered = 0
        for seed in range(100):
            [est] = mc_tail_multi(1, (1.0, 1.0), [1.9], 4000, seed=seed, alpha=0.01)
            covered += est.ci_low <= exact <= est.ci_high
        assert covered >= 99

    def test_estimate_fields(self):
        [est] = mc_tail_multi(2, (1.0,), [0.5], 1234, seed=77, alpha=0.05)
        assert est.n_samples == 1234
        assert est.seed == 77
        assert est.alpha == 0.05
        assert est.p_hat == est.hits / est.n_samples

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            mc_tail_multi(2, (1.0,), [0.5], 0, seed=0)
        with pytest.raises(ValueError):
            mc_tail_multi(2, (1.0,), [0.5], 10, seed=0, alpha=1.5)
        with pytest.raises(ValueError, match="workers"):
            mc_tail_multi(2, (1.0,), [0.5], 10, seed=0, workers=0)
        with pytest.raises(ValueError, match=r"^threshold must be finite, got inf$"):
            mc_tail_multi(2, (1, 1), [math.inf], 100, 0)


class TestClopperPearson:
    def test_edge_cases(self):
        lo, hi = clopper_pearson(0, 100, alpha=0.01)
        assert lo == 0.0 and 0.0 < hi < 0.1
        lo, hi = clopper_pearson(100, 100, alpha=0.01)
        assert hi == 1.0 and 0.9 < lo < 1.0

    def test_exact_binomial_inversion(self):
        # the interval endpoints satisfy the defining binomial tail equations
        hits, n, alpha = 37, 500, 0.02
        lo, hi = clopper_pearson(hits, n, alpha)
        assert stats.binom.sf(hits - 1, n, lo) == pytest.approx(alpha / 2, rel=1e-9)
        assert stats.binom.cdf(hits, n, hi) == pytest.approx(alpha / 2, rel=1e-9)

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            clopper_pearson(5, 4)


class TestJudge:
    @pytest.mark.parametrize(
        "low, high, floor, verdict",
        [
            (0.0, 0.0, 0.0, "HOLDS"),  # the exact zero margin of bc power2
            (0.0, 0.5, 0.0, "HOLDS"),  # low == floor
            (2.5, 2.5, 0.0, "HOLDS"),
            (-1.0, -5e-324, 0.0, "VIOLATED"),  # high just below floor
            (-3.0, -3.0, 0.0, "VIOLATED"),
            (-0.1, 0.1, 0.0, "INCONCLUSIVE"),
            (-0.1, 0.0, 0.0, "INCONCLUSIVE"),  # high == floor, low below
            (-1e-9, -1e-9, -1e-9, "HOLDS"),  # a nonzero floor, as bisub's -atol
            (-1e-9, 1.0, -1e-9, "HOLDS"),
            (-2.0, math.nextafter(-1e-9, -1.0), -1e-9, "VIOLATED"),
            (-2e-9, 0.0, -1e-9, "INCONCLUSIVE"),
        ],
    )
    def test_boundaries(self, low, high, floor, verdict):
        assert judge(low, high, floor) == verdict


class TestExactRademacherTail:
    def test_two_equal_coefficients(self):
        assert exact_rademacher_tail([1.0, 1.0], 1.9) == 0.5

    def test_single_coefficient(self):
        assert exact_rademacher_tail([1.0], 0.99) == 1.0

    def test_four_coefficients(self):
        assert exact_rademacher_tail([3.0, 1.0, 1.0, 1.0], 5.9) == 2.0 / 16.0

    def test_strict_vs_nonstrict(self):
        # atoms of |eps1 + eps2| sit at 0 and 2
        assert exact_rademacher_tail([1.0, 1.0], 2.0, strict=True) == 0.0
        assert exact_rademacher_tail([1.0, 1.0], 2.0, strict=False) == 0.5
        assert exact_rademacher_tail([1.0, 1.0], 0.0, strict=True) == 0.5
        assert exact_rademacher_tail([1.0, 1.0], 0.0, strict=False) == 1.0

    def test_negative_threshold(self):
        assert exact_rademacher_tail([0.3, 0.4], -1.0) == 1.0

    @pytest.mark.parametrize("coeffs", [[0.1, 0.2, 0.3], [0.3, 0.2, 0.1]])
    def test_near_tie_in_either_order(self, coeffs):
        # the exact sum of the doubles 0.1 + 0.2 + 0.3 lies just above the
        # double 0.6, so the sign patterns +++ and --- both count
        assert exact_rademacher_tail(coeffs, 0.6) == 0.25
        assert exact_rademacher_tail(coeffs, 0.6, strict=False) == 0.25

    def test_wide_magnitudes(self):
        # on the grid of 1e-30 the integers outgrow int64, and |1 - 1 + 1e-30|
        # ties u = 1e-30 exactly
        coeffs = [1e-30, 1.0, 1.0]
        for u in (0.0, 1e-30, 2.0, 2.0 + 2**-51):
            for strict in (True, False):
                expected = brute_force_rademacher(coeffs, u, strict)
                assert exact_rademacher_tail(coeffs, u, strict) == expected

    def test_brute_force_oracle_agreement(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            n = int(rng.integers(1, 9))
            coeffs = rng.uniform(-1.5, 1.5, size=n)
            coeffs[rng.integers(0, n)] = 1.0  # keep at least one nonzero
            for u in rng.uniform(0.0, 3.0, size=4):
                for strict in (True, False):
                    assert exact_rademacher_tail(coeffs, u, strict) == brute_force_rademacher(
                        coeffs, u, strict
                    )

    def test_strict_below_nonstrict(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            coeffs = rng.uniform(0.1, 2.0, size=6)
            u = float(rng.uniform(0.0, 4.0))
            assert exact_rademacher_tail(coeffs, u, True) <= exact_rademacher_tail(
                coeffs, u, False
            )

    def test_capacity_cap(self):
        with pytest.raises(CapacityError):
            exact_rademacher_tail([1.0] * 27, 1.0)




class TestExactRademacherTailProperties:
    @settings(derandomize=True, deadline=None)
    @given(coefficient_lists, st.floats(-1e4, 1e4), st.floats(0.0, 1e4), st.booleans())
    def test_a_probability_that_does_not_increase_in_u(self, coeffs, u, step, strict):
        p = exact_rademacher_tail(coeffs, u, strict)
        assert 0.0 <= p <= 1.0
        assert exact_rademacher_tail(coeffs, u + step, strict) <= p

    @settings(derandomize=True, deadline=None)
    @given(near_ties(), st.booleans())
    def test_exact_at_near_ties(self, tie, strict):
        coeffs, u = tie
        expected = brute_force_rademacher(coeffs, u, strict)
        assert exact_rademacher_tail(coeffs, u, strict) == expected
        assert exact_rademacher_tail(coeffs[::-1], u, strict) == expected

    @settings(derandomize=True, deadline=None)
    @given(coefficient_lists, st.floats(-1e4, -1e-300), st.booleans())
    def test_one_below_zero(self, coeffs, u, strict):
        assert exact_rademacher_tail(coeffs, u, strict) == 1.0

    @settings(derandomize=True, deadline=None)
    @given(coefficient_lists, st.floats(-1e4, 1e4), st.booleans(), st.data())
    def test_invariant_under_signs_and_order(self, coeffs, u, strict, data):
        moved = signs_and_order_moved(data, coeffs)
        assert exact_rademacher_tail(moved, u, strict) == exact_rademacher_tail(coeffs, u, strict)


class TestMomentOracles:
    def test_second_moment_examples(self):
        assert second_moment_exact([1.0]) == 1.0
        assert second_moment_exact([1.0, 1.0, 1.0]) == 3.0
        assert second_moment_exact([3.0, 4.0]) == 25.0

    def test_fourth_moment_examples(self):
        assert fourth_moment_exact([1.0], 5) == 1.0
        assert fourth_moment_exact([1.0, 1.0], 2) == 6.0
        # large-d limit: 2 + 2 = 4 for two unit coefficients
        assert fourth_moment_exact([1.0, 1.0], 10**9) == pytest.approx(4.0, rel=1e-8)

    def test_fourth_moment_overflow_is_an_error(self):
        # the squares are finite, the sum of their squares is not
        message = r"E \|\|sum a_i U_i\|\|\^4 overflows double precision"
        with pytest.raises(ValueError, match=message):
            fourth_moment_exact((1e77, 1e77), 2)

    def test_gaussian_fourth_moment_examples(self):
        assert gaussian_fourth_moment([1.0], 1) == 3.0
        assert gaussian_fourth_moment([1.0, 1.0], 2) == 8.0

    def test_dominance_gap_identity(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            d = int(rng.integers(1, 12))
            coeffs = rng.uniform(-2.0, 2.0, size=rng.integers(1, 7))
            coeffs[0] = max(coeffs[0], 0.3)
            gap = gaussian_fourth_moment(coeffs, d) - fourth_moment_exact(coeffs, d)
            expected = (2.0 / d) * float(np.sum(np.asarray(coeffs) ** 4))
            assert gap == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_moments_match_simulation(self):
        coeffs, d = [0.6, 0.8, 1.1], 3
        r = sample_sum_norms(coeffs, d, 1_000_000, seed=55)
        for p, exact in (
            (2, second_moment_exact(coeffs)),
            (4, fourth_moment_exact(coeffs, d)),
        ):
            vals = r**p
            se = vals.std(ddof=1) / math.sqrt(vals.size)
            assert abs(vals.mean() - exact) <= 5.0 * se


class TestRngStream:
    def test_reproducible(self):
        a = RngStream(99, 3).generator().standard_normal(8)
        b = RngStream(99, 3).generator().standard_normal(8)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = RngStream(99, 0).generator().standard_normal(8)
        b = RngStream(99, 1).generator().standard_normal(8)
        assert not np.array_equal(a, b)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            RngStream(-1, 0)

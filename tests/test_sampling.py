"""Tests for the radial-chain sampler, Monte Carlo estimation, and the exact
oracles.

The enumeration oracle is cross-checked against a fully independent
itertools-based brute force; the Monte Carlo machinery is checked against
the exact oracles and for worker-count independence.
"""

import itertools
import math

import numpy as np
import pytest
from scipy import stats

from spheretail import (
    CapacityError,
    RngStream,
    TailQuery,
    clopper_pearson,
    exact_rademacher_tail,
    fourth_moment_exact,
    gaussian_fourth_moment,
    mc_tail,
    mc_tail_multi,
    sample_sum_norms,
    second_moment_exact,
)
from spheretail.report import CoefficientPattern
from spheretail.sampling import cos_marginal


def brute_force_rademacher(coeffs, u, strict=True) -> float:
    """Independent oracle: full sign-pattern enumeration via itertools."""
    n = len(coeffs)
    hits = 0
    for signs in itertools.product((-1.0, 1.0), repeat=n):
        s = abs(math.fsum(si * ai for si, ai in zip(signs, coeffs)))
        hits += (s > u) if strict else (s >= u)
    return hits / 2.0**n


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


class TestSphereSampling:
    """The law of C, one coordinate of a uniform unit vector in R^d."""

    def test_values_lie_in_unit_interval(self):
        for d in (1, 2, 3, 7, 40):
            c = cos_marginal(RngStream(123, d).generator(), d, 10_000)
            assert c.shape == (10_000,)
            assert np.all(np.abs(c) <= 1.0)

    def test_d1_is_two_point(self):
        values = set(cos_marginal(RngStream(5, 0).generator(), 1, 64).tolist())
        assert values == {-1.0, 1.0}

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


class TestRadialChain:
    @pytest.mark.parametrize("d, n", [(2, 3), (5, 4), (30, 3)])
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


class TestMcTail:
    def test_single_vector_trivial_cases(self):
        for d in (1, 2, 6):
            q_low = TailQuery(d, (1.0,), 0.5)
            q_high = TailQuery(d, (1.0,), 1.5)
            assert mc_tail(q_low, 1000, seed=0).p_hat == 1.0
            assert mc_tail(q_high, 1000, seed=0).p_hat == 0.0

    def test_worker_count_invariance(self):
        q = TailQuery(3, (0.5, 0.8, 1.1), 1.2)
        base = mc_tail(q, 150_000, seed=21, workers=1)
        for workers in (2, 4, 7):
            other = mc_tail(q, 150_000, seed=21, workers=workers)
            assert other.hits == base.hits
            assert other.p_hat == base.p_hat

    def test_multi_u_matches_single_u(self):
        us = [0.4, 1.0, 1.7]
        multi = mc_tail_multi(2, (1.0, 1.0), us, 40_000, seed=9)
        for u, est in zip(us, multi):
            single = mc_tail(TailQuery(2, (1.0, 1.0), u), 40_000, seed=9)
            assert single.hits == est.hits

    def test_ci_covers_exact_d1(self):
        exact = exact_rademacher_tail([1.0, 1.0], 1.9)
        assert exact == 0.5
        est = mc_tail(TailQuery(1, (1.0, 1.0), 1.9), 200_000, seed=3, alpha=0.01)
        assert est.ci_low <= exact <= est.ci_high
        assert est.ci_low <= est.p_hat <= est.ci_high

    def test_coverage_calibration_100_seeds(self):
        # Clopper-Pearson at alpha = 0.01 must cover the exact value in at
        # least 99 of these 100 fixed-seed trials
        exact = exact_rademacher_tail([1.0, 1.0], 1.9)
        q = TailQuery(1, (1.0, 1.0), 1.9)
        covered = 0
        for seed in range(100):
            est = mc_tail(q, 4000, seed=seed, alpha=0.01)
            covered += est.ci_low <= exact <= est.ci_high
        assert covered >= 99

    def test_estimate_fields(self):
        est = mc_tail(TailQuery(2, (1.0,), 0.5), 1234, seed=77, alpha=0.05)
        assert est.n_samples == 1234
        assert est.seed == 77
        assert est.alpha == 0.05
        assert est.p_hat == est.hits / est.n_samples

    def test_rejects_bad_args(self):
        q = TailQuery(2, (1.0,), 0.5)
        with pytest.raises(ValueError):
            mc_tail(q, 0, seed=0)
        with pytest.raises(ValueError):
            mc_tail(q, 10, seed=0, alpha=1.5)
        with pytest.raises(ValueError, match="workers"):
            mc_tail(q, 10, seed=0, workers=0)


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

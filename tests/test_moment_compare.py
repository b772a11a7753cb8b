"""Tests for class-C membership, bisubharmonicity, majorization, and the
moment-comparison checks."""

import math

import numpy as np
import pytest

from spheretail import (
    MajorizationPair,
    RngStream,
    bc_comparison_check,
    chi_moment,
    cosh_profile,
    from_table,
    gaussian_comparison_check,
    is_bisubharmonic_numeric,
    is_class_c,
    kwapien_check,
    lemma2_hypothesis_check,
    parse_test_function,
    power,
    sample_sum_norms,
    scale,
    schur_majorizes,
    softplus_squared,
)
from spheretail.moment_compare import majorization_failure


def random_majorized_pair(rng, n: int) -> MajorizationPair:
    """(a_sq, b_sq) with b_sq a convex mixture of permutations of a_sq, so
    that a_sq majorizes b_sq by construction.

    Entries and weights are dyadic rationals, so both tuples have *exactly*
    the same floating-point sum (mixing permutations is lossless here).
    """
    a_sq = rng.integers(1, 64, size=n) / 64.0
    b_sq = 0.5 * rng.permutation(a_sq) + 0.5 * rng.permutation(a_sq)
    return MajorizationPair(tuple(a_sq), tuple(b_sq))


class TestTestFunctions:
    def test_power_eval(self):
        fn = power(4)
        assert np.allclose(fn.h([-2.0, 0.0, 1.5]), [16.0, 0.0, 5.0625])
        assert fn.label == "power4"
        assert fn.negate().h([2.0])[0] == -16.0

    def test_radial(self):
        fn = power(2)
        vecs = np.array([[3.0, 4.0], [0.0, 1.0]])
        assert np.allclose(fn.radial(vecs), [25.0, 1.0])

    def test_parse_tokens(self):
        assert parse_test_function("power2.5").param == 2.5
        assert parse_test_function("cosh").param == 1.0
        assert parse_test_function("cosh2").param == 2.0
        assert parse_test_function("-power4").sign == -1.0
        assert parse_test_function("neg_power4").sign == -1.0
        assert parse_test_function("softplus_squared").kind == "softplus_squared"
        with pytest.raises(ValueError):
            parse_test_function("gauss4")

    def test_table_domain_enforced(self):
        tab = from_table([-1.0, 0.0, 1.0], [1.0, 0.0, 1.0], even=True)
        with pytest.raises(ValueError):
            tab.h([2.0])

    def test_softplus_squared_is_even_and_anchored(self):
        fn = softplus_squared()
        x = np.linspace(-3, 3, 31)
        assert np.allclose(fn.h(x), fn.h(-x), atol=1e-12)
        assert fn.h([0.0])[0] == 0.0


class TestIsClassC:
    @pytest.mark.parametrize(
        "p,expected",
        [(2, True), (2.25, False), (2.5, False), (2.75, False),
         (3, True), (3.5, True), (4, True), (5, True)],
    )
    def test_power_family_matches_analytic_criterion(self, p, expected):
        assert is_class_c(power(p)).passed is expected

    def test_cosh_passes(self):
        assert is_class_c(cosh_profile(1.0)).passed

    def test_negated_power_fails_convexity(self):
        report = is_class_c(power(4).negate())
        assert not report.passed
        assert report.even_ok
        assert not report.second_derivative_convex

    def test_odd_table_fails_evenness(self):
        xs = np.linspace(-2.0, 2.0, 41)
        tab = from_table(xs, xs**3)
        report = is_class_c(tab, grid=np.linspace(-1.9, 1.9, 41))
        assert not report.passed
        assert not report.even_ok

    def test_coarse_grid_flagged(self):
        report = is_class_c(power(4), grid=np.linspace(-2, 2, 7))
        assert report.warnings
        assert "7 points" in report.warnings[0]

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            is_class_c(power(2), grid=[0.0, 1.0, 2.0, 3.0, 4.0])  # asymmetric
        with pytest.raises(ValueError):
            is_class_c(power(2), grid=[-1.0, 0.0, 1.0])  # too few
        with pytest.raises(ValueError):
            is_class_c(power(2), grid=[-1.0, 0.0, 0.0, 0.5, 1.0])  # not increasing

    def test_explicit_tolerance_respected(self):
        # with an absurdly large tolerance even a concave h'' "passes",
        # which is exactly why the default is tied to the h'' scale
        assert is_class_c(power(2.5), tol=1e6).second_derivative_convex


class TestIsBisubharmonic:
    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    @pytest.mark.parametrize("method", ["mc", "quadrature"])
    def test_squared_norm_passes(self, d, method):
        report = is_bisubharmonic_numeric(power(2), d, seed=1, method=method)
        assert report.status == "pass"

    @pytest.mark.parametrize("d", [2, 3, 5])
    @pytest.mark.parametrize("method", ["mc", "quadrature"])
    def test_fourth_power_passes_and_negation_fails(self, d, method):
        assert is_bisubharmonic_numeric(power(4), d, seed=1, method=method).passed
        report = is_bisubharmonic_numeric(power(4).negate(), d, seed=1, method=method)
        assert report.status == "fail"

    def test_negated_squared_norm_still_passes(self):
        # -||x||^2 has an affine profile m(t), and affine is convex: the
        # zero measure is a valid nonnegative bi-Laplacian
        for method in ("mc", "quadrature"):
            report = is_bisubharmonic_numeric(power(2).negate(), 3, seed=1, method=method)
            assert report.status == "pass"

    def test_origin_center_fourth_power_margin(self):
        # at y = 0 the profile is m(t) = t^2 exactly; uniform spacing h
        # gives midpoint margins 2 h^2
        report = is_bisubharmonic_numeric(
            power(4), 3, y_set=[0.0], t_grid=np.linspace(1.0, 3.0, 5), seed=0
        )
        for tr in report.triples:
            assert tr.margin == pytest.approx(0.5, rel=1e-12)
            assert tr.se <= 1e-15  # all pairs see the same deterministic value

    def test_cosh_passes_both_methods(self):
        assert is_bisubharmonic_numeric(cosh_profile(1.0), 3, samples=40_000, seed=2).passed
        assert is_bisubharmonic_numeric(cosh_profile(1.0), 3, method="quadrature").passed

    def test_zero_margin_never_reports_pass(self):
        # |x| is biharmonic in R^3, so m(t) = |y| + t / (3 |y|) is affine for
        # t < |y|^2: every exact margin is 0, and a Monte Carlo "pass" would
        # claim a strictly positive margin from 30 samples
        kwargs = dict(y_set=[2.0], t_grid=np.linspace(0.5, 3.5, 4))
        quad = is_bisubharmonic_numeric(power(1), 3, method="quadrature", **kwargs)
        assert [tr.margin for tr in quad.triples] == [0.0, 0.0]
        report = is_bisubharmonic_numeric(power(1), 3, samples=30, seed=0, **kwargs)
        assert report.status != "pass"

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            is_bisubharmonic_numeric(power(2), 2, t_grid=[1.0, 2.0])
        with pytest.raises(ValueError):
            is_bisubharmonic_numeric(power(2), 2, t_grid=[-1.0, 1.0, 2.0])
        with pytest.raises(ValueError):
            is_bisubharmonic_numeric(power(2), 2, y_set=[])


class TestSchurMajorization:
    def test_spec_examples(self):
        assert schur_majorizes(MajorizationPair((1.0, 0.0), (0.5, 0.5)))
        assert not schur_majorizes(MajorizationPair((0.5, 0.5), (1.0, 0.0)))
        assert schur_majorizes(
            MajorizationPair((0.5, 0.3, 0.2), (0.4, 0.35, 0.25))
        )

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            MajorizationPair((1.0, 0.0), (1.0,))

    def test_negative_entries_rejected(self):
        with pytest.raises(ValueError):
            MajorizationPair((1.0, -0.1), (0.5, 0.4))

    def test_unequal_sums_not_majorized(self):
        pair = MajorizationPair((1.0, 0.0), (0.5, 0.4))
        assert not schur_majorizes(pair)
        assert majorization_failure(pair) == 2  # flags the total-sum mismatch

    def test_reflexive_and_permutation_invariant(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            a = rng.uniform(0.0, 1.0, size=rng.integers(1, 7))
            assert schur_majorizes(MajorizationPair(tuple(a), tuple(a)))
            assert schur_majorizes(
                MajorizationPair(tuple(a), tuple(rng.permutation(a)))
            )

    def test_transitive(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            n = int(rng.integers(2, 7))
            pair_ab = random_majorized_pair(rng, n)
            b_sq = np.asarray(pair_ab.b_sq)
            c_sq = np.zeros(n)
            for w in rng.dirichlet(np.ones(3)):
                c_sq += w * rng.permutation(b_sq)
            assert schur_majorizes(MajorizationPair(pair_ab.a_sq, tuple(c_sq)))

    def test_mixing_always_majorized(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            pair = random_majorized_pair(rng, int(rng.integers(2, 8)))
            assert schur_majorizes(pair)


class TestBcComparison:
    def test_second_moment_margin_exactly_zero(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            pair = random_majorized_pair(rng, int(rng.integers(2, 6)))
            verdict = bc_comparison_check(power(2), pair, 3)
            assert verdict.margin == 0.0
            assert verdict.conclusive and verdict.holds
        # decimal tuples whose exact sums agree also give margin exactly 0
        decimal_pair = MajorizationPair((0.5, 0.3, 0.2), (0.4, 0.35, 0.25))
        assert bc_comparison_check(power(2), decimal_pair, 3).margin == 0.0

    def test_fourth_moment_extreme_pair(self):
        verdict = bc_comparison_check(
            power(4), MajorizationPair((1.0, 0.0), (0.5, 0.5)), 2
        )
        assert verdict.lhs == 1.0
        assert verdict.rhs == 1.5
        assert verdict.conclusive and verdict.holds

    def test_fourth_moment_equal_pair_equality(self):
        pair = MajorizationPair((0.3, 0.7), (0.7, 0.3))
        verdict = bc_comparison_check(power(4), pair, 4)
        assert verdict.margin == 0.0
        assert verdict.holds

    def test_precondition_rejected_with_index(self):
        with pytest.raises(ValueError, match="sorted index 0"):
            bc_comparison_check(
                power(4), MajorizationPair((0.5, 0.5), (1.0, 0.0)), 2
            )

    def test_uncertified_function_rejected(self):
        pair = MajorizationPair((1.0, 0.0), (0.5, 0.5))
        with pytest.raises(ValueError, match="not certified"):
            bc_comparison_check(power(4).negate(), pair, 2)

    def test_cosh_common_random_numbers(self):
        pair = MajorizationPair((1.0, 0.0), (0.5, 0.5))
        verdict = bc_comparison_check(cosh_profile(1.0), pair, 2, samples=100_000, seed=5)
        assert verdict.holds and verdict.conclusive
        assert verdict.method == "mc-crn"

    def test_common_random_numbers_shrink_margin_se(self):
        pair = MajorizationPair((0.4, 0.3, 0.2, 0.1), (0.25, 0.25, 0.25, 0.25))
        verdict = bc_comparison_check(cosh_profile(1.0), pair, 5, seed=3)
        assert verdict.method == "mc-crn"
        assert verdict.margin_se < math.hypot(verdict.lhs_se, verdict.rhs_se)

    def test_seed_stability_within_pooled_se(self):
        pair = MajorizationPair((0.8, 0.2), (0.5, 0.5))
        v1 = bc_comparison_check(cosh_profile(1.0), pair, 3, samples=60_000, seed=5)
        v2 = bc_comparison_check(cosh_profile(1.0), pair, 3, samples=60_000, seed=6)
        pooled = math.hypot(v1.margin_se, v2.margin_se)
        assert abs(v1.margin - v2.margin) <= 5.0 * pooled


class TestGaussianComparison:
    def test_second_moment_equality(self):
        verdict = gaussian_comparison_check(power(2), [1.0, 1.0], 2)
        assert verdict.lhs == 2.0 and verdict.rhs == 2.0
        assert verdict.margin == 0.0 and verdict.holds

    def test_fourth_moment_example(self):
        verdict = gaussian_comparison_check(power(4), [1.0, 1.0], 2)
        assert verdict.lhs == 6.0 and verdict.rhs == 8.0
        assert verdict.holds and verdict.conclusive

    def test_single_coefficient_d1(self):
        verdict = gaussian_comparison_check(power(4), [1.0], 1)
        assert verdict.lhs == 1.0 and verdict.rhs == 3.0

    def test_cosh_mc_vs_quadrature(self):
        verdict = gaussian_comparison_check(
            cosh_profile(1.0), [1.0, 1.0], 3, samples=100_000, seed=6
        )
        assert verdict.holds and verdict.conclusive
        assert verdict.rhs_se == 0.0  # Gaussian side is exact quadrature


class TestLemma2Hypothesis:
    def test_zero_variable(self):
        results = lemma2_hypothesis_check(np.zeros(50), 3, [power(4)])
        assert results[0].verdict == "CONSISTENT"
        assert results[0].lhs == 0.0
        assert results[0].rhs == chi_moment(3, 4)

    def test_chi_law_itself_is_consistent(self):
        rng = RngStream(31, 0).generator()
        z = rng.standard_normal((200_000, 3))
        xi = np.sqrt((z * z).sum(axis=1))
        results = lemma2_hypothesis_check(xi, 3, [power(4), power(2)])
        for res in results:
            assert res.verdict == "CONSISTENT"
            # same law on both sides: margins are small relative to the mean
            assert abs(res.margin) <= 6.0 * res.lhs_se

    def test_scaled_sum_norm_consistent(self):
        coeffs, d = [1.0, 1.0], 2
        xi = sample_sum_norms(coeffs, d, 100_000, seed=3) / scale(coeffs, d)
        results = lemma2_hypothesis_check(xi, d, [power(4)])
        assert results[0].verdict == "CONSISTENT"
        assert results[0].rhs == 8.0

    def test_class_c_failure_aborts_that_profile(self):
        results = lemma2_hypothesis_check(np.ones(50), 2, [power(2.5), power(4)])
        assert results[0].verdict == "SKIPPED_CLASS_C"
        assert results[1].verdict == "CONSISTENT"

    def test_rejects_negative_samples(self):
        with pytest.raises(ValueError):
            lemma2_hypothesis_check(np.array([0.5, -0.1]), 2, [power(2)])


class TestKwapien:
    def test_p4_exact(self):
        verdict = kwapien_check([1.0, 1.0], 2, 4)
        assert verdict.lhs == 6.0
        assert verdict.rhs == 32.0  # 4 * chi_moment(2, 4) = 4 * 8
        assert verdict.holds and verdict.conclusive

    def test_p3_single_coefficient(self):
        verdict = kwapien_check([1.0], 3, 3)
        assert verdict.lhs == 1.0
        assert verdict.rhs == pytest.approx(chi_moment(3, 3), rel=1e-14)
        assert verdict.method == "exact-constant-norm"

    def test_general_scaling(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            a1 = float(rng.uniform(0.2, 3.0))
            d = int(rng.integers(1, 9))
            verdict = kwapien_check([a1], d, 4)
            assert verdict.lhs == pytest.approx(a1**4, rel=1e-12)
            assert verdict.rhs == pytest.approx(a1**4 * d * (d + 2), rel=1e-12)
            assert verdict.holds

    def test_mc_p3_p5_hold(self):
        for p, seed in ((3.0, 9), (5.0, 10)):
            verdict = kwapien_check([0.6, 0.8], 3, p, samples=100_000, seed=seed)
            assert verdict.holds and verdict.conclusive

    def test_p_below_three_rejected(self):
        with pytest.raises(ValueError):
            kwapien_check([1.0], 2, 2.5)
        with pytest.raises(ValueError):
            kwapien_check([1.0], 2, 2.0)

    def test_p2_override_margin(self):
        verdict = kwapien_check([0.6, 0.8], 3, 2.0, allow_p2=True)
        assert verdict.lhs == 1.0
        assert verdict.rhs == 3.0  # slack factor d
        assert "exploratory" in verdict.note

"""Tests for the constant catalog and closed-form bound evaluators."""

import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spheretail import (
    TailQuery,
    chi_tail,
    constant_table,
    corollary_bound,
    g_lower,
    get_constant,
    phi_cdf,
    q_lower,
    scale,
    theorem_bound,
)
from spheretail.bounds import sum_sq

SQRT2 = math.sqrt(2.0)

from coefficient_strategies import coefficient_lists, signs_and_order_moved


class TestConstants:
    def test_c3_formula(self):
        c3 = get_constant("c3")
        assert c3.value == 2.0 * math.e**3 / 9.0
        assert 4.46 < c3.value < 4.47

    def test_c_star_from_phi(self):
        cstar = get_constant("cstar")
        # independent route: P(|Z| >= sqrt 2) = erfc(1)
        assert cstar.value == pytest.approx(0.5 / math.erfc(1.0), rel=1e-14)
        assert 3.17 < cstar.value < 3.18

    def test_e_squared_and_397(self):
        assert get_constant("e2").value == math.e**2
        assert get_constant("nt397").value == 397.0

    def test_headline_improvement_ratio(self):
        ratio = get_constant("nt397").value / get_constant("c3").value
        assert 88.9 < ratio < 89.0

    def test_table_contents(self):
        names = [c.name for c in constant_table()]
        assert names == ["C3", "C_STAR", "E_SQUARED", "NT397"]
        assert all(c.value > 0 for c in constant_table())

    def test_lookup_aliases(self):
        assert get_constant("C_STAR") is get_constant("cstar")
        assert get_constant(get_constant("c3")) is get_constant("c3")
        with pytest.raises(ValueError):
            get_constant("c4")


class TestScale:
    def test_equal_coefficients(self):
        assert scale([1, 1, 1, 1], 4) == 1.0
        assert scale([1], 1) == 1.0

    def test_three_four(self):
        assert scale([3, 4], 2) == pytest.approx(math.sqrt(12.5), rel=1e-15)

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            scale([0.0, 0.0], 2)
        with pytest.raises(ValueError):
            scale([], 2)
        with pytest.raises(ValueError):
            scale([math.nan], 2)

    def test_normalised_equal_coefficients_have_scale_one(self):
        # ten entries of 1/sqrt(10) sum to 1.0 exactly once rounded
        assert scale([1.0 / math.sqrt(10.0)] * 10, 1) == 1.0

    @settings(derandomize=True, deadline=None)
    @given(
        st.lists(
            st.builds(math.ldexp, st.floats(-1.0, 1.0), st.integers(-520, 520)),
            min_size=1,
            max_size=12,
        ),
        st.integers(1, 1000),
    )
    def test_unscaled_bits_where_every_square_is_normal(self, coeffs, d):
        # multiplying by a power of two s <= 1 is exact while no square is subnormal
        squares = [a * a for a in coeffs if a != 0.0]
        assume(squares and min(squares) >= sys.float_info.min)
        reference = sum_sq(coeffs) / d
        assume(sys.float_info.min <= reference < math.inf)
        assert scale(coeffs, d) == math.sqrt(reference)

    def test_subnormal_squares_keep_full_precision(self):
        # (1e-160)^2 is subnormal; unscaled, the scale came out 9.99994e-161
        assert scale([1e-160, 1e-160], 2) == 1e-160
        # a power of two moves no bit, though these squares are subnormal
        tiny = [-3e-160, 4e-160]
        assert scale(tiny, 3) == math.ldexp(scale([math.ldexp(a, 600) for a in tiny], 3), -600)


class TestSumOfSquares:
    def test_overflow_is_inf_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # a square overflows, or the squares overflow only when summed
            assert sum_sq([1e200, 1e200]) == math.inf
            assert sum_sq([1.2e154, 1.2e154]) == math.inf

    def test_correctly_rounded(self):
        # summed left to right, 1e16 + 1 rounds back to 1e16 (twice)
        assert sum_sq(np.array([1e8, 1.0, -1.0])) == 1e16 + 2.0
        assert sum_sq([0.1, 0.2, 0.3, 0.7]) == math.fsum([0.1**2, 0.2**2, 0.3**2, 0.7**2])




class TestBoundProperties:
    @settings(derandomize=True, deadline=None)
    @given(coefficient_lists, st.integers(1, 50), st.floats(-10.0, 1e4), st.data())
    def test_invariant_under_signs_and_order(self, coeffs, d, u, data):
        moved = signs_and_order_moved(data, coeffs)
        assert scale(moved, d) == scale(coeffs, d)
        assert (
            theorem_bound(TailQuery(d, tuple(moved), u)).raw
            == theorem_bound(TailQuery(d, tuple(coeffs), u)).raw
        )
        # radius bounds must be positive, so only their order can move
        radii = [abs(a) for a in coeffs if a != 0.0]
        moved_radii = data.draw(st.permutations(radii))
        for variant in ("per_dimension", "as_printed"):
            assert (
                corollary_bound(d, moved_radii, u, variant=variant).raw
                == corollary_bound(d, radii, u, variant=variant).raw
            )


class TestTheoremBound:
    def test_zero_threshold_caps(self):
        res = theorem_bound(TailQuery(3, (1.0, 1.0, 1.0), 0.0), "c3")
        assert res.raw == get_constant("c3").value
        assert res.capped == 1.0

    def test_d2_closed_form(self):
        res = theorem_bound(TailQuery(2, (SQRT2,), 2.0), "c3")
        assert res.scale == pytest.approx(1.0, rel=1e-15)
        assert res.raw == pytest.approx(
            get_constant("c3").value * math.exp(-2.0), rel=1e-13
        )

    def test_d1_identity_with_cstar(self):
        res = theorem_bound(TailQuery(1, (1 / SQRT2, 1 / SQRT2), 1.4), "cstar")
        expected = get_constant("cstar").value * 2.0 * (1.0 - phi_cdf(1.4))
        assert res.raw == pytest.approx(expected, rel=1e-12)

    def test_negative_threshold_factor_one(self):
        res = theorem_bound(TailQuery(5, (0.3, 0.4), -2.0), "e2")
        assert res.raw == get_constant("e2").value

    def test_threshold_over_a_tiny_scale(self):
        # u / scale overflows to +-inf: the chi tail there is 0 (1 below zero)
        res = theorem_bound(TailQuery(2, (1e-150, 1e-150), 1e200), "c3")
        assert res.scale == 1e-150
        assert res.raw == res.capped == 0.0
        res = theorem_bound(TailQuery(2, (1e-150, 1e-150), -1e200), "c3")
        assert res.raw == get_constant("c3").value

    def test_constant_ratio_is_pure(self):
        rng = np.random.default_rng(3)
        expected = get_constant("c3").value / get_constant("cstar").value
        for _ in range(25):
            d = int(rng.integers(1, 8))
            coeffs = tuple(rng.uniform(0.1, 2.0, size=rng.integers(1, 6)))
            u = float(rng.uniform(0.0, 4.0))
            r3 = theorem_bound(TailQuery(d, coeffs, u), "c3")
            rs = theorem_bound(TailQuery(d, coeffs, u), "cstar")
            if rs.raw > 0:
                assert r3.raw / rs.raw == pytest.approx(expected, rel=1e-12)


class TestCorollaryBound:
    def test_d1_coincides_with_theorem(self):
        coeffs = (1.0,) * 5
        for u in (0.5, 1.5, 3.0):
            cor = corollary_bound(1, coeffs, u, "c3", variant="as_printed")
            thm = theorem_bound(TailQuery(1, coeffs, u), "c3")
            assert cor.raw == pytest.approx(thm.raw, rel=1e-14)

    def test_d2_both_variants(self):
        c3 = get_constant("c3").value
        printed = corollary_bound(2, (1.0, 1.0), 2.0, "c3", variant="as_printed")
        assert printed.raw == pytest.approx(c3 * math.exp(-1.0), rel=1e-13)
        per_dim = corollary_bound(2, (1.0, 1.0), 2.0, "c3", variant="per_dimension")
        assert per_dim.raw == pytest.approx(c3 * math.exp(-2.0), rel=1e-13)

    def test_per_dimension_never_looser(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            d = int(rng.integers(2, 12))
            radii = tuple(rng.uniform(0.2, 3.0, size=rng.integers(1, 6)))
            u = float(rng.uniform(0.01, 5.0))
            pd = corollary_bound(d, radii, u, "c3", variant="per_dimension")
            ap = corollary_bound(d, radii, u, "c3", variant="as_printed")
            assert pd.raw <= ap.raw + 1e-15

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(ValueError):
            corollary_bound(2, (1.0, 0.0), 1.0)
        with pytest.raises(ValueError):
            corollary_bound(2, (1.0, -0.5), 1.0)
        with pytest.raises(ValueError):
            corollary_bound(2, (1.0, 1.0), 1.0, variant="bogus")


class TestLowerBoundFunctions:
    def test_g_at_two_is_inverse_e_squared(self):
        assert g_lower(2) == pytest.approx(math.exp(-2.0), abs=1e-14)

    def test_g_at_four_exceeds(self):
        assert g_lower(4) > math.exp(-2.0)

    def test_g_at_one_identity(self):
        assert g_lower(1) == pytest.approx(
            2.0 * (1.0 - phi_cdf(math.sqrt(3.0))), abs=1e-13
        )

    def test_q_at_one(self):
        assert q_lower(1) == pytest.approx(1.0 - phi_cdf(math.sqrt(6.0)), abs=1e-13)

    def test_q_at_four_exceeds_inverse_e_squared(self):
        assert q_lower(4) > math.exp(-2.0)

    def test_q_monotone_spot_pair(self):
        assert q_lower(10) > q_lower(4)

    def test_chain_over_wide_range(self):
        qs = [q_lower(d) for d in range(1, 1001)]
        assert all(b > a for a, b in zip(qs, qs[1:]))
        for d in range(1, 1001):
            assert g_lower(d) > q_lower(d)

    def test_sqrt_d_tail_floor(self):
        for d in range(2, 1001):
            assert chi_tail(d, math.sqrt(d)) >= math.exp(-1.0) - 1e-12

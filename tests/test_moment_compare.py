"""Tests for class-C membership, bisubharmonicity, majorization, and the
moment-comparison checks."""

import hashlib
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spheretail
from spheretail import (
    MajorizationPair,
    RngStream,
    bc_comparison_check,
    bisub_rule,
    chi_expectation,
    chi_moment,
    cosh_profile,
    fourth_moment_exact,
    gaussian_comparison_check,
    gaussian_fourth_moment,
    is_bisubharmonic_numeric,
    is_class_c,
    kwapien_check,
    lemma2_hypothesis_check,
    parse_test_function,
    power,
    sample_sum_norms,
    scale,
    second_moment_exact,
    softplus_squared,
)
from spheretail import sampling
from spheretail.cli import main
from spheretail.moment_compare import (
    ClassCReport,
    _certify_comparison_function,
    majorization_failure,
)

from coefficient_strategies import coefficient_lists, signs_and_order_moved


#: the digest of ``quadrature_margins_digest`` for each x86 kernel family:
#: numpy's AVX-512 float64 power, cosh and logaddexp round some last bits
#: differently from its AVX2 and baseline kernels, which agree
MARGIN_DIGESTS = {
    "AVX-512": "cb3a24660ac476f24f7b9d56287c6908ba9d32976af3f72b693eab4bd163f9d4",
    "AVX2 or baseline": "fb09ab85f603ecf81a0bdb59c3808babd92f893ad9bf814c582401d6daa28c56",
}
#: a process started with this environment takes numpy's AVX2 or baseline kernels
NO_AVX512 = {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}


def quadrature_margins_digest() -> str:
    """sha256 of the repr of every quadrature margin of seven profiles at
    d in {1, 2, 3, 5, 10}, bit for bit."""
    fns = [power(0.5), power(3), power(6), cosh_profile(1.0), cosh_profile(2.0),
           softplus_squared(), power(4).negate()]
    text = "".join(
        repr([tr.margin for tr in is_bisubharmonic_numeric(fn, d, method="quadrature").triples])
        for fn in fns
        for d in (1, 2, 3, 5, 10)
    )
    return hashlib.sha256(text.encode()).hexdigest()


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

    def test_parse_tokens(self):
        assert parse_test_function("power2.5").param == 2.5
        assert parse_test_function("cosh").param == 1.0
        assert parse_test_function("cosh2").param == 2.0
        assert parse_test_function("-power4").sign == -1.0
        assert parse_test_function("neg_power4").sign == -1.0
        assert parse_test_function("softplus_squared").kind == "softplus_squared"
        with pytest.raises(ValueError):
            parse_test_function("gauss4")
        # a kind without a number names the token, not the float parser
        for token in ("power", "cosh:", "powerx", "-power"):
            with pytest.raises(ValueError, match=f"unknown test function '{token}'"):
                parse_test_function(token)

    def test_softplus_squared_is_even_and_anchored(self):
        fn = softplus_squared()
        x = np.linspace(-3, 3, 31)
        assert np.allclose(fn.h(x), fn.h(-x), atol=1e-12)
        assert fn.h([0.0])[0] == 0.0

    # a profile is checked where it is built, so no rule meets an invalid one
    @pytest.mark.parametrize(
        "args, message",
        [
            (("bump",), "unknown test-function kind 'bump'"),
            *((("power", p), f"power exponent must be finite and >= 0, got {p!r}")
              for p in (math.nan, math.inf, -1.0)),
            *((("cosh", r), f"cosh rate must be finite and > 0, got {r!r}")
              for r in (0.0, math.nan)),
            *((("power", 4.0, s), f"test-function sign must be finite and nonzero, got {s!r}")
              for s in (0.0, math.nan, math.inf)),
            *((("softplus_squared", q), f"softplus_squared takes no parameter, got {q!r}")
              for q in (5.0, math.nan)),
        ],
        ids=repr,
    )
    def test_invalid_profile_is_not_built(self, args, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            spheretail.TestFunction(*args)


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
        assert report.failed == "a power p >= 3 needs sign > 0"

    # the rule's table: s |x|^p passes iff p in {0, 2} or (p >= 3 and s > 0),
    # s cosh(c x) iff s > 0, and softplus^2 at neither sign
    @pytest.mark.parametrize(
        "fn, failed",
        [
            (power(0), ""),
            (power(0).negate(), ""),
            (power(2), ""),
            (power(2).negate(), ""),
            (power(3), ""),
            (power(7.5), ""),
            (spheretail.TestFunction("power", 4.0, 1e-5), ""),
            (power(0.5), "p = 0.5 < 2 leaves h'' unbounded at 0"),
            (power(1).negate(), "p = 1 < 2 leaves h'' unbounded at 0"),
            (power(2.5), "h'' ~ |x|^(p-2) is not convex for 2 < p = 2.5 < 3"),
            (power(2.95).negate(), "h'' ~ |x|^(p-2) is not convex for 2 < p = 2.95 < 3"),
            (power(3).negate(), "a power p >= 3 needs sign > 0"),
            (spheretail.TestFunction("power", 4.0, -1e-5), "a power p >= 3 needs sign > 0"),
            (spheretail.TestFunction("power", 2.5, 1e-5),
             "h'' ~ |x|^(p-2) is not convex for 2 < p = 2.5 < 3"),
            (cosh_profile(0.1), ""),
            (cosh_profile(400.0), ""),  # nothing is evaluated, so nothing overflows
            (spheretail.TestFunction("cosh", 1.0, 1e-5), ""),
            # h'' = -c^2 cosh(c x) is concave however small the rate c
            *((cosh_profile(c).negate(), "a cosh profile needs sign > 0")
              for c in (0.01, 0.05, 0.1, 0.14, 2.0)),
            (softplus_squared(), "h'''' < 0 at 1.028 < |x| < 4.003"),
            (softplus_squared().negate(), "h'''' < 0 at x = 0"),
        ],
        ids=lambda v: (
            f"{v.kind}{v.param:g}*{v.sign:g}" if isinstance(v, spheretail.TestFunction)
            else "fails" if v else "passes"
        ),
    )
    def test_rule_table(self, fn, failed):
        assert is_class_c(fn) == ClassCReport(failed == "", failed)

    def test_softplus_squared_fourth_derivative_reference(self):
        # the band and the value at 0 that the rule's softplus^2 entries cite
        def h(x):
            return mpmath.log1p(mpmath.exp(x)) ** 2 + mpmath.log1p(mpmath.exp(-x)) ** 2

        def h4(x):
            return mpmath.diff(h, x, 4)  # the constant -2 ln(2)^2 drops out

        with mpmath.workdps(30):
            assert h4(2) < 0 < h4(0)
            assert mpmath.nstr(h4(0), 3) == "0.403"
            roots = [mpmath.nstr(mpmath.findroot(h4, x0), 4) for x0 in (1, 4)]
        assert roots == ["1.028", "4.003"]


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

    @pytest.mark.parametrize("d", [3, 5])
    def test_mc_margins_come_from_the_engine_stream(self, d):
        # ||y + U sqrt t|| is the engine's two-term sum with rows
        # (sqrt t, +-|y|); both centres share one stream, here over two chunks
        fn, ts, n, seed = power(3), np.linspace(0.5, 3.0, 6), 40_000, 11
        report = is_bisubharmonic_numeric(
            fn, d, y_set=[0.75, 1.5], t_grid=ts, samples=2 * n, seed=seed
        )
        for y in (0.75, 1.5):
            plus, minus = (
                np.array([fn.h(sample_sum_norms([math.sqrt(t), s], d, n, seed)) for t in ts])
                for s in (y, -y)
            )
            profile = 0.5 * (plus + minus)
            margins = profile[:-2] + profile[2:] - 2.0 * profile[1:-1]
            se = margins.std(axis=1, ddof=1) / math.sqrt(n)
            triples = [tr for tr in report.triples if tr.y_norm == y]
            assert [tr.margin for tr in triples] == pytest.approx(
                margins.mean(axis=1).tolist(), rel=1e-12
            )
            assert [tr.se for tr in triples] == pytest.approx(se.tolist(), rel=1e-9)

    def test_quadrature_margins_are_pinned(self):
        # every margin bit for bit as the per-call Gauss-Legendre rule gave it,
        # on one of the two x86 kernel families
        assert quadrature_margins_digest() in MARGIN_DIGESTS.values()

    def test_pins_hold_without_avx512(self, capsys):
        # a fresh process without numpy's AVX-512 kernels gives the other
        # margin digest, and a verify report byte for byte as this one does:
        # a hit count changes only for a norm within rounding of a threshold
        argv = ["verify", "--d", "1,2,3,5,10,30,100", "--n", "1,2,5,10",
                "--patterns", "equal,single,geometric:0.5", "--samples", "65536",
                "--seed", "5", "--format", "csv"]
        code = (
            "from spheretail.cli import main; from test_moment_compare import "
            f"quadrature_margins_digest as digest; print(digest()); main({argv!r})"
        )
        tests = Path(__file__).resolve().parent
        path = os.pathsep.join(
            filter(None, [str(tests.parent / "src"), str(tests), os.environ.get("PYTHONPATH")])
        )
        done = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": path, **NO_AVX512},
            capture_output=True,
            text=True,
            check=True,
        )
        digest, report = done.stdout.split("\n", 1)
        assert digest == MARGIN_DIGESTS["AVX2 or baseline"]
        main(argv)
        assert report == capsys.readouterr().out

    def test_quadrature_rule_is_built_once(self, monkeypatch):
        calls = []
        leggauss = np.polynomial.legendre.leggauss
        monkeypatch.setattr(
            np.polynomial.legendre, "leggauss", lambda deg: calls.append(deg) or leggauss(deg)
        )
        sampling._angle_rule.cache_clear()
        for d in (2, 3, 5, 10):
            is_bisubharmonic_numeric(cosh_profile(1.0), d, method="quadrature")
        assert calls == [257]

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

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 10])
    @pytest.mark.parametrize(
        "token",
        ["power0.5", "power1", "power1.5", "power2", "power2.5", "power3", "power4", "power5",
         "power6", "cosh", "cosh2", "softplus_squared", "-power4", "-cosh", "-power2"],
    )
    def test_quadrature_status_matches_mc(self, token, d):
        # the Monte Carlo estimate is the cross-check of the quadrature, the
        # numerical reference of `bisub_rule`
        fn = parse_test_function(token)
        mc = is_bisubharmonic_numeric(fn, d, seed=0)
        assert is_bisubharmonic_numeric(fn, d, method="quadrature").status == mc.status

    @pytest.mark.parametrize("method", ["mc", "quadrature"])
    def test_a_large_centre_hides_no_failure_at_a_small_one(self, method):
        # |x| in R^3 is not bisubharmonic at y = 0 (margin -0.068); each
        # centre's tolerance comes from its own profile, so the profile of
        # size 1e8 at the second centre does not lift the first one's to 0.1
        alone = is_bisubharmonic_numeric(power(1), 3, y_set=[0.0], method=method)
        both = is_bisubharmonic_numeric(power(1), 3, y_set=[0.0, 1e8], method=method)
        assert alone.status == both.status == "fail"
        assert both.triples[: len(alone.triples)] == alone.triples
        # at y = 0 the profile is sqrt t <= 2; the report keeps the largest atol
        assert alone.atol == 2e-9 and both.atol > 0.09

    def test_a_plain_centre_norm_is_kept_exactly(self):
        # the norm of a tiny centre is not taken through its subnormal square
        report = is_bisubharmonic_numeric(power(4), 3, y_set=[1e-160], method="quadrature")
        assert {t.y_norm for t in report.triples} == {1e-160}
        centre = [3e-160, -4e-160]
        report = is_bisubharmonic_numeric(power(4), 3, y_set=[centre], method="quadrature")
        assert {t.y_norm for t in report.triples} == {5e-160}

    def test_centre_whose_square_overflows_is_named(self):
        for y in (1e200, [1e154, 1e154]):
            with pytest.raises(ValueError, match="^the squared norm of a centre overflows"):
                is_bisubharmonic_numeric(power(2), 3, y_set=[1.0, y], method="quadrature")

    def test_mc_overflow_rejected(self):
        with pytest.raises(ValueError, match="a Monte Carlo mean or its error overflows"):
            is_bisubharmonic_numeric(
                power(4), 3, t_grid=np.linspace(1e-300, 1e300, 3), samples=1000, method="mc"
            )

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            is_bisubharmonic_numeric(power(2), 2, t_grid=[1.0, 2.0])
        with pytest.raises(ValueError):
            is_bisubharmonic_numeric(power(2), 2, t_grid=[-1.0, 1.0, 2.0])
        with pytest.raises(ValueError):
            is_bisubharmonic_numeric(power(2), 2, y_set=[])

    @pytest.mark.parametrize("t_grid", [[0.5, math.nan, 2.0], [0.5, 2.0, math.inf]])
    @pytest.mark.parametrize("method", ["mc", "quadrature"])
    def test_non_finite_grid_rejected(self, t_grid, method):
        # NaN fails both "t <= 0" and "diff <= 0", so it once slipped through
        # as an inconclusive report with margin nan
        with pytest.raises(ValueError, match="t_grid must be finite"):
            is_bisubharmonic_numeric(power(4), 3, t_grid=t_grid, method=method)


_CERTIFY_POWERS = (0, 0.25, 0.5, 1, 1.5, 1.75, 2, 2.25, 2.5, 3, 3.5, 4, 4.5, 5, 5.5, 6, 7, 8)
_CERTIFY_PROFILES = [fn for p in _CERTIFY_POWERS for fn in (power(p), power(p).negate())] + [
    cosh_profile(0.5), cosh_profile(1.0), cosh_profile(2.0), cosh_profile(1.0).negate(),
    softplus_squared(), softplus_squared().negate(),
]


class TestCertificate:
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 10, 30])
    @pytest.mark.parametrize("fn", _CERTIFY_PROFILES, ids=lambda fn: fn.label)
    def test_certificate_is_the_quadrature_pass(self, fn, d):
        # the closed-form rule accepts exactly where the default-centre
        # quadrature passes, except softplus^2 at d >= 3: its negative band
        # lies between those centres
        passed = is_bisubharmonic_numeric(fn, d, method="quadrature").status == "pass"
        false_pass = fn.kind == "softplus_squared" and d >= 3
        try:
            _certify_comparison_function(fn, d)
        except ValueError as exc:
            assert not passed or false_pass
            assert str(exc).startswith(f"{fn.label} is not certified bisubharmonic for d={d} (")
        else:
            assert passed and not false_pass

    @pytest.mark.parametrize("d, y", [(3, 3.0), (5, 4.0)])
    def test_softplus_squared_fails_inside_its_negative_band(self, d, y):
        assert is_bisubharmonic_numeric(softplus_squared(), d, method="quadrature").passed
        report = is_bisubharmonic_numeric(softplus_squared(), d, y_set=[y], method="quadrature")
        assert report.status == "fail"

    def test_negated_norm_is_certified_in_three_dimensions(self):
        # Delta^2 (-|x|) = 8 pi delta in R^3, so the sign decides: |x| itself
        # is refused there, and -|x| is refused in R^2
        _certify_comparison_function(power(1).negate(), 3)
        with pytest.raises(ValueError, match=r"\(sign \(p - 2\) = -1 <= 0\)$"):
            _certify_comparison_function(power(1), 3)
        with pytest.raises(ValueError, match=r"\(p \+ d = 3 < 4\)$"):
            _certify_comparison_function(power(1).negate(), 2)

    @pytest.mark.parametrize(
        "fn, message",
        [
            (power(2.5), "power2.5 is not certified bisubharmonic for d=1 (p + d = 3.5 < 4)"),
            (power(3).negate(),
             "-power3 is not certified bisubharmonic for d=1 (sign (p - 2) = -1 <= 0)"),
            (cosh_profile(2.0).negate(),
             "-cosh2 is not certified bisubharmonic for d=1 (a cosh profile needs sign > 0)"),
            (softplus_squared(), "softplus_squared is not certified bisubharmonic for d=1 "
             "(Delta^2 f < 0 at |x| = 2)"),
        ],
    )
    def test_refusal_names_the_failed_condition(self, fn, message):
        with pytest.raises(ValueError) as info:
            _certify_comparison_function(fn, 1)
        assert str(info.value) == message


#: the rule's status at d = 1, 2, 3, 4, 5, 10, 30 (p: pass, f: fail)
BISUB_TABLE = {
    "power0": "ppppppp", "power0.5": "fffffff", "power1": "fffffff", "power1.5": "fffffff",
    "power2": "ppppppp", "power2.5": "fpppppp", "power3": "ppppppp", "power4": "ppppppp",
    "power6": "ppppppp", "-power0": "ppppppp", "-power0.5": "fffpppp", "-power1": "ffppppp",
    "-power1.5": "ffppppp", "-power2": "ppppppp", "-power2.5": "fffffff", "-power3": "fffffff",
    "-power4": "fffffff", "-power6": "fffffff",
    **{f"cosh{c}": "ppppppp" for c in ("0.01", "0.1", "1", "2")},
    **{f"-cosh{c}": "fffffff" for c in ("0.01", "0.1", "1", "2")},
    "softplus_squared": "fffffff", "-softplus_squared": "fffffff",
}


def softplus_squared_bilaplacian(d: int, r):
    """Delta^2 of softplus^2(||x||) in R^d at radius r, in mpmath: with
    L = d^2/dr^2 + (d-1)/r d/dr and hk the k-th derivative of h,
    L^2 h = h4 + 2 (d-1)/r h3 + (d-1)(d-3)/r^2 h2 - (d-1)(d-3)/r^3 h1."""
    def h(x):
        return mpmath.log1p(mpmath.exp(x)) ** 2 + mpmath.log1p(mpmath.exp(-x)) ** 2

    _, h1, h2, h3, h4 = mpmath.diffs(h, r, 4)
    k = (d - 1) * (d - 3)
    return h4 + 2 * (d - 1) / r * h3 + k / r**2 * h2 - k / r**3 * h1


class TestBisubRule:
    def test_table_on_196_cells(self):
        table = {
            token: "".join(bisub_rule(parse_test_function(token), d)[0][0]
                           for d in (1, 2, 3, 4, 5, 10, 30))
            for token in BISUB_TABLE
        }
        assert len(table) * 7 == 196 and table == BISUB_TABLE

    @pytest.mark.parametrize(
        "fn, d, expected",
        [
            (power(2.5), 1, ("fail", "p + d = 3.5 < 4")),
            (power(1), 3, ("fail", "sign (p - 2) = -1 <= 0")),
            (power(1).negate(), 3, ("pass", "")),  # Delta^2 (-|x|) = 8 pi delta in R^3
            (cosh_profile(0.001).negate(), 3, ("fail", "a cosh profile needs sign > 0")),
            (softplus_squared().negate(), 100, ("fail", "Delta^2 f < 0 at |x| = 0")),
            (softplus_squared(), 1, ("fail", "Delta^2 f < 0 at |x| = 2")),
            (softplus_squared(), 50, ("fail", "Delta^2 f < 0 at |x| = 51")),
            (softplus_squared(), 51, ("inconclusive", "no witness beyond d = 50")),
        ],
        ids=lambda v: v.label if isinstance(v, spheretail.TestFunction) else None,
    )
    def test_conditions_and_witnesses(self, fn, d, expected):
        assert bisub_rule(fn, d) == expected

    def test_softplus_squared_witness_holds_in_mpmath(self):
        # the witness |x| = d + 1 that the rule cites, at every d it cites it
        with mpmath.workdps(60):
            values = [softplus_squared_bilaplacian(d, mpmath.mpf(d + 1)) for d in range(1, 51)]
        assert all(v < 0 for v in values)
        assert [mpmath.nstr(values[d - 1], 2) for d in (1, 15, 50)] == [
            "-0.18", "-2.1e-7", "-1.4e-22"
        ]

    @pytest.mark.parametrize("d", range(1, 9))
    def test_quadrature_fails_softplus_squared_at_the_witness(self, d):
        report = is_bisubharmonic_numeric(softplus_squared(), d, y_set=[d + 1.0],
                                          method="quadrature")
        assert report.status == "fail"

    @pytest.mark.parametrize("d", [1, 3, 10])
    @pytest.mark.parametrize(
        "fn", [softplus_squared().negate(), *(cosh_profile(c).negate() for c in (0.1, 1, 2))],
        ids=lambda fn: fn.label,
    )
    def test_quadrature_fails_negated_profiles_at_the_origin(self, fn, d):
        # Delta^2 f(0) = d (d+2) h4(0) / 3 < 0, h4 the fourth derivative
        assert bisub_rule(fn, d)[0] == "fail"
        assert is_bisubharmonic_numeric(fn, d, y_set=[0.0], method="quadrature").status == "fail"

    @pytest.mark.parametrize("d", [0, 2.0, True])
    def test_dimension_is_checked(self, d):
        with pytest.raises(ValueError, match="dimension"):
            bisub_rule(power(4), d)


class TestSchurMajorization:
    def test_spec_examples(self):
        assert majorization_failure(MajorizationPair((1.0, 0.0), (0.5, 0.5))) is None
        assert majorization_failure(MajorizationPair((0.5, 0.5), (1.0, 0.0))) == 0
        assert majorization_failure(MajorizationPair((0.5, 0.3, 0.2), (0.4, 0.35, 0.25))) is None

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            MajorizationPair((1.0, 0.0), (1.0,))

    def test_negative_entries_rejected(self):
        with pytest.raises(ValueError):
            MajorizationPair((1.0, -0.1), (0.5, 0.4))

    def test_unequal_sums_not_majorized(self):
        pair = MajorizationPair((1.0, 0.0), (0.5, 0.4))
        assert majorization_failure(pair) == 2  # flags the total-sum mismatch

    def test_reflexive_and_permutation_invariant(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            a = rng.uniform(0.0, 1.0, size=rng.integers(1, 7))
            assert majorization_failure(MajorizationPair(tuple(a), tuple(a))) is None
            assert (
                majorization_failure(MajorizationPair(tuple(a), tuple(rng.permutation(a))))
                is None
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
            assert majorization_failure(MajorizationPair(pair_ab.a_sq, tuple(c_sq))) is None

    def test_mixing_always_majorized(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            pair = random_majorized_pair(rng, int(rng.integers(2, 8)))
            assert majorization_failure(pair) is None


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

    def test_unequal_totals_never_read_violated(self):
        # 0.1 + 0.2 and 0.15 + 0.15 round 1 ulp apart, within the majorization
        # tolerance, so the exact margin -5.55e-17 is no counterexample; the
        # note gives the exact sums' gap, rounded once
        pair = MajorizationPair((0.1, 0.2), (0.15, 0.15))
        verdict = bc_comparison_check(power(2), pair, 3)
        assert (verdict.margin, verdict.verdict, verdict.conclusive) == (
            -5.551115123125783e-17, "INCONCLUSIVE", False
        )
        assert verdict.note == "sum b_sq - sum a_sq = -2.78e-17, majorized only within tolerance"
        # pairs drawn as the benchmark draws them: none reads VIOLATED, and a
        # second-moment pair reads INCONCLUSIVE exactly when its exact totals differ
        rng = np.random.default_rng(5)
        inconclusive = 0
        for _ in range(3000):
            n = int(rng.integers(2, 5))
            w = rng.uniform(0.0, 1.0, n)
            w[0] += n
            pair = MajorizationPair(tuple(w / w.sum()), (1.0 / n,) * n)
            equal = math.fsum([*pair.a_sq, *(-v for v in pair.b_sq)]) == 0.0
            two, four = (bc_comparison_check(power(p), pair, 3) for p in (2, 4))
            assert four.verdict == "HOLDS" and two.verdict != "VIOLATED"
            assert (two.verdict == "HOLDS") == equal
            inconclusive += two.verdict == "INCONCLUSIVE"
        assert inconclusive > 0

    def test_an_exact_margin_of_a_gap_alone_never_holds(self):
        # b_sq is a_sq reversed with its largest entry 1 ulp off either way:
        # at equal totals every exact margin here is 0, so an exact margin is
        # the gap's alone, and no exact method may read HOLDS on it; a new
        # exact law that bc takes must join the set below, so none skips
        # the gap rule unseen
        profiles = [power(p) for p in (2, 3, 4, 6)] + [power(2).negate(), cosh_profile(1.0)]
        methods = set()
        for a_sq in ((0.3,), (0.2, 0.1), (0.5, 0.3, 0.2)):
            for step in (-math.inf, math.inf):
                pair = MajorizationPair(a_sq, (*a_sq[:0:-1], math.nextafter(a_sq[0], step)))
                for fn in profiles:
                    verdict = bc_comparison_check(fn, pair, 3, samples=2000)
                    if verdict.method != "mc-crn":
                        methods.add(verdict.method)
                        assert verdict.verdict == "INCONCLUSIVE", (fn.label, pair, verdict)
        assert methods == {"exact-m2", "exact-m4", "exact-constant-norm"}

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

    def test_single_coefficient_is_a_constant_norm(self):
        verdict = gaussian_comparison_check(cosh_profile(), [1.0], 3)
        assert verdict.method == "exact-constant-norm"
        assert verdict.lhs == math.cosh(1.0)
        assert verdict.margin_se == 0.0 and verdict.holds

    def test_second_moment_match_is_exact_in_every_dimension(self):
        # E ||a Z_d||^2 is sum a_i^2 itself, not (sum a_i^2 / d) * d, and the
        # sphere side is the same sum, so the margin is exactly 0 for every
        # coefficient count, dimension and sign (pow(a, 2) is not correctly
        # rounded: it put the square of 0.9411298971417253 1 ulp high)
        rng = np.random.default_rng(17)
        for d in range(1, 61):
            coeffs = rng.uniform(0.1, 2.0, size=int(rng.integers(1, 6)))
            singles = [[a] for a in (0.9411298971417253, *rng.uniform(0.1, 10.0, 2000))]
            for c in (coeffs, *singles):
                for fn in (power(2), power(2).negate()):
                    verdict = gaussian_comparison_check(fn, c, d)
                    assert (verdict.margin, verdict.margin_se) == (0.0, 0.0), (fn.label, c, d)
                    assert verdict.method == "exact-m2" and verdict.holds

    def test_powers_2_and_4_are_the_moment_oracles_at_every_length(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            coeffs, d = rng.uniform(0.1, 10.0, int(rng.integers(1, 4))), int(rng.integers(1, 9))
            two = gaussian_comparison_check(power(2), coeffs, d)
            four = gaussian_comparison_check(power(4), coeffs, d)
            assert (two.lhs, two.method) == (second_moment_exact(coeffs), "exact-m2")
            assert (four.lhs, four.method) == (fourth_moment_exact(coeffs, d), "exact-m4")
            assert kwapien_check(coeffs, d, 4).lhs == four.lhs

    def test_sign_scales_both_sides(self):
        fn = spheretail.TestFunction("power", 4.0, sign=2.0)
        verdict = gaussian_comparison_check(fn, [1.0, 1.0], 2)
        assert (verdict.lhs, verdict.rhs, verdict.margin) == (12.0, 16.0, 4.0)

    def test_cosh_mc_vs_quadrature(self):
        verdict = gaussian_comparison_check(
            cosh_profile(1.0), [1.0, 1.0], 3, samples=100_000, seed=6
        )
        assert verdict.holds and verdict.conclusive
        assert verdict.rhs_se == 0.0  # Gaussian side is the exact 1F1

    @pytest.mark.parametrize("d, c", [(1, 0.5), (2, 1.0), (3, 2.0), (5, 0.1), (10, 1.5)])
    def test_cosh_gaussian_side_agrees_with_the_chi_quadrature(self, d, c):
        coeffs = [0.6, 0.8, 1.1]
        a = math.sqrt(second_moment_exact(coeffs) / d)
        quad = chi_expectation(d, lambda r: np.cosh(c * a * r))
        rhs = gaussian_comparison_check(cosh_profile(c), coeffs, d, samples=2000).rhs
        assert rhs == pytest.approx(quad, rel=1e-10)

    def test_cosh_gaussian_side_past_the_quadrature(self):
        # E cosh(20 ||Z_2||) = 1F1(1; 1/2; 200) = 1.8113e88, where the chi
        # quadrature's integrand overflows before the density decays
        with mpmath.workdps(30):
            exact = float(mpmath.hyp1f1(1, 0.5, 200))
        verdict = gaussian_comparison_check(cosh_profile(20.0), [1.0, 1.0], 2, samples=2000)
        assert verdict.rhs == pytest.approx(exact, rel=1e-14) and verdict.holds


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

    def test_gently_concave_profile_is_skipped(self):
        # h'' = -0.01 cosh(0.1 x) is concave; the rule names why it is skipped
        [res] = lemma2_hypothesis_check(np.ones(50), 3, [cosh_profile(0.1).negate()])
        assert res.verdict == "SKIPPED_CLASS_C" and math.isnan(res.lhs)
        assert res.class_c == ClassCReport(False, "a cosh profile needs sign > 0")

    def test_rejects_negative_samples(self):
        with pytest.raises(ValueError):
            lemma2_hypothesis_check(np.array([0.5, -0.1]), 2, [power(2)])

    def test_conclusive_excess_is_violated(self):
        # xi = 3 has E xi^4 = 81, far above E ||Z_2||^4 = 8, with no spread
        [res] = lemma2_hypothesis_check(np.full(1000, 3.0), 2, [power(4)])
        assert res.verdict == "VIOLATED" and res.conclusive
        assert (res.lhs, res.rhs) == (81.0, 8.0)
        assert res.note == "empirical mean conclusively exceeds the Gaussian side"


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
        with pytest.raises(ValueError, match=r"p=2.0 is outside the p >= 3 range"):
            kwapien_check([1.0], 2, 2.0)
        with pytest.raises(ValueError, match=r"p=nan is outside the p >= 3 range"):
            kwapien_check([1.0], 2, math.nan)

    def test_mc_standard_error_matches_two_pass(self):
        # a nearly constant norm, on which a one-pass sum-of-squares
        # variance would cancel to 0
        coeffs, d, p, n = [1.0, 1e-9], 3, 3.5, 200_000
        verdict = kwapien_check(coeffs, d, p, n, 0)
        values = sample_sum_norms(coeffs, d, n, seed=0) ** p
        expected = np.std(values, ddof=1) / math.sqrt(n)
        assert expected > 0.0
        assert verdict.lhs_se == pytest.approx(expected, rel=1e-6)

    def test_constant_norm_has_no_mc_error(self):
        # a zero second coefficient keeps the norm exactly 0.3
        verdict = kwapien_check([0.3, 0.0], 3, 3.5)
        assert verdict.method == "exact-constant-norm"
        assert verdict.lhs_se == 0.0


# one Monte Carlo call of each comparison check, as a function of alpha
MC_CHECKS = {
    "bc": lambda alpha: bc_comparison_check(
        cosh_profile(1.0), MajorizationPair((0.5, 0.3, 0.2), (0.4, 0.35, 0.25)), 3,
        samples=1000, alpha=alpha,
    ),
    "gauss": lambda alpha: gaussian_comparison_check(
        cosh_profile(1.0), (0.6, 0.8), 3, samples=1000, alpha=alpha
    ),
    "kwapien": lambda alpha: kwapien_check((0.6, 0.8), 3, 3, samples=1000, alpha=alpha),
}


@pytest.mark.parametrize("check", MC_CHECKS.values(), ids=MC_CHECKS.keys())
@pytest.mark.parametrize("alpha", [0.0, 1.5, math.nan])
def test_bad_alpha_fails_before_sampling(monkeypatch, check, alpha):
    chunks = []
    generator = RngStream.generator
    monkeypatch.setattr(
        RngStream, "generator", lambda self: chunks.append(self) or generator(self)
    )
    assert check(0.05).method in ("mc-crn", "mc-vs-exact") and chunks
    chunks.clear()
    with pytest.raises(ValueError, match=r"alpha must lie in \(0, 1\)"):
        check(alpha)
    assert chunks == []


class TestMomentOracleProperties:
    @settings(derandomize=True, deadline=None)
    @given(coefficient_lists, st.integers(1, 50), st.data())
    def test_invariant_under_signs_and_order(self, coeffs, d, data):
        moved = signs_and_order_moved(data, coeffs)
        assert second_moment_exact(moved) == second_moment_exact(coeffs)
        assert fourth_moment_exact(moved, d) == fourth_moment_exact(coeffs, d)
        assert gaussian_fourth_moment(moved, d) == gaussian_fourth_moment(coeffs, d)

    @settings(derandomize=True, deadline=None)
    @given(coefficient_lists, st.integers(1, 50))
    def test_gaussian_fourth_moment_dominates(self, coeffs, d):
        assert fourth_moment_exact(coeffs, d) <= gaussian_fourth_moment(coeffs, d)

"""Acceptance suite: the package's exit criteria.

One test per criterion, each printing a PASS line when its assertions hold
(run with ``pytest -v`` to see per-criterion outcomes, ``-s`` to see the
printed lines).  Expected values come from closed forms, exact enumeration,
or independent in-test samplers; statistical assertions use fixed seeds and
are therefore deterministic.
"""

import json
import math

import numpy as np
import pytest

import spheretail
from spheretail import (
    MajorizationPair,
    bc_comparison_check,
    chi_tail,
    cosh_profile,
    exact_rademacher_tail,
    fourth_moment_exact,
    gaussian_comparison_check,
    gaussian_fourth_moment,
    get_constant,
    g_lower,
    is_bisubharmonic_numeric,
    is_class_c,
    kwapien_check,
    phi_cdf,
    power,
    q_lower,
    run_sweep,
    softplus_squared,
)
from spheretail.cli import main as cli_main

SQRT2 = math.sqrt(2.0)
INV_E2 = math.exp(-2.0)


def test_criterion_01_special_function_exactness():
    assert abs(chi_tail(2, 2.0) - INV_E2) <= 1e-12

    for u in np.linspace(0.0, 8.0, 100):
        u = float(u)
        assert abs(chi_tail(1, u) - 2.0 * (1.0 - phi_cdf(u))) <= 1e-12

    for d in (2, 4, 6, 8, 10):
        for u in np.linspace(0.05, 7.0, 60):
            x = 0.5 * float(u) ** 2
            poisson = math.fsum(
                math.exp(-x) * x**k / math.factorial(k) for k in range(d // 2)
            )
            assert abs(chi_tail(d, float(u)) - poisson) <= 1e-12
    print("PASS criterion 1: special-function exactness (chi tail identities)")


def test_criterion_02_lower_bound_chain():
    g = np.array([g_lower(d) for d in range(1, 1001)])
    q = np.array([q_lower(d) for d in range(1, 1001)])
    assert np.all(g > q), "g(d) > q(d) chain broken"
    assert np.all(np.diff(q) > 0), "q must be strictly increasing"
    assert q_lower(4) > INV_E2
    assert abs(g[1] - INV_E2) <= 1e-12  # d = 2: equality
    assert np.all(g[2:] > INV_E2 + 1e-6)  # d >= 3: strictly above
    for d in range(2, 1001):
        assert chi_tail(d, math.sqrt(d)) >= math.exp(-1.0) - 1e-12
    print("PASS criterion 2: lower-bound chain g > q, monotonicity, tail floors")


def test_criterion_03_constants():
    c3 = get_constant("c3").value
    assert abs(c3 - 2.0 * math.e**3 / 9.0) <= 1e-12
    assert 4.46 < c3 < 4.47
    cstar = get_constant("cstar").value
    assert 3.17 < cstar < 3.18
    assert cstar == pytest.approx(0.5 / (2.0 * (1.0 - phi_cdf(SQRT2))), rel=1e-14)
    ratio = get_constant("nt397").value / c3
    assert 88.9 < ratio < 89.0
    print(f"PASS criterion 3: constants c3={c3:.10f} c*={cstar:.10f} 397/c3={ratio:.4f}")


def test_criterion_04_gaussian_dominance_identity():
    rng = np.random.default_rng(2024)
    for d in (1, 2, 3, 5, 10):
        for _ in range(50):
            coeffs = rng.uniform(-2.0, 2.0, size=int(rng.integers(1, 9)))
            coeffs[0] = float(rng.uniform(0.3, 2.0))
            m4 = fourth_moment_exact(coeffs, d)
            g4 = gaussian_fourth_moment(coeffs, d)
            assert m4 <= g4 + 1e-12 * g4
            gap = (2.0 / d) * float(np.sum(np.asarray(coeffs) ** 4))
            assert g4 - m4 == pytest.approx(gap, rel=1e-12, abs=1e-12)

    # validate the closed form against an independent brute-force sampler
    # (own generator, own normalization) at 1e7 samples before trusting it
    for coeffs, d, seed in (((0.6, 0.8, 1.1), 3, 7), ((1.0, 0.7), 5, 8)):
        rng = np.random.default_rng(seed)
        a = np.asarray(coeffs)
        total = 0.0
        total_sq = 0.0
        n_total = 10_000_000
        step = 1_000_000
        for _ in range(n_total // step):
            g = rng.normal(size=(step, a.size, d))
            g /= np.linalg.norm(g, axis=2, keepdims=True)
            s = (a[None, :, None] * g).sum(axis=1)
            v = (s * s).sum(axis=1) ** 2
            total += float(v.sum())
            total_sq += float(v @ v)
        mean = total / n_total
        var = (total_sq - n_total * mean * mean) / (n_total - 1)
        se = math.sqrt(var / n_total)
        assert abs(mean - fourth_moment_exact(coeffs, d)) <= 5.0 * se
    print("PASS criterion 4: fourth-moment dominance gap exact, oracle MC-validated")


def test_criterion_05_theorem_sweep():
    from spheretail.report import CoefficientPattern

    records, summary = run_sweep(
        dimensions=(1, 2, 3, 5, 10),
        n_values=(1, 2, 5, 10),
        patterns=(
            CoefficientPattern("equal"),
            CoefficientPattern("single"),
            CoefficientPattern("geometric", ratio=0.5),
        ),
        samples=1_000_000,
        seed=20240613,
        alpha=0.01,
        constants=("c3",),
        workers=2,
    )
    assert summary.n_records == 5 * 4 * 3 * 7
    assert summary.violated == 0, [r for r in records if r.verdict == "VIOLATED"]
    print(
        f"PASS criterion 5: theorem sweep {summary.n_records} records, "
        f"0 violated ({summary.inconclusive} inconclusive), "
        f"max ratio {summary.max_ratio_upper:.4f}"
    )


def test_criterion_06_sharpness_witness():
    coeffs = (1.0 / SQRT2, 1.0 / SQRT2)
    c3 = get_constant("c3").value
    for u in (SQRT2 - 1e-6, SQRT2 - 1e-9):
        lhs = exact_rademacher_tail(coeffs, u, strict=True)
        assert lhs == 0.5  # the atom at sqrt(2) has not been crossed
        ratio = lhs / chi_tail(1, u)
        assert 3.17 <= ratio <= 3.18
        assert ratio < c3
    print("PASS criterion 6: sharpness witness ratio in [3.17, 3.18], below c3")


def test_criterion_07_d1_exact_oracle_suite():
    rng = np.random.default_rng(99)
    c3 = get_constant("c3").value
    cstar = get_constant("cstar").value
    for _ in range(200):
        n = int(rng.integers(1, 13))
        coeffs = rng.normal(size=n)
        while not np.any(coeffs):  # pragma: no cover - essentially impossible
            coeffs = rng.normal(size=n)
        coeffs /= np.linalg.norm(coeffs)
        u_max = float(np.abs(coeffs).sum())
        for u in np.linspace(0.0, 1.02 * u_max, 50):
            lhs = exact_rademacher_tail(coeffs, float(u), strict=True)
            gauss = 2.0 * (1.0 - phi_cdf(float(u)))
            assert lhs <= cstar * gauss + 1e-12
            assert lhs <= c3 * gauss + 1e-12
    print("PASS criterion 7: d=1 exact enumeration bounded by c* and c3 tails")


def test_criterion_08_moment_comparison_suites():
    rng = np.random.default_rng(321)
    dims = (1, 2, 3, 5, 10)
    for i in range(30):
        n = int(rng.integers(2, 7))
        a_sq = rng.integers(1, 64, size=n) / 64.0
        b_sq = 0.5 * rng.permutation(a_sq) + 0.5 * rng.permutation(a_sq)
        pair = MajorizationPair(tuple(a_sq), tuple(b_sq))
        d = dims[i % len(dims)]

        v2 = bc_comparison_check(power(2), pair, d)
        assert v2.margin == 0.0 and v2.conclusive and v2.holds
        v4 = bc_comparison_check(power(4), pair, d)
        assert v4.conclusive and v4.holds

        coeffs = np.sqrt(a_sq)
        g2 = gaussian_comparison_check(power(2), coeffs, d)
        assert g2.margin == pytest.approx(0.0, abs=1e-12) and g2.holds
        g4 = gaussian_comparison_check(power(4), coeffs, d)
        assert g4.conclusive and g4.holds

    for i in range(20):
        coeffs = rng.uniform(0.2, 1.5, size=int(rng.integers(1, 6)))
        d = dims[i % len(dims)]
        for p in (3.0, 4.0, 5.0):
            verdict = kwapien_check(coeffs, d, p, samples=150_000, seed=1000 + i)
            assert verdict.holds
            assert verdict.conclusive or verdict.margin > 5.0 * verdict.margin_se
    print("PASS criterion 8: moment comparisons hold conclusively (bc, gauss, kwapien)")


def test_criterion_09_classifiers():
    analytic_class_c = {2: True, 2.25: False, 2.5: False, 2.75: False,
                        3: True, 3.5: True, 4: True, 5: True}
    for p, expected in analytic_class_c.items():
        assert is_class_c(power(p)).passed is expected, f"power{p}"
    # the closed-form rule decides by kind, exponent and sign however small
    # h'' is, and evaluates nothing, so cosh400 cannot overflow
    rule = {cosh_profile(rate).negate(): False for rate in (0.01, 0.05, 0.1, 0.14)}
    profile = spheretail.TestFunction
    rule |= {profile("power", 4.0, -1e-5): False, profile("power", 2.5, 1e-5): False,
             profile("power", 4.0, 1e-5): True, power(2).negate(): True,
             cosh_profile(400.0): True, softplus_squared(): False,
             softplus_squared().negate(): False}
    for fn, expected in rule.items():
        assert is_class_c(fn).passed is expected, fn

    for d in (2, 3, 5):
        assert is_bisubharmonic_numeric(power(2), d, seed=0).passed
        assert is_bisubharmonic_numeric(power(4), d, seed=0).passed
        assert is_bisubharmonic_numeric(power(4).negate(), d, seed=0).status == "fail"
        # the negated squared norm keeps an affine profile m(t), which is
        # convex: it genuinely is bisubharmonic (zero bi-Laplacian), so the
        # classifier must pass it
        assert is_bisubharmonic_numeric(power(2).negate(), d, seed=0).passed
    print("PASS criterion 9: class-C and bisubharmonicity classifiers correct")


def test_criterion_10_reproducibility(tmp_path, capsys):
    args = [
        "verify", "--d", "1,3", "--n", "1,2", "--patterns", "equal,geometric:0.5",
        "--samples", "50000", "--seed", "77", "--format", "csv",
    ]
    out1 = tmp_path / "run1.csv"
    out2 = tmp_path / "run2.csv"
    assert cli_main(args + ["--workers", "1", "--out", str(out1)]) == 0
    assert cli_main(args + ["--workers", "4", "--out", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()

    json1 = tmp_path / "run1.json"
    json2 = tmp_path / "run2.json"
    jargs = args[:-2] + ["--format", "json", "--no-timestamp"]
    assert cli_main(jargs + ["--workers", "1", "--out", str(json1)]) == 0
    assert cli_main(jargs + ["--workers", "4", "--out", str(json2)]) == 0
    capsys.readouterr()
    assert json1.read_bytes() == json2.read_bytes()
    doc = json.loads(json1.read_text())
    assert doc["summary"]["violated"] == 0
    print("PASS criterion 10: byte-identical reports across worker counts")

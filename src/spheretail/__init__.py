"""Tail-comparison bounds for norms of sums of uniform-on-sphere random
vectors, with exact oracles and seeded Monte Carlo verification.

The names imported below are the public API."""

__version__ = "0.1.0"

from .bounds import (
    BoundConstant,
    BoundResult,
    TailQuery,
    constant_table,
    corollary_bound,
    g_lower,
    get_constant,
    q_lower,
    scale,
    theorem_bound,
)
from .gaussian_chi import (
    chi_expectation,
    chi_moment,
    chi_pdf,
    chi_tail,
    chi_tail_inverse,
    chi_tail_log,
    phi_cdf,
    phi_tail,
)
from .moment_compare import (
    ComparisonVerdict,
    HypothesisResult,
    MajorizationPair,
    TestFunction,
    bc_comparison_check,
    bisub_rule,
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
    second_moment_exact,
    softplus_squared,
)
from .report import (
    CoefficientPattern,
    VerificationRecord,
    run_sweep,
)
from .sampling import (
    CapacityError,
    McEstimate,
    RngStream,
    clopper_pearson,
    exact_rademacher_tail,
    judge,
    mc_tail_multi,
    sample_sum_norms,
)

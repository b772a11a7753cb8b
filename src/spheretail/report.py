"""Verification sweeps and machine-readable reports (CSV / JSON).

The CSV column order is frozen; reports are byte-deterministic for a fixed
(flags, seed) pair: floats are serialized with ``repr`` (shortest
round-trip), and the only nondeterministic field -- the JSON timestamp --
can be omitted.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Sequence

import numpy as np

from .bounds import (
    BoundConstant,
    BoundResult,
    TailQuery,
    coeff_array,
    get_constant,
    scale,
    theorem_bound,
)
from .gaussian_chi import chi_tail, chi_tail_inverse
from .sampling import CapacityError, McEstimate, mc_tail_multi

#: frozen CSV schema, one row per (query, constant)
CSV_COLUMNS = (
    "d",
    "n",
    "pattern",
    "u",
    "scale",
    "constant_name",
    "constant_value",
    "bound_raw",
    "bound_capped",
    "p_hat",
    "ci_low",
    "ci_high",
    "hits",
    "samples",
    "seed",
    "verdict",
)

#: default tail quantiles of the Gaussian comparator at which thresholds are
#: placed, so Monte Carlo effort concentrates where the inequality is
#: informative
DEFAULT_QUANTILES = (0.5, 0.25, 0.1, 0.05, 0.01, 0.005, 0.001)

DEFAULT_BUDGET = 100_000_000


class BudgetError(CapacityError):
    """The sweep would draw more Monte Carlo samples than the budget allows."""


@dataclass(frozen=True)
class CoefficientPattern:
    """A named recipe for a coefficient vector of a given length."""

    kind: str  # "equal" | "single" | "geometric" | "explicit"
    ratio: float = 0.5
    values: tuple[float, ...] = ()

    def materialize(self, n: int, normalize: bool = True) -> np.ndarray:
        if self.kind == "equal":
            a = np.ones(n)
        elif self.kind == "single":
            a = np.zeros(n)
            a[0] = 1.0
        elif self.kind == "geometric":
            a = self.ratio ** np.arange(n, dtype=float)
        elif self.kind == "explicit":
            a = np.asarray(self.values, dtype=float)
        else:
            raise ValueError(f"unknown pattern kind {self.kind!r}")
        a = coeff_array(a)
        return a / math.sqrt(float(a @ a)) if normalize else a

    @property
    def label(self) -> str:
        if self.kind == "geometric":
            return f"geometric({self.ratio:g})"
        return self.kind


def parse_pattern(token: str) -> CoefficientPattern:
    """Parse ``equal``, ``single``, ``geometric:<ratio>``, ``explicit:a,b,...``."""
    t = token.strip().lower()
    if t == "equal":
        return CoefficientPattern("equal")
    if t == "single":
        return CoefficientPattern("single")
    if t.startswith("geometric"):
        rest = t[len("geometric") :].lstrip(":")
        return CoefficientPattern("geometric", ratio=float(rest) if rest else 0.5)
    if t.startswith("explicit:"):
        values = tuple(float(v) for v in t.split(":", 1)[1].split(","))
        return CoefficientPattern("explicit", values=values)
    raise ValueError(f"unknown coefficient pattern {token!r}")


def parse_pattern_list(text: str) -> tuple[CoefficientPattern, ...]:
    """Split a comma-separated pattern list, keeping the commas inside an
    ``explicit:a,b,...`` value list attached to their pattern."""
    fragments: list[str] = []
    keywords = ("equal", "single", "geometric", "explicit")
    for frag in text.split(","):
        if fragments and not frag.strip().lower().startswith(keywords):
            fragments[-1] += "," + frag
        else:
            fragments.append(frag)
    return tuple(parse_pattern(f) for f in fragments)


@dataclass(frozen=True)
class UGrid:
    """Threshold grid: comparator tail quantiles or a linear range."""

    kind: str = "quantile"  # "quantile" | "linear"
    quantiles: tuple[float, ...] = DEFAULT_QUANTILES
    lo: float = 0.0
    hi: float = 1.0
    count: int = 2

    def thresholds(self, d: int, comparator_scale: float) -> list[float]:
        if self.kind == "quantile":
            return [
                comparator_scale * chi_tail_inverse(d, q) for q in self.quantiles
            ]
        if self.count < 2:
            raise ValueError("linear u-grid needs count >= 2")
        return list(np.linspace(self.lo, self.hi, self.count))


@dataclass(frozen=True)
class SweepSpec:
    """Everything cmd_verify needs to run one sweep."""

    dimensions: tuple[int, ...]
    n_values: tuple[int, ...]
    patterns: tuple[CoefficientPattern, ...]
    u_grid: UGrid = UGrid()
    samples: int = 1_000_000
    seed: int = 0
    alpha: float = 0.01
    constants: tuple[str, ...] = ("c3",)
    normalize: bool = True
    workers: int = 1
    budget: int = DEFAULT_BUDGET

    def __post_init__(self):
        if not self.dimensions or not self.patterns:
            raise ValueError("sweep needs at least one dimension and one pattern")
        if any(k.kind != "explicit" for k in self.patterns) and not self.n_values:
            raise ValueError("sweep needs n values for non-explicit patterns")


@dataclass(frozen=True)
class VerificationRecord:
    """One verified (query, constant) cell of a sweep."""

    d: int
    n: int
    pattern: str
    u: float
    scale: float
    bound: BoundResult
    estimate: McEstimate | None
    ratio_upper: float
    verdict: str

    def csv_row(self) -> list[str]:
        est = self.estimate
        return [
            _fmt(self.d),
            _fmt(self.n),
            self.pattern,
            _fmt(self.u),
            _fmt(self.scale),
            self.bound.constant.name,
            _fmt(self.bound.constant.value),
            _fmt(self.bound.raw),
            _fmt(self.bound.capped),
            _fmt(est.p_hat) if est else "",
            _fmt(est.ci_low) if est else "",
            _fmt(est.ci_high) if est else "",
            _fmt(est.hits) if est else "",
            _fmt(est.n_samples) if est else "",
            _fmt(est.seed) if est else "",
            self.verdict,
        ]

    def json_dict(self) -> dict:
        out = {
            "d": self.d,
            "n": self.n,
            "pattern": self.pattern,
            "u": self.u,
            "scale": self.scale,
            "constant_name": self.bound.constant.name,
            "constant_value": self.bound.constant.value,
            "bound_raw": self.bound.raw,
            "bound_capped": self.bound.capped,
            "verdict": self.verdict,
        }
        if self.estimate is not None:
            est = self.estimate
            out.update(
                p_hat=est.p_hat,
                ci_low=est.ci_low,
                ci_high=est.ci_high,
                hits=est.hits,
                samples=est.n_samples,
                seed=est.seed,
                alpha=est.alpha,
                ratio_upper=self.ratio_upper,
            )
        return out


@dataclass(frozen=True)
class SweepSummary:
    n_records: int
    holds: int
    violated: int
    inconclusive: int
    max_ratio_upper: float
    mc_samples_drawn: int

    def json_dict(self) -> dict:
        return {
            "n_records": self.n_records,
            "holds": self.holds,
            "violated": self.violated,
            "inconclusive": self.inconclusive,
            "max_ratio_upper": self.max_ratio_upper,
            "mc_samples_drawn": self.mc_samples_drawn,
        }


def _fmt(v) -> str:
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def classify(estimate: McEstimate, bound: BoundResult) -> str:
    """HOLDS / VIOLATED / INCONCLUSIVE against the raw bound.

    VIOLATED only when the exact-binomial lower confidence limit exceeds the
    raw bound (statistically conclusive at the interval's level).  A raw
    bound >= 1 holds unconditionally since probabilities cannot exceed 1.
    """
    if estimate.ci_low > bound.raw:
        return "VIOLATED"
    if bound.raw >= 1.0 or estimate.ci_high <= bound.raw:
        return "HOLDS"
    return "INCONCLUSIVE"


def sweep_instances(spec: SweepSpec) -> list[tuple[int, int, CoefficientPattern]]:
    """(d, n, pattern) combinations of a sweep, in deterministic order."""
    out = []
    for d in spec.dimensions:
        for pat in spec.patterns:
            if pat.kind == "explicit":
                out.append((d, len(pat.values), pat))
            else:
                for n in spec.n_values:
                    out.append((d, n, pat))
    return out


def run_sweep(spec: SweepSpec) -> tuple[list[VerificationRecord], SweepSummary]:
    """Run the sweep: one Monte Carlo pass per (d, pattern) sharing its
    sample stream over the whole threshold grid, then one record per
    (threshold, constant)."""
    instances = sweep_instances(spec)
    planned = spec.samples * len(instances)
    if planned > spec.budget:
        raise BudgetError(
            f"sweep would draw {planned} Monte Carlo samples over "
            f"{len(instances)} runs, above the budget of {spec.budget}"
        )
    constants = [get_constant(c) for c in spec.constants]
    records: list[VerificationRecord] = []
    max_ratio = 0.0
    for d, n, pat in instances:
        coeffs = pat.materialize(n, spec.normalize)
        a_cmp = scale(coeffs, d)
        thresholds = spec.u_grid.thresholds(d, a_cmp)
        estimates = mc_tail_multi(
            d, coeffs, thresholds, spec.samples, spec.seed, spec.alpha, spec.workers
        )
        for u, est in zip(thresholds, estimates):
            tail = chi_tail(d, u / a_cmp)
            ratio = est.ci_high / tail if tail > 0.0 else math.inf
            max_ratio = max(max_ratio, ratio)
            query = TailQuery(d, tuple(coeffs), u)
            for const in constants:
                bound = theorem_bound(query, const)
                records.append(
                    VerificationRecord(
                        d=d,
                        n=n,
                        pattern=pat.label,
                        u=u,
                        scale=a_cmp,
                        bound=bound,
                        estimate=est,
                        ratio_upper=ratio,
                        verdict=classify(est, bound),
                    )
                )
    summary = SweepSummary(
        n_records=len(records),
        holds=sum(r.verdict == "HOLDS" for r in records),
        violated=sum(r.verdict == "VIOLATED" for r in records),
        inconclusive=sum(r.verdict == "INCONCLUSIVE" for r in records),
        max_ratio_upper=max_ratio,
        mc_samples_drawn=planned,
    )
    return records, summary


def records_to_csv(records: Sequence[VerificationRecord]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for rec in records:
        writer.writerow(rec.csv_row())
    return buf.getvalue()


def records_to_json(
    records: Sequence[VerificationRecord],
    seed: int,
    version: str,
    summary: SweepSummary | None = None,
    timestamp: bool = True,
) -> str:
    meta: dict = {"seed": seed, "version": version}
    if timestamp:
        meta["timestamp"] = datetime.now(timezone.utc).isoformat()
    doc: dict = {"meta": meta}
    if summary is not None:
        doc["summary"] = summary.json_dict()
    doc["records"] = [rec.json_dict() for rec in records]
    return json.dumps(doc, indent=2) + "\n"

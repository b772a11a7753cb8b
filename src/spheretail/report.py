"""Verification sweeps and machine-readable reports (CSV / JSON).

``csv_text`` and ``json_text`` write every CSV and JSON report the package
prints: sweep and bound records, the constants table and check results.
The record CSV column order is frozen; reports are byte-deterministic for a
fixed (flags, seed) pair: floats are serialized with ``repr`` (shortest
round-trip), and the only nondeterministic field -- the JSON timestamp --
can be omitted.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import operator
from collections import Counter
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from typing import Sequence

import numpy as np

from .bounds import BoundResult, coeff_array, comparator_bounds, get_constant, scale, scales
from .gaussian_chi import check_dimension, chi_tail_inverse
from .sampling import CapacityError, McEstimate, judge, mc_tail_batch

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
            with np.errstate(over="ignore"):  # coeff_array rejects the inf
                a = self.ratio ** np.arange(n, dtype=float)
        elif self.kind == "explicit":
            a = np.asarray(self.values, dtype=float)
        else:
            raise ValueError(f"unknown pattern kind {self.kind!r}")
        return a / scale(a, 1) if normalize else coeff_array(a)

    @property
    def label(self) -> str:
        if self.kind == "geometric":
            return f"geometric({self.ratio:g})"
        return self.kind


def parse_pattern(token: str) -> CoefficientPattern:
    """Parse ``equal``, ``single``, ``geometric:<ratio>``, ``explicit:a,b,...``."""
    t = token.strip().lower()
    try:
        if t in ("equal", "single"):
            return CoefficientPattern(t)
        if t.startswith("geometric"):
            rest = t[len("geometric") :].lstrip(":")
            return CoefficientPattern("geometric", ratio=float(rest) if rest else 0.5)
        if t.startswith("explicit:"):
            values = tuple(float(v) for v in t.split(":", 1)[1].split(","))
            return CoefficientPattern("explicit", values=values)
    except ValueError:
        pass  # a malformed number: the token is not a pattern
    raise ValueError(
        f"unknown coefficient pattern {token!r}; expected equal, single, "
        "geometric[:<ratio>] or explicit:<a>,<b>,..."
    )


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
class VerificationRecord:
    """One (query, constant) cell of a sweep; without an estimate it is a
    bare bound, with verdict "" and ratio_upper 0.0.  The verdict judges raw
    bound - tail probability on the Clopper-Pearson interval, which never
    exceeds 1, so a raw bound >= 1 needs no special case."""

    d: int
    n: int
    pattern: str
    u: float
    bound: BoundResult
    estimate: McEstimate | None = None
    ratio_upper: float = field(init=False, default=0.0)
    verdict: str = field(init=False, default="")

    def __post_init__(self):
        if self.estimate is not None:
            tail = self.bound.tail
            ratio = self.estimate.ci_high / tail if tail > 0.0 else math.inf
            object.__setattr__(self, "ratio_upper", ratio)
            raw, est = self.bound.raw, self.estimate
            object.__setattr__(self, "verdict", judge(raw - est.ci_high, raw - est.ci_low))

    def json_dict(self) -> dict:
        out = {
            "d": self.d,
            "n": self.n,
            "pattern": self.pattern,
            "u": self.u,
            "scale": self.bound.scale,
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


def _fmt(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def _reject_repeats(name: str, values, show=str) -> None:
    """Raise ValueError naming the first of ``values`` that appears twice."""
    repeated = [v for v, count in Counter(values).items() if count > 1]
    if repeated:
        raise ValueError(f"{name} value {show(repeated[0])} is repeated; list each value once")


def bound_records(
    d: int, pattern: str, coeffs, thresholds, constants, estimates=None
) -> list[VerificationRecord]:
    """One record per (threshold, constant), in that order; ``estimates``
    holds the Monte Carlo estimate at each threshold, if any."""
    _reject_repeats("threshold", thresholds)
    constants = [get_constant(c) for c in constants]
    _reject_repeats("constant", constants, lambda c: c.name)
    return _records(d, len(coeffs), pattern, scale(coeffs, d), thresholds, constants, estimates)


def _records(d, n, pattern, s, thresholds, constants, estimates) -> list[VerificationRecord]:
    """``bound_records`` of a vector of length n and comparator scale s, on a
    checked grid of distinct thresholds and constants."""
    rows = comparator_bounds(constants, s, d, thresholds)
    return [
        VerificationRecord(d, n, pattern, u, bound, est)
        for u, est, row in zip(thresholds, estimates or [None] * len(thresholds), rows)
        for bound in row
    ]


def run_sweep(
    dimensions: Sequence[int],
    n_values: Sequence[int],
    patterns: Sequence[CoefficientPattern],
    *,
    quantiles: Sequence[float] = DEFAULT_QUANTILES,
    thresholds: Sequence[float] | None = None,
    samples: int = 1_000_000,
    seed: int = 0,
    alpha: float = 0.01,
    constants: Sequence[str] = ("c3",),
    normalize: bool = True,
    workers: int = 1,
    budget: int = DEFAULT_BUDGET,
) -> tuple[list[VerificationRecord], SweepSummary]:
    """Run the sweep over every (d, n, pattern), in that order; an explicit
    pattern brings its own n.  Each instance gets one Monte Carlo pass
    sharing its sample stream over the whole threshold grid: the fixed
    ``thresholds`` if given, else the comparator tail ``quantiles``; one
    ``mc_tail_batch`` call runs every instance's pass on one pool.  Then
    one record per (threshold, constant).  Each vector is made, checked and
    scaled in every dimension once."""
    # plain ints, as the records carry them into the JSON report
    dimensions = [check_dimension(d) for d in dimensions]
    seed, samples = operator.index(seed), operator.index(samples)
    if not dimensions or not patterns:
        raise ValueError("sweep needs at least one dimension and one pattern")
    if any(k.kind != "explicit" for k in patterns) and not n_values:
        raise ValueError("sweep needs n values for non-explicit patterns")
    if any(n < 1 for n in n_values):
        raise ValueError(f"n must be >= 1, got {min(n_values)}")
    _reject_repeats("d", dimensions)
    _reject_repeats("n", n_values)
    _reject_repeats(
        "pattern", patterns, lambda p: p.label + (f" {list(p.values)}" if p.values else "")
    )
    name, grid = ("quantile", quantiles) if thresholds is None else ("threshold", thresholds)
    if len(grid) == 0:
        raise ValueError(f"sweep needs at least one {name}")
    _reject_repeats(name, grid)
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    instances = [
        (d, n, pat)
        for d in dimensions
        for pat in patterns
        for n in ((len(pat.values),) if pat.kind == "explicit" else n_values)
    ]
    planned = samples * len(instances)
    if planned > budget:
        raise CapacityError(
            f"sweep asks for {samples} Monte Carlo samples x {len(instances)} runs = "
            f"{planned}, above the budget of {budget}"
        )
    constants = [get_constant(c) for c in constants]
    _reject_repeats("constant", constants, lambda c: c.name)
    vectors = {}  # (pattern, n) -> (coefficients, {d: comparator scale})
    for _, n, pat in instances:
        if (pat, n) not in vectors:
            coeffs = pat.materialize(n, normalize)
            vectors[pat, n] = coeffs, dict(zip(dimensions, scales(coeffs, dimensions)))
    if thresholds is None:
        chi_quantiles = {d: [chi_tail_inverse(d, q) for q in quantiles] for d in dimensions}
    queries = []
    for d, n, pat in instances:
        coeffs, s = vectors[pat, n][0], vectors[pat, n][1][d]
        us = thresholds if thresholds is not None else [s * x for x in chi_quantiles[d]]
        queries.append((d, coeffs, us))
    batch = mc_tail_batch(queries, samples, seed, alpha, workers)
    records: list[VerificationRecord] = []
    for (d, n, pat), (_, _, us), estimates in zip(instances, queries, batch):
        records += _records(d, n, pat.label, vectors[pat, n][1][d], us, constants, estimates)
    verdicts = Counter(r.verdict for r in records)
    summary = SweepSummary(
        n_records=len(records),
        holds=verdicts["HOLDS"],
        violated=verdicts["VIOLATED"],
        inconclusive=verdicts["INCONCLUSIVE"],
        max_ratio_upper=max((r.ratio_upper for r in records), default=0.0),
        mc_samples_drawn=planned,
    )
    return records, summary


def csv_text(columns: Sequence[str], rows: Sequence[dict]) -> str:
    """A header of COLUMNS, then each dict row's values under them through
    ``_fmt`` ("" where a row lacks a column): every CSV report's format."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows([_fmt(row.get(col, "")) for col in columns] for row in rows)
    return buf.getvalue()


@functools.cache
def _json_encoder(depth: int):
    """The C encoder of items at the indent of nesting ``depth + 1``."""
    return json.JSONEncoder(separators=(",\n" + "  " * (depth + 1), ": ")).encode


def _nested(values) -> bool:
    """Whether any of VALUES is a dict, list or tuple."""
    return any(isinstance(v, (dict, list, tuple)) for v in values)


class _FlatDicts(list):
    """A list of nonempty dicts whose values are neither dicts, lists nor
    tuples (sweep and bound records), which ``_indented`` encodes in one C
    call without looking at each value."""


def _indented(doc, depth: int) -> str:
    """``json.dumps(doc, indent=2)`` at ``depth``: C-encoded flat parts, joined."""
    records = isinstance(doc, _FlatDicts)
    encode, inner = _json_encoder(depth + 1 if records else depth), "\n" + "  " * (depth + 1)
    if not isinstance(doc, (dict, list, tuple)) or not doc:
        return encode(doc)
    values = doc.values() if isinstance(doc, dict) else doc
    if records:  # one C call, split at each "},<newline><indent>{": no string holds a newline
        deeper = inner + "  "
        split = inner + "}," + inner + "{" + deeper
        body = "{" + deeper + encode(doc)[2:-2].replace("}," + deeper + "{", split) + inner + "}"
    elif not _nested(values):
        body = encode(doc)[1:-1]
    else:  # a key's text is that of encode({k: None}) == '{"k": null}'
        keys = [encode({k: None})[1:-5] for k in doc] if isinstance(doc, dict) else [""] * len(doc)
        body = ("," + inner).join(k + _indented(v, depth + 1) for k, v in zip(keys, values))
    opening, closing = "{}" if isinstance(doc, dict) else "[]"
    return opening + inner + body + inner[:-2] + closing


def json_text(doc) -> str:
    """DOC as JSON indented by 2, with a final newline: every JSON report's format."""
    return _indented(doc, 0) + "\n"


def records_to_json(
    records: Sequence[VerificationRecord],
    seed: int,
    version: str,
    summary: SweepSummary | None = None,
    timestamp: bool = True,
) -> str:
    meta: dict = {"seed": operator.index(seed), "version": version}
    if timestamp:
        meta["timestamp"] = datetime.now(timezone.utc).isoformat()
    doc: dict = {"meta": meta}
    if summary is not None:
        doc["summary"] = asdict(summary)
    doc["records"] = _FlatDicts(rec.json_dict() for rec in records)
    return json_text(doc)

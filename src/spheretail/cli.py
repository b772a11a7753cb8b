"""Command-line front end: bound evaluation, verification sweeps, exact
oracles, comparison checks, and the constants table.

Exit codes: 0 all checks hold, 1 a statistically conclusive violation was
found, 2 usage error, 3 capacity or budget error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import os
import sys
from typing import Sequence

import numpy as np

from . import __version__
from .bounds import constant_table, get_constant, scale
from .moment_compare import (
    MajorizationPair,
    bc_comparison_check,
    fourth_moment_exact,
    gaussian_comparison_check,
    is_bisubharmonic_numeric,
    is_class_c,
    kwapien_check,
    lemma2_hypothesis_check,
    majorization_failure,
    parse_test_function,
    second_moment_exact,
)
from .report import (
    DEFAULT_BUDGET,
    DEFAULT_QUANTILES,
    SweepSpec,
    bound_records,
    parse_pattern_list,
    records_to_csv,
    records_to_json,
    run_sweep,
)
from .sampling import CapacityError, exact_rademacher_tail, sample_sum_norms


def _floats(text: str) -> list[float]:
    return [float(v) for v in text.split(",") if v.strip() != ""]


def _ints(text: str) -> list[int]:
    return [int(v) for v in text.split(",") if v.strip() != ""]


def _range_spec(text: str) -> np.ndarray:
    """LO:HI:COUNT -> COUNT evenly spaced points from LO to HI."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"expected LO:HI:COUNT, got {text!r}")
    lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    if count < 2:
        raise argparse.ArgumentTypeError(f"COUNT must be >= 2, got {count}")
    if not np.all(np.isfinite([lo, hi])):
        raise argparse.ArgumentTypeError(f"LO and HI must be finite, got {text!r}")
    return np.linspace(lo, hi, count)


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_report(args, records, seed: int = 0, summary=None) -> None:
    """Write the records as --format csv or json to --out or stdout."""
    if args.format == "csv":
        _emit(records_to_csv(records), args.out)
    else:
        stamp = not args.no_timestamp
        _emit(records_to_json(records, seed, __version__, summary, stamp), args.out)


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("csv", "json"), default=None)
    p.add_argument("--out", default=None, help="write the report to this path")
    p.add_argument(
        "--no-timestamp",
        action="store_true",
        help="omit the timestamp from JSON meta (for byte-identical reruns)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spheretail",
        description=(
            "Tail-comparison bounds for norms of sums of uniform-on-sphere "
            "vectors, with exact oracles and seeded Monte Carlo verification."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_bound = sub.add_parser("bound", help="evaluate closed-form bounds")
    p_bound.add_argument("--d", type=int, required=True)
    p_bound.add_argument("--coeffs", type=_floats, required=True)
    p_bound.add_argument("--u", type=float, default=None)
    p_bound.add_argument(
        "--u-linear", type=_range_spec, default=None, metavar="LO:HI:COUNT"
    )
    p_bound.add_argument("--constants", type=str, default="c3")
    _add_output_flags(p_bound)

    p_verify = sub.add_parser(
        "verify", help="Monte Carlo verification sweep against the bounds"
    )
    p_verify.add_argument("--d", type=_ints, required=True, metavar="D1,D2,...")
    p_verify.add_argument("--n", type=_ints, default=[1], metavar="N1,N2,...")
    p_verify.add_argument(
        "--patterns",
        type=str,
        default="equal",
        help="comma list: equal, single, geometric[:ratio], explicit:a,b,...",
    )
    p_verify.add_argument("--quantiles", type=_floats, default=None)
    p_verify.add_argument(
        "--u-linear", type=_range_spec, default=None, metavar="LO:HI:COUNT"
    )
    p_verify.add_argument("--samples", type=int, default=1_000_000)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--alpha", type=float, default=0.01)
    p_verify.add_argument("--constants", type=str, default="c3")
    p_verify.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p_verify.add_argument("--workers", type=int, default=1)
    p_verify.add_argument(
        "--no-normalize",
        action="store_true",
        help="keep raw pattern coefficients instead of scaling to sum sq = 1",
    )
    _add_output_flags(p_verify)

    p_oracle = sub.add_parser("oracle", help="exact small-instance oracles")
    p_oracle.add_argument("which", choices=("rademacher", "m2", "m4"))
    p_oracle.add_argument("--coeffs", type=_floats, required=True)
    p_oracle.add_argument("--u", type=float, default=None)
    p_oracle.add_argument("--d", type=int, default=None)
    p_oracle.add_argument(
        "--non-strict", action="store_true", help="use >= instead of > at the threshold"
    )

    p_check = sub.add_parser("check", help="structural and moment-comparison checks")
    p_check.add_argument(
        "which",
        choices=("schur", "classc", "bisub", "bc", "gauss", "lemma2", "kwapien"),
    )
    p_check.add_argument("--f", type=str, default=None, help="test function token")
    p_check.add_argument(
        "--h", type=str, default=None, help="comma list of profiles for lemma2"
    )
    p_check.add_argument("--a-sq", type=_floats, default=None)
    p_check.add_argument("--b-sq", type=_floats, default=None)
    p_check.add_argument("--coeffs", type=_floats, default=None)
    p_check.add_argument("--d", type=int, default=None)
    p_check.add_argument("--p", type=float, default=None)
    p_check.add_argument("--samples", type=int, default=200_000)
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument("--alpha", type=float, default=0.01)
    p_check.add_argument("--grid", type=_range_spec, default=None, metavar="LO:HI:COUNT")
    p_check.add_argument(
        "--t-grid", type=_range_spec, default=None, metavar="LO:HI:COUNT"
    )
    p_check.add_argument("--y-norms", type=_floats, default=[0.0, 1.0, 2.0])
    p_check.add_argument(
        "--quadrature",
        action="store_true",
        help="use deterministic quadrature instead of Monte Carlo (bisub)",
    )
    p_check.add_argument("--allow-p2", action="store_true")
    p_check.add_argument(
        "--xi-coeffs",
        type=_floats,
        default=None,
        help="draw xi as the scaled sum norm for these coefficients (lemma2)",
    )
    p_check.add_argument("--format", choices=("json",), default=None)

    p_const = sub.add_parser("constants", help="the comparison-constant catalog")
    _add_output_flags(p_const)

    return parser


def cmd_bound(args) -> int:
    if (args.u is None) == (args.u_linear is None):
        raise ValueError("bound needs exactly one of --u or --u-linear")
    us = [args.u] if args.u_linear is None else args.u_linear
    records = bound_records(args.d, "explicit", args.coeffs, us, args.constants.split(","))
    if args.format:
        _write_report(args, records)
    else:
        for rec in records:
            b = rec.bound
            print(
                f"d={rec.d} u={rec.u:.6g} scale={b.scale:.6g} "
                f"{b.constant.name}: raw={b.raw:.12g} capped={b.capped:.12g}"
            )
    return 0


def cmd_verify(args) -> int:
    if args.quantiles is not None and args.u_linear is not None:
        raise ValueError("choose one of --quantiles or --u-linear")
    spec = SweepSpec(
        dimensions=tuple(args.d),
        n_values=tuple(args.n),
        patterns=parse_pattern_list(args.patterns),
        quantiles=DEFAULT_QUANTILES if args.quantiles is None else tuple(args.quantiles),
        thresholds=None if args.u_linear is None else tuple(args.u_linear),
        samples=args.samples,
        seed=args.seed,
        alpha=args.alpha,
        constants=tuple(args.constants.split(",")),
        normalize=not args.no_normalize,
        workers=args.workers,
        budget=args.budget,
    )
    if args.format and args.out and not os.path.isdir(os.path.dirname(args.out) or "."):
        # fail before the sweep, not after it has drawn every sample
        raise FileNotFoundError(f"no directory for --out {args.out!r}")
    records, summary = run_sweep(spec)
    if args.format:
        _write_report(args, records, spec.seed, summary)
    if args.format is None or args.out:
        print(
            f"records={summary.n_records} holds={summary.holds} "
            f"violated={summary.violated} inconclusive={summary.inconclusive} "
            f"max_ratio_upper={summary.max_ratio_upper:.6g} "
            f"mc_samples={summary.mc_samples_drawn}"
        )
    return 1 if summary.violated else 0


def cmd_oracle(args) -> int:
    if args.which == "rademacher":
        if args.u is None:
            raise ValueError("oracle rademacher needs --u")
        value = exact_rademacher_tail(args.coeffs, args.u, strict=not args.non_strict)
        print(repr(value))
    elif args.which == "m2":
        print(repr(second_moment_exact(args.coeffs)))
    else:
        if args.d is None:
            raise ValueError("oracle m4 needs --d")
        print(repr(fourth_moment_exact(args.coeffs, args.d)))
    return 0


def _print_verdict(result) -> None:
    print(
        f"lhs={result.lhs:.12g} rhs={result.rhs:.12g} margin={result.margin:.12g} "
        f"margin_se={result.margin_se:.3g} verdict={result.verdict} "
        f"conclusive={result.conclusive} method={result.method}"
        + (f" note={result.note}" if result.note else "")
    )


def cmd_check(args) -> int:
    def need(flag, value):
        if value is None:
            raise ValueError(f"check {args.which} needs {flag}")
        return value

    result = None  # the ComparisonVerdict of bc, gauss and kwapien
    exit_code = 0
    if args.which == "schur":
        pair = MajorizationPair(tuple(need("--a-sq", args.a_sq)), tuple(need("--b-sq", args.b_sq)))
        idx = majorization_failure(pair)
        ok = idx is None
        print("true" if ok else f"false (partial sums fail at sorted index {idx})")
        result_obj = {"majorizes": ok, "failure_index": idx}
    elif args.which == "classc":
        fn = parse_test_function(need("--f", args.f))
        report = is_class_c(fn, grid=args.grid)
        print(
            f"{fn.label}: {'true' if report.passed else 'false'} "
            f"(even={report.even_ok}, h'' convex={report.second_derivative_convex}, "
            f"min margin={report.min_convexity_margin:.3g}, tol={report.tol:.3g})"
        )
        for w in report.warnings:
            print(f"warning: {w}", file=sys.stderr)
        result_obj = dataclasses.asdict(report)
    elif args.which == "bisub":
        fn = parse_test_function(need("--f", args.f))
        d = need("--d", args.d)
        report = is_bisubharmonic_numeric(
            fn,
            d,
            y_set=args.y_norms,
            t_grid=args.t_grid,
            samples=args.samples,
            seed=args.seed,
            alpha=args.alpha,
            method="quadrature" if args.quadrature else "mc",
        )
        print(
            f"{fn.label} (d={d}): {report.status} "
            f"(min margin={report.min_margin:.6g}, method={report.method})"
        )
        result_obj = {
            "status": report.status,
            "min_margin": report.min_margin,
            "method": report.method,
        }
        exit_code = 1 if report.status == "fail" else 0
    elif args.which == "bc":
        fn = parse_test_function(need("--f", args.f))
        pair = MajorizationPair(tuple(need("--a-sq", args.a_sq)), tuple(need("--b-sq", args.b_sq)))
        result = bc_comparison_check(
            fn, pair, need("--d", args.d), args.samples, args.seed, args.alpha
        )
    elif args.which == "gauss":
        fn = parse_test_function(need("--f", args.f))
        result = gaussian_comparison_check(
            fn,
            need("--coeffs", args.coeffs),
            need("--d", args.d),
            args.samples,
            args.seed,
            args.alpha,
        )
    elif args.which == "lemma2":
        coeffs = need("--xi-coeffs", args.xi_coeffs)
        d = need("--d", args.d)
        suite = [
            parse_test_function(tok) for tok in need("--h", args.h).split(",")
        ]
        xi = sample_sum_norms(coeffs, d, args.samples, args.seed) / scale(coeffs, d)
        results = lemma2_hypothesis_check(xi, d, suite, alpha=args.alpha)
        for res in results:
            print(
                f"{res.label}: {res.verdict} lhs={res.lhs:.6g} rhs={res.rhs:.6g} "
                f"margin={res.margin:.6g}"
            )
        result_obj = [dataclasses.asdict(r) for r in results]
        exit_code = 1 if any(r.verdict == "VIOLATED" for r in results) else 0
    else:  # kwapien
        result = kwapien_check(
            need("--coeffs", args.coeffs),
            need("--d", args.d),
            need("--p", args.p),
            args.samples,
            args.seed,
            args.alpha,
            allow_p2=args.allow_p2,
        )

    if result is not None:
        _print_verdict(result)
        result_obj = dataclasses.asdict(result)
        exit_code = 1 if result.verdict == "VIOLATED" else 0
    if args.format == "json":
        print(json.dumps(result_obj, indent=2, default=str))
    return exit_code


def cmd_constants(args) -> int:
    table = constant_table()
    c3 = get_constant("c3")
    nt397 = get_constant("nt397")
    ratio = nt397.value / c3.value
    rows = [(c.name, c.value, c.note) for c in table]
    rows.append(("NT397/C3", ratio, "how much smaller the headline constant is"))
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(("name", "value", "note"))
        writer.writerows((n, repr(v), note) for n, v, note in rows)
        _emit(buf.getvalue(), args.out)
    elif args.format == "json":
        doc = {
            "constants": [
                {"name": n, "value": v, "note": note} for n, v, note in rows
            ]
        }
        _emit(json.dumps(doc, indent=2) + "\n", args.out)
    else:
        for n, v, note in rows:
            print(f"{n:<10} {v:<18.12g} {note}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "bound": cmd_bound,
        "verify": cmd_verify,
        "oracle": cmd_oracle,
        "check": cmd_check,
        "constants": cmd_constants,
    }
    try:
        return handlers[args.command](args)
    except BrokenPipeError:
        return 0
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

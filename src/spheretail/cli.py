"""Command-line front end: bound evaluation, verification sweeps, exact
oracles, comparison checks, and the constants table.  Every parser is a
``_Parser`` (``add_subparsers`` passes the class down), which reports the
arguments it was given and did not consume under its own usage.  Every CSV
and JSON it prints is written by ``report.csv_text`` or ``report.json_text``.

Exit codes: 0 all checks hold, 1 a statistically conclusive violation was
found, 2 usage or input error (overflow included), 3 capacity or budget error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import sys
from typing import Sequence

import numpy as np

from . import __version__
from .bounds import constant_table, get_constant, scale
from .moment_compare import (
    MajorizationPair,
    bc_comparison_check,
    bisub_rule,
    fourth_moment_exact,
    gaussian_comparison_check,
    is_class_c,
    kwapien_check,
    lemma2_hypothesis_check,
    majorization_failure,
    parse_test_function,
    second_moment_exact,
)
from .report import (
    CSV_COLUMNS,
    DEFAULT_BUDGET,
    DEFAULT_QUANTILES,
    bound_records,
    csv_text,
    json_text,
    parse_pattern_list,
    records_to_json,
    run_sweep,
)
from .sampling import CapacityError, check_alpha, exact_rademacher_tail, sample_sum_norms


def _number(token: str, kind: type = float):
    try:
        return kind(token)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid {kind.__name__} value: {token!r}"
        ) from None


def _int_from(low: int, token: str) -> int:
    value = _number(token, int)
    if value < low:
        raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
    return value


_positive_int, _nonnegative_int = functools.partial(_int_from, 1), functools.partial(_int_from, 0)


def _alpha(token: str) -> float:
    try:
        return check_alpha(_number(token))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _comma_list(kind: type, text: str) -> list:
    return [_number(v, kind) for v in text.split(",") if v.strip() != ""]


_floats, _ints = functools.partial(_comma_list, float), functools.partial(_comma_list, int)


def _range_spec(text: str) -> np.ndarray:
    """LO:HI:COUNT -> COUNT evenly spaced points from LO to HI."""
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected LO:HI:COUNT, got {text!r}")
    lo, hi, count = _number(parts[0]), _number(parts[1]), _number(parts[2], int)
    if count < 2:
        raise argparse.ArgumentTypeError(f"COUNT must be >= 2, got {count}")
    if not np.all(np.isfinite([lo, hi])):
        raise argparse.ArgumentTypeError(f"LO and HI must be finite, got {text!r}")
    if not np.isfinite(hi - lo):
        raise argparse.ArgumentTypeError(f"the span HI - LO overflows, got {text!r}")
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
        _emit(csv_text(CSV_COLUMNS, [rec.json_dict() for rec in records]), args.out)
    else:
        stamp = not args.no_timestamp
        _emit(records_to_json(records, seed, __version__, summary, stamp), args.out)


def _add_output_flags(p: argparse.ArgumentParser, stamped: bool = True) -> None:
    p.add_argument("--format", choices=("csv", "json"), default=None)
    p.add_argument("--out", default=None, help="write the report here (needs --format)")
    if stamped:
        p.add_argument(
            "--no-timestamp",
            action="store_true",
            help="omit the timestamp from JSON meta (for byte-identical reruns)",
        )


# the flags of the check and oracle kinds: add_argument keywords by flag
_KIND_FLAGS = {
    "--f": dict(help="test function token"),
    "--h": dict(help="comma list of test function tokens"),
    "--a-sq": dict(type=_floats),
    "--b-sq": dict(type=_floats),
    "--coeffs": dict(type=_floats),
    "--xi-coeffs": dict(type=_floats, help="draw xi as the scaled sum norm for these coefficients"),
    "--d": dict(type=int),
    "--p": dict(type=float),
    "--u": dict(type=float),
    "--samples": dict(type=_positive_int, default=200_000),
    "--seed": dict(type=_nonnegative_int, default=0),
    "--alpha": dict(type=_alpha, default=0.01),
    "--non-strict": dict(action="store_true", help="use >= instead of > at the threshold"),
    "--format": dict(choices=("json",), help="print the result as JSON after its line"),
}
_MC = ("--samples", "--seed", "--alpha")


def _schur(args):
    idx = majorization_failure(MajorizationPair(args.a_sq, args.b_sq))
    print("true" if idx is None else f"false (partial sums fail at sorted index {idx})")
    return {"majorizes": idx is None, "failure_index": idx}, False


def _classc(args):
    fn = parse_test_function(args.f)
    report = is_class_c(fn)
    print(f"{fn.label}: " + ("true" if report.passed else f"false ({report.failed})"))
    return dataclasses.asdict(report), False


def _bisub(args):
    fn = parse_test_function(args.f)
    status, failed = bisub_rule(fn, args.d)
    print(f"{fn.label} (d={args.d}): {status}" + (f" ({failed})" if failed else ""))
    return {"status": status, "failed": failed}, status == "fail"


def _lemma2(args):
    suite = [parse_test_function(tok) for tok in args.h.split(",")]
    coeffs, d = args.xi_coeffs, args.d
    xi = sample_sum_norms(coeffs, d, args.samples, args.seed) / scale(coeffs, d)
    results = lemma2_hypothesis_check(xi, d, suite, alpha=args.alpha)
    for res in results:
        failed = res.class_c.failed
        sides = f"lhs={res.lhs:.6g} rhs={res.rhs:.6g} margin={res.margin:.6g}"
        print(f"{res.label}: {res.verdict} " + (f"({failed})" if failed else sides))
    return [dataclasses.asdict(r) for r in results], any(r.verdict == "VIOLATED" for r in results)


def _comparison(check):
    """The handler of a kind whose check(args) is a ComparisonVerdict."""

    def run(args):
        result = check(args)
        print(
            f"lhs={result.lhs:.12g} rhs={result.rhs:.12g} margin={result.margin:.12g} "
            f"margin_se={result.margin_se:.3g} verdict={result.verdict} "
            f"conclusive={result.conclusive} method={result.method}"
            + (f" note={result.note}" if result.note else "")
        )
        return dataclasses.asdict(result), result.verdict == "VIOLATED"

    return run


@_comparison
def _bc(args):
    fn, pair = parse_test_function(args.f), MajorizationPair(args.a_sq, args.b_sq)
    return bc_comparison_check(fn, pair, args.d, args.samples, args.seed, args.alpha)


@_comparison
def _gauss(args):
    fn = parse_test_function(args.f)
    return gaussian_comparison_check(fn, args.coeffs, args.d, args.samples, args.seed, args.alpha)


@_comparison
def _kwapien(args):
    return kwapien_check(args.coeffs, args.d, args.p, args.samples, args.seed, args.alpha)


# kind -> (handler, required flags, optional flags); a check handler prints
# its line(s) and returns (JSON object, violated), an oracle's returns its value
_CHECK_KINDS = {
    "schur": (_schur, ("--a-sq", "--b-sq"), ()),
    "classc": (_classc, ("--f",), ()),
    "bisub": (_bisub, ("--f", "--d"), ()),
    "bc": (_bc, ("--f", "--a-sq", "--b-sq", "--d"), _MC),
    "gauss": (_gauss, ("--f", "--coeffs", "--d"), _MC),
    "lemma2": (_lemma2, ("--xi-coeffs", "--d", "--h"), _MC),
    "kwapien": (_kwapien, ("--coeffs", "--d", "--p"), _MC),
}
_ORACLE_KINDS = {
    "rademacher": (
        lambda args: exact_rademacher_tail(args.coeffs, args.u, strict=not args.non_strict),
        ("--coeffs", "--u"),
        ("--non-strict",),
    ),
    "m2": (lambda args: second_moment_exact(args.coeffs), ("--coeffs",), ()),
    "m4": (lambda args: fourth_moment_exact(args.coeffs, args.d), ("--coeffs", "--d"), ()),
}


def _add_kinds(p: argparse.ArgumentParser, kinds: dict, handler, common=()) -> None:
    """One subparser per kind, declaring only the flags that kind reads and
    setting the kind's handler as ``run``."""
    kind_parsers = p.add_subparsers(dest="which", metavar="KIND", required=True)
    for kind, (run, required, optional) in kinds.items():
        p_kind = kind_parsers.add_parser(kind, allow_abbrev=False)
        p_kind.set_defaults(func=handler, run=run)
        for flag in (*required, *optional, *common):
            p_kind.add_argument(flag, required=flag in required, **_KIND_FLAGS[flag])


class _Parser(argparse.ArgumentParser):
    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        if vars(namespace).get("out") and namespace.format is None:
            self.error("argument --out: needs --format")
        return namespace, extras


@functools.cache  # built once per process; parsing never changes it
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="spheretail",
        description=(
            "Tail-comparison bounds for norms of sums of uniform-on-sphere "
            "vectors, with exact oracles and seeded Monte Carlo verification."
        ),
        allow_abbrev=False,
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    add_command = functools.partial(sub.add_parser, allow_abbrev=False)

    p_bound = add_command("bound", help="evaluate closed-form bounds")
    p_bound.set_defaults(func=cmd_bound)
    p_bound.add_argument("--d", type=int, required=True)
    p_bound.add_argument("--coeffs", type=_floats, required=True)
    u_spec = p_bound.add_mutually_exclusive_group(required=True)
    u_spec.add_argument("--u", type=float)
    u_spec.add_argument("--u-linear", type=_range_spec, metavar="LO:HI:COUNT")
    p_bound.add_argument("--constants", type=str, default="c3")
    _add_output_flags(p_bound)

    p_verify = add_command("verify", help="Monte Carlo verification sweep against the bounds")
    p_verify.set_defaults(func=cmd_verify)
    p_verify.add_argument("--d", type=_ints, required=True, metavar="D1,D2,...")
    p_verify.add_argument("--n", type=_ints, default=(1,), metavar="N1,N2,...")
    p_verify.add_argument(
        "--patterns",
        type=str,
        default="equal",
        help="comma list: equal, single, geometric[:ratio], explicit:a,b,...",
    )
    thresholds = p_verify.add_mutually_exclusive_group()
    thresholds.add_argument("--quantiles", type=_floats, default=DEFAULT_QUANTILES)
    thresholds.add_argument("--u-linear", type=_range_spec, metavar="LO:HI:COUNT")
    p_verify.add_argument("--samples", type=_positive_int, default=1_000_000)
    p_verify.add_argument("--seed", type=_nonnegative_int, default=0)
    p_verify.add_argument("--alpha", type=_alpha, default=0.01)
    p_verify.add_argument("--constants", type=str, default="c3")
    p_verify.add_argument("--budget", type=_positive_int, default=DEFAULT_BUDGET)
    p_verify.add_argument("--workers", type=_positive_int, default=1)
    p_verify.add_argument(
        "--no-normalize",
        action="store_true",
        help="keep raw pattern coefficients instead of scaling to sum sq = 1",
    )
    _add_output_flags(p_verify)

    p_oracle = add_command("oracle", help="exact small-instance oracles")
    _add_kinds(p_oracle, _ORACLE_KINDS, cmd_oracle)
    p_check = add_command("check", help="structural and moment-comparison checks")
    _add_kinds(p_check, _CHECK_KINDS, cmd_check, common=("--format",))

    p_const = add_command("constants", help="the comparison-constant catalog")
    p_const.set_defaults(func=cmd_constants)
    _add_output_flags(p_const, stamped=False)

    return parser


def cmd_bound(args) -> int:
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
    # fail before the sweep, not after it has drawn every sample
    if args.out and os.path.isdir(args.out):
        raise IsADirectoryError(f"--out {args.out!r} is a directory")
    if args.out and not os.path.isdir(os.path.dirname(args.out) or "."):
        raise FileNotFoundError(f"no directory for --out {args.out!r}")
    records, summary = run_sweep(
        args.d, args.n, parse_pattern_list(args.patterns),
        quantiles=args.quantiles,
        thresholds=args.u_linear,
        samples=args.samples,
        seed=args.seed,
        alpha=args.alpha,
        constants=args.constants.split(","),
        normalize=not args.no_normalize,
        workers=args.workers,
        budget=args.budget,
    )
    if args.format:
        _write_report(args, records, args.seed, summary)
    if args.format is None or args.out:
        print(
            f"records={summary.n_records} holds={summary.holds} "
            f"violated={summary.violated} inconclusive={summary.inconclusive} "
            f"max_ratio_upper={summary.max_ratio_upper:.6g} "
            f"mc_samples={summary.mc_samples_drawn}"
        )
    return 1 if summary.violated else 0


def cmd_oracle(args) -> int:
    print(repr(args.run(args)))
    return 0


def cmd_check(args) -> int:
    result, violated = args.run(args)
    if args.format == "json":
        sys.stdout.write(json_text(result))
    return 1 if violated else 0


def cmd_constants(args) -> int:
    ratio = get_constant("nt397").value / get_constant("c3").value
    rows = [{"name": c.name, "value": c.value, "note": c.note} for c in constant_table()]
    rows.append(
        {"name": "NT397/C3", "value": ratio, "note": "how much smaller the headline constant is"}
    )
    if args.format == "csv":
        _emit(csv_text(("name", "value", "note"), rows), args.out)
    elif args.format == "json":
        _emit(json_text({"constants": rows}), args.out)
    else:
        for row in rows:
            print(f"{row['name']:<10} {row['value']:<18.12g} {row['note']}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
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

"""The benchmark's workloads: inputs made from a seed, one round of work,
and the checks on every output.

A round is one unit the runner times and checks:

* ``SweepWorkload``: one ``spheretail verify`` call over a fixed grid,
  driven through ``spheretail.cli.main`` with a JSON report written to a
  temporary file.  Its operations are the report's records.
* ``InteractiveWorkload``: one pass of a single client, in a closed loop,
  over a fixed list of library calls.  Its operations are the calls.

Only ``--seed`` varies the inputs: the sweep's Monte Carlo seed per pass,
and the interactive calls' coefficients, thresholds and seeds.  Grid shapes,
sizes and the call mix are fixed, so the work per round does not depend on
the seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import statistics
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy import stats

import spheretail as st
import spheretail.cli as st_cli

from oracles import (
    binomial_covers,
    chi_tail_log_ref,
    chi_tail_ref,
    close,
    rademacher_hits,
)

CHUNK = 32768
WORKERS = 2
#: upper limit on rounds in one run; the d = 1 coverage test is Bonferroni
#: adjusted for this many passes
MAX_ROUNDS = 256
#: chance that a correct sampler fails a run's d = 1 coverage tests
RUN_ALPHA = 1e-4
#: call times are scaled to a host on which one run of the workload's
#: reference kernel takes this many seconds
INTERACTIVE_REFERENCE_S = 1.5e-3
SWEEP_REFERENCE_S = 10e-3
#: sweep reference kernel runs before and after each verify call
SWEEP_REFERENCE_RUNS = 5


def reference_kernel() -> float:
    """Seconds taken by a fixed piece of single-threaded work that calls no
    spheretail code: a Gaussian draw, a reduction and an interpreted loop."""
    t0 = time.perf_counter()
    x = np.random.default_rng(0).standard_normal((20000, 5))
    total = float((x * x).sum())
    for i in range(2000):
        total += i * 0.5
    return time.perf_counter() - t0


def _sphere_block(seed: int) -> float:
    x = np.random.default_rng(seed).standard_normal((CHUNK, 6))
    x /= np.sqrt((x * x).sum(axis=1))[:, None]
    return float(x[:, 0].sum())


def sweep_reference_kernel(runs: int = SWEEP_REFERENCE_RUNS) -> list[float]:
    """Seconds taken by each of ``runs`` runs of the sweep's kind of work,
    with no spheretail code: four 32768 x 6 Gaussian blocks normalised onto
    the sphere, spread over the sweep's worker threads."""
    times = []
    with ThreadPoolExecutor(WORKERS) as pool:
        for _ in range(runs):
            t0 = time.perf_counter()
            list(pool.map(_sphere_block, range(4)))
            times.append(time.perf_counter() - t0)
    return times


@dataclass
class RoundResult:
    latencies: list[float]  # seconds, one per timed call, scaled to the reference host
    attempted: int
    failed: int
    samples: int  # Monte Carlo samples drawn by the timed calls
    mc_time: float  # seconds spent in calls that draw Monte Carlo samples
    outputs: list = field(default_factory=list)  # compared across rounds
    problems: list[str] = field(default_factory=list)
    records: list = field(default_factory=list)
    raw_latencies: list[float] = field(default_factory=list)  # as measured
    reference: list[float] = field(default_factory=list)  # reference kernel times


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


def _pattern_coeffs(label: str, n: int) -> np.ndarray:
    if label == "equal":
        a = np.ones(n)
    elif label == "single":
        a = np.zeros(n)
        a[0] = 1.0
    elif label == "geometric(0.5)":
        a = 0.5 ** np.arange(n, dtype=float)
    else:
        raise ValueError(f"no reference coefficients for pattern {label!r}")
    return a / math.sqrt(float(a @ a))


@dataclass(frozen=True)
class Grid:
    dims: tuple[int, ...]
    ns: tuple[int, ...]
    patterns: tuple[str, ...]
    constants: tuple[str, ...]
    samples: int
    quantiles: int = 7

    @property
    def streams(self) -> int:
        return len(self.dims) * len(self.ns) * len(self.patterns)

    @property
    def records(self) -> int:
        return self.streams * self.quantiles * len(self.constants)


class SweepWorkload:
    reference_s = SWEEP_REFERENCE_S

    def __init__(self, name: str, grid: Grid, seed: int, workdir: str):
        self.name = name
        self.grid = grid
        rng = random.Random(seed)
        self.pass_seeds = [rng.randrange(1 << 31) for _ in range(MAX_ROUNDS)]
        self.report_path = os.path.join(workdir, f"{name}-report.json")
        d1_records = sum(1 for d in grid.dims if d == 1) * len(grid.ns) * len(grid.patterns)
        d1_records *= grid.quantiles * len(grid.constants)
        self.alpha_each = RUN_ALPHA / max(1, d1_records * MAX_ROUNDS)
        self._exact: dict = {}

    def verify_args(self, pass_seed: int, workers: int = WORKERS) -> list[str]:
        g = self.grid
        return [
            "verify",
            "--d", ",".join(map(str, g.dims)),
            "--n", ",".join(map(str, g.ns)),
            "--patterns", ",".join(g.patterns),
            "--constants", ",".join(g.constants),
            "--samples", str(g.samples),
            "--seed", str(pass_seed),
            "--workers", str(workers),
            "--format", "json",
            "--no-timestamp",
            "--out", self.report_path,
        ]

    def working_set(self) -> dict:
        sizes = sorted(CHUNK * n * d * 8 for d in self.grid.dims for n in self.grid.ns)
        return {"chunk_samples": CHUNK, "chunk_bytes_min": sizes[0],
                "chunk_bytes_max": sizes[-1], "streams": self.grid.streams,
                "samples_per_stream": self.grid.samples}

    def warm_up(self) -> None:
        args = self.verify_args(1)
        args[args.index("--samples") + 1] = "1024"
        with contextlib.redirect_stdout(io.StringIO()):
            st_cli.main(args)

    def run_round(self, i: int, workers: int = WORKERS, span=None) -> RoundResult:
        """One verify call, scaled by SWEEP_REFERENCE_S over the mean of the
        fastest reference kernel times just before and just after it.  The
        first kernel run after a verify call is slowed by its freed memory,
        so the fastest run is the steady figure."""
        args = self.verify_args(self.pass_seeds[i % MAX_ROUNDS], workers)
        out = io.StringIO()
        before = sweep_reference_kernel()
        ctx = span("op.verify") if span else contextlib.nullcontext()
        with contextlib.redirect_stdout(out), ctx:
            t0 = time.perf_counter()
            rc = st_cli.main(args)
            elapsed = time.perf_counter() - t0
        after = sweep_reference_kernel()
        scaled = elapsed * 2.0 * SWEEP_REFERENCE_S / (min(before) + min(after))
        with open(self.report_path, "rb") as fh:
            report = fh.read()
        os.remove(self.report_path)
        res = RoundResult([scaled], self.grid.records, 0, 0, scaled, outputs=[report],
                          raw_latencies=[elapsed], reference=before + after)
        if rc != 0:
            res.problems.append(f"verify exited with {rc}")
        try:
            doc = json.loads(report)
        except ValueError:
            res.failed = res.attempted
            res.problems.append("report is not JSON")
            return res
        res.samples = int(doc["summary"]["mc_samples_drawn"])
        if res.samples != self.grid.samples * self.grid.streams:
            res.problems.append(f"summary reports {res.samples} samples drawn")
        if f"records={self.grid.records} " not in out.getvalue():
            res.problems.append("verify summary line does not match the grid")
        res.records = doc["records"]
        bad = self.bad_records(res.records)
        res.failed = bad + abs(self.grid.records - len(res.records))
        if res.problems:
            res.failed = res.attempted
        return res

    def bad_records(self, records) -> int:
        """Records that fail a check: no VIOLATED verdict, single-pattern
        hits equal to the exact indicator u < 1, and d = 1 hits covering the
        exact Rademacher tail."""
        n_samples = self.grid.samples
        bad = 0
        for rec in records:
            hits = rec["hits"]
            ok = rec["verdict"] != "VIOLATED" and rec["samples"] == n_samples
            ok = ok and 0 <= hits <= n_samples
            if ok and rec["pattern"] == "single":
                ok = hits == (n_samples if rec["u"] < 1.0 else 0)
            if ok and rec["d"] == 1:
                key = (rec["pattern"], rec["n"], rec["u"])
                if key not in self._exact:
                    a = _pattern_coeffs(rec["pattern"], rec["n"])
                    self._exact[key] = rademacher_hits(a, [rec["u"]], True)[0] / 2.0 ** a.size
                ok = binomial_covers(hits, n_samples, self._exact[key], self.alpha_each)
            bad += not ok
        return bad


ACCEPT_GRID = Grid((1, 2, 3, 5, 10), (1, 2, 5, 10), ("equal", "single", "geometric:0.5"),
                   ("c3",), 65536)
HIGHDIM_GRID = Grid((30, 100), (2, 10), ("equal", "geometric:0.5"),
                    ("c3", "cstar", "e2", "nt397"), 65536)


# ---------------------------------------------------------------------------
# Interactive calls
# ---------------------------------------------------------------------------

CONSTANTS = {
    "c3": 2.0 * math.e**3 / 9.0,
    "cstar": 0.5 / math.erfc(1.0),  # 1/2 over P(|Z_1| >= sqrt 2)
    "e2": math.e**2,
    "nt397": 397.0,
}
REL = 1e-9


@dataclass
class Call:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], bool]
    samples: int = 0


def _bound_ok(res, c: float, s: float, d: int, u: float) -> bool:
    ref = c * chi_tail_ref(d, u / s)
    return (close(res.raw, ref, REL, 1e-300) and res.capped == min(res.raw, 1.0)
            and close(res.scale, s, 1e-12))


def _theorem_table(rng, d, n):
    coeffs = tuple(rng.uniform(0.2, 1.5, n))
    s = math.sqrt(math.fsum(v * v for v in coeffs) / d)
    us = [s * t for t in sorted(rng.uniform(-0.05, 1.0, 8) * (math.sqrt(d) + 40.0))]

    def run():
        return [st.theorem_bound(st.TailQuery(d, coeffs, u), c) for u in us for c in CONSTANTS]

    def check(res):
        pairs = [(u, c) for u in us for c in CONSTANTS.values()]
        return all(_bound_ok(r, c, s, d, u) for r, (u, c) in zip(res, pairs))

    return run, check


def _corollary_table(rng, d, n):
    b = tuple(rng.uniform(0.2, 1.5, n))
    sum_sq = math.fsum(v * v for v in b)
    us = sorted(rng.uniform(0.0, 1.0, 4) * (math.sqrt(sum_sq) * (math.sqrt(d) + 8.0)))
    variants = {"per_dimension": math.sqrt(sum_sq / d), "as_printed": math.sqrt(sum_sq)}

    def run():
        return [st.corollary_bound(d, b, u, c, v)
                for u in us for c in CONSTANTS for v in variants]

    def check(res):
        keys = [(u, CONSTANTS[c], s) for u in us for c in CONSTANTS for s in variants.values()]
        ok = all(_bound_ok(r, c, s, d, u) for r, (u, c, s) in zip(res, keys))
        return ok and all(a.raw <= p.raw * (1 + 1e-12) for a, p in zip(res[::2], res[1::2]))

    return run, check


def _norm2(v: np.ndarray) -> tuple[float, ...]:
    """Scale to a sum of squares of 4, so the comparator scale, and with it
    the quadrature work on the Gaussian side, depends on d alone."""
    return tuple(float(x) for x in 2.0 * v / math.sqrt(float(v @ v)))


def _m4_formula(coeffs, d):
    sq = [v * v for v in coeffs]
    pairs = math.fsum(sq[i] * sq[j] for i in range(len(sq)) for j in range(i + 1, len(sq)))
    return math.fsum(v * v for v in sq) + (2.0 + 4.0 / d) * pairs


CHECK_KINDS = ("bc", "gauss", "kwapien", "bisub", "classc", "lemma2")


class InteractiveWorkload:
    """A fixed mix of library calls: 3 of every 4 are exact evaluations
    (bounds, chi tails, oracles, intervals), 1 of every 4 a moment-comparison
    or classifier check."""

    EXACT = ("theorem", "inverse", "rademacher", "log", "theorem", "m2",
             "rademacher", "cp", "corollary", "inverse", "glq", "m4",
             "theorem", "log", "rademacher", "cp", "corollary", "inverse",
             "m2", "log", "theorem", "rademacher", "m4", "glq")
    CHECKS = ("bc_cosh", "gauss_cosh", "kwapien3", "bisub_mc", "classc",
              "bc_power3", "gauss_power3", "kwapien5", "bisub_quad", "lemma2")
    reference_s = INTERACTIVE_REFERENCE_S
    ROUNDS = 5  # 5 x 8 checks = 4 of each check kind per pass
    RADEMACHER_N = (1, 2, 3, 5, 8, 10, 12, 14, 16, 18, 20, 24)

    def __init__(self, seed: int, mc_samples: int = 100_000, rademacher_n=RADEMACHER_N):
        self.rng = np.random.default_rng(seed)
        self.mc_samples = mc_samples
        self.rademacher_pool = [self._rademacher_instance(n) for n in rademacher_n]
        self.seen: dict[str, int] = {}
        self.max_nd = 0  # largest n * d among the Monte Carlo checks
        self.calls: list[Call] = []
        checks = iter(self.CHECKS * self.ROUNDS)
        for _ in range(self.ROUNDS):
            for j, kind in enumerate(self.EXACT):
                self.calls.append(self._make(kind))
                if j % 3 == 2:
                    self.calls.append(self._make(next(checks)))

    def working_set(self) -> dict:
        return {"calls_per_pass": len(self.calls),
                "check_chunk_bytes_max": CHUNK * self.max_nd * 8,
                "rademacher_n_max": max(len(c) for c, _ in self.rademacher_pool)}

    def _rademacher_instance(self, n):
        coeffs = self.rng.uniform(0.1, 1.0, n) * self.rng.choice([-1.0, 1.0], n)
        us = [float(u) for u in
              np.abs(self.rng.normal(size=4)) * 1.5 * math.sqrt(float(coeffs @ coeffs))]
        strict, loose = (rademacher_hits(coeffs, us, s) for s in (True, False))
        tails = [(u, {True: h / 2.0**n, False: g / 2.0**n}) for u, h, g in zip(us, strict, loose)]
        return tuple(float(v) for v in coeffs), tails

    def _next(self, kind, cycle):
        k = self.seen.get(kind, 0)
        self.seen[kind] = k + 1
        return cycle[k % len(cycle)], k

    def _make(self, kind: str) -> Call:
        rng = self.rng
        seed = int(rng.integers(1 << 31))
        if kind == "theorem":
            (d, n), _ = self._next(kind, [(1, 1), (2, 2), (3, 5), (10, 10), (100, 3), (1000, 2)])
            return Call(kind, *_theorem_table(rng, d, n))
        if kind == "corollary":
            (d, n), _ = self._next(kind, [(1, 1), (2, 3), (5, 6), (50, 3), (500, 6)])
            return Call(kind, *_corollary_table(rng, d, n))
        if kind == "inverse":
            d, _ = self._next(kind, [1, 2, 3, 5, 10, 30, 100, 1000])
            q = 10.0 ** rng.uniform(-12.0, -0.02)
            return Call(kind, lambda: st.chi_tail_inverse(d, q),
                        lambda u: close(chi_tail_ref(d, u), q, 1e-8))
        if kind == "log":
            d, _ = self._next(kind, [1, 2, 3, 7, 10, 100, 1000, 4])
            u = float(rng.uniform(0.0, math.sqrt(d) + 60.0))
            ref = chi_tail_log_ref(d, u)
            return Call(kind, lambda: st.chi_tail_log(d, u),
                        lambda v: close(v, ref, 0.0, REL * max(1.0, abs(ref))))
        if kind == "rademacher":
            _, k = self._next(kind, [None])
            coeffs, tails = self.rademacher_pool[k % len(self.rademacher_pool)]
            u, exact = tails[(k // len(self.rademacher_pool)) % len(tails)]
            strict = k % 2 == 0
            ref = exact[strict]
            return Call(kind, lambda: st.exact_rademacher_tail(coeffs, u, strict),
                        lambda v: v == ref)
        if kind == "m2":
            n, _ = self._next(kind, [1, 3, 7, 20])
            coeffs = tuple(rng.normal(size=n))
            ref = math.fsum(v * v for v in coeffs)
            return Call(kind, lambda: st.second_moment_exact(coeffs),
                        lambda v: close(v, ref, 1e-12))
        if kind == "m4":
            (n, d), _ = self._next(kind, [(2, 1), (5, 2), (12, 3), (20, 10), (7, 100)])
            coeffs = tuple(rng.normal(size=n))
            ref = _m4_formula(coeffs, d)
            t2 = math.fsum(v * v for v in coeffs)
            ref_gauss = t2 * t2 * (1.0 + 2.0 / d)
            return Call(
                kind,
                lambda: (st.fourth_moment_exact(coeffs, d), st.gaussian_fourth_moment(coeffs, d)),
                lambda v: close(v[0], ref, 1e-12) and close(v[1], ref_gauss, 1e-12)
                and v[0] <= v[1],
            )
        if kind == "cp":
            alpha, _ = self._next(kind, [0.01, 0.05, 1e-6])
            n = int(2 ** rng.integers(8, 21))
            hits = int(rng.binomial(n, 10.0 ** rng.uniform(-5.0, -0.3)))
            return Call(kind, lambda: st.clopper_pearson(hits, n, alpha),
                        lambda v: _cp_ok(v, hits, n, alpha))
        if kind == "glq":
            d = int(rng.integers(2, 1001))
            g_ref = chi_tail_ref(d, math.sqrt(d + 2.0))
            q_ref = 0.5 * math.erfc(math.sqrt(d + 2.0) - math.sqrt(d - 1.0))
            return Call(kind, lambda: (st.g_lower(d), st.q_lower(d)),
                        lambda v: close(v[0], g_ref, REL) and close(v[1], q_ref, 1e-12)
                        and v[1] < v[0])
        return self._make_check(kind, seed)

    def _make_check(self, kind: str, seed: int) -> Call:
        rng = self.rng
        samples = self.mc_samples
        d, _ = self._next("d:" + kind, [2, 3, 5, 10])
        not_violated = {"HOLDS", "INCONCLUSIVE"}
        self.max_nd = max(self.max_nd, 5 * d)
        if kind.startswith("bc_"):
            fn = st.parse_test_function(kind[3:])
            n, _ = self._next("n:" + kind, [2, 3, 4])
            w = rng.uniform(0.0, 1.0, n)
            w[0] += n
            pair = st.MajorizationPair(tuple(w / w.sum()), (1.0 / n,) * n)
            return Call("bc", lambda: st.bc_comparison_check(fn, pair, d, samples, seed),
                        lambda v: v.verdict in not_violated and v.method == "mc-crn", samples)
        if kind.startswith("gauss_"):
            fn = st.parse_test_function(kind[6:])
            n, _ = self._next("n:" + kind, [2, 3, 5])
            coeffs = _norm2(rng.uniform(0.3, 1.2, n))
            return Call("gauss",
                        lambda: st.gaussian_comparison_check(fn, coeffs, d, samples, seed),
                        lambda v: v.verdict in not_violated and v.method == "mc-vs-exact",
                        samples)
        if kind.startswith("kwapien"):
            p = float(kind[7:])
            n, _ = self._next("n:" + kind, [2, 3, 5])
            coeffs = _norm2(rng.uniform(0.3, 1.2, n))
            return Call("kwapien", lambda: st.kwapien_check(coeffs, d, p, 2 * samples, seed),
                        lambda v: v.verdict in not_violated and v.method == "mc-vs-exact",
                        2 * samples)
        if kind == "bisub_mc":
            token, _ = self._next(kind, ["power4", "-power4", "cosh", "power3"])
            fn = st.parse_test_function(token)
            pairs = max(2, samples // 10)
            expect = {"power4": {"pass"}, "-power4": {"fail"}}.get(token, {"pass", "inconclusive"})
            return Call("bisub",
                        lambda: st.is_bisubharmonic_numeric(fn, d, samples=2 * pairs, seed=seed),
                        lambda v: v.status in expect, 3 * pairs)
        if kind == "bisub_quad":
            token, _ = self._next(kind, ["power3", "-power4", "cosh", "power4"])
            fn = st.parse_test_function(token)
            expect = "fail" if token.startswith("-") else "pass"
            return Call("bisub",
                        lambda: st.is_bisubharmonic_numeric(fn, d, method="quadrature"),
                        lambda v: v.status == expect)
        if kind == "classc":
            token, _ = self._next(kind, ["power2.5", "power4", "cosh", "-power4"])
            fn = st.parse_test_function(token)
            expect = token in ("power4", "cosh")
            return Call("classc", lambda: st.is_class_c(fn), lambda v: v.passed is expect)
        if kind == "lemma2":
            n, _ = self._next("n:" + kind, [2, 3])
            coeffs = _norm2(rng.uniform(0.3, 1.2, n))
            suite = [st.parse_test_function(t) for t in ("power4", "power3", "cosh", "power2.5")]
            expect = ["CONSISTENT"] * 3 + ["SKIPPED_CLASS_C"]

            def run():
                xi = st.sample_sum_norms(coeffs, d, samples, seed) / st.scale(coeffs, d)
                return st.lemma2_hypothesis_check(xi, d, suite)

            return Call("lemma2", run, lambda v: [r.verdict for r in v] == expect, samples)
        raise ValueError(f"unknown call kind {kind!r}")

    def warm_up(self) -> None:
        done = set()
        for call in self.calls:
            if call.kind not in done:
                done.add(call.kind)
                call.run()

    def run_round(self, i: int, span=None) -> RoundResult:
        """One pass over the calls.  The reference kernel runs before the
        first call and after every check, so each stretch of three exact
        calls and one check (about 50 ms) lies between two kernel runs.
        Its calls are scaled by INTERACTIVE_REFERENCE_S over the median of
        the six kernel times nearest to it, which spans about 250 ms."""
        res = RoundResult([], len(self.calls), 0, 0, 0.0)
        res.reference.append(reference_kernel())
        stretch = []  # index of the kernel run before each call
        for call in self.calls:
            ctx = span("op." + call.kind) if span else contextlib.nullcontext()
            with ctx:
                t0 = time.perf_counter()
                value = call.run()
                elapsed = time.perf_counter() - t0
            res.raw_latencies.append(elapsed)
            stretch.append(len(res.reference) - 1)
            if call.kind in CHECK_KINDS:
                res.reference.append(reference_kernel())
            if not call.check(value):
                res.failed += 1
                res.problems.append(f"{call.kind} check failed: {value!r:.200}")
            res.outputs.append(repr(value))
        factors = [INTERACTIVE_REFERENCE_S / statistics.median(res.reference[max(0, k - 2):k + 4])
                   for k in range(len(res.reference))]
        for call, elapsed, k in zip(self.calls, res.raw_latencies, stretch):
            res.latencies.append(elapsed * factors[k])
            if call.samples:
                res.samples += call.samples
                res.mc_time += elapsed * factors[k]
        return res


def _cp_ok(v, hits, n, alpha) -> bool:
    low, high = v
    if not 0.0 <= low <= hits / n <= high <= 1.0:
        return False
    ok = low == 0.0 if hits == 0 else close(stats.binom.sf(hits - 1, n, low), alpha / 2, 1e-6)
    return ok and (high == 1.0 if hits == n else close(stats.binom.cdf(hits, n, high), alpha / 2, 1e-6))

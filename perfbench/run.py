"""spheretail benchmark: one workload, one run, every output checked.

    python3 perfbench/run.py --workload sweep-accept --seed 1 --seconds 25 --trace 0

Run it from the root of a source checkout; it imports the package from
``src/``.  With ``--trace 0`` it prints the end-to-end metrics, measured with
tracing off.  With ``--trace 1`` it alternates untraced and traced rounds on
the same inputs, prints the per-layer metrics and the tracing overhead, and
writes the spans to ``perfbench/out/``.  Every run prints machine notes, and
its last line is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.

The run uses at most two threads: ``--workers 2`` on sweeps, and the BLAS and
OpenMP thread counts are pinned to 1 before numpy is imported.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
FRESH_RUNS = 3
#: reference kernel runs before and after each fresh process
SETUP_REFERENCE_RUNS = 5
WORKLOADS = ("sweep-accept", "sweep-highdim", "interactive")

END_TO_END = {
    "setup_s": "s",
    "mc_samples_per_s": "1/s",
    "calls_per_s": "1/s",
    "call_p50_ms": "ms",
    "call_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def per_layer_units(cells) -> dict[str, str]:
    from workloads import CHECK_KINDS

    units = {
        "setup.import_s": "s",
        "setup.inputs_s": "s",
        "setup.warmup_s": "s",
        "trace.overhead_pct": "%",
        "cli.self_ms": "ms",
        "report.serialize_ms": "ms",
        "report.bytes": "bytes",
        "report.run_sweep_self_s": "s",
        "report.conclusive_frac": "frac",
        "sampling.mc_busy_s": "s",
        "sampling.chunks": "count",
        "sampling.parallel_eff": "frac",
        "sampling.cp_us": "us",
        "sampling.cp_calls": "count",
        "sampling.rademacher_us": "us",
        "sampling.rademacher_calls": "count",
        "sampling.patterns_enumerated": "count",
    }
    for d, n in cells:
        units[f"sampling.mc_ns_per_sample.d{d}_n{n}"] = "ns"
    for fn in ("theorem_bound", "corollary_bound"):
        units[f"bounds.{fn}_us"] = "us"
        units[f"bounds.{fn}_calls"] = "count"
    for fn in ("chi_tail", "chi_tail_inverse", "chi_tail_log"):
        units[f"gaussian_chi.{fn}_us"] = "us"
        units[f"gaussian_chi.{fn}_calls"] = "count"
    units["gaussian_chi.chi_expectation_ms"] = "ms"
    units["gaussian_chi.chi_expectation_calls"] = "count"
    for kind in CHECK_KINDS:
        units[f"moment_compare.{kind}_ms"] = "ms"
    units["moment_compare.certify_calls"] = "count"
    units["moment_compare.mc_samples"] = "count"
    return units


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, sample count) of the highest percentile with at
    least 10 samples beyond it, or of the median when that is higher."""
    s = sorted(values)
    k = max(len(s) - 11, len(s) // 2)
    return s[k], 100.0 * (k + 1) / len(s), len(s)


def _read(path: str) -> str | None:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return None


def machine_notes(workload: str, seed: int, working_set: dict) -> dict:
    cpuinfo = _read("/proc/cpuinfo") or ""
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                  if line.startswith("model name")), "unknown")
    caches = {}
    for index in range(8):
        base = f"/sys/devices/system/cpu/cpu0/cache/index{index}"
        level, kind, size = (_read(f"{base}/{f}") for f in ("level", "type", "size"))
        if level and kind and size and kind.strip() != "Instruction":
            caches[f"L{level.strip()}"] = size.strip()
    head = _read(str(ROOT / ".git" / "HEAD"))
    commit = None
    if head and head.startswith("ref: "):
        commit = _read(str(ROOT / ".git" / head[5:].strip()))
    elif head:
        commit = head
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "spheretail").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": caches,
        "working_set": working_set,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit.strip() if commit else "unknown",
        "source_sha256": digest.hexdigest(),
        "workload": workload,
        "seed": seed,
        "threads": {"sweep_workers": 2, **{v: os.environ[v] for v in THREAD_VARS}},
    }


def make_workload(name: str, seed: int, workdir: str):
    from workloads import ACCEPT_GRID, HIGHDIM_GRID, InteractiveWorkload, SweepWorkload

    if name == "sweep-accept":
        return SweepWorkload(name, ACCEPT_GRID, seed, workdir)
    if name == "sweep-highdim":
        return SweepWorkload(name, HIGHDIM_GRID, seed, workdir)
    return InteractiveWorkload(seed)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def fresh_rounds(workload: str, seed: int) -> list[dict]:
    """Start fresh interpreters that import, build the inputs, warm up and
    run one round; each reports its set-up time (spawn until ready), its
    peak RSS and its checked operations.  Set-up is single-threaded, so its
    time is scaled like an interactive call, by the single-threaded
    reference kernel run here just before the spawn and after the exit."""
    from workloads import INTERACTIVE_REFERENCE_S, reference_kernel

    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--fresh-round"]
    out = []
    for _ in range(FRESH_RUNS):
        before = statistics.median(reference_kernel() for _ in range(SETUP_REFERENCE_RUNS))
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
            ready = child.stdout.readline()
            setup_s = time.perf_counter() - t0
            rest = child.stdout.read()
        if child.returncode != 0 or ready.strip() != "ready":
            raise RuntimeError(f"fresh round exited with {child.returncode}")
        after = statistics.median(reference_kernel() for _ in range(SETUP_REFERENCE_RUNS))
        out.append({"setup_s": setup_s * 2.0 * INTERACTIVE_REFERENCE_S / (before + after),
                    "raw_setup_s": setup_s, **json.loads(rest.splitlines()[-1])})
    return out


def end_to_end(rounds, fresh: list[dict], reference_s: float) -> tuple[dict, list[str]]:
    latencies = [t for r in rounds for t in r.latencies]
    value, pct, count = tail(latencies)
    metrics = {
        "setup_s": statistics.median(f["setup_s"] for f in fresh),
        "mc_samples_per_s": statistics.median(r.samples / r.mc_time for r in rounds),
        "calls_per_s": statistics.median(len(r.latencies) / sum(r.latencies) for r in rounds),
        "call_p50_ms": 1e3 * statistics.median(latencies),
        "call_tail_ms": 1e3 * value,
        # allocator retention only ever adds to the memory a round needs,
        # so the smallest peak of the fresh processes is the steady figure
        "peak_rss_mb": min(f["peak_rss_mb"] for f in fresh),
    }
    notes = [f"call_tail_ms is p{pct:.2f} of {count} calls",
             f"mc_samples_per_s and calls_per_s are medians of {len(rounds)} rounds",
             f"setup_s is the median and peak_rss_mb the minimum of {len(fresh)} "
             "fresh processes that each run one round; unscaled setup_s "
             f"{statistics.median(f['raw_setup_s'] for f in fresh):.6g}"]
    raw = [t for r in rounds for t in r.raw_latencies]
    reference = [t for r in rounds for t in r.reference]
    q1, _, q3 = statistics.quantiles(reference)
    notes.append(
        f"call times are scaled to a host on which the reference kernel takes "
        f"{1e3 * reference_s:g} ms; here it took {1e3 * statistics.median(reference):.4f} ms "
        f"(median of {len(reference)}, quartiles {1e3 * q1:.4f} and {1e3 * q3:.4f}); "
        "unscaled: calls_per_s "
        f"{statistics.median(len(r.raw_latencies) / sum(r.raw_latencies) for r in rounds):.6g}, "
        f"call_p50_ms {1e3 * statistics.median(raw):.6g}, "
        f"call_tail_ms {1e3 * tail(raw)[0]:.6g}")
    return metrics, notes


def per_layer(tracer, pairs, workload, setup: dict, parallel_eff: float) -> dict:
    from spans import self_times
    from workloads import CHECK_KINDS

    rounds = len(pairs)
    spans = tracer.spans
    selft = self_times(spans)
    names = {s.id: s.name for s in spans}
    by_name: dict[str, list] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def mean_dur(name, scale):
        group = by_name.get(name, [])
        return scale * sum(s.duration for s in group) / len(group) if group else 0.0

    def mean_self(name, scale):
        group = by_name.get(name, [])
        return scale * sum(selft[s.id] for s in group) / len(group) if group else 0.0

    def per_round(name):
        return len(by_name.get(name, [])) / rounds

    untraced = statistics.median(sum(u.latencies) for u, _ in pairs)
    traced = statistics.median(sum(t.latencies) for _, t in pairs)
    records = [rec for _, t in pairs for rec in t.records]
    report_bytes = len(pairs[-1][1].outputs[0]) if records else 0
    out = dict(setup)
    out.update({
        "trace.overhead_pct": 100.0 * (traced / untraced - 1.0),
        "cli.self_ms": mean_self("cli.main", 1e3),
        "report.serialize_ms": mean_dur("report.records_to_json", 1e3),
        "report.bytes": report_bytes,
        "report.run_sweep_self_s": mean_self("report.run_sweep", 1.0),
        "report.conclusive_frac": (sum(r["verdict"] != "INCONCLUSIVE" for r in records)
                                   / len(records)) if records else 0.0,
        "sampling.mc_busy_s": sum(s.duration for s in by_name.get("sampling.mc_tail_multi", []))
        / rounds,
        "sampling.chunks": tracer.chunks / rounds,
        "sampling.parallel_eff": parallel_eff,
        "sampling.cp_us": mean_dur("sampling.clopper_pearson", 1e6),
        "sampling.cp_calls": per_round("sampling.clopper_pearson"),
        "sampling.rademacher_us": mean_dur("sampling.exact_rademacher_tail", 1e6),
        "sampling.rademacher_calls": per_round("sampling.exact_rademacher_tail"),
        "sampling.patterns_enumerated": sum(
            2 ** s.attrs["n"] for s in by_name.get("sampling.exact_rademacher_tail", [])) / rounds,
    })
    cells: dict[tuple, list] = {}
    for s in by_name.get("sampling.mc_tail_multi", []):
        cell = cells.setdefault((s.attrs["d"], s.attrs["n"]), [0.0, 0])
        cell[0] += s.duration
        cell[1] += s.attrs["samples"]
    for (d, n), (dur, samples) in cells.items():
        out[f"sampling.mc_ns_per_sample.d{d}_n{n}"] = 1e9 * dur / samples
    for fn in ("theorem_bound", "corollary_bound"):
        out[f"bounds.{fn}_us"] = mean_dur(f"bounds.{fn}", 1e6)
        out[f"bounds.{fn}_calls"] = per_round(f"bounds.{fn}")
    for fn in ("chi_tail", "chi_tail_inverse", "chi_tail_log"):
        out[f"gaussian_chi.{fn}_us"] = mean_dur(f"gaussian_chi.{fn}", 1e6)
        out[f"gaussian_chi.{fn}_calls"] = per_round(f"gaussian_chi.{fn}")
    out["gaussian_chi.chi_expectation_ms"] = mean_dur("gaussian_chi.chi_expectation", 1e3)
    out["gaussian_chi.chi_expectation_calls"] = per_round("gaussian_chi.chi_expectation")
    for kind in CHECK_KINDS:
        out[f"moment_compare.{kind}_ms"] = mean_dur(f"op.{kind}", 1e3)
    out["moment_compare.certify_calls"] = sum(
        1 for s in by_name.get("moment_compare.is_bisubharmonic_numeric", [])
        if s.parent is not None and names.get(s.parent, "").startswith("moment_compare.")
    ) / rounds
    out["moment_compare.mc_samples"] = (
        sum(t.samples for _, t in pairs) / rounds if workload == "interactive" else 0.0)
    return out


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--fresh-round", action="store_true",
                   help="set up, print 'ready', run one round, print its peak RSS and exit")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import spheretail
    except ImportError as exc:
        print(f"error: cannot import spheretail from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if not Path(spheretail.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: spheretail was imported from {spheretail.__file__}, not from "
              f"{ROOT / 'src'}", file=sys.stderr)
        return 2
    t1 = time.perf_counter()
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"run-{os.getpid()}"
    workdir.mkdir()
    try:
        wl = make_workload(args.workload, args.seed, str(workdir))
        t2 = time.perf_counter()
        wl.warm_up()
        t3 = time.perf_counter()
        if args.fresh_round:
            print("ready", flush=True)
            res = wl.run_round(0)
            print(json.dumps({"attempted": res.attempted, "failed": res.failed,
                              "peak_rss_mb": peak_rss_mb()}))
            return 0
        setup = {"setup.import_s": t1 - t0, "setup.inputs_s": t2 - t1, "setup.warmup_s": t3 - t2}
        return run(args, wl, setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, wl, setup: dict) -> int:
    from spans import Tracer
    from workloads import ACCEPT_GRID, HIGHDIM_GRID, MAX_ROUNDS

    sweep = args.workload != "interactive"
    notes = machine_notes(args.workload, args.seed, wl.working_set())
    problems: list[str] = []
    rounds = []
    pairs = []
    tracer = Tracer()
    start = time.perf_counter()
    i = 0
    while i < MAX_ROUNDS and (i == 0 or time.perf_counter() - start < args.seconds):
        untraced = wl.run_round(i)
        rounds.append(untraced)
        if args.trace:
            with tracer.active():
                traced = wl.run_round(i, span=tracer.span)
            rounds.append(traced)
            pairs.append((untraced, traced))
            if traced.outputs != untraced.outputs:
                problems.append(f"round {i}: traced and untraced outputs differ")
        i += 1
    parallel_eff = 0.0
    if args.trace and sweep:
        serial = wl.run_round(0, workers=1)
        rounds.append(serial)
        if serial.outputs != pairs[0][0].outputs:
            problems.append("workers=1 report differs from the workers=2 report")
        parallel_eff = serial.raw_latencies[0] / (2.0 * pairs[0][0].raw_latencies[0])

    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    for r in rounds:
        problems.extend(r.problems[:5])
    if args.trace:
        cells = [(d, n) for g in (ACCEPT_GRID, HIGHDIM_GRID) for d in g.dims for n in g.ns]
        units = per_layer_units(cells)
        values = dict.fromkeys(units, 0.0)
        values.update(per_layer(tracer, pairs, args.workload, setup, parallel_eff))
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(trace_path, {"notes": notes})
        extra = [f"trace: {len(tracer.spans)} spans in {trace_path.relative_to(ROOT)}",
                 f"trace overhead {values['trace.overhead_pct']:.2f}% of the untraced "
                 f"round time over {len(pairs)} round pairs"]
    else:
        fresh = fresh_rounds(args.workload, args.seed)
        attempted += sum(f["attempted"] for f in fresh)
        failed += sum(f["failed"] for f in fresh)
        units = END_TO_END
        values, extra = end_to_end(rounds, fresh, wl.reference_s)
    for name, unit in units.items():
        print(f"{name} = {values[name]:.6g} {unit}")
    print(f"failed_frac = {failed / attempted:.6g} frac ({failed} of {attempted} operations)")
    for line in extra:
        print(line)
    for line in problems[:20]:
        print(f"problem: {line}")
    print(json.dumps({"notes": notes}))
    correct = failed == 0 and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed if correct or failed else 1,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

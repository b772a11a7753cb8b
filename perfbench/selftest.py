"""Tiny-size self-test of the benchmark: every workload, traced and
untraced, every output check, and checks that each kind of wrong output
is caught.  Takes a few seconds.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import io
import json
import shutil
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run as bench  # noqa: E402
from workloads import (  # noqa: E402
    ACCEPT_GRID,
    CHECK_KINDS,
    HIGHDIM_GRID,
    InteractiveWorkload,
    SweepWorkload,
)


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"selftest FAILED: {what}")


def tiny_workloads(workdir: str) -> dict:
    return {
        "sweep-accept": SweepWorkload(
            "sweep-accept", dataclasses.replace(ACCEPT_GRID, samples=4096), 5, workdir),
        "sweep-highdim": SweepWorkload(
            "sweep-highdim", dataclasses.replace(HIGHDIM_GRID, samples=1024), 5, workdir),
        "interactive": InteractiveWorkload(5, mc_samples=8000, rademacher_n=(1, 4, 9, 13)),
    }


def run_once(name: str, wl, trace: int) -> dict:
    args = argparse.Namespace(workload=name, seed=5, seconds=0.0, trace=trace)
    wl.warm_up()
    out = io.StringIO()
    with redirect_stdout(out):
        bench.run(args, wl, {"setup.import_s": 1.0, "setup.inputs_s": 0.0, "setup.warmup_s": 0.0})
    lines = out.getvalue().splitlines()
    result = json.loads(lines[-1])
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, "result keys")
    expect(result["correct"] and result["failed"] == 0, f"{name} trace={trace}: {lines[-12:]}")
    return result["metrics"]


def check_sweep_checks(wl: SweepWorkload) -> None:
    records = wl.run_round(0).records
    expect(wl.bad_records(records) == 0, "clean sweep records pass")
    tried = 0
    for field, pick, change in (
        ("verdict", lambda r: True, lambda r: "VIOLATED"),
        ("hits", lambda r: r["pattern"] == "single" and r["u"] < 1.0, lambda r: r["hits"] - 1),
        ("hits", lambda r: r["d"] == 1 and 0.2 < r["p_hat"] < 0.6,
         lambda r: r["hits"] + wl.grid.samples // 5),
    ):
        bad = copy.deepcopy(records)
        rec = next((r for r in bad if pick(r)), None)
        if rec is not None:
            rec[field] = change(rec)
            expect(wl.bad_records(bad) == 1, f"a wrong {field} is caught")
            tried += 1
    expect(tried == (3 if 1 in wl.grid.dims else 1), "every sweep check was tried")


def check_call_checks(wl: InteractiveWorkload) -> None:
    res = wl.run_round(0)
    checks = sum(c.kind in CHECK_KINDS for c in wl.calls)
    expect(len(res.latencies) == len(res.raw_latencies) == len(wl.calls)
           and len(res.reference) == checks + 1 and res.mc_time > 0,
           "every call time is scaled by the reference kernel runs around it")
    calls = {c.kind: c for c in wl.calls}
    table = calls["theorem"].run()
    table[3] = dataclasses.replace(table[3], raw=table[3].raw * (1 + 1e-6) + 1e-12)
    expect(not calls["theorem"].check(table), "a wrong theorem bound is caught")
    p = calls["rademacher"].run()
    expect(not calls["rademacher"].check(p + 2.0**-30), "a wrong Rademacher tail is caught")
    v = calls["log"].run()
    expect(not calls["log"].check(v * (1 + 1e-6) - 1e-6), "a wrong chi_tail_log is caught")
    for c in wl.calls:
        if c.kind == "bisub" and c.check(result := c.run()):
            flipped = dataclasses.replace(result, status="fail" if result.status == "pass" else "pass")
            expect(not c.check(flipped), "a wrong bisub status is caught")


def main() -> int:
    out = io.StringIO()
    with redirect_stdout(out):
        bench.main(["--workload", "sweep-accept", "--seed", "5", "--fresh-round"])
    ready, report = out.getvalue().splitlines()
    fresh = json.loads(report)
    expect(ready == "ready" and fresh["failed"] == 0 and fresh["peak_rss_mb"] > 0,
           f"fresh round: {out.getvalue()!r}")
    stub = dict(fresh, setup_s=1.0, raw_setup_s=1.0)
    bench.fresh_rounds = lambda workload, seed: [stub]
    bench.OUT = Path(tempfile.mkdtemp(prefix="selftest-", dir=HERE))
    try:
        cells = [(d, n) for g in (ACCEPT_GRID, HIGHDIM_GRID) for d in g.dims for n in g.ns]
        layer_names = set(bench.per_layer_units(cells))
        for name, wl in tiny_workloads(str(bench.OUT)).items():
            e2e = run_once(name, wl, 0)
            expect(set(e2e) == set(bench.END_TO_END), f"{name}: end-to-end metric names")
            expect(all(m["value"] > 0 for m in e2e.values()), f"{name}: end-to-end metric is 0")
            layers = run_once(name, wl, 1)
            expect(set(layers) == layer_names, f"{name}: per-layer metric names")
            if isinstance(wl, SweepWorkload):
                check_sweep_checks(wl)
            else:
                check_call_checks(wl)
            print(f"selftest {name}: ok")
    finally:
        shutil.rmtree(bench.OUT, ignore_errors=True)
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark worker: one fresh interpreter that imports gravstark and runs tasks.

    python bench/worker.py --workload W --seed N --seconds S --trace 0|1 [--probe]

The worker imports the package, generates its inputs, prints ``ready`` and,
unless ``--probe`` is given, runs the in-process workload as a closed loop
with one client: the next task starts when the previous one ends, and no
task starts after ``--seconds``.  With ``--trace 1`` every second task
records spans around each call into a layer and the others run bare, so the
tracing overhead can be measured in the same run.  The last stdout line is a
JSON object with per-task results and the spans.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import traceback

import checks
import inputs
from spans import Tracer, call


def _blas_threads() -> int | None:
    """Threads of numpy's bundled OpenBLAS, or None when it cannot be asked."""
    import ctypes
    import glob
    import os

    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs",
                                  "libscipy_openblas*.so"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import platform

    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": _blas_threads(),
    }


def split_sweep_task(task, tracer, g_mod, consts) -> tuple[list[str], dict]:
    p = task.params
    comp = g_mod.derive_composites(g_mod.MassModel(**p["masses"].masses()))
    field = g_mod.FieldSpec(magnitude=p["g"])
    bench_comp = checks.composites(p["masses"].masses())
    failures: list[str] = []
    for n in range(1, 5):
        groups = call(tracer, "oracle.degenerate_pt", task.index,
                      g_mod.degenerate_pt, n, comp, field, consts)
        table = call(tracer, "parabolic.splitting_table", task.index,
                     g_mod.splitting_table, n, comp, field, consts)
        levels = call(tracer, "parabolic.evaluate_levels", task.index,
                      g_mod.evaluate_levels, n, comp, field, consts)
        failures += checks.oracle_groups(n, groups, bench_comp, p["g"])
        failures += checks.sublevel_table(
            n, [(s.k, s.shift, s.energy, s.multiplicity) for s in table.sublevels],
            table.spacing, bench_comp, p["g"])
        failures += checks.parabolic_states(
            n, [(lv.k, lv.energy_unperturbed, lv.shift) for lv in levels], bench_comp, p["g"])
    return failures, {}


def instability_task(task, tracer, g_mod, consts) -> tuple[list[str], dict]:
    p = task.params
    comp = g_mod.derive_composites(g_mod.MassModel(**p["masses"].masses()))
    field = g_mod.FieldSpec(magnitude=p["g"])
    extra: dict = {}
    failures: list[str] = []
    try:
        report = call(tracer, "ionization.compare_lifetimes", task.index,
                      g_mod.compare_lifetimes, comp, field, consts)
    except g_mod.NoBarrierError as exc:
        extra["no_barrier"] = 1
        failures.append(f"compare_lifetimes: {exc}")
    else:
        failures += checks.lifetime_force(report.internal_force_atomic, p["force"], report.stable)
        if report.exponent_ratio is not None:
            extra["exponent_ratio"] = report.exponent_ratio
    points = call(tracer, "oracle.stabilization_scan", task.index,
                  g_mod.stabilization_scan, p["boxes"], p["force"], p["window"],
                  spacing=inputs.SCAN_SPACING)
    failures += checks.stabilization(
        [(pt.box_size, pt.energy, pt.level_spacing) for pt in points], p["force"], p["window"])
    result = call(tracer, "frames.frame_equivalence_check", task.index,
                  g_mod.frame_equivalence_check, acceleration=p["acceleration"],
                  grid_points=inputs.FRAME_GRID, steps=inputs.FRAME_STEPS)
    failures += checks.frame_fidelity(result.fidelity)
    return failures, extra


RUNNERS = {"split-sweep": split_sweep_task, "instability-frames": instability_task}


def run_loop(tasks, runner, seconds: float, trace: bool, g_mod, consts) -> tuple[list, list]:
    tracer = Tracer() if trace else None
    results = []
    start = time.perf_counter()
    for task in tasks:
        if time.perf_counter() - start >= seconds:
            break
        traced = trace and task.round % 2 == 1
        span = tracer.start("task", task.index) if traced else None
        t0 = time.perf_counter()
        error = None
        extra: dict = {}
        try:
            failures, extra = runner(task, tracer if traced else None, g_mod, consts)
        except Exception:  # a task that raises is a failed task; the loop goes on
            failures = []
            error = traceback.format_exc(limit=3)
        latency = time.perf_counter() - t0
        if span is not None:
            tracer.end(span)
        results.append({
            "index": task.index, "group": task.group, "traced": traced,
            "start": t0 - start, "latency_s": latency, "failures": failures, "error": error,
            **extra,
        })
    return results, (tracer.spans if tracer else [])


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(inputs.TASKS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help="exit once ready (set-up timing)")
    args = parser.parse_args()

    import gravstark as g_mod

    tasks = inputs.TASKS[args.workload](args.seed, inputs.task_budget(args.seconds))
    print("ready", flush=True)
    if args.probe:
        print(json.dumps({"environment": environment(), "gravstark_file": g_mod.__file__}))
        return 0
    results, spans = run_loop(tasks, RUNNERS[args.workload], args.seconds, bool(args.trace),
                              g_mod, g_mod.codata_defaults())
    print(json.dumps({"results": results, "spans": spans, "gravstark_file": g_mod.__file__}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

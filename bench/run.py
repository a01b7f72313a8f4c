"""gravstark benchmark: one named workload, closed loop, one client.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

Run it from the root of a gravstark source tree.  The package is imported
from ``src/`` of that tree (no install step), every output is checked by
``checks.py``, and the last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  The lines before it name
each metric with its unit and record the environment.

Workloads (inputs from ``inputs.py``, all derived from ``--seed``):

* ``cli-session``: each task is one fresh ``python -m gravstark.cli`` process,
  covering all eight subcommands, run one at a time.
* ``split-sweep``: in one worker process, ``degenerate_pt(n)`` for n = 1..4 per
  seeded mass configuration, checked with ``splitting_table`` and
  ``evaluate_levels``.
* ``instability-frames``: in one worker process, ``compare_lifetimes``, a
  ``stabilization_scan`` and a ``frame_equivalence_check`` per seeded study.

With ``--trace 0`` the metrics are the end-to-end ones: set-up time (median
of several fresh workers that start the interpreter, import gravstark and
generate their inputs), tasks per second, median and tail task latency and
peak RSS.  A failed task counts as infinite latency.  With ``--trace 1`` the
run is repeated with spans around every call into a layer, and the metrics
are the per-layer ones; alternate tasks (whole rounds on ``cli-session``)
run without spans so the tracing overhead is measured in the same run.
In-process layers are timed only in-process: on ``cli-session`` the calls
happen inside the children, so only the CLI, import and input-derived
layer metrics are non-zero there.  Per-task results, spans and the
environment are written to ``.bench_out/`` when the run ends.
"""

from __future__ import annotations

import argparse
import ast
import json
import math
import os
import platform
import selectors
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import inputs
from spans import Tracer, layer_summary, self_times

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden"
OUT = ROOT / ".bench_out"

SETUP_PROBES = 4
# Kill limits that keep a run under 180 s even when a child hangs.
PROBE_TIMEOUT_S = 30.0
CLI_TIMEOUT_S = 60.0
WORKER_GRACE_S = 90.0
TAIL_BEYOND = 10   # the tail percentile keeps at least this many samples above it


@dataclass
class Child:
    stdout: bytes
    stderr: bytes
    code: int
    wall_s: float
    ready_s: float | None   # until the first stdout line arrived
    maxrss_kb: int


def run_child(argv: list[str], timeout: float) -> Child:
    """Run ``argv`` to completion, draining both pipes; kill it after ``timeout``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    bufs = {proc.stdout: bytearray(), proc.stderr: bytearray()}
    ready = None
    try:
        with selectors.DefaultSelector() as sel:
            for pipe in bufs:
                sel.register(pipe, selectors.EVENT_READ)
            while sel.get_map():
                remaining = t0 + timeout - time.perf_counter()
                if remaining <= 0.0:
                    proc.kill()
                    break
                for key, _ in sel.select(remaining):
                    chunk = os.read(key.fd, 1 << 16)
                    if not chunk:
                        sel.unregister(key.fileobj)
                        continue
                    bufs[key.fileobj] += chunk
                    if ready is None and key.fileobj is proc.stdout and b"\n" in bufs[proc.stdout]:
                        ready = time.perf_counter() - t0
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        wall = time.perf_counter() - t0
    finally:
        if proc.returncode is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        proc.stderr.close()
    return Child(bytes(bufs[proc.stdout]), bytes(bufs[proc.stderr]), proc.returncode,
                 wall, ready, usage.ru_maxrss)


IMPORT_MODULES = {"gravstark": "gravstark", "scipy_integrate": "scipy.integrate",
                  "scipy_linalg": "scipy.linalg", "numpy": "numpy"}


def parse_importtime(stderr: bytes) -> tuple[dict[str, float], bytes]:
    """Cumulative import seconds of the tracked modules, and stderr without the log."""
    found: dict[str, float] = {}
    rest = []
    for line in stderr.splitlines(keepends=True):
        if not line.startswith(b"import time:"):
            rest.append(line)
            continue
        parts = line.decode().split("|")
        if len(parts) == 3 and parts[2].strip() in IMPORT_MODULES.values():
            try:
                found.setdefault(parts[2].strip(), int(parts[1]) * 1e-6)
            except ValueError:   # the header line
                pass
    return found, b"".join(rest)


def failed(result: dict) -> bool:
    return bool(result["failures"] or result["error"])


def latencies(results: list[dict]) -> list[float]:
    """Task latencies, with a failed task counted as infinitely slow."""
    return [math.inf if failed(r) else r["latency_s"] for r in results]


def percentile_tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples above it."""
    ordered = sorted(values)
    if not ordered:
        return 0.0, 0.0
    index = max(0, len(ordered) - TAIL_BEYOND - 1)
    return ordered[index], 100.0 * index / len(ordered)


def repeat_share(processes: list[list[int]]) -> float:
    """Share of radial-grid keys a process has already solved, over every oracle call."""
    seen_total = repeats = 0
    for ns in processes:
        seen: set = set()
        for n in ns:
            for key in inputs.oracle_grid_keys(n):
                repeats += key in seen
                seen.add(key)
                seen_total += 1
    return repeats / seen_total if seen_total else 0.0


def package_size() -> tuple[int, int]:
    """(lines in src/gravstark/*.py, names re-exported by the package __init__)."""
    pkg = SRC / "gravstark"
    loc = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sorted(pkg.glob("*.py")))
    tree = ast.parse((pkg / "__init__.py").read_text(encoding="utf-8"))
    exported = sum(len(node.names) for node in tree.body if isinstance(node, ast.ImportFrom))
    return loc, exported


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing sources, a worker that cannot start)."""


def worker_argv(args, importtime: bool, probe: bool) -> list[str]:
    argv = [sys.executable]
    if importtime:
        argv += ["-X", "importtime"]
    argv += [str(BENCH / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)]
    return argv + (["--probe"] if probe else [])


def _checked_worker_output(child: Child, what: str) -> dict:
    if child.code != 0 or child.ready_s is None:
        tail = child.stderr.decode(errors="replace")[-2000:]
        raise BenchError(f"{what} exited {child.code}: {tail}")
    report = json.loads(child.stdout.splitlines()[-1])
    where = Path(report["gravstark_file"]).resolve()
    if SRC not in where.parents:
        raise BenchError(f"{what} imported gravstark from {where}, not from {SRC}")
    return report


def setup(args) -> tuple[list[float], list[dict], dict]:
    """Set-up probes: fresh workers that exit once imported and ready."""
    trace = bool(args.trace)
    samples, imports, env = [], [], {}
    for _ in range(SETUP_PROBES):
        child = run_child(worker_argv(args, trace, probe=True), PROBE_TIMEOUT_S)
        env = _checked_worker_output(child, "set-up probe")["environment"]
        samples.append(child.ready_s)
        if trace:
            imports.append(parse_importtime(child.stderr)[0])
    return samples, imports, env


def run_cli_session(args, goldens: dict) -> dict:
    tasks = inputs.cli_tasks(args.seed, inputs.task_budget(args.seconds))
    tracer = Tracer() if args.trace else None
    results, imports, after_import, stdout_sizes, rss = [], [], [], [], []
    start = time.perf_counter()
    for task in tasks:
        if time.perf_counter() - start >= args.seconds:
            break
        traced = bool(args.trace) and task.round % 2 == 1
        argv = [sys.executable] + (["-X", "importtime"] if traced else [])
        argv += ["-m", "gravstark.cli", *task.params["argv"]]
        offset = time.perf_counter() - start
        task_span = tracer.start("task", task.index) if traced else None
        call_span = tracer.start("cli." + task.group, task.index) if traced else None
        child = run_child(argv, CLI_TIMEOUT_S)
        if call_span is not None:
            tracer.end(call_span)
        stderr = child.stderr
        if traced:
            found, stderr = parse_importtime(child.stderr)
            call_span["attrs"]["import_s"] = found
            imports.append(found)
            if "gravstark" in found:
                after_import.append(child.wall_s - found["gravstark"])
        failures = []
        if child.code != 0:
            failures.append(f"exit {child.code}: {stderr.decode(errors='replace')[-500:]}")
        else:
            failures += checks.cli_output(task.params, child.stdout, goldens)
        extra = {}
        if task.group == "lifetime" and child.code == 0:
            fmt = "json" if "golden" in task.params else task.params["format"]
            ratio = checks.parse_rows(child.stdout, fmt)[0].get("exponent_ratio")
            if ratio is not None:
                extra["exponent_ratio"] = ratio
        if task_span is not None:
            tracer.end(task_span)
        stdout_sizes.append(len(child.stdout))
        rss.append(child.maxrss_kb)
        results.append({"index": task.index, "group": task.group, "traced": traced,
                        "start": offset,
                        "latency_s": child.wall_s, "failures": failures, "error": None,
                        "exit": child.code, **extra})
    loop_s = time.perf_counter() - start
    return {"results": results, "spans": tracer.spans if tracer else [], "loop_s": loop_s,
            "imports": imports, "after_import": after_import, "stdout_sizes": stdout_sizes,
            "maxrss_kb": max(rss) if rss else 0, "tasks": tasks}


def run_in_process(args) -> dict:
    child = run_child(worker_argv(args, bool(args.trace), probe=False),
                      args.seconds + WORKER_GRACE_S)
    report = _checked_worker_output(child, "worker")
    results = report["results"]
    loop_s = max((r["start"] + r["latency_s"] for r in results), default=0.0)
    imports = [parse_importtime(child.stderr)[0]] if args.trace else []
    tasks = inputs.TASKS[args.workload](args.seed, inputs.task_budget(args.seconds))
    return {"results": results, "spans": report["spans"], "loop_s": loop_s, "imports": imports,
            "after_import": [], "stdout_sizes": [], "maxrss_kb": child.maxrss_kb, "tasks": tasks}


def oracle_processes(workload: str, tasks: list, results: list) -> list[list[int]]:
    """The n of every degenerate_pt call, grouped by the process that makes it."""
    ran = [tasks[r["index"]] for r in results]
    if workload == "split-sweep":
        return [[n for _ in ran for n in range(1, 5)]]
    if workload == "cli-session":
        return [[t.params["n"]] for t in ran if "n" in t.params]
    return []


def _median(values, default=0.0) -> float:
    return statistics.median(values) if values else default


def end_to_end(run: dict, setup_samples: list[float]) -> dict:
    times = latencies(run["results"])
    ok = sum(1 for x in times if math.isfinite(x))
    tail, _ = percentile_tail(times)
    return {
        "setup_s": (_median(setup_samples), "s"),
        "tasks_per_s": (ok / run["loop_s"] if run["loop_s"] else 0.0, "1/s"),
        "task_p50_s": (_median(times), "s"),
        "task_tail_s": (tail, "s"),
        "peak_rss_mb": (run["maxrss_kb"] * 1024 / 1e6, "MB"),
    }


def per_layer(args, run: dict, imports: list[dict]) -> dict:
    spans = run["spans"]
    layers = layer_summary(spans)
    own = self_times(spans)
    results = run["results"]
    tasks = run["tasks"]
    traced = [tasks[r["index"]] for r in results if r["traced"]]

    def layer(name: str, key: str) -> float:
        return layers.get(name, {}).get(key, 0)

    m: dict[str, tuple[float, str]] = {}
    for label, module in IMPORT_MODULES.items():
        m[f"import.{label}_s"] = (_median([i[module] for i in imports if module in i]), "s")
    m["cli.after_import_s"] = (_median(run["after_import"]), "s")
    for sub in inputs.SUBCOMMANDS:
        m[f"cli.{sub}.p50_s"] = (layer(f"cli.{sub}", "p50_s"), "s")
    m["cli.stdout_bytes"] = (statistics.fmean(run["stdout_sizes"]) if run["stdout_sizes"] else 0.0,
                             "bytes")
    m["cli.nonzero_exit"] = (sum(1 for r in results if r.get("exit", 0) != 0), "count")

    for name, keys in (("oracle.degenerate_pt", ("calls", "busy_s", "p50_s")),
                       ("oracle.stabilization_scan", ("calls", "busy_s", "p50_s")),
                       ("frames.frame_equivalence_check", ("calls", "busy_s", "p50_s")),
                       ("ionization.compare_lifetimes", ("calls", "busy_s"))):
        for key in keys:
            m[f"{name}.{key}"] = (layer(name, key), "count" if key == "calls" else "s")
    traced_ns = oracle_processes(args.workload, tasks, [r for r in results if r["traced"]])
    m["oracle.degenerate_pt.manifold_states"] = (sum(n * n for ns in traced_ns for n in ns),
                                                 "count")
    m["oracle.repeat_grid_share"] = (repeat_share(oracle_processes(args.workload, tasks, results)),
                                     "1")
    m["oracle.stabilization_scan.grid_points"] = (
        sum(round(b / inputs.SCAN_SPACING) - 1 for t in traced if "boxes" in t.params
            for b in t.params["boxes"]), "count")

    frame_calls = layer("frames.frame_equivalence_check", "calls")
    frame_busy = layer("frames.frame_equivalence_check", "busy_s")
    n, steps = inputs.FRAME_GRID, inputs.FRAME_STEPS
    m["wavepacket.point_steps_per_s"] = (2 * n * steps * frame_calls / frame_busy
                                         if frame_busy else 0.0, "1/s")
    m["wavepacket.fft_flops_computed"] = (frame_calls * 2 * steps * 2 * 5 * n * math.log2(n),
                                          "flop")
    m["ionization.compare_lifetimes.no_barrier"] = (sum(r.get("no_barrier", 0) for r in results),
                                                    "count")
    ratios = [r["exponent_ratio"] for r in results if "exponent_ratio" in r]
    m["ionization.exponent_ratio_spread"] = (max(ratios) - min(ratios) if ratios else 0.0, "1")
    m["parabolic.splitting_table.busy_s"] = (layer("parabolic.splitting_table", "busy_s"), "s")
    m["parabolic.evaluate_levels.busy_s"] = (layer("parabolic.evaluate_levels", "busy_s"), "s")
    loc, exported = package_size()
    m["package.src_loc"] = (loc, "lines")
    m["package.exported_names"] = (exported, "count")

    by_group: dict[tuple[str, bool], list[float]] = {}
    for r in results:
        if not failed(r):
            by_group.setdefault((r["group"], r["traced"]), []).append(r["latency_s"])
    groups = [g for g, t in by_group if t and (g, False) in by_group]
    on = sum(_median(by_group[(g, True)]) for g in groups)
    off = sum(_median(by_group[(g, False)]) for g in groups)
    m["trace.overhead_frac"] = (on / off - 1.0 if off else 0.0, "1")
    m["bench.task_self_s"] = (sum(own[s["id"]] for s in spans if s["name"] == "task"), "s")
    m["failed_frac"] = (sum(map(failed, results)) / len(results) if results else 0.0, "1")
    m["task_tail_pct"] = (percentile_tail(latencies(results))[1], "%")
    zero = [inputs.zero_asymmetry(tasks[r["index"]]) for r in results]
    zero = [z for z in zero if z is not None]
    m["inputs.zero_asymmetry_share"] = (sum(zero) / len(zero) if zero else 0.0, "1")
    return m


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.TASKS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    try:
        if not (SRC / "gravstark" / "__init__.py").is_file():
            raise BenchError(f"no gravstark sources under {SRC}; run from a source tree")
        goldens = {name: (GOLDEN / name).read_bytes() for name in inputs.GOLDEN_ARGS}
    except (BenchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    problems = checks.self_test(goldens)
    try:
        setup_samples, imports, env = setup(args)
        run = (run_cli_session(args, goldens) if args.workload == "cli-session"
               else run_in_process(args))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    results = run["results"]
    failures = [r for r in results if failed(r)]
    env.update(cpu=cpu_model(), nproc=os.cpu_count())
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = os.environ.get(key, "unset")
    print(f"environment: {json.dumps(env, sort_keys=True)}")
    for message in problems:
        print(message)
    for r in failures[:20]:
        print(f"failed task {r['index']} ({r['group']}): {r['error'] or '; '.join(r['failures'])}")

    OUT.mkdir(exist_ok=True)
    report = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report.write_text(json.dumps({"environment": env, "setup_s": setup_samples,
                                  "results": results, "spans": run["spans"]}), encoding="utf-8")
    print(f"results and {len(run['spans'])} spans written to {report.relative_to(ROOT)}")
    if args.trace:
        metrics = per_layer(args, run, imports + run["imports"])
    else:
        metrics = end_to_end(run, setup_samples)
        tail_pct = percentile_tail(latencies(results))[1]
        print(f"samples: {len(results)} tasks; task_tail_s is p{tail_pct:.1f}; "
              f"failed_frac {len(failures) / max(1, len(results)):.4f}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")

    print(json.dumps({
        "correct": not problems and not failures and bool(results),
        "attempted": len(results),
        "failed": len(failures),
        "metrics": {name: {"value": value if math.isfinite(value) else None, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

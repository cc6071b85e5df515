#!/usr/bin/env python3
"""Benchmark for nsac: one workload per invocation, result as a JSON last line.

Run from the repository root:

    python3 perfbench/run.py --workload decay64 --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped. Their
times are CPU times of the whole process (all threads): on a shared host,
stolen time moves wall-clock numbers far more than code changes do.
Wall-clock figures are printed alongside, for the record. ``--trace 1``
wraps the public entry points of every ``nsac`` module, runs two traced
units and one untraced unit, and reports the per-layer metrics.
Workloads, metrics and exclusions are described in ``perfbench/README.md``.

The solver is imported from ``src/`` of the checkout that holds this file;
without it the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = HERE / "_work"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

#: End-to-end metrics in output order: name -> unit. Times are CPU times.
END_TO_END = {
    "setup_s": "s",
    "cpu_s": "s",
    "ops_per_cpu_s": "1/s",
    "op_cpu_ms.p50": "ms",
    "op_cpu_ms.tail": "ms",
    "peak_rss_mb": "MB",
}

#: Wall-clock counterparts, printed but not part of the result.
RECORDED = {
    "setup_wall_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "op_ms.p50": "ms",
    "op_ms.tail": "ms",
}


def percentile(values, pct: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def cap_threads() -> None:
    """Run no more BLAS/OpenMP threads than cores; FFTs use all cores already."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        try:
            requested = int(os.environ.get(var, nproc))
        except ValueError:
            requested = nproc
        os.environ[var] = str(min(max(requested, 1), nproc))


def _read(path: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return None


def machine_info(workload) -> dict:
    import numpy
    import scipy
    from nsac import spectral

    cpuinfo = _read("/proc/cpuinfo") or ""
    model = next(
        (line.split(":", 1)[1].strip() for line in cpuinfo.splitlines() if line.startswith("model name")),
        platform.processor() or None,
    )
    caches = {}
    for index in range(8):
        base = f"/sys/devices/system/cpu/cpu0/cache/index{index}/"
        level, kind, size = (_read(base + leaf) for leaf in ("level", "type", "size"))
        if level and kind and size:
            suffix = "" if kind.strip() == "Unified" else kind.strip()[0].lower()
            caches[f"L{level.strip()}{suffix}"] = size.strip()
    workers = spectral._FFT_WORKERS
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches_per_cpu0": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "fft_workers": f"{workers} (all {os.cpu_count()} cores)" if workers == -1 else workers,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "working_set": workload.working_set(),
    }


def timed_setup(workload) -> tuple[float, float]:
    """(wall, CPU) seconds from the import of nsac to the end of set-up."""
    w0, c0 = time.perf_counter(), time.process_time()
    workload.setup()
    return time.perf_counter() - w0, time.process_time() - c0


def probe_setup(workload) -> tuple[float, float]:
    """Set-up time in a fresh interpreter, so the import is paid again."""
    cmd = [sys.executable, str(Path(__file__)), "--setup-probe"]
    cmd += ["--workload", workload.name, "--seed", str(workload.seed)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150, check=True)
    wall, cpu = json.loads(out.stdout.strip().splitlines()[-1])
    return wall, cpu


def safe_unit(workload):
    from bench_workloads import UnitResult

    w0, c0 = time.perf_counter(), time.process_time()
    try:
        return workload.unit()
    except Exception as err:  # a crashing unit is a failed operation, not a crashed benchmark
        traceback.print_exc()
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        return UnitResult(wall, cpu, 1, failures=[repr(err)], failed_ops=1)


def check_repeats(units) -> None:
    """Every unit of one run must reproduce the first unit's output fingerprint."""
    for unit in units[1:]:
        if unit.fingerprint != units[0].fingerprint and not unit.failures:
            unit.failures.append("output differs from the first unit of this run")
            unit.failed_ops = unit.ops


def untraced(workload, seconds: float):
    setups = [timed_setup(workload)]
    setups += [probe_setup(workload) for _ in range(workload.setup_repeats - 1)]
    units = []
    start = time.perf_counter()
    while len(units) < workload.min_units or time.perf_counter() - start < seconds:
        units.append(safe_unit(workload))
    check_repeats(units)
    ops = sum(u.ops for u in units)
    op_ms = [[1e3 * t for u in units for t in u.op_times(clock)] or [0.0] for clock in (0, 1)]
    values = {
        "setup_s": median(cpu for _, cpu in setups),
        "cpu_s": median(u.cpu for u in units),
        "ops_per_cpu_s": ops / sum(u.cpu for u in units),
        "op_cpu_ms.p50": median(op_ms[1]),
        "op_cpu_ms.tail": percentile(op_ms[1], workload.tail_pct),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_wall_s": median(wall for wall, _ in setups),
        "wall_s": median(u.wall for u in units),
        "ops_per_s": ops / sum(u.wall for u in units),
        "op_ms.p50": median(op_ms[0]),
        "op_ms.tail": percentile(op_ms[0], workload.tail_pct),
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    recorded = {name: {"value": values[name], "unit": unit} for name, unit in RECORDED.items()}
    notes = {
        "setup_samples_wall_cpu_s": setups,
        "unit_wall_cpu_s": [(u.wall, u.cpu) for u in units],
        "op": workload.op,
        "op_samples": len(op_ms[1]),
        "tail_percentile": workload.tail_pct,
    }
    return units, metrics, recorded, notes


def traced(workload):
    from bench_layers import UnitSpans, layer_metrics
    from bench_tracing import Tracer
    from bench_workloads import no_region

    tracer = Tracer()
    workload.load()
    tracer.install()
    first = len(tracer.spans)
    w0, c0 = time.perf_counter(), time.process_time()
    workload.prepare()
    wall, cpu = time.perf_counter() - w0, time.process_time() - c0
    setup = UnitSpans(tracer.spans, first, len(tracer.spans), wall, cpu)
    tracer.uninstall()
    ranges = [("setup", first, len(tracer.spans))]
    spans = []

    def traced_unit(label):
        tracer.install()
        workload.region = tracer.region
        first = len(tracer.spans)
        try:
            unit = safe_unit(workload)
        finally:
            workload.region = no_region
            tracer.uninstall()
        ranges.append((label, first, len(tracer.spans)))
        spans.append(UnitSpans(tracer.spans, first, len(tracer.spans), unit.wall, unit.cpu))
        return unit

    # the untraced unit sits between the traced ones, so that warm-up of the
    # process (lazy imports, first-touch memory) falls on the first traced unit
    units = [traced_unit("traced1"), safe_unit(workload), traced_unit("traced2")]
    check_repeats(units)

    metrics, counts, mismatched = layer_metrics(spans, setup, units[1])
    if mismatched:
        units[-1].failures.append(f"counts differ between traced units: {mismatched}")
        units[-1].failed_ops = units[-1].ops
    tracer.dump(str(WORKDIR / f"spans-{workload.name}-seed{workload.seed}.json"), ranges)
    notes = {
        "unit_wall_cpu_s": dict(
            zip(("traced1", "untraced", "traced2"), ((u.wall, u.cpu) for u in units))
        ),
        "counts_per_traced_unit": counts,
        "spans": len(tracer.spans),
    }
    return units, metrics, {}, notes


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=("decay64", "dense32", "oracle-sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "nsac" / "__init__.py").is_file():
        print(f"error: no nsac sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    cap_threads()
    sys.path.insert(0, str(SRC))
    from bench_workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, WORKDIR)
    if args.setup_probe:
        print(json.dumps(timed_setup(workload)))
        return 0
    WORKDIR.mkdir(exist_ok=True)
    if args.trace:
        units, metrics, recorded, notes = traced(workload)
    else:
        units, metrics, recorded, notes = untraced(workload, args.seconds)

    attempted = sum(u.ops for u in units)
    failed = sum(u.failed_ops for u in units)
    for unit in units:
        for failure in unit.failures:
            print(f"check failed: {failure}", file=sys.stderr)
    print("machine " + json.dumps(machine_info(workload), sort_keys=True))
    print("notes " + json.dumps(notes, sort_keys=True))
    for name, m in {**metrics, **recorded}.items():
        print(f"{args.workload:>13} {name:<40} {m['value']:>16.6g} {m['unit']}")
    print(f"{args.workload:>13} {'fail_ratio':<40} {failed / attempted:>16.6g} ratio")
    result = {
        "correct": failed == 0 and not any(u.failures for u in units),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

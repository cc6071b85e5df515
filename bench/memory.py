#!/usr/bin/env python3
"""Where one decay64 unit holds its memory, layer by layer.

Run from the repository root:

    python3 bench/memory.py --n 64 --seed 1
    python3 bench/memory.py --n 64 --seed 1 --faults 4.0

One unit of the benchmark's ``decay64`` workload (``perfbench/bench_workloads.py``:
a CNAB2 ``run`` from the random-perturbation IC with its step-0 and ``t_end``
samples), at ``--n``^3, under ``tracemalloc``. Each layer is a public name
wrapped for the unit's duration: ``run`` itself, ``check_state``,
``adaptive_dt`` and ``nonlinear_terms`` as ``nsac.integrate`` calls them,
``Stepper.step_euler`` / ``step_cnab2``, and the observers ``run`` is given.
Per layer the table gives the calls, the largest traced peak of one call
(nested calls count toward every layer they run in) and the memory traced at
the entry of that call, in MiB. numpy reports its arrays to ``tracemalloc``,
so the numbers are the arrays a layer holds and allocates. Tracing starts
before the IC is built. After the table, one line gives the arrays a
`Stepper` on the unit's grid allocates once and keeps, in MiB: the
tendency's transform window ``hats``, its physical slab, the de-aliased
``phi^2`` field and the CNAB2 history ``prev``. The last line is the
process's ``ru_maxrss``, tracing included.

With ``--faults T_END`` the tool instead runs decay64's ``run`` once, untraced
and without its samples, to ``T_END`` and prints the minor page faults
(``ru_minflt``) of each step, read by an observer after every step, and how
many steps after step 4 took more than 100 of them. A step that faults
reuses no freed memory: the allocator grew or trimmed its heap. Run it as a
process of its own, since the heap an earlier computation leaves behind
changes the faults.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import resource
import sys
import tempfile
import tracemalloc
from dataclasses import replace
from pathlib import Path
from unittest.mock import patch

ROOT = Path(__file__).resolve().parents[1]
MIB = 1024.0 * 1024.0
#: The table's rows, outermost first.
LAYERS = (
    "run", "check_state", "adaptive_dt", "nonlinear_terms", "Stepper.step_euler", "Stepper.step_cnab2", "observers"
)
#: ``--faults`` counts the steps after this one that take more than FAULT_LIMIT minor faults.
WARM_STEPS = 4
FAULT_LIMIT = 100


class LayerTracer:
    """Per-layer traced peaks of nested calls, from one ``tracemalloc`` peak counter.

    On every entry and exit the peak so far is folded into each open call and
    the counter is reset, so each call sees the peak of its own span.
    """

    def __init__(self):
        self.open: list[list] = []  # [entry, peak] per call in progress
        self.layers: dict[str, dict] = {}

    def _fold(self) -> None:
        _, peak = tracemalloc.get_traced_memory()
        for call in self.open:
            call[1] = max(call[1], peak)
        tracemalloc.reset_peak()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._fold()
            live, _ = tracemalloc.get_traced_memory()
            call = [live, live]
            self.open.append(call)
            try:
                return fn(*args, **kwargs)
            finally:
                self._fold()
                self.open.pop()
                layer = self.layers.setdefault(name, {"calls": 0, "peak": 0, "entry": 0})
                layer["calls"] += 1
                if call[1] > layer["peak"]:
                    layer["entry"], layer["peak"] = call

        return traced


def _decay64(n: int, seed: int):
    """The benchmark's decay64 workload at ``n``^3, not yet set up."""
    sys.path[:0] = [path for path in (str(ROOT / "src"), str(ROOT / "perfbench")) if path not in sys.path]
    import bench_workloads

    workload = bench_workloads.Decay64(seed, Path(tempfile.gettempdir()))
    workload.n = n
    return workload


def measure(n: int, seed: int) -> dict:
    """``{layer: {"calls", "peak", "entry"}}`` in bytes for one decay64 unit at ``n``^3."""
    workload = _decay64(n, seed)
    import nsac
    import nsac.integrate as integrate

    tracer = LayerTracer()
    run = tracer.wrap("run", nsac.run)

    def run_with_traced_observers(state, cfg, params, observers=(), cadence=1):
        observers = tuple(tracer.wrap("observers", obs) for obs in observers)
        return run(state, cfg, params, observers=observers, cadence=cadence)

    with contextlib.ExitStack() as stack:
        stack.enter_context(patch.object(nsac, "run", run_with_traced_observers))
        for name in ("check_state", "adaptive_dt", "nonlinear_terms"):
            stack.enter_context(patch.object(integrate, name, tracer.wrap(name, getattr(integrate, name))))
        for name in ("step_euler", "step_cnab2"):
            method = getattr(integrate.Stepper, name)
            stack.enter_context(patch.object(integrate.Stepper, name, tracer.wrap(f"Stepper.{name}", method)))
        tracemalloc.start()
        try:
            workload.setup()
            result = workload.unit()
        finally:
            tracemalloc.stop()
    if result.failures:
        raise RuntimeError(f"the unit failed: {result.failures}")
    return tracer.layers


def workspace(n: int) -> dict[str, int]:
    """Bytes of each array a `Stepper` on decay64's grid at ``n``^3 keeps from its first step to its last."""
    import nsac
    import nsac.integrate as integrate

    stepper = integrate.Stepper(nsac.Grid(dim=3, n=n, length=2.0 * math.pi), nsac.PhysParams())
    work = stepper.work
    return {"hats": work.hats.nbytes, "physical slab": work.phys.nbytes, "phi^2": work.phi2.nbytes,
            "prev": stepper.prev.nbytes}


def faults(n: int, seed: int, t_end: float) -> list[int]:
    """Minor page faults of each step of decay64's ``run`` at ``n``^3 to ``t_end``, untraced."""
    workload = _decay64(n, seed)
    workload.setup()
    import nsac

    cfg = workload.cfg
    counts = []

    def observe(_step, _state):
        counts.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)

    summary = nsac.run(workload.state, replace(cfg.step, t_end=t_end), cfg.phys, observers=(observe,))
    if summary.termination != "t_end":
        raise RuntimeError(f"the run ended on {summary.termination}: {summary.violation}")
    return [b - a for a, b in zip(counts, counts[1:])]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--n", type=int, default=64, help="grid points per axis (default 64)")
    parser.add_argument("--seed", type=int, default=1, help="IC seed (default 1)")
    parser.add_argument("--faults", type=float, metavar="T_END", help="print the minor faults of each step to T_END")
    args = parser.parse_args(argv)
    if args.faults is not None:
        per_step = faults(args.n, args.seed, args.faults)
        print(f"decay64 run at {args.n}^3, seed {args.seed}, to t = {args.faults!r}: minor faults per step")
        print(f"{'step':>6}{'faults':>9}")
        for step, count in enumerate(per_step, start=1):
            print(f"{step:>6}{count:>9}")
        late = per_step[WARM_STEPS:]
        above = sum(count > FAULT_LIMIT for count in late)
        print(f"steps after step {WARM_STEPS} above {FAULT_LIMIT} faults: {above} of {len(late)}")
        return 0
    layers = measure(args.n, args.seed)
    print(f"decay64 unit at {args.n}^3, seed {args.seed}: traced memory in MiB")
    print(f"{'layer':<22}{'calls':>7}{'peak':>10}{'at entry':>10}{'above':>10}")
    for name in LAYERS:
        layer = layers[name]
        peak, entry = layer["peak"] / MIB, layer["entry"] / MIB
        print(f"{name:<22}{layer['calls']:>7}{peak:>10.1f}{entry:>10.1f}{peak - entry:>10.1f}")
    arrays = workspace(args.n)
    listed = ", ".join(f"{name} {size / MIB:.3f}" for name, size in arrays.items())
    print(f"Stepper workspace in MiB: {listed}; total {sum(arrays.values()) / MIB:.3f}")
    maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"ru_maxrss {maxrss:.1f} MB (tracing included)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

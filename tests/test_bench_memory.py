"""``bench/memory.py``: nested layer peaks, a decay64 unit at 16^3, its workspace line and the faults of a run."""

import importlib.util
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import nsac
import nsac.integrate

_spec = importlib.util.spec_from_file_location("memory", Path(__file__).parents[1] / "bench" / "memory.py")
memory = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(memory)

MIB = 1024 * 1024


def test_nested_calls_count_toward_every_layer_they_run_in():
    tracer = memory.LayerTracer()
    inner = tracer.wrap("inner", lambda: np.ones(MIB // 8).nbytes)  # 1 MiB, freed on return

    def outer_body():
        held = np.ones(MIB // 16)  # 0.5 MiB, held through the inner call
        inner()
        return held

    outer = tracer.wrap("outer", outer_body)
    tracemalloc.start()
    try:
        outer()
    finally:
        tracemalloc.stop()
    inner_rec, outer_rec = tracer.layers["inner"], tracer.layers["outer"]
    assert inner_rec["calls"] == outer_rec["calls"] == 1
    slack = 64 * 1024
    assert inner_rec["peak"] - inner_rec["entry"] == pytest.approx(MIB, abs=slack)
    assert inner_rec["entry"] - outer_rec["entry"] == pytest.approx(MIB // 2, abs=slack)
    assert outer_rec["peak"] == inner_rec["peak"]


def test_layers_of_one_small_unit():
    integrate = nsac.integrate
    originals = [nsac.run, integrate.check_state, integrate.adaptive_dt, integrate.nonlinear_terms,
                 integrate.Stepper.step_euler, integrate.Stepper.step_cnab2]
    layers = memory.measure(16, 1)
    assert set(layers) == set(memory.LAYERS)
    steps = layers["Stepper.step_cnab2"]["calls"]
    assert steps > 1 and layers["run"]["calls"] == 1
    assert layers["Stepper.step_euler"]["calls"] == 1  # CNAB2's bootstrap
    assert layers["adaptive_dt"]["calls"] == layers["nonlinear_terms"]["calls"] == steps
    # the step-0 check and sample, then one of each per step
    assert layers["check_state"]["calls"] == layers["observers"]["calls"] == steps + 1
    run = layers["run"]
    for layer in layers.values():
        assert run["entry"] <= layer["entry"] <= layer["peak"] <= run["peak"]
    assert layers["Stepper.step_cnab2"]["peak"] >= layers["nonlinear_terms"]["peak"]
    # every wrapped name is restored
    assert originals == [nsac.run, integrate.check_state, integrate.adaptive_dt, integrate.nonlinear_terms,
                         integrate.Stepper.step_euler, integrate.Stepper.step_cnab2]


def test_faults_of_each_step_of_a_small_run():
    script = Path(memory.__file__)
    proc = subprocess.run(
        [sys.executable, str(script), "--n", "16", "--faults", "0.5"],
        capture_output=True, text=True, check=True, timeout=60,
    )
    lines = proc.stdout.splitlines()
    assert lines[0] == "decay64 run at 16^3, seed 1, to t = 0.5: minor faults per step"
    rows = [tuple(int(cell) for cell in line.split()) for line in lines[2:-1]]
    # ten steps at the capped dt 0.05
    assert [step for step, _ in rows] == list(range(1, 11))
    assert all(count >= 0 for _, count in rows)
    above = sum(count > memory.FAULT_LIMIT for _, count in rows[memory.WARM_STEPS:])
    assert lines[-1] == f"steps after step 4 above 100 faults: {above} of 6"


def test_workspace_line_gives_the_steppers_arrays():
    proc = subprocess.run(
        [sys.executable, str(Path(memory.__file__)), "--n", "16"],
        capture_output=True, text=True, check=True, timeout=60,
    )
    line = next(line for line in proc.stdout.splitlines() if line.startswith("Stepper workspace in MiB: "))
    stepper = nsac.integrate.Stepper(nsac.Grid(dim=3, n=16, length=2 * np.pi), nsac.PhysParams())
    arrays = {"hats": stepper.work.hats, "physical slab": stepper.work.phys, "phi^2": stepper.work.phi2,
              "prev": stepper.prev}
    listed = ", ".join(f"{name} {a.nbytes / MIB:.3f}" for name, a in arrays.items())
    total = sum(a.nbytes for a in arrays.values()) / MIB
    assert line == f"Stepper workspace in MiB: {listed}; total {total:.3f}"

"""The benchmark's workloads: ``decay64``, ``dense32`` and ``oracle-sweep``.

Each workload builds its inputs from the seed, separates set-up (import
through ``make_initial`` or configuration parsing) from the timed unit, and
checks every unit's outputs. A unit is one solution: one library ``run`` to
``t_end``, one ``nsac simulate`` or one ``nsac linear-decay`` sweep.

Every timing is taken twice: wall clock (``perf_counter``) and the CPU time
of the whole process, all threads (``process_time``). Operation cost comes
from one such stamp per operation (a time step, or a decay fit) through
hooks that add no other work: an observer for ``decay64``, and for the CLI
workloads a wrapper around the ``run`` / ``decay_suite`` names the
``nsac.cli`` module calls.

All program calls go through module attributes looked up at call time, so a
traced run sees the tracer's wrappers.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import time
from dataclasses import dataclass, field

#: Initial condition shared by the stepping workloads (seed from ``--seed``).
IC_DELTA = 1e-2
IC_MAX_MODE = 4


def now() -> tuple[float, float]:
    """(wall, process CPU) clock readings in seconds."""
    return time.perf_counter(), time.process_time()


@dataclass
class UnitResult:
    wall: float
    cpu: float
    ops: int
    stamps: list[tuple[float, float]] = field(default_factory=list)  # one per op boundary
    failures: list[str] = field(default_factory=list)
    failed_ops: int = 0
    fingerprint: str | None = None  # must repeat across the units of one run

    def op_times(self, clock: int) -> list[float]:
        """Per-operation durations on clock 0 (wall) or 1 (CPU)."""
        return [b[clock] - a[clock] for a, b in zip(self.stamps, self.stamps[1:])]


def no_region(_name):
    return contextlib.nullcontext()


@contextlib.contextmanager
def _patched(owner, attr: str, make):
    """Temporarily replace ``owner.attr`` with ``make(original)``."""
    original = getattr(owner, attr)
    setattr(owner, attr, make(original))
    try:
        yield
    finally:
        setattr(owner, attr, original)


def _grid_working_set(n: int) -> dict:
    """Bytes touched per field and per batched transform, computed from shapes."""
    rsize = n * n * (n // 2 + 1)
    spectral = 16 * rsize
    physical = 8 * n**3
    return {
        "label": "computed from array shapes, not measured",
        "grid": f"{n}^3",
        "spectral_field_bytes": spectral,
        "physical_field_bytes": physical,
        "batched_inverse_bytes": 22 * (spectral + physical),
        "batched_forward_bytes": 7 * (spectral + physical),
        "implicit_inverse_bytes_per_coefficient": 16 * 16 * rsize,
    }


class Workload:
    """Common interface; subclasses define ``load``, ``prepare`` and ``unit``."""

    name = ""
    op = ""
    #: Set-ups measured per run: one in process, the rest in fresh interpreters.
    setup_repeats = 3
    #: Units per run at least.
    min_units = 2
    #: The highest of p99/p95/p90/p75 that keeps at least ten samples beyond
    #: it at ``min_units`` units.
    tail_pct = 90.0

    def __init__(self, seed: int, workdir):
        self.seed = seed
        self.workdir = workdir
        self.region = no_region

    def path(self, suffix: str) -> str:
        return str(self.workdir / f"{self.name}-seed{self.seed}{suffix}")

    def setup(self) -> None:
        self.load()
        self.prepare()

    def load(self) -> None:
        import nsac.cli  # noqa: F401  (loads every nsac module)

    def prepare(self) -> None:
        raise NotImplementedError

    def unit(self) -> UnitResult:
        raise NotImplementedError

    def working_set(self) -> dict:
        raise NotImplementedError


class _Sampler:
    """The acceptance fixture's observer, sampling only at step 0 and ``t_end``.

    It stamps every step, so it is called with cadence 1, but does diagnostic
    work only on the first and the final state.
    """

    def __init__(self, params, t_end: float, region):
        self.params = params
        self.t_end = t_end
        self.region = region
        self.stamps: list[tuple[float, float]] = []
        self.rows: list[dict] = []
        self.final = None

    def __call__(self, step: int, state) -> None:
        self.stamps.append(now())
        if step == 0 or state.t == self.t_end:
            with self.region("bench.sample"):
                self.rows.append(self._sample(state))
            self.final = state

    def _sample(self, state) -> dict:
        import numpy as np
        from nsac import diagnostics

        rep = diagnostics.energy_ledger(state, self.params)
        return {
            "E": rep.total,
            "D": rep.diss_visc + rep.diss_div + rep.diss_mu,
            "mass": state.mass(self.params),
            "phimax": float(np.max(np.abs(state.phi()))),
            "comb": diagnostics.level_energy(state, 0).combined,
            "neg05": diagnostics.negative_functional(state, 0.5).total,
            "neg1": diagnostics.negative_functional(state, 1.0).total,
        }


class Decay64(Workload):
    """64^3 CNAB2 decay through the library ``run``, dt set by the CFL bound."""

    name = "decay64"
    op = "step"
    n = 64
    dt_cap = 0.05
    t_end = 1.35  # 41 steps at the CFL-bound dt of about 0.0332
    tail_pct = 75.0  # 2 units x 41 steps: 8 beyond p90, 20 beyond p75

    def prepare(self) -> None:
        import nsac
        from nsac.config import ICSpec, RunConfig

        self.cfg = RunConfig(
            grid=nsac.Grid(dim=3, n=self.n, length=2.0 * math.pi),
            phys=nsac.PhysParams(),
            step=nsac.StepConfig(dt=self.dt_cap, t_end=self.t_end, scheme_order=2),
            ic=ICSpec(
                kind="random_perturbation", delta=IC_DELTA, max_mode=IC_MAX_MODE, seed=self.seed
            ),
        )
        self.state = nsac.make_initial(self.cfg)

    def unit(self) -> UnitResult:
        import nsac
        import numpy as np

        # a fresh State per unit: a State caches its physical views, and a
        # shared one would hand later units the first unit's transforms
        s = self.state
        state = nsac.State(s.grid, s.t, s.sigma_hat, s.u_hat, s.phi_hat)
        sampler = _Sampler(self.cfg.phys, self.t_end, self.region)
        w0, c0 = now()
        summary = nsac.run(state, self.cfg.step, self.cfg.phys, observers=(sampler,), cadence=1)
        w1, c1 = now()

        failures = []
        if summary.termination != "t_end":
            failures.append(f"termination {summary.termination}: {summary.violation}")
        final = sampler.final
        if len(sampler.rows) != 2 or final is None:
            failures.append(f"expected samples at step 0 and t_end, got {len(sampler.rows)}")
            ops = max(summary.steps, 1)
            return UnitResult(w1 - w0, c1 - c0, ops, failures=failures, failed_ops=ops)
        first, last = sampler.rows
        drift = abs(last["mass"] - first["mass"]) / abs(first["mass"])
        if not drift <= 1e-12:
            failures.append(f"mass drift {drift:.3e} > 1e-12")
        if not last["E"] <= first["E"]:
            failures.append(f"energy rose: E(end) {last['E']!r} > E(0) {first['E']!r}")
        arrays = (final.sigma_hat, final.u_hat, final.phi_hat)
        if not all(bool(np.all(np.isfinite(a))) for a in arrays):
            failures.append("non-finite final fields")
        digest = hashlib.sha256(repr(final.t).encode())
        for a in arrays:
            digest.update(a.tobytes())
        return UnitResult(
            w1 - w0,
            c1 - c0,
            summary.steps,
            stamps=sampler.stamps,
            failures=failures,
            failed_ops=summary.steps if failures else 0,
            fingerprint=digest.hexdigest(),
        )

    def working_set(self) -> dict:
        return _grid_working_set(self.n)


class Dense32(Workload):
    """``nsac simulate`` at 32^3 with an observer sample after every step."""

    name = "dense32"
    op = "step"
    n = 32
    tail_pct = 95.0  # 2 units x 200 steps: 4 beyond p99, 20 beyond p95

    def overrides(self) -> dict[str, str]:
        return {
            "grid.n": str(self.n),
            "step.dt": "5e-3",
            "step.t_end": "1",
            "diag.cadence": "1",
            "diag.l_list": "0,1,2",
            "diag.s_list": "0.5,1.0",
            "ic.kind": "random_perturbation",
            "ic.delta": repr(IC_DELTA),
            "ic.max_mode": str(IC_MAX_MODE),
            "ic.seed": str(self.seed),
            "out.csv": self.path(".csv"),
            "out.snapshot": self.path(".nsac"),
            "out.summary": self.path("-summary.json"),
        }

    def prepare(self) -> None:
        from nsac import config, initial

        initial.make_initial(config.build_run_config(self.overrides()))

    def unit(self) -> UnitResult:
        from nsac import cli

        argv = ["simulate"] + [f"{k}={v}" for k, v in self.overrides().items()]
        stamps: list[tuple[float, float]] = []

        def stamp(_step, _state):
            stamps.append(now())

        def with_stamps(run):
            def stamped_run(state, cfg, params, observers=(), cadence=1):
                return run(state, cfg, params, observers=(stamp, *observers), cadence=cadence)

            return stamped_run

        with _patched(cli, "run", with_stamps), contextlib.redirect_stdout(io.StringIO()):
            w0, c0 = now()
            rc = cli.main(argv)
            w1, c1 = now()

        with open(self.path("-summary.json"), encoding="utf-8") as fh:
            summary = json.load(fh)
        with open(self.path(".csv"), "rb") as fh:
            csv_digest = hashlib.sha256(fh.read()).hexdigest()
        steps = int(summary.get("steps", 0))
        failures = []
        if rc != 0 or summary.get("termination") != "t_end":
            failures.append(f"exit {rc}, termination {summary.get('termination')}")
        for verdict in (
            "energy_monotone",
            "max_principle",
            "mass_conserved",
            "dissipation_within_budget",
        ):
            if summary.get(verdict) is not True:
                failures.append(f"summary verdict {verdict} is {summary.get(verdict)}")
        ops = max(steps, 1)
        return UnitResult(
            w1 - w0,
            c1 - c0,
            ops,
            stamps=stamps,
            failures=failures,
            failed_ops=ops if failures else 0,
            fingerprint=csv_digest,
        )

    def working_set(self) -> dict:
        return _grid_working_set(self.n)


class OracleSweep(Workload):
    """``nsac linear-decay`` with its defaults: 27 fits x 40 quadratures.

    The operation is one decay fit. The sweep has no random input, so the
    seed does not change it.
    """

    name = "oracle-sweep"
    op = "fit"
    fits = 27
    # Single-threaded, so host noise is not averaged over both cores: the CPU
    # time of one sweep moves by up to 20% from one sweep to the next, and
    # the median needs more sweeps than the two-threaded workloads do.
    min_units = 6
    tail_pct = 90.0  # 6 units x 27 fits: 2 beyond p99, 8 beyond p95, 16 beyond p90

    def prepare(self) -> None:
        from nsac import config

        config.build_run_config({})  # the default configuration the command parses

    def unit(self) -> UnitResult:
        from nsac import cli

        argv = ["linear-decay", "--out-csv", self.path(".csv"), "--out-json", self.path(".json")]
        stamps: list[tuple[float, float]] = []

        def with_stamps(decay_suite):
            def stamped_decay_suite(*args, **kwargs):
                fit = decay_suite(*args, **kwargs)
                stamps.append(now())
                return fit

            return stamped_decay_suite

        with _patched(cli, "decay_suite", with_stamps), contextlib.redirect_stdout(io.StringIO()):
            stamps.append(now())
            rc = cli.main(argv)
            w1, c1 = now()

        with open(self.path(".json"), encoding="utf-8") as fh:
            fits = json.load(fh)["fits"]
        failed = sum(1 for f in fits if not f["passed"])
        failures = []
        if rc != 0 or len(fits) != self.fits or failed:
            failures.append(f"exit {rc}, {len(fits)} fits, {failed} failed")
        return UnitResult(
            w1 - stamps[0][0],
            c1 - stamps[0][1],
            self.fits,
            stamps=stamps,
            failures=failures,
            failed_ops=(failed or self.fits) if failures else 0,
        )

    def working_set(self) -> dict:
        return {
            "label": "computed from array shapes, not measured",
            "grid": None,
            "quadrature_nodes_per_pass": "at most 64 sub-panels x 16 Gauss nodes per ladder panel",
        }


WORKLOADS = {w.name: w for w in (Decay64, Dense32, OracleSweep)}

import tracemalloc

import numpy as np
import pytest

import nsac.integrate
import nsac.model
from nsac import Grid, PhysParams, State, StepConfig, adaptive_dt, run, step
from nsac.config import ICSpec, RunConfig
from nsac.diagnostics import energy_ledger
from nsac.initial import make_initial
from nsac.model import LinearSymbol, TendencyWorkspace, nonlinear_terms, pressure_prime
from nsac.verify import disable_dealiasing

from conftest import random_admissible_state


class TestStepConfig:
    @pytest.mark.parametrize(
        "kwargs,msg",
        [
            (dict(dt=0.0, t_end=1.0), "dt"),
            (dict(dt=0.1, t_end=1.0, cfl=1.5), "cfl"),
            (dict(dt=0.1, t_end=1.0, scheme_order=3), "scheme_order"),
            (dict(dt=0.1, t_end=-1.0), "t_end"),
            (dict(dt=0.1, t_end=float("nan")), "t_end"),
            (dict(dt=0.1, t_end=float("inf")), "t_end"),
            (dict(dt=0.1, t_end=1.0, phi_tol=-1.0), "phi_tol"),
            (dict(dt=0.1, t_end=1.0, phi_tol=float("nan")), "phi_tol"),
        ],
    )
    def test_validation(self, kwargs, msg):
        with pytest.raises(ValueError, match=msg):
            StepConfig(**kwargs)


class TestStep:
    @pytest.mark.parametrize("order", [1, 2])
    def test_equilibrium_fixed_point(self, grid16, params, order):
        cfg = StepConfig(dt=0.05, t_end=1.0, scheme_order=order)
        state = State.equilibrium(grid16)
        new = step(state, cfg, params)
        assert new.t == pytest.approx(0.05)
        assert np.array_equal(new.sigma_hat, state.sigma_hat)
        assert np.array_equal(new.u_hat, state.u_hat)
        assert np.array_equal(new.phi_hat, state.phi_hat)

    @pytest.mark.parametrize("shift", [True, False])
    def test_phase_relaxation_rate(self, params, shift):
        # sigma = u = 0, phi = 1 + delta sin(x): mode amplitude decays like
        # exp(-(eps/rho_bar^2 + 2/(eps rho_bar)) t) up to O(dt^2) + O(delta)
        grid = Grid(dim=3, n=8, length=2 * np.pi)
        delta = 1e-6
        x = grid.meshgrid()[0]
        phi = 1.0 - delta + delta * np.sin(x)  # keep phi <= 1 pointwise
        state0 = State.from_physical(
            grid, 0.0, np.zeros(grid.shape), np.zeros((3,) + grid.shape), phi
        )
        rate = params.epsilon / params.rho_bar**2 + 2.0 / (params.epsilon * params.rho_bar)
        T = 0.2
        errors = []
        for dt in (0.01, 0.005):
            cfg = StepConfig(dt=dt, t_end=T, scheme_order=2, reaction_shift=shift)
            state = state0
            for _ in range(round(T / dt)):
                state = step(state, cfg, params)
            amp = 2.0 * abs(state.phi_hat[(1, 0, 0)])
            exact = delta * np.exp(-rate * T)
            errors.append(abs(amp - exact) / (delta * np.exp(-rate * T)))
        # second order: halving dt cuts the defect by about 4 (allow slack for
        # the O(delta) nonlinear floor); the explicit-reaction variant carries
        # a larger constant since dt times the reaction rate is not small
        assert errors[0] <= (1e-2 if shift else 5e-2)
        assert errors[1] <= errors[0] / 2.5 + 1e-5

    def test_post_step_phase_bound_enforced(self, grid16, params):
        cfg = StepConfig(dt=0.01, t_end=1.0, phi_tol=1e-12)
        phi = np.full(grid16.shape, 1.01)
        state = State.from_physical(grid16, 0.0, np.zeros(grid16.shape), np.zeros((3,) + grid16.shape), phi)
        from nsac.errors import InvariantViolation

        with pytest.raises(InvariantViolation, match="phi"):
            step(state, cfg, params)


class TestAdaptiveDt:
    def test_quiescent_bound(self, grid16, params):
        # the acoustic coupling is implicit, so a state at rest is not bounded
        cfg = StepConfig(dt=10.0, t_end=1.0)
        state = State.equilibrium(grid16)
        assert adaptive_dt(state, cfg, params) == pytest.approx(cfg.dt, rel=1e-12)

    def test_sound_speed_excess_bound(self, grid16, params):
        # only the departure of c = sqrt(p') from its reference value is explicit
        cfg = StepConfig(dt=10.0, t_end=1.0)
        sigma = np.full(grid16.shape, 0.2)
        state = State.from_physical(grid16, 0.0, sigma, np.zeros((3,) + grid16.shape), np.ones(grid16.shape))
        c = lambda rho: np.sqrt(pressure_prime(rho, params))
        expected = cfg.cfl * grid16.dx / abs(c(params.rho_bar + 0.2) - c(params.rho_bar))
        assert adaptive_dt(state, cfg, params) == pytest.approx(expected, rel=1e-12)

    def test_config_cap(self, grid16, params):
        cfg = StepConfig(dt=1e-4, t_end=1.0)
        state = State.equilibrium(grid16)
        assert adaptive_dt(state, cfg, params) == 1e-4

    def test_doubling_speed_halves_binding_bound(self, grid16, params):
        cfg = StepConfig(dt=10.0, t_end=1.0)
        cs = np.sqrt(params.p_prime_bar)
        u1 = np.zeros((3,) + grid16.shape)
        u1[0] = 100.0 * cs
        s1 = State.from_physical(grid16, 0.0, np.zeros(grid16.shape), u1, np.ones(grid16.shape))
        s2 = State.from_physical(grid16, 0.0, np.zeros(grid16.shape), 2 * u1, np.ones(grid16.shape))
        ratio = adaptive_dt(s2, cfg, params) / adaptive_dt(s1, cfg, params)
        assert ratio == pytest.approx(0.5, abs=0.01)

    def test_random_state_positive_and_capped(self, grid16, params):
        rng = np.random.default_rng(20)
        state = random_admissible_state(rng, grid16)
        cfg = StepConfig(dt=0.3, t_end=1.0)
        dt = adaptive_dt(state, cfg, params)
        assert 0 < dt <= cfg.dt


class TestRun:
    def test_zero_duration(self, grid16, params):
        cfg = StepConfig(dt=0.1, t_end=0.0)
        summary = run(State.equilibrium(grid16), cfg, params)
        assert summary.steps == 0
        assert summary.termination == "t_end"

    def test_equilibrium_observer_records_identical(self, grid16, params):
        cfg = StepConfig(dt=0.01, t_end=1.0)
        records = []
        run(State.equilibrium(grid16), cfg, params, observers=(lambda i, s: records.append(
            (energy_ledger(s, params).total, s.mass(params))),))
        assert len(records) >= 100
        assert all(r == records[0] for r in records)

    def test_lands_exactly_on_t_end(self, grid16, params):
        cfg = StepConfig(dt=0.03, t_end=0.1)
        holder = {}
        summary = run(State.equilibrium(grid16), cfg, params, observers=(lambda i, s: holder.update(t=s.t),))
        assert summary.t_final == 0.1
        assert holder["t"] == 0.1

    @pytest.mark.parametrize(
        "speed, dt, t_end, dt_limits",
        [
            (0.0, 0.03, 0.1, {"cap": 3, "cfl": 0, "t_end": 1}),
            (0.5, 10.0, 1.0, {"cap": 0, "cfl": 3, "t_end": 1}),
        ],
    )
    def test_dt_limits(self, grid16, params, speed, dt, t_end, dt_limits):
        # uniform translation is an exact solution; at speed 0.5 the CFL bound
        # 0.4 dx / 0.5 = 0.314 sets three steps before the landing on t_end
        u = np.zeros((3,) + grid16.shape)
        u[0] = speed
        state = State.from_physical(grid16, 0.0, np.zeros(grid16.shape), u, np.ones(grid16.shape))
        summary = run(state, StepConfig(dt=dt, t_end=t_end), params)
        assert summary.termination == "t_end"
        assert summary.dt_limits == dt_limits

    def test_roundoff_short_of_t_end_lands_without_a_sliver_step(self, params):
        # 980 steps of 0.05 from t = 1 reach 49.9999999999993: that remainder is
        # roundoff, not a 981st step of 7e-13 (the acceptance fixture's tail)
        grid = Grid(dim=3, n=8, length=2 * np.pi)
        summary = run(State.equilibrium(grid, t=1.0), StepConfig(dt=0.05, t_end=50.0), params)
        assert summary.steps == 980
        assert summary.t_final == 50.0
        assert summary.dt_limits == {"cap": 980, "cfl": 0, "t_end": 0}

    def test_max_steps_cap(self, grid16, params):
        cfg = StepConfig(dt=1e-4, t_end=10.0, max_steps=5)
        summary = run(State.equilibrium(grid16), cfg, params)
        assert summary.termination == "max_steps"
        assert summary.steps == 5

    def test_cadence(self, grid16, params):
        cfg = StepConfig(dt=0.01, t_end=0.1)
        hits = []
        run(State.equilibrium(grid16), cfg, params, observers=(lambda i, s: hits.append(i),), cadence=5)
        assert hits[0] == 0
        assert all(i % 5 == 0 or i == hits[-1] for i in hits)

    def test_window_violation_recorded(self, params):
        cfg = StepConfig(dt=5e-3, t_end=2.0)
        seen = []
        summary = run(compressed_state(), cfg, params, observers=(lambda i, s: seen.append(s.t),))
        assert summary.termination == "invariant_violation"
        assert summary.violation["field"] == "rho"
        assert summary.violation["step"] is not None
        # the summary reports the last accepted state, not the rejected candidate
        assert summary.t_final == seen[-1]
        assert len(seen) == summary.steps + 1

    @pytest.mark.parametrize("stop", ["max_steps", "invariant_violation"])
    def test_observers_see_last_accepted_state(self, params, stop):
        # a run that stops between cadence points still shows its last state
        if stop == "max_steps":
            state = State.equilibrium(Grid(dim=3, n=16, length=2 * np.pi))
            cfg = StepConfig(dt=0.01, t_end=1.0, max_steps=5)
        else:
            state = compressed_state()
            cfg = StepConfig(dt=5e-3, t_end=2.0)
        seen = []
        summary = run(state, cfg, params, observers=(lambda i, s: seen.append((i, s.t)),), cadence=1000)
        assert summary.termination == stop
        assert seen[-1] == (summary.steps, summary.t_final)
        assert len(seen) == 2 and summary.steps > 0


def compressed_state():
    """Density just inside the window, pushed out within a few steps by compression."""
    grid = Grid(dim=3, n=16, length=2 * np.pi)
    x = grid.meshgrid()[0]
    sigma = -0.45 - 0.04 * np.cos(x)
    u = np.zeros((3,) + grid.shape)
    u[0] = np.sin(x)
    return State.from_physical(grid, 0.0, sigma, u, np.ones(grid.shape))


def _five_step_run(grid, params) -> RunConfig:
    """Step 1 is the Euler bootstrap, steps 2-5 are CNAB2 at the cap dt."""
    return RunConfig(
        grid=grid,
        phys=params,
        step=StepConfig(dt=0.02, t_end=0.1, scheme_order=2),
        ic=ICSpec(kind="random_perturbation", delta=1e-2, max_mode=3, seed=5),
    )


class TestStepCost:
    """What one time step costs, counted rather than timed."""

    def test_fft_fields_per_cnab2_step(self, grid16, params, monkeypatch):
        cfg = _five_step_run(grid16, params)
        state = make_initial(cfg)
        fields = [0]

        def count(name, per_call):
            original = getattr(Grid, name)

            def counted(self, arr, *args, **kwargs):
                fields[0] += per_call(arr)
                return original(self, arr, *args, **kwargs)

            monkeypatch.setattr(Grid, name, counted)

        for name in ("forward", "inverse"):
            count(name, lambda arr: 1)
        for name in ("forward_many", "inverse_many"):
            count(name, lambda arr: arr.shape[0])

        # the observer only reads the counter: step 1 is the Euler bootstrap,
        # steps 2 onwards are CNAB2 with their CFL bound and post-step check
        marks = []
        summary = run(state, cfg.step, params, observers=(lambda i, s: marks.append(fields[0]),))
        assert summary.termination == "t_end" and summary.steps == 5
        per_step = np.diff(marks)
        # views of sigma, u, phi (5), the derivative stack (10), phi^2 (2),
        # the explicit products and K - H (8): 5 + 10 + 2 + 8
        assert per_step[1:].tolist() == [25] * 4

    def test_one_pressure_prime_per_step(self, grid16, params, monkeypatch):
        cfg = _five_step_run(grid16, params)
        state = make_initial(cfg)
        calls = [0]

        def counted(rho, p):
            calls[0] += 1
            return pressure_prime(rho, p)

        for module in (nsac.model, nsac.integrate):  # wherever the stepping code binds the name
            if hasattr(module, "pressure_prime"):
                monkeypatch.setattr(module, "pressure_prime", counted)

        marks = []
        summary = run(state, cfg.step, params, observers=(lambda i, s: marks.append(calls[0]),))
        assert summary.steps == 5
        # the CFL bound and the tendency share the State's evaluation
        assert np.diff(marks).tolist() == [1] * 5

    def test_allocation_per_cnab2_step(self, grid16, params):
        cfg = _five_step_run(grid16, params)
        state = make_initial(cfg)
        marks = []

        def obs(_i, _s):
            marks.append(tracemalloc.get_traced_memory())
            tracemalloc.reset_peak()

        tracemalloc.start()
        try:
            summary = run(state, cfg.step, params, observers=(obs,))
        finally:
            tracemalloc.stop()
        assert summary.steps == 5
        # peak above the memory held when the step began, in spectral fields
        field = 16 * grid16.n**2 * (grid16.n // 2 + 1)
        peaks = [(peak - held) / field for (held, _), (_, peak) in zip(marks, marks[1:])]
        # the Stepper's workspace holds the tendency's arrays; a step allocates
        # the linear operator and solve, the new State and its views (15.2), and
        # the first CNAB2 step builds the second 8-field transform buffer (23.2)
        assert max(peaks[1:]) <= 25


class TestWorkspaceReuse:
    """Scratch arrays reused from step to step never show in a result."""

    def test_observed_state_survives_later_steps(self, grid16, params):
        cfg = _five_step_run(grid16, params)
        held = {}

        def obs(i, s):
            if i == 2:
                held["state"] = s
                held["copies"] = [a.copy() for a in (s.stacked(), s.sigma(), s.u(), s.phi())]

        summary = run(make_initial(cfg), cfg.step, params, observers=(obs,))
        assert summary.steps == 5
        s = held["state"]
        for now, then in zip((s.stacked(), s.sigma(), s.u(), s.phi()), held["copies"]):
            assert now.tobytes() == then.tobytes()

    def test_reused_workspace_matches_a_fresh_one(self, grid16, params):
        a, b = (random_admissible_state(np.random.default_rng(seed), grid16, max_mode=4) for seed in (11, 12))
        work = TendencyWorkspace(grid16)
        n_a = nonlinear_terms(a, params, work)
        kept = n_a.copy()
        nonlinear_terms(b, params, work)
        assert n_a.tobytes() == kept.tobytes()  # intact through the next call
        # the call after next reuses its buffers and gives the same tendency
        assert nonlinear_terms(a, params, work).tobytes() == kept.tobytes()
        assert nonlinear_terms(a, params).tobytes() == kept.tobytes()

    def test_in_place_mask_honours_disable_dealiasing(self, grid16, params):
        state = random_admissible_state(np.random.default_rng(13), grid16, amplitude=1e-1, max_mode=4)
        work = TendencyWorkspace(grid16)
        beyond = ~grid16.dealias_mask
        assert not np.any(nonlinear_terms(state, params, work)[:, beyond])
        with disable_dealiasing():
            aliased = nonlinear_terms(state, params, work)
        assert np.any(aliased[:, beyond])


class TestWholeStep:
    def test_run_matches_a_written_out_euler_then_cnab2_loop(self, grid16, params):
        """`run`'s steps against their formulas, every tendency a fresh array.

        The Stepper keeps the previous tendency in the workspace's other
        transform buffer and writes the history difference into it; this loop
        keeps every array apart, so the two agree only if no buffer is
        overwritten before it is read.
        """
        cfg = _five_step_run(grid16, params)
        assert cfg.step.reaction_shift
        state = make_initial(cfg)
        held = {}
        summary = run(state, cfg.step, params, observers=(lambda i, s: held.update(state=s),))
        assert summary.termination == "t_end" and summary.steps == 5

        shift = 2.0 / (params.epsilon * params.rho_bar)
        B = LinearSymbol(grid16, params, shift)
        s, prev, dt_prev, dt_curr = state, None, None, cfg.step.dt
        for _ in range(summary.steps):
            dt_curr = min(dt_curr, adaptive_dt(s, cfg.step, params))
            dt = min(dt_curr, cfg.step.t_end - s.t)
            n = nonlinear_terms(s, params)
            n[-1] += shift * s.phi_hat
            y = s.stacked()
            incr = B.apply(y) + n
            if prev is None:  # the Euler bootstrap
                alpha = dt
            else:
                alpha = 0.5 * dt
                incr = incr + (-0.5 * dt / dt_prev) * (prev - n)
            new = y + B.solve(alpha, dt * incr)
            new *= grid16.dealias_mask
            s = State(grid16, s.t + dt, new[0], new[1:-1], new[-1])
            prev, dt_prev = n, dt
        assert held["state"].stacked().tobytes() == s.stacked().tobytes()


class TestConservation:
    def test_mass_conserved_over_many_steps(self, params):
        grid = Grid(dim=3, n=8, length=2 * np.pi)
        cfg = RunConfig(
            grid=grid,
            phys=params,
            step=StepConfig(dt=5e-3, t_end=1.5, scheme_order=2),
            ic=ICSpec(kind="random_perturbation", delta=1e-2, max_mode=2, seed=3),
        )
        state = make_initial(cfg)
        masses = []
        summary = run(state, cfg.step, params, observers=(lambda i, s: masses.append(s.mass(params)),))
        assert summary.steps >= 300
        drift = max(abs(m - masses[0]) / abs(masses[0]) for m in masses)
        assert drift <= 1e-12

    def test_energy_monotone_and_phase_bounded(self, params):
        grid = Grid(dim=3, n=16, length=2 * np.pi)
        cfg = RunConfig(
            grid=grid,
            phys=params,
            step=StepConfig(dt=0.02, t_end=2.0, scheme_order=2),
            ic=ICSpec(kind="random_perturbation", delta=1e-2, max_mode=3, seed=4),
        )
        state = make_initial(cfg)
        energies, phimax = [], []

        def obs(_i, s):
            energies.append(energy_ledger(s, params).total)
            phimax.append(float(np.max(np.abs(s.phi()))))

        summary = run(state, cfg.step, params, observers=(obs,))
        assert summary.termination == "t_end"
        e = np.asarray(energies)
        assert np.all(np.diff(e) <= 1e-10 * e[0])
        assert max(phimax) <= 1.0 + 1e-6

    def test_isothermal_pressure_law(self):
        # gamma = 1 takes the log branch of the enthalpy remainder
        params = PhysParams(pressure_gamma=1.0)
        grid = Grid(dim=3, n=16, length=2 * np.pi)
        cfg = RunConfig(
            grid=grid,
            phys=params,
            step=StepConfig(dt=0.02, t_end=1.0, scheme_order=2),
            ic=ICSpec(kind="random_perturbation", delta=1e-1, max_mode=3, seed=6),
        )
        masses, energies = [], []

        def obs(_i, s):
            masses.append(s.mass(params))
            energies.append(energy_ledger(s, params).total)

        summary = run(make_initial(cfg), cfg.step, params, observers=(obs,))
        assert summary.termination == "t_end" and summary.steps == 50
        assert masses == [masses[0]] * len(masses)  # drift exactly 0
        e = np.asarray(energies)
        assert np.all(np.diff(e) <= 1e-10 * e[0])

    def test_perturbation_runs_at_the_cap(self, params):
        # |u| and |c(rho) - c(rho_bar)| stay far below 0.4 dx / 0.1, so the cap sets every step
        grid = Grid(dim=3, n=32, length=2 * np.pi)
        cfg = RunConfig(
            grid=grid,
            phys=params,
            step=StepConfig(dt=0.1, t_end=1.0, scheme_order=2),
            ic=ICSpec(kind="random_perturbation", delta=1e-2, max_mode=3, seed=5),
        )
        energies, phimax = [], []

        def obs(_i, s):
            energies.append(energy_ledger(s, params).total)
            phimax.append(float(np.max(np.abs(s.phi()))))

        summary = run(make_initial(cfg), cfg.step, params, observers=(obs,))
        assert summary.termination == "t_end" and summary.steps == 10
        e = np.asarray(energies)
        assert np.all(np.diff(e) <= 1e-10 * e[0])
        assert max(phimax) <= 1.0 + 1e-6


def observed_order(params, scheme_order, amplitude=0.05, n=16, t_end=0.5, dt=0.02):
    """Richardson-style order estimate against a dt/16 reference trajectory."""
    grid = Grid(dim=3, n=n, length=2 * np.pi)
    cfg0 = RunConfig(
        grid=grid,
        phys=params,
        step=StepConfig(dt=dt, t_end=t_end, scheme_order=scheme_order),
        ic=ICSpec(kind="manufactured", amplitude=amplitude),
    )
    state0 = make_initial(cfg0)

    def final_state(step_dt):
        holder = {}
        cfg = StepConfig(dt=step_dt, t_end=t_end, scheme_order=scheme_order)
        summary = run(state0, cfg, params, observers=(lambda i, s: holder.update(s=s),), cadence=10**9)
        assert summary.termination == "t_end"
        return holder["s"]

    ref = final_state(dt / 16)

    def err(state):
        out = 0.0
        for a, b in (
            (state.sigma_hat, ref.sigma_hat),
            (state.u_hat, ref.u_hat),
            (state.phi_hat, ref.phi_hat),
        ):
            out = max(out, float(np.max(np.abs(a - b))))
        return out

    e1 = err(final_state(dt))
    e2 = err(final_state(dt / 2))
    return np.log2(e1 / e2)


class TestTemporalConvergence:
    def test_second_order(self, params):
        order = observed_order(params, scheme_order=2)
        assert order >= 1.8

    def test_first_order(self, params):
        order = observed_order(params, scheme_order=1)
        assert order >= 0.8

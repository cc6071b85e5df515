import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

import nsac.integrate
import nsac.model
import nsac.spectral
from nsac import Grid, PhysParams, State, StepConfig, adaptive_dt, run
from nsac.config import ICSpec, RunConfig
from nsac.diagnostics import energy_ledger
from nsac.initial import make_initial
from nsac.model import LinearSymbol, TendencyWorkspace, nonlinear_terms, pressure_prime
from nsac.verify import _coarse_modes, disable_dealiasing

import test_model as model_tests
from conftest import grid_counts, final_state, observed_order, random_admissible_state, two_thirds_band


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
        cfg = StepConfig(dt=0.05, t_end=0.05, scheme_order=order)
        state = State.equilibrium(grid16)
        new, summary = final_state(state, cfg, params)
        assert summary.steps == 1
        assert new.t == pytest.approx(0.05)
        assert np.array_equal(new.sigma_hat, state.sigma_hat)
        assert np.array_equal(new.u_hat, state.u_hat)
        assert np.array_equal(new.phi_hat, state.phi_hat)

    def test_phase_relaxation_rate(self, params):
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
            state, summary = final_state(state0, StepConfig(dt=dt, t_end=T, scheme_order=2), params)
            assert summary.steps == round(T / dt)
            amp = 2.0 * abs(state.phi_hat[(1, 0, 0)])
            exact = delta * np.exp(-rate * T)
            errors.append(abs(amp - exact) / (delta * np.exp(-rate * T)))
        # second order: halving dt cuts the defect by about 4 (allow slack for
        # the O(delta) nonlinear floor)
        assert errors[0] <= 1e-2
        assert errors[1] <= errors[0] / 2.5 + 1e-5

    def test_post_step_phase_bound_enforced(self, grid16, params):
        # run applies the post-step check_state to its initial state too; its
        # rejection of a stepped state is test_invariant_violation_summary_is_written
        cfg = StepConfig(dt=0.01, t_end=1.0, phi_tol=1e-12)
        phi = np.full(grid16.shape, 1.01)
        state = State.from_physical(grid16, 0.0, np.zeros(grid16.shape), np.zeros((3,) + grid16.shape), phi)
        from nsac.errors import InvariantViolation

        with pytest.raises(InvariantViolation, match="phi") as err:
            run(state, cfg, params)
        assert err.value.step == 0


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
        last, summary = final_state(State.equilibrium(grid16), cfg, params)
        assert summary.t_final == 0.1
        assert last.t == 0.1

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
        fields, _ = grid_counts(monkeypatch)

        # the observer only reads the counter: step 1 is the Euler bootstrap,
        # steps 2 onwards are CNAB2 with their CFL bound and post-step check
        marks = []
        summary = run(state, cfg.step, params, observers=(lambda i, s: marks.append(fields.total()),))
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
        # the CFL bound evaluates it once; the tendency's vacuum check reads the scan
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
        # the Stepper's workspace and history are allocated from the start;
        # a step allocates the new State and its views, and the linear
        # operator and solve's temporaries for one slab of the band (10.8)
        assert max(peaks[1:]) <= 25

    @pytest.mark.parametrize("dim, complex_fields, real_fields", [(3, 15, 13), (2, 11, 9), (1, 8, 6)])
    def test_workspace_fields(self, params, dim, complex_fields, real_fields):
        grid = Grid(dim=dim, n=16, length=2 * np.pi)
        stepper = nsac.integrate.Stepper(grid, params)
        work = stepper.work
        spectral, physical = 16 * np.prod(grid.rshape), 8 * np.prod(grid.shape)
        # one transform window (10, 7, 5 rows) and the CNAB2 history (dim + 2)
        assert work.hats.nbytes + stepper.prev.nbytes == complex_fields * spectral
        # at 16^dim one physical slab holds every plane of its rows; phi^2 is a whole field
        assert work.phys.nbytes == real_fields * physical and work.phi2.nbytes == physical
        arrays = [a for a in vars(work).values() if isinstance(a, np.ndarray)]
        assert sum(a.nbytes for a in arrays) == work.hats.nbytes + work.phys.nbytes + work.phi2.nbytes

    def test_physical_workspace_is_one_slab_at_64(self, params):
        # 13 real rows of 4 of the 64 planes (1.625 MiB), where whole fields took 26 MiB
        work = nsac.integrate.Stepper(Grid(dim=3, n=64, length=2 * np.pi), params).work
        assert work.phys.shape == (13, 4, 64, 64) and work.phys.nbytes == 1_703_936
        assert work.phi2.nbytes == 8 * 64**3


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
        kept = nonlinear_terms(a, params, work).copy()
        nonlinear_terms(b, params, work)
        # a call after another state's reuses the buffers and gives the same tendency
        assert nonlinear_terms(a, params, work).tobytes() == kept.tobytes()
        assert nonlinear_terms(a, params).tobytes() == kept.tobytes()

    def test_in_place_mask_honours_disable_dealiasing(self, grid16, params):
        state = random_admissible_state(np.random.default_rng(13), grid16, amplitude=1e-1, max_mode=4)
        work = TendencyWorkspace(grid16)
        beyond = ~two_thirds_band(grid16)
        assert not np.any(nonlinear_terms(state, params, work)[:, beyond])
        with disable_dealiasing():
            aliased = nonlinear_terms(state, params, work)
        assert np.any(aliased[:, beyond])

    def test_run_keeps_every_mode_under_disable_dealiasing(self, grid16, params):
        cfg = _five_step_run(grid16, params)
        beyond = ~two_thirds_band(grid16)
        states = []
        with disable_dealiasing():
            summary = run(make_initial(cfg), cfg.step, params, observers=(lambda i, s: states.append(s),))
        assert summary.termination == "t_end" and summary.steps == 5
        # the stepped states, not just the tendencies, carry modes beyond the cut
        assert all(np.any(s.stacked()[:, beyond]) for s in states[1:])


class TestRunHolds:
    """A run holds only what its next step reads."""

    def test_one_state_alive_at_each_sample(self, grid16, params):
        cfg = _five_step_run(grid16, params)
        state = make_initial(cfg)  # the caller keeps its State, as `nsac simulate` does
        refs, alive = [], []

        def obs(_i, s):
            refs.append(weakref.ref(s))
            alive.append(sum(r() is not None for r in refs))

        summary = run(state, cfg.step, params, observers=(obs,))
        assert summary.steps == 5
        # each State a step started from is gone once its successor is sampled,
        # the step-0 one included: run steps a State of its own
        assert alive == [1] * 6

    def test_caller_state_gains_no_cache(self, grid16, params):
        cfg = _five_step_run(grid16, params)
        state = make_initial(cfg)
        keys = list(state._cache)
        summary = run(state, cfg.step, params)
        assert summary.steps == 5
        assert list(state._cache) == keys

    def test_a_state_stepped_from_keeps_no_cache(self, grid16, params):
        cfg = _five_step_run(grid16, params)
        kept = []
        summary = run(make_initial(cfg), cfg.step, params, observers=(lambda _i, s: kept.append(s),))
        assert summary.steps == 5
        # the last State keeps what its check cached: sigma, phi and the scan
        assert [len(s._cache) for s in kept] == [0] * 5 + [3]

    @pytest.mark.parametrize("keep, fields", [(False, 46), (True, 61)], ids=["no_observer", "observer_keeps_all"])
    def test_traced_peak_with_and_without_kept_states(self, grid16, params, keep, fields):
        cfg = _five_step_run(grid16, params)
        state = make_initial(cfg)
        kept = []
        observers = (lambda _i, s: kept.append(s),) if keep else ()
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            summary = run(state, cfg.step, params, observers=observers)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert summary.steps == 5
        # in spectral fields: 45.3 and 60.3 here, where at 16^3 one physical
        # slab holds every plane beside the whole phi^2 field; 44.4 and 59.3
        # with phi^2 formed in a physical row, 47.4 and 62.3 with two
        # alternating transform windows, and 52.7 and 87.3 while a State the
        # run had stepped from kept its cache
        field = 16 * grid16.n**2 * (grid16.n // 2 + 1)
        assert (peak - start) / field <= fields


class TestWholeStep:
    """`run`'s steps against their formulas, every tendency a fresh array.

    The Stepper forms the history difference in its ``prev`` array and then
    copies the tendency, a view of the workspace's one transform window, into
    it; the loop keeps every array apart, so the two agree only if no buffer
    is overwritten before it is read. The Stepper works slab by slab, the
    loop on whole arrays: with one plane per slab every block of the band
    splits, a 2-D grid has slabs of a different shape, and a 1-D grid's slabs
    leave out the tail of its half axis.
    """

    def test_run_matches_a_written_out_euler_then_cnab2_loop(self, grid16, params, monkeypatch):
        self._check_every_grid_and_slab(grid16, params, monkeypatch, scheme_order=2)

    def test_euler_run_matches_the_written_out_loop(self, grid16, params, monkeypatch):
        # every step is an Euler step, which writes the history nothing reads
        self._check_every_grid_and_slab(grid16, params, monkeypatch, scheme_order=1)

    @classmethod
    def _check_every_grid_and_slab(cls, grid16, params, monkeypatch, scheme_order):
        for grid in (grid16, Grid(dim=2, n=32, length=2 * np.pi), Grid(dim=1, n=64, length=2 * np.pi)):
            for slab_bytes in (nsac.spectral.SLAB_BYTES, 1):
                with monkeypatch.context() as patch:
                    patch.setattr(nsac.spectral, "SLAB_BYTES", slab_bytes)
                    if slab_bytes == 1:  # one per plane of the band
                        assert len(grid.slabs()) == (grid.n // 3 + 1 if grid.dim == 1 else 2 * (grid.n // 3) + 1)
                    cls._check_against_the_loop(grid, params, scheme_order)

    @staticmethod
    def _check_against_the_loop(grid, params, scheme_order):
        cfg = _five_step_run(grid, params)
        step_cfg = replace(cfg.step, scheme_order=scheme_order)
        state = make_initial(cfg)
        last, summary = final_state(state, step_cfg, params)
        assert summary.termination == "t_end" and summary.steps == 5

        shift = 2.0 / (params.epsilon * params.rho_bar)
        B = LinearSymbol(grid, params, shift)
        s, prev, dt_prev, dt_curr = state, None, None, step_cfg.dt
        for _ in range(summary.steps):
            dt_curr = min(dt_curr, adaptive_dt(s, step_cfg, params))
            dt = min(dt_curr, step_cfg.t_end - s.t)
            n = nonlinear_terms(s, params)
            n[-1] += shift * s.phi_hat
            y = s.stacked()
            incr = B.apply(y) + n
            if scheme_order == 1 or prev is None:  # Euler, or CNAB2's Euler bootstrap
                alpha = dt
            else:
                alpha = 0.5 * dt
                incr = incr + (-0.5 * dt / dt_prev) * (prev - n)
            new = y + B.solve(alpha, dt * incr)
            grid.cut_to_band(new)
            s = State(grid, s.t + dt, new[0], new[1:-1], new[-1])
            prev, dt_prev = n, dt
        assert last.stacked().tobytes() == s.stacked().tobytes()


class TestDimensionReduction:
    """A state that does not vary along the added axes, with no velocity along
    them, evolves as the lower-dimensional run (ROADMAP item 10(d)).

    The higher-dimensional run goes through `Grid.slabs`, the physical plane
    slabs and the pruned transforms' line sets of its own dim, the lower one
    through those of its dim; with one plane per slab the higher run splits
    its physical work at every plane.
    """

    #: Defect relative to the run's increment of sigma and phi; measured 1.0e-15
    #: (1 -> 2, 1 -> 3) and 2.5e-15 (2 -> 3). The ledger's components agree to 8.3e-16.
    BOUND = 1e-13

    @staticmethod
    def _final(state, params):
        end, summary = final_state(state, StepConfig(dt=0.01, t_end=0.05), params)
        assert summary.termination == "t_end" and summary.dt_limits == {"cap": 5, "cfl": 0, "t_end": 0}
        return end

    @pytest.mark.parametrize("slab_bytes", [nsac.spectral.SLAB_BYTES, 1])
    @pytest.mark.parametrize("lo, hi", [(1, 2), (1, 3), (2, 3)])
    def test_replicated_state_evolves_as_the_lower_dim_run(self, params, lo, hi, slab_bytes, monkeypatch):
        monkeypatch.setattr(nsac.spectral, "SLAB_BYTES", slab_bytes)
        low, high = (Grid(dim=d, n=16, length=2 * np.pi) for d in (lo, hi))
        start = random_admissible_state(np.random.default_rng(5), low, amplitude=0.1, max_mode=4)
        added = (np.newaxis,) * (hi - lo)
        replicate = lambda f: np.broadcast_to(f[(Ellipsis, *added)], f.shape[:-lo] + high.shape)
        u = np.zeros((hi,) + high.shape)
        u[:lo] = replicate(start.u())
        high_start = State.from_physical(high, 0.0, replicate(start.sigma()), u, replicate(start.phi()))
        end_low, end_high = self._final(start, params), self._final(high_start, params)

        line = (Ellipsis, *(0,) * (hi - lo))  # the lower grid inside the higher one
        increment = max(np.max(np.abs(end_low.sigma() - start.sigma())), np.max(np.abs(end_low.phi() - start.phi())))
        defects = [
            end_high.sigma()[line] - end_low.sigma(),
            end_high.phi()[line] - end_low.phi(),
            end_high.u()[:lo][line] - end_low.u(),
            end_high.u()[lo:],  # no velocity along the added axes
            end_high.sigma() - replicate(end_high.sigma()[line]),  # no variation along them
        ]
        assert max(np.max(np.abs(d)) for d in defects) <= self.BOUND * increment
        # every integral gains the added axes' length L^(hi - lo)
        scale = (2 * np.pi) ** (hi - lo)
        ledger_low, ledger_high = energy_ledger(end_low, params), energy_ledger(end_high, params)
        for name, value in vars(ledger_low).items():
            assert getattr(ledger_high, name) == pytest.approx(scale * value, rel=self.BOUND)
        assert end_high.mass(params) == pytest.approx(scale * end_low.mass(params), rel=self.BOUND)


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


class TestTemporalConvergence:
    """CNAB2's order is criterion 8 (`test_acceptance.py`)."""

    def test_first_order(self, params):
        order = observed_order(params, scheme_order=1)
        assert order >= 0.8


class TestSpatialRefinement:
    """Criterion 8's twin in space: one smooth IC on finer and finer grids."""

    #: Largest coarse-mode coefficient difference from the 32^dim run, per dim
    #: and grid; measured 1.05e-5 at 8^3, 9.7e-12 at 16^3, 5.16e-5 at 8^2 and
    #: 1.37e-10 at 16^2.
    BOUNDS = {3: {8: 1e-4, 16: 1e-10}, 2: {8: 5e-4, 16: 1.5e-9}}

    def test_coarse_modes_converge_spectrally(self, params):
        self._check_refinement(3, params)

    def test_coarse_modes_converge_spectrally_in_2d(self, params):
        self._check_refinement(2, params)

    def _check_refinement(self, dim, params):
        # modes |m| <= 2, inside every grid's 2/3 band, zero-padded from 8^dim
        coarse = Grid(dim=dim, n=8, length=2 * np.pi)
        ic = random_admissible_state(np.random.default_rng(3), coarse, amplitude=0.05, max_mode=2).stacked()
        grids = {n: Grid(dim=dim, n=n, length=2 * np.pi) for n in (8, 16, 32)}

        def embed(grid):
            out = np.zeros((len(ic),) + grid.rshape, dtype=np.complex128)
            out[(slice(None),) + _coarse_modes(coarse, grid)] = ic
            return out

        # phi <= 1 on the 8^dim points overshoots between them (max|phi| 1.0016 at dim 3,
        # 1.0009 at dim 2); the 32^dim points hold the coarser ones, so their maximum
        # bounds phi on every grid
        ic[-1][(0,) * dim] -= grids[32].inverse(embed(grids[32])[-1]).max() - 1.0

        def coarse_modes_at_half(grid):
            y = embed(grid)
            cfg = StepConfig(dt=0.01, t_end=0.5, scheme_order=2)
            end, summary = final_state(State(grid, 0.0, y[0], y[1:-1], y[-1]), cfg, params)
            assert summary.termination == "t_end" and summary.steps == 50
            return end.stacked()[(slice(None),) + _coarse_modes(coarse, grid)]

        ref = coarse_modes_at_half(grids[32])
        for n, bound in self.BOUNDS[dim].items():
            assert np.max(np.abs(coarse_modes_at_half(grids[n]) - ref)) <= bound, n


class TestRunSymmetries:
    """`run` commutes with the box maps of ``TestRhs`` (ROADMAP item 10(b)).

    Five capped steps, an Euler bootstrap and four CNAB2 steps, go through the
    slabs, ``cut_to_band(slab=True)`` and the history buffer; the reflection
    maps the band's first block of axis-0 planes onto the second.
    """

    #: Defect relative to the run's increment ``max|final - initial|``; measured
    #: at dim 3 (2): swap 3.2e-16, reflection 6.2e-17 (4.6e-17), translation 9.2e-17 (4.8e-17).
    BOUND = 1e-13

    @pytest.mark.parametrize("dim, symmetry", model_tests.BOX_MAPS)
    def test_final_state_commutes_with_the_box_symmetries(self, params, dim, symmetry):
        grid = Grid(dim=dim, n=16, length=2 * np.pi)
        apply = getattr(model_tests.TestRhs, symmetry)
        state = random_admissible_state(np.random.default_rng(5), grid, amplitude=0.1, max_mode=4)
        mapped = apply(grid, state.stacked())

        def final(y):
            end, summary = final_state(State(grid, 0.0, y[0], y[1:-1], y[-1]), StepConfig(dt=0.01, t_end=0.05), params)
            assert summary.termination == "t_end" and summary.dt_limits == {"cap": 5, "cfl": 0, "t_end": 0}
            return end.stacked()

        end = final(state.stacked())
        defect = final(mapped) - apply(grid, end)
        assert np.max(np.abs(defect)) <= self.BOUND * np.max(np.abs(end - state.stacked()))

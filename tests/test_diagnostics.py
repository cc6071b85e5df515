import numpy as np
import pytest

from nsac import Grid, PhysParams, State, StepConfig, diagnostics
from nsac.config import RunConfig
from nsac.diagnostics import SeriesObserver, decay_suite, energy_ledger, level_energy, negative_functional
from nsac.errors import InvariantViolation
from nsac.model import check_state, invariant_monitor
from nsac.oracle import DataProfile, decay_norms

import test_model as model_tests
from conftest import final_state, random_admissible_state
from reference import hk_norm_sq, negative_norm

V = (2 * np.pi) ** 3


class TestEnergyLedger:
    def test_equilibrium_zero(self, grid16, params):
        rep = energy_ledger(State.equilibrium(grid16), params)
        assert rep.total == 0.0

    def test_time_differencing_matches_dissipation(self, params):
        # finite difference of the total over one small step approximates the
        # negative dissipation to O(dt)
        grid = Grid(dim=3, n=16, length=2 * np.pi)
        rng = np.random.default_rng(31)
        state = random_admissible_state(rng, grid, amplitude=5e-3, max_mode=2)
        dt = 1e-4
        cfg = StepConfig(dt=dt, t_end=dt, scheme_order=2)
        stepped, summary = final_state(state, cfg, params)
        assert summary.steps == 1
        rep0 = energy_ledger(state, params)
        rep1 = energy_ledger(stepped, params)
        fd = (rep1.total - rep0.total) / dt
        diss = rep0.diss_visc + rep0.diss_div + rep0.diss_mu
        assert fd == pytest.approx(-diss, rel=0.02)

    def test_phase_flip_leaves_the_ledger_bit_for_bit(self, params):
        # the free energy is even in phi and mu odd, so phi -> -phi changes no
        # float of the ledger; phi^3 - phi cancels, so a mu that is odd only to
        # roundoff shows in diss_mu
        from dataclasses import replace

        from nsac.config import build_run_config
        from nsac.initial import make_initial

        state = make_initial(build_run_config({"grid.n": "16", "ic.kind": "random_perturbation", "ic.seed": "1"}))
        twin = replace(state, phi_hat=-state.phi_hat, _cache={})
        assert energy_ledger(twin, params) == energy_ledger(state, params)

    @pytest.mark.parametrize("dim", [3, 2, 1])
    def test_galilean_boost_changes_only_the_kinetic_energy(self, params, dim):
        # u -> u + U moves the total by U . int rho u + |U|^2/2 int rho (ROADMAP
        # item 10(b)); measured 0 at dim 3 and 1, 1.7e-16 at dim 2. Sigma and
        # phi keep their coefficients, and the order-1 shell sums and the
        # divergence skip the zero mode, so the rest keeps every float
        grid = Grid(dim=dim, n=16, length=2 * np.pi)
        state = random_admissible_state(np.random.default_rng(5), grid, amplitude=0.1, max_mode=4)
        U = np.array([0.3, -0.2, 0.1][:dim])
        boosted = state.stacked()
        boosted[(slice(1, 1 + dim), *(0,) * dim)] += U
        rep = energy_ledger(state, params)
        moved = energy_ledger(State(grid, 0.0, boosted[0], boosted[1:-1], boosted[-1]), params)

        rho = params.rho_bar + state.sigma()
        momentum = grid.volume * np.mean(rho * state.u(), axis=tuple(range(1, dim + 1)))
        expected = float(U @ momentum) + 0.5 * float(U @ U) * state.mass(params)
        assert abs(moved.total - rep.total - expected) <= 1e-13 * abs(expected)
        unchanged = ("g_part", "gradient_part", "double_well", "diss_visc", "diss_div", "diss_mu")
        assert [getattr(moved, name) for name in unchanged] == [getattr(rep, name) for name in unchanged]


class TestLevelEnergy:
    def test_equilibrium_zero(self, grid16):
        lv = level_energy(State.equilibrium(grid16), 0)
        assert lv.sigma_hk == lv.u_hk == lv.phi_grad == lv.phi_sq == 0.0

    def test_single_mode_phase_closed_form(self, grid16):
        delta = 1e-3
        x = grid16.meshgrid()[0]
        phi = 1.0 + delta * np.sin(x)
        state = State.from_physical(
            grid16, 0.0, np.zeros(grid16.shape), np.zeros((3,) + grid16.shape), phi
        )
        lv = level_energy(state, 0)
        # |k| = 1 mode: ||D phi||^2 = ||D^2 phi||^2 = ||D^3 phi||^2 = delta^2 V/2
        assert lv.phi_grad == pytest.approx(3 * delta**2 * V / 2, rel=1e-11)
        # phi^2 - 1 = 2 delta sin + delta^2 sin^2 evaluated by grid quadrature
        phisq = phi**2 - 1.0
        assert lv.phi_sq == pytest.approx(V * np.mean(phisq**2), rel=1e-11)
        assert lv.sigma_hk == 0.0 and lv.u_hk == 0.0

    def test_nesting_and_l0_is_boundedness_functional(self, grid16, params):
        rng = np.random.default_rng(32)
        state = random_admissible_state(rng, grid16)
        lv = [level_energy(state, l) for l in (0, 1, 2)]
        for a, b in zip(lv[1:], lv[:-1]):
            assert a.sigma_hk <= b.sigma_hk
            assert a.u_hk <= b.u_hk
            assert a.phi_grad <= b.phi_grad
            assert a.phi_sq == b.phi_sq
        # l = 0 equals the sum of squared H^3/H^2/L^2 norms used for boundedness
        su = (
            hk_norm_sq(state.grid, state.sigma_hat, 3)
            + sum(hk_norm_sq(state.grid, c, 3) for c in state.u_hat)
        )
        assert lv[0].sigma_hk + lv[0].u_hk == pytest.approx(su, rel=1e-12)

    def test_truncation_cannot_increase(self, grid16, params):
        rng = np.random.default_rng(33)
        state = random_admissible_state(rng, grid16, max_mode=4)
        m2 = (grid16.length / (2 * np.pi)) ** 2 * grid16.k2
        keep = m2 <= (grid16.n // 4) ** 2
        trunc = State(
            grid16,
            0.0,
            state.sigma_hat * keep,
            state.u_hat * keep,
            state.phi_hat * keep,
        )
        for l in (0, 1, 2):
            a, b = level_energy(trunc, l), level_energy(state, l)
            assert a.sigma_hk <= b.sigma_hk * (1 + 1e-12)
            assert a.u_hk <= b.u_hk * (1 + 1e-12)
            assert a.phi_grad <= b.phi_grad * (1 + 1e-12)

    def test_level_validation(self, grid16):
        with pytest.raises(ValueError, match="level"):
            level_energy(State.equilibrium(grid16), 3)


class TestNegativeFunctional:
    def test_equilibrium_zero(self, grid16):
        nf = negative_functional(State.equilibrium(grid16), 0.5)
        assert nf.total == 0.0

    def test_single_velocity_mode(self, grid16):
        x = grid16.meshgrid()[0]
        u = np.zeros((3,) + grid16.shape)
        u[1] = np.sin(2 * x)
        state = State.from_physical(grid16, 0.0, np.zeros(grid16.shape), u, np.ones(grid16.shape))
        nf = negative_functional(state, 1.0)
        # |k| = 2: the weight is 1/4 of the plain squared norm
        assert nf.u_neg == pytest.approx(0.25 * V / 2, rel=1e-11)
        assert nf.sigma_neg == 0.0 and nf.gradphi_neg == 0.0 and nf.phisq_neg == 0.0

    def test_components_match_negative_norm(self, grid16):
        # every component must equal the corresponding squared negative-order
        # norm computed through the public operator, after mean removal
        rng = np.random.default_rng(34)
        state = random_admissible_state(rng, grid16)
        s = 0.7
        nf = negative_functional(state, s)
        g = grid16

        def neg_sq(coeffs):
            c = coeffs.copy()
            c[(0, 0, 0)] = 0.0
            return negative_norm(g, c, s) ** 2

        assert nf.sigma_neg == pytest.approx(neg_sq(state.sigma_hat), rel=1e-12)
        assert nf.u_neg == pytest.approx(
            sum(neg_sq(state.u_hat[i]) for i in range(3)), rel=1e-12
        )
        assert nf.gradphi_neg == pytest.approx(
            sum(neg_sq(g.ik[i] * state.phi_hat) for i in range(3)), rel=1e-12
        )
        assert nf.phisq_neg == pytest.approx(neg_sq(state.phisq_hat), rel=1e-12)

    def test_mean_removal_reported(self, grid16):
        delta = 1e-2
        x = grid16.meshgrid()[0]
        phi = 1.0 + delta * np.sin(x) - delta  # phi <= 1 pointwise
        state = State.from_physical(
            grid16, 0.0, np.zeros(grid16.shape), np.zeros((3,) + grid16.shape), phi
        )
        nf = negative_functional(state, 0.5)
        # phi^2 - 1 carries a genuine mean for any perturbation of a pure phase
        expected_mean = np.mean(phi**2 - 1.0)
        assert nf.phisq_mean == pytest.approx(expected_mean, rel=1e-10)

    def test_s_range(self, grid16):
        with pytest.raises(ValueError, match=r"\(0, 1.5\)"):
            negative_functional(State.equilibrium(grid16), 1.5)


class TestInvariantMonitor:
    def test_clean_at_equilibrium(self, grid16, params):
        rep = invariant_monitor(State.equilibrium(grid16), params)
        assert rep.clean
        assert rep.mass == pytest.approx(params.rho_bar * V, rel=1e-14)

    def test_phase_excess_flagged(self, grid16, params):
        phi = np.full(grid16.shape, 1.01)
        state = State.from_physical(grid16, 0.0, np.zeros(grid16.shape), np.zeros((3,) + grid16.shape), phi)
        rep = invariant_monitor(state, params)
        assert not rep.clean
        with pytest.raises(InvariantViolation) as err:
            check_state(state, params)
        assert err.value.magnitude == pytest.approx(0.01, abs=1e-9)
        assert err.value.location is not None

    def test_density_window_flagged(self, grid16, params):
        sigma = np.full(grid16.shape, -0.6)
        state = State.from_physical(grid16, 0.0, sigma, np.zeros((3,) + grid16.shape), np.ones(grid16.shape))
        rep = invariant_monitor(state, params)
        assert not rep.in_window
        with pytest.raises(InvariantViolation) as err:
            check_state(state, params)
        assert rep.rho_window[0] - err.value.magnitude == pytest.approx(0.1, abs=1e-9)  # the lowest density
        assert err.value.location is not None

    def test_nan_flagged(self, grid16, params):
        sigma = np.zeros(grid16.shape)
        sigma[1, 2, 3] = np.nan
        state = State.from_physical(grid16, 0.0, sigma, np.zeros((3,) + grid16.shape), np.ones(grid16.shape))
        rep = invariant_monitor(state, params)
        assert "sigma" in rep.nan_fields

    def test_mass_drift_against_reference(self, grid16, params):
        state = State.equilibrium(grid16)
        rep = invariant_monitor(state, params, mass_reference=state.mass(params))
        assert rep.mass_drift == 0.0

    def test_clean_follows_the_run_phase_tolerance(self, grid16, params):
        # a run with step.phi_tol = 1e-3 accepts this state, so its report must too
        state = State.equilibrium(grid16, phi_value=1.0 + 1e-4)
        assert invariant_monitor(state, params, phi_tol=1e-3).clean
        assert not invariant_monitor(state, params).clean

    def test_one_scan_per_sampled_step(self, monkeypatch):
        import nsac.model
        from nsac.config import build_run_config
        from nsac.diagnostics import SeriesObserver
        from nsac.initial import make_initial
        from nsac.integrate import run

        cfg = build_run_config(
            {"grid.n": "16", "ic.kind": "random_perturbation", "step.dt": "0.02", "step.t_end": "0.1"}
        )
        state = make_initial(cfg)
        scans = [0]
        original = nsac.model._scan

        def counted(*args):
            scans[0] += 1
            return original(*args)

        monkeypatch.setattr(nsac.model, "_scan", counted)
        series = SeriesObserver(cfg)
        marks = []
        summary = run(state, cfg.step, cfg.phys, observers=(series, lambda i, s: marks.append(scans[0])))
        assert summary.steps == 5
        # make_initial's check scanned the first State; then run's check_state
        # and the observer's report share each new State's scan
        assert marks == [0, 1, 2, 3, 4, 5]

    def test_one_scan_judges_a_state_under_every_reference_density(self, grid16):
        # the scan holds sigma's extrema, not the density's, so one entry serves
        # every rho_bar, and each report adds its own
        state = random_admissible_state(np.random.default_rng(30), grid16)
        reports = {rb: invariant_monitor(state, PhysParams(rho_bar=rb)) for rb in (1.0, 1.3)}
        assert [key for key in state._cache if "scan" in key] == ["scan"]
        sigma, phi = state.sigma(), state.phi()
        for rho_bar, rep in reports.items():
            assert rep.rho_min == float(np.min(rho_bar + sigma))
            assert rep.rho_max == float(np.max(rho_bar + sigma))
            assert rep.phi_max == float(np.max(np.abs(phi)))
            assert rep.rho_window == (0.5 * rho_bar, 2.0 * rho_bar)
            assert rep.clean


def _boundary_state(grid, params, kind):
    state = State.equilibrium(grid, phi_value=1.0 + 1.5e-4 if kind == "phi" else 1.0)
    sigma_hat = state.sigma_hat.copy()
    if kind == "rho":
        sigma_hat[0, 0, 0] = -0.51 * params.rho_bar
    elif kind == "nan":
        sigma_hat[1, 0, 0] = np.nan
    return State(grid, 0.0, sigma_hat, state.u_hat, state.phi_hat)


class TestAdmissibleSetViews:
    """check_state, the report, the IC check and the CLI verdicts judge alike."""

    @pytest.mark.parametrize(
        "kind, phi_tol, admissible",
        [("phi", 1e-4, False), ("phi", 1e-3, True), ("rho", 1e-6, False), ("nan", 1e-6, False)],
    )
    def test_views_agree(self, tmp_path, kind, phi_tol, admissible):
        from nsac.diagnostics import SeriesObserver
        from nsac.config import build_run_config
        from nsac.errors import InfeasibleInitialCondition, InvariantViolation
        from nsac.initial import _check_feasible
        from nsac.model import check_state

        cfg = build_run_config({"grid.n": "8", "phys.rho_bar": "1.3", "step.phi_tol": repr(phi_tol)})
        params = cfg.phys
        state = _boundary_state(cfg.grid, params, kind)

        def accepts(fn, error):
            try:
                fn()
            except error:
                return False
            return True

        with np.errstate(all="ignore"):
            observer = SeriesObserver(cfg)
            observer(0, state)
        verdicts = observer.verdicts()
        views = {
            "check_state": accepts(lambda: check_state(state, params, phi_tol=phi_tol), InvariantViolation),
            "report": invariant_monitor(state, params, phi_tol=phi_tol).clean,
            "ic_check": accepts(
                lambda: _check_feasible(state, params, 1e-2, phi_tol), InfeasibleInitialCondition
            ),
            "cli": verdicts["admissible"],
        }
        assert views == dict.fromkeys(views, admissible)
        if kind == "phi":
            assert verdicts["max_principle"] is admissible
        if kind == "nan":
            # finiteness is judged before the density, which a NaN coefficient also breaks
            with pytest.raises(InvariantViolation, match="non-finite coefficients") as raised:
                check_state(state, params, phi_tol=phi_tol)
            assert raised.value.field == "sigma"


class TestDecaySuite:
    def test_synthetic_power_law_passes(self):
        t = np.geomspace(1, 1e4, 50)
        fit = decay_suite(t, (1 + t) ** (-1.5), l=1, s=0.5, tol=1e-6)
        assert fit.passed
        assert fit.target == -1.5

    def test_oracle_series_passes(self, params):
        ts = np.geomspace(1e2, 1e4, 30)
        prof = DataProfile(s=0.5)
        vals = [decay_norms([(1, prof)], t, "phi", params)[0] for t in ts]
        fit = decay_suite(ts, vals, l=1, s=0.5, tol=0.1)
        assert fit.passed
        assert abs(fit.exponent + 1.5) <= 0.1

    def test_exponential_contamination_detected(self):
        # power law turning exponential mid-window: the r^2 drop must fail the
        # fit instead of silently averaging through the two regimes
        t = np.geomspace(1, 1e4, 80)
        vals = (1 + t) ** (-1.5) * np.exp(-t / 2e3)
        fit = decay_suite(t, vals, l=1, s=0.5, tol=0.5)
        assert not fit.passed
        assert fit.r2 < 0.98

    def test_wrong_slope_fails(self):
        t = np.geomspace(1, 1e4, 50)
        fit = decay_suite(t, (1 + t) ** (-2.5), l=1, s=0.5, tol=0.1)
        assert not fit.passed

    @pytest.mark.parametrize(
        "l, s, tol, msg",
        [(0, np.nan, 0.1, "l \\+ s"), (0, np.inf, 0.1, "l \\+ s"), (1, -np.inf, 0.1, "l \\+ s"),
         (1, 0.5, 0.0, "tol"), (1, 0.5, np.inf, "tol"), (1, 0.5, np.nan, "tol")],
    )
    def test_target_and_tol_checked_before_the_fit(self, monkeypatch, l, s, tol, msg):
        # a NaN or infinite target would print as non-JSON NaN or -Infinity
        monkeypatch.setattr(diagnostics, "fit_exponent", lambda *a: pytest.fail("fitted"))
        t = np.geomspace(1, 1e4, 50)
        with pytest.raises(ValueError, match=msg):
            decay_suite(t, (1 + t) ** (-1.5), l=l, s=s, tol=tol)


class TestSampleSymmetries:
    """A sample row of ``SeriesObserver`` is invariant under the box maps of ``TestRhs``."""

    @pytest.mark.parametrize("dim, symmetry", model_tests.BOX_MAPS)
    def test_row_is_invariant_under_the_box_symmetries(self, params, dim, symmetry):
        # every column but t; worst defects measured at dim 3 (2): swap 5.3e-16,
        # reflection 2.1e-16 (1.5e-16), translation 1.2e-15 (2.3e-16)
        grid = Grid(dim=dim, n=16, length=2 * np.pi)
        state = random_admissible_state(np.random.default_rng(5), grid, amplitude=0.1, max_mode=4)
        mapped = getattr(model_tests.TestRhs, symmetry)(grid, state.stacked())
        cfg = RunConfig(grid=grid, phys=params, step=StepConfig(dt=0.05, t_end=1.0))
        row = np.array(SeriesObserver(cfg)(0, state)[1:])
        mapped_row = np.array(SeriesObserver(cfg)(0, State(grid, state.t, mapped[0], mapped[1:-1], mapped[-1]))[1:])
        assert np.all(np.abs(mapped_row - row) <= 1e-13 * np.abs(row))

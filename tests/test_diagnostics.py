import numpy as np
import pytest

from nsac import Grid, PhysParams, State
from nsac.diagnostics import (
    decay_suite,
    energy_ledger,
    invariant_monitor,
    level_energy,
    negative_functional,
)
from nsac.model import total_energy
from nsac.oracle import DataProfile, decay_norm
from nsac.spectral import SpectralField, negative_norm, sobolev_norm

from conftest import random_admissible_state

V = (2 * np.pi) ** 3


class TestEnergyLedger:
    def test_equilibrium_zero(self, grid16, params):
        rep = energy_ledger(State.equilibrium(grid16), params)
        assert rep.total == 0.0

    def test_matches_model_energy(self, grid16, params):
        rng = np.random.default_rng(30)
        state = random_admissible_state(rng, grid16)
        a = energy_ledger(state, params)
        b = total_energy(state, params)
        assert a == b

    def test_time_differencing_matches_dissipation(self, params):
        # finite difference of the total over one small step approximates the
        # negative dissipation to O(dt)
        from nsac import StepConfig, step

        grid = Grid(dim=3, n=16, length=2 * np.pi)
        rng = np.random.default_rng(31)
        state = random_admissible_state(rng, grid, amplitude=5e-3, max_mode=2)
        dt = 1e-4
        cfg = StepConfig(dt=dt, t_end=1.0, scheme_order=2)
        rep0 = energy_ledger(state, params)
        rep1 = energy_ledger(step(state, cfg, params), params)
        fd = (rep1.total - rep0.total) / dt
        diss = rep0.diss_visc + rep0.diss_div + rep0.diss_mu
        assert fd == pytest.approx(-diss, rel=0.02)


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
        from nsac.spectral import hk_norm_sq

        su = (
            hk_norm_sq(SpectralField(state.grid, state.sigma_hat), 3)
            + sum(hk_norm_sq(SpectralField(state.grid, c), 3) for c in state.u_hat)
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
            return negative_norm(SpectralField(g, c), s) ** 2

        assert nf.sigma_neg == pytest.approx(neg_sq(state.sigma_hat), rel=1e-12)
        assert nf.u_neg == pytest.approx(
            sum(neg_sq(state.u_hat[i]) for i in range(3)), rel=1e-12
        )
        assert nf.gradphi_neg == pytest.approx(
            sum(neg_sq(g.ik[i] * state.phi_hat) for i in range(3)), rel=1e-12
        )
        from nsac.diagnostics import phi_sq_minus_one_hat

        assert nf.phisq_neg == pytest.approx(neg_sq(phi_sq_minus_one_hat(state)), rel=1e-12)

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
        assert rep.phi_excess == pytest.approx(0.01, abs=1e-9)
        assert rep.phi_excess_location is not None

    def test_density_window_flagged(self, grid16, params):
        sigma = np.full(grid16.shape, -0.6)
        state = State.from_physical(grid16, 0.0, sigma, np.zeros((3,) + grid16.shape), np.ones(grid16.shape))
        rep = invariant_monitor(state, params)
        assert rep.rho_window_violation == pytest.approx(0.1, abs=1e-9)
        assert rep.rho_violation_location is not None

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


class TestDecaySuite:
    def test_synthetic_power_law_passes(self):
        t = np.geomspace(1, 1e4, 50)
        fit = decay_suite(t, (1 + t) ** (-1.5), l=1, s=0.5, tol=1e-6)
        assert fit.passed
        assert fit.target == -1.5

    def test_oracle_series_passes(self, params):
        ts = np.geomspace(1e2, 1e4, 30)
        prof = DataProfile(s=0.5)
        vals = [decay_norm(1, 0.5, t, prof, "phi", params) for t in ts]
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

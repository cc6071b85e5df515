import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from nsac import Grid, PhysParams, State, VacuumError
from nsac.model import (
    LinearSymbol,
    chemical_potential,
    enthalpy_remainder,
    g_potential,
    nonlinear_terms,
    pressure,
    pressure_prime,
    rhs,
    total_energy,
)
from nsac.oracle import build_symbol
from nsac.spectral import SpectralField
from nsac.verify import direct_rhs_physical

from conftest import random_admissible_state, random_zero_mean_field

V = (2 * np.pi) ** 3


def g_quadrature(rho, params):
    """Defining integral of the compression potential, evaluated adaptively."""
    integrand = lambda z: (pressure(z, params) - pressure(params.rho_bar, params)) / z**2
    val, _ = quad(integrand, params.rho_bar, rho, epsabs=1e-14, epsrel=1e-13)
    return rho * val


class TestPhysParams:
    def test_defaults_valid(self):
        PhysParams()

    @pytest.mark.parametrize(
        "kwargs,msg",
        [
            (dict(nu=0.0), "viscosity"),
            (dict(nu=1.0, lam=-1.0), "lambda"),
            (dict(epsilon=0.0), "thickness"),
            (dict(rho_bar=-1.0), "density"),
            (dict(pressure_a=0.0), "coefficient"),
            (dict(pressure_gamma=0.5), "adiabatic"),
            (dict(lam=float("nan")), "lambda"),
            (dict(pressure_gamma=float("nan")), "adiabatic"),
        ],
    )
    def test_validation(self, kwargs, msg):
        with pytest.raises(ValueError, match=msg):
            PhysParams(**kwargs)

    def test_bulk_viscosity_boundary_allowed(self):
        PhysParams(nu=1.5, lam=-1.0)  # lambda + 2 nu / 3 = 0 exactly


class TestPressure:
    def test_quadratic_law(self):
        p = PhysParams(pressure_a=1.0, pressure_gamma=2.0)
        assert pressure(1.5, p) == pytest.approx(2.25, abs=1e-14)

    def test_isothermal_at_reference(self):
        p = PhysParams(pressure_a=1.0, pressure_gamma=1.0)
        assert pressure(p.rho_bar, p) == pytest.approx(p.rho_bar, abs=1e-14)

    def test_log_domain_cross_check(self):
        p = PhysParams(pressure_a=1.0, pressure_gamma=1.4)
        assert pressure(2.0, p) == pytest.approx(np.exp(1.4 * np.log(2.0)), rel=1e-14)

    def test_derivative_positive_and_consistent(self):
        p = PhysParams(pressure_gamma=1.4)
        for rho in (0.5, 1.0, 1.7):
            fd = (pressure(rho + 1e-6, p) - pressure(rho - 1e-6, p)) / 2e-6
            assert pressure_prime(rho, p) == pytest.approx(fd, rel=1e-8)
            assert pressure_prime(rho, p) > 0

    def test_vacuum_rejected(self):
        with pytest.raises(VacuumError):
            pressure(-0.1, PhysParams())
        with pytest.raises(VacuumError):
            pressure_prime(0.0, PhysParams())


class TestGPotential:
    def test_zero_at_reference(self):
        assert g_potential(1.0, PhysParams()) == 0.0

    def test_isothermal_closed_forms(self):
        p = PhysParams(pressure_a=1.0, pressure_gamma=1.0, rho_bar=1.0)
        # independent quadrature oracle for the defining integral
        assert g_potential(2.0, p) == pytest.approx(g_quadrature(2.0, p), rel=1e-12)
        assert g_potential(2.0, p) == pytest.approx(2 * np.log(2) - 1, rel=1e-12)
        assert g_potential(0.5, p) == pytest.approx(g_quadrature(0.5, p), rel=1e-12)
        assert g_potential(0.5, p) == pytest.approx(0.5 * np.log(0.5) + 0.5, rel=1e-12)

    @pytest.mark.parametrize("gamma", [1.4, 2.0, 3.0])
    def test_general_gamma_against_quadrature(self, gamma):
        p = PhysParams(pressure_gamma=gamma)
        for rho in (0.55, 0.9, 1.3, 1.9):
            assert g_potential(rho, p) == pytest.approx(g_quadrature(rho, p), rel=1e-11, abs=1e-14)

    def test_comparable_to_squared_deviation_on_window(self):
        p = PhysParams(pressure_gamma=1.4)
        rhos = np.linspace(0.5, 2.0, 101)
        rhos = rhos[np.abs(rhos - 1.0) > 1e-3]
        ratio = g_potential(rhos, p) / (rhos - 1.0) ** 2
        assert np.all(ratio > 0)
        assert ratio.max() / ratio.min() < 5.0

    def test_prime_identity(self):
        p = PhysParams(pressure_gamma=1.4)
        for rho in (0.6, 1.2):
            fd = (g_potential(rho + 1e-6, p) - g_potential(rho - 1e-6, p)) / 2e-6
            prime = (g_potential(rho, p) + pressure(rho, p) - pressure(p.rho_bar, p)) / rho
            assert prime == pytest.approx(fd, rel=1e-8)

    def test_vacuum_rejected(self):
        with pytest.raises(VacuumError):
            g_potential(0.0, PhysParams())


class TestEnthalpy:
    """``H = int_0^sigma h1``, whose gradient the tendency applies for ``h1 grad sigma``."""

    PRESSURE_LAWS = [1.0, 1.4, 2.0]  # 1 takes the log branch, 2 has h1 = 0

    @pytest.mark.parametrize("gamma", PRESSURE_LAWS)
    def test_zero_at_reference(self, gamma):
        p = PhysParams(pressure_gamma=gamma, rho_bar=1.3)
        assert enthalpy_remainder(0.0, p) == 0.0
        assert not np.any(enthalpy_remainder(np.zeros(4), p))

    @pytest.mark.parametrize("gamma", PRESSURE_LAWS)
    def test_against_quadrature_of_h1(self, gamma):
        p = PhysParams(pressure_gamma=gamma, rho_bar=1.3, pressure_a=0.8)
        # h1 = c (1 - (rho/rho_bar)^(g-2)), written without cancellation
        h1 = lambda s: -p.sound_coupling * np.expm1((gamma - 2.0) * np.log1p(s / p.rho_bar))
        for x in np.geomspace(1e-8, 0.5, 9):
            for sigma in (x * p.rho_bar, -x * p.rho_bar):
                ref, _ = quad(h1, 0.0, sigma, epsabs=0.0, epsrel=1e-13)
                # H is O(x^2); its error is a few ulps of the O(x) terms it is built from
                assert abs(enthalpy_remainder(sigma, p) - ref) <= 1e-12 * abs(ref) + 4e-16 * p.p_prime_bar * x

    @pytest.mark.parametrize("gamma", PRESSURE_LAWS)
    def test_gradient_matches_the_product_form(self, grid16, gamma):
        # sigma on the whole 2/3 band: the quadratic parts of both forms are
        # alias-free and equal; they differ by the aliasing of cubic and higher
        # terms, O(x^2) of the u-row scale, which x = 1e-6 keeps at about 2e-14
        p = PhysParams(pressure_gamma=gamma, rho_bar=1.3)
        g = grid16
        sigma = random_zero_mean_field(np.random.default_rng(7), g, g.n // 3).to_physical()
        sigma *= 1e-6 * p.rho_bar / np.max(np.abs(sigma))
        sigma_hat = g.forward(sigma)
        rho = p.rho_bar + sigma
        h1 = p.sound_coupling - pressure_prime(rho, p) / rho
        ik = g.ik
        product = np.stack([g.forward_product(h1 * g.inverse(ik[i] * sigma_hat)) for i in range(3)])
        h_hat = g.forward_product(enthalpy_remainder(sigma, p))
        gradient = np.stack([ik[i] * h_hat for i in range(3)])
        scale = max(np.max(np.abs(p.sound_coupling * ik[i] * sigma_hat)) for i in range(3))
        assert np.max(np.abs(gradient - product)) <= 1e-12 * scale


class TestChemicalPotential:
    def test_pure_phase_zero(self, grid16, params):
        state = State.equilibrium(grid16)
        assert np.max(np.abs(chemical_potential(state, params))) == 0.0

    def test_phi_zero_gives_zero(self, grid16, params):
        state = State.equilibrium(grid16, phi_value=0.0)
        assert np.max(np.abs(chemical_potential(state, params))) == 0.0

    @staticmethod
    def _two_interface_profile(x, width):
        L = 2 * np.pi
        return np.tanh((x - L / 4) / width) - np.tanh((x - 3 * L / 4) / width) - 1.0

    def test_equilibrium_width_interface_is_stationary(self):
        # tanh(x / (sqrt(2) eps)) balances reaction and diffusion: mu ~ 0
        eps = 0.1
        params = PhysParams(epsilon=eps)
        grid = Grid(dim=1, n=256, length=2 * np.pi)
        phi = self._two_interface_profile(grid.axis_coords(), np.sqrt(2.0) * eps)
        state = State.from_physical(grid, 0.0, np.zeros(256), np.zeros((1, 256)), phi)
        mu = chemical_potential(state, params)
        # natural scale of either term separately is max |phi^3 - phi| / eps;
        # the floor is FFT roundoff amplified by k^2 in the Laplacian
        scale = np.max(np.abs(phi**3 - phi)) / eps
        assert np.max(np.abs(mu)) <= 1e-7 * scale

    def test_interface_profile_against_finite_difference(self):
        # off-equilibrium width -> order-one mu; oracle: 4x-resolution centered
        # differences of the same closed-form profile
        eps = 0.1
        params = PhysParams(epsilon=eps)
        n = 256
        grid = Grid(dim=1, n=n, length=2 * np.pi)
        w = 0.25

        phi = self._two_interface_profile(grid.axis_coords(), w)
        state = State.from_physical(grid, 0.0, np.zeros(n), np.zeros((1, n)), phi)
        mu = chemical_potential(state, params)

        fine = Grid(dim=1, n=4 * n, length=2 * np.pi)
        pf = self._two_interface_profile(fine.axis_coords(), w)
        h = fine.dx
        lap_f = (np.roll(pf, -1) - 2 * pf + np.roll(pf, 1)) / h**2
        mu_oracle_coarse = ((pf**3 - pf) / eps - eps * lap_f)[::4]

        scale = np.max(np.abs(mu_oracle_coarse))
        assert np.max(np.abs(mu - mu_oracle_coarse)) <= 2e-3 * scale


class TestCapillary:
    """The capillary force ``-eps grad(phi) Lap(phi)`` of the tendency.

    At ``sigma = u = 0`` it is the only term of the velocity rows of
    `nonlinear_terms`, which hold it divided by ``rho_bar``; ``rho_bar != 1``
    pins that division.
    """

    PARAMS = PhysParams(rho_bar=1.3)

    def force(self, grid, phi):
        zero = np.zeros(grid.shape)
        state = State.from_physical(grid, 0.0, zero, np.zeros((grid.dim,) + grid.shape), phi)
        rows = nonlinear_terms(state, self.PARAMS)[1:-1]
        return self.PARAMS.rho_bar * np.stack([grid.inverse(row) for row in rows])

    def test_constant_phase_zero(self, grid16):
        assert np.max(np.abs(self.force(grid16, np.ones(grid16.shape)))) == 0.0

    def test_single_mode_hand_value(self, grid16):
        x = grid16.meshgrid()[0]
        out = self.force(grid16, np.sin(x))
        # -eps cos(x) * (-sin(x)) = (eps/2) sin(2x) on the first component
        expected = 0.5 * self.PARAMS.epsilon * np.sin(2 * x)
        assert np.max(np.abs(out[0] - expected)) <= 1e-12
        assert np.max(np.abs(out[1:])) <= 1e-12

    def test_tensor_divergence_oracle(self, grid16):
        # independent evaluation via div(grad phi x grad phi - |grad phi|^2/2 I);
        # with the isotropic part included the two formulations agree exactly
        x, y, _ = grid16.meshgrid()
        phi = np.sin(x) * np.sin(y)
        production = self.force(grid16, phi)
        f = SpectralField.from_physical(grid16, phi)

        g = grid16
        d = g.dim
        gphi = np.stack([g.inverse(g.ik[i] * f.coeffs) for i in range(d)])
        tensor_div = np.zeros((d,) + g.shape)
        for i in range(d):
            for j in range(d):
                tij = gphi[i] * gphi[j]
                if i == j:
                    tij = tij - 0.5 * sum(gphi[m] ** 2 for m in range(d))
                tensor_div[i] += g.inverse(g.ik[j] * g.forward(tij))
        tensor_div *= -self.PARAMS.epsilon

        scale = np.max(np.abs(production))
        assert np.max(np.abs(production - tensor_div)) <= 1e-8 * scale


class TestAdvection:
    """The advection term ``-(u.grad) u`` of the tendency.

    At ``sigma = 0`` and ``phi = 1`` it is the only term of the velocity rows
    of `nonlinear_terms`, which hold it de-aliased; ``rho_bar != 1`` pins that
    advection is not divided by the density.
    """

    PARAMS = PhysParams(rho_bar=1.3)

    def rows(self, grid, u):
        state = State.from_physical(grid, 0.0, np.zeros(grid.shape), u, np.ones(grid.shape))
        return nonlinear_terms(state, self.PARAMS)[1:-1]

    def test_single_mode_hand_value(self, grid16):
        x, y, _ = grid16.meshgrid()
        u = np.stack([np.sin(y), np.sin(x), np.zeros(grid16.shape)])
        out = np.stack([grid16.inverse(row) for row in self.rows(grid16, u)])
        expected = -np.stack([np.sin(x) * np.cos(y), np.sin(y) * np.cos(x), np.zeros(grid16.shape)])
        assert np.max(np.abs(out - expected)) <= 1e-12

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_matches_the_convective_form(self, dim):
        # O(1) random velocity on the 2/3 band, against -P(sum_j u_j d_j u_i)
        grid = Grid(dim=dim, n=16, length=2 * np.pi)
        rng = np.random.default_rng(20 + dim)
        u = np.stack([random_zero_mean_field(rng, grid, grid.n // 3).to_physical() for _ in range(dim)])
        u /= np.max(np.abs(u))
        u_hat = np.stack([grid.forward(ui) for ui in u])
        reference = np.stack(
            [
                -grid.forward_product(sum(u[j] * grid.inverse(grid.ik[j] * u_hat[i]) for j in range(dim)))
                for i in range(dim)
            ]
        )
        scale = np.max(np.abs(reference))
        assert scale > 1e-2
        assert np.max(np.abs(self.rows(grid, u) - reference)) <= 1e-13 * scale


class TestRhs:
    def test_equilibrium_exact_zero(self, grid16, params):
        for sign in (1.0, -1.0):
            tend = rhs(State.equilibrium(grid16, phi_value=sign), params)
            assert np.max(np.abs(tend)) == 0.0

    def test_cache_holds_only_the_state_views(self, grid16, params):
        # derived fields stay with the tendency; the state caches its own views
        # and p'(rho), which the CFL bound reads as well
        rng = np.random.default_rng(10)
        state = random_admissible_state(rng, grid16)
        rhs(state, params)
        assert set(state._cache) == {"sigma", "u", "phi", ("p_prime", params)}

    def test_phase_linearization(self, grid16, params):
        # sigma = u = 0, phi = 1 + delta sin(x): the mode-1 tendency is
        # -(eps/rho_bar^2 + 2/(eps rho_bar)) delta sin(x) up to O(delta^2)
        delta = 1e-3
        x = grid16.meshgrid()[0]
        phi = 1.0 + delta * np.sin(x)
        state = State.from_physical(
            grid16, 0.0, np.zeros(grid16.shape), np.zeros((3,) + grid16.shape), phi
        )
        dphi = rhs(state, params)[-1]
        mode = (1, 0, 0)
        rate = params.epsilon / params.rho_bar**2 + 2.0 / (params.epsilon * params.rho_bar)
        expected = -rate * delta * (-0.5j)  # sin(x) has coefficient -i/2 at +e1
        assert abs(dphi[mode] - expected) <= 5.0 * delta**2

    @staticmethod
    def assert_split_matches_direct_form(grid, params):
        state = random_admissible_state(np.random.default_rng(11), grid, amplitude=1e-2, max_mode=2)
        split = rhs(state, params)
        direct = direct_rhs_physical(state, params)
        for a, b in zip((split[0], split[1:-1], split[-1]), direct):
            scale = max(np.max(np.abs(b)), 1e-300)
            assert np.max(np.abs(a - b)) <= 1e-9 * scale

    def test_split_matches_direct_form(self, grid16, params):
        self.assert_split_matches_direct_form(grid16, params)

    @pytest.mark.parametrize("gamma", [1.0, 2.0])  # the enthalpy remainder's log branch, and h1 = 0
    def test_split_matches_direct_form_across_pressure_laws(self, grid16, gamma):
        self.assert_split_matches_direct_form(grid16, PhysParams(pressure_gamma=gamma))

    def test_mass_in_divergence_form(self, grid16, params):
        rng = np.random.default_rng(12)
        state = random_admissible_state(rng, grid16)
        dsigma = rhs(state, params)[0]
        scale = np.max(np.abs(dsigma))
        assert abs(dsigma[(0, 0, 0)]) <= 1e-13 * scale

    def test_vacuum_error(self, grid16, params):
        sigma = np.full(grid16.shape, -1.5)
        state = State.from_physical(grid16, 0.0, sigma, np.zeros((3,) + grid16.shape), np.ones(grid16.shape))
        with pytest.raises(VacuumError):
            rhs(state, params)

    def test_nan_rejected(self, grid16, params):
        sigma = np.zeros(grid16.shape)
        sigma[0, 0, 0] = np.nan
        state = State.from_physical(grid16, 0.0, sigma, np.zeros((3,) + grid16.shape), np.ones(grid16.shape))
        with pytest.raises(Exception, match="sigma"):
            rhs(state, params)

    def test_one_off_allocation(self, grid16, params):
        state = random_admissible_state(np.random.default_rng(14), grid16, max_mode=4)
        rhs(state, params)  # caches the state's own views
        tracemalloc.start()
        try:
            held, _ = tracemalloc.get_traced_memory()
            rhs(state, params)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        field = 16 * grid16.n**2 * (grid16.n // 2 + 1)
        # a fresh workspace with one 8-field transform buffer (34 spectral
        # fields) and the transforms' own temporaries: 37.1 spectral fields
        assert (peak - held) / field <= 39


class TestLinearOperator:
    @pytest.mark.parametrize(
        "alpha,shifted",
        [
            pytest.param(alpha, shifted, id=f"{alpha}-shifted" if shifted else str(alpha))
            for shifted in (False, True)
            for alpha in (1e-5, 0.0165, 10.0)
        ],
    )
    def test_closed_form_matches_dense_symbol(self, grid16, alpha, shifted):
        # per mode against the oracle's dense block and phase rate: k = 0, an
        # axis mode, an oblique mode and a mode on the Nyquist rows; the
        # shifted phase row carries the stepper's reaction rate
        params = PhysParams(lam=0.3, rho_bar=1.3)  # rho_bar != 1 keeps every coefficient visible
        shift = 2.0 / (params.epsilon * params.rho_bar) if shifted else 0.0
        B = LinearSymbol(grid16, params, shift)
        rng = np.random.default_rng(13)
        shape = (5,) + grid16.rshape
        y = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        applied = B.apply(y)
        solved = B.solve(alpha, y)
        n = grid16.n
        for mode in [(0, 0, 0), (1, 0, 0), (3, n - 2, 5), (n // 2, 5, n // 2)]:
            at = (slice(None),) + mode
            k = np.array([grid16.ik[i].ravel()[m].imag for i, m in enumerate(mode)])
            block = build_symbol(k, params)
            ref = np.linalg.inv(np.eye(4) - alpha * block.acoustic) @ y[at][:4]
            assert np.max(np.abs(solved[at][:4] - ref)) <= 1e-14 * np.max(np.abs(ref))
            ref = block.acoustic @ y[at][:4]
            assert np.max(np.abs(applied[at][:4] - ref)) <= 1e-14 * np.max(np.abs(ref))
            phase = block.phase_factor - shift
            assert solved[at][4] == pytest.approx(y[at][4] / (1 - alpha * phase), rel=1e-14)
            assert applied[at][4] == pytest.approx(phase * y[at][4], rel=1e-14)
        # a zero input stays exactly zero, which keeps equilibria fixed points
        assert np.all(B.solve(alpha, np.zeros(shape, complex)) == 0)


class TestTotalEnergy:
    def test_equilibrium_zero(self, grid16, params):
        rep = total_energy(State.equilibrium(grid16), params)
        assert rep.total == 0.0
        assert rep.diss_visc == rep.diss_div == rep.diss_mu == 0.0

    def test_g_component_constant_density(self, grid16):
        # rho = 2 rho_bar constant, isothermal law: G-part = volume * (2 ln 2 - 1)
        p = PhysParams(pressure_a=1.0, pressure_gamma=1.0, rho_bar=1.0)
        sigma = np.ones(grid16.shape)
        state = State.from_physical(grid16, 0.0, sigma, np.zeros((3,) + grid16.shape), np.ones(grid16.shape))
        rep = total_energy(state, p)
        assert rep.g_part == pytest.approx(V * (2 * np.log(2) - 1), rel=1e-12)
        assert rep.kinetic == 0.0 and rep.gradient_part == 0.0 and rep.double_well == 0.0

    def test_single_mode_velocity(self, grid16, params):
        # u = (sin(y), 0, 0): kinetic = V/4, viscous dissipation = nu V/2
        y = grid16.meshgrid()[1]
        u = np.zeros((3,) + grid16.shape)
        u[0] = np.sin(y)
        state = State.from_physical(grid16, 0.0, np.zeros(grid16.shape), u, np.ones(grid16.shape))
        rep = total_energy(state, params)
        assert rep.kinetic == pytest.approx(0.5 * (V / 2), rel=1e-12)
        assert rep.diss_visc == pytest.approx(params.nu * (V / 2), rel=1e-12)
        assert rep.diss_div == pytest.approx(0.0, abs=1e-12)

    def test_components_nonnegative_and_additive(self, grid16, params):
        rng = np.random.default_rng(13)
        state = random_admissible_state(rng, grid16)
        rep = total_energy(state, params)
        for part in (rep.kinetic, rep.g_part, rep.gradient_part, rep.double_well):
            assert part >= 0
        assert rep.total == rep.kinetic + rep.g_part + rep.gradient_part + rep.double_well

    def test_energy_derivative_matches_dissipation(self, params):
        # chain-rule assembly of dE/dt from the tendencies must equal the
        # negative dissipation (exact identity, discretization-level slack)
        grid = Grid(dim=3, n=64, length=2 * np.pi)
        rng = np.random.default_rng(14)
        state = random_admissible_state(rng, grid, amplitude=1e-2, max_mode=4)
        tend = rhs(state, params)
        dsig, du, dphi = grid.inverse(tend[0]), grid.inverse_many(tend[1:-1]), grid.inverse(tend[-1])
        sigma, u, phi = state.sigma(), state.u(), state.phi()
        rho = params.rho_bar + sigma
        eps = params.epsilon

        kin_t = np.mean(0.5 * dsig * np.sum(u * u, axis=0) + rho * np.sum(u * du, axis=0))
        g_prime = (g_potential(rho, params) + pressure(rho, params) - pressure(params.rho_bar, params)) / rho
        g_t = np.mean(g_prime * dsig)
        grad_phi = grid.inverse_many(np.stack([grid.ik[i] * state.phi_hat for i in range(3)]))
        dgrad = grid.inverse_many(np.stack([grid.ik[i] * grid.forward(dphi) for i in range(3)]))
        grad_t = eps * np.mean(np.sum(grad_phi * dgrad, axis=0))
        dw_t = np.mean(
            dsig * (phi**2 - 1.0) ** 2 / (4 * eps) + rho / eps * (phi**2 - 1.0) * phi * dphi
        )
        dE = V * (kin_t + g_t + grad_t + dw_t)

        rep = total_energy(state, params)
        dissipation = rep.diss_visc + rep.diss_div + rep.diss_mu
        assert dE == pytest.approx(-dissipation, rel=1e-6)

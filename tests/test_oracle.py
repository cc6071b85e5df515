import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp
from scipy.special import gammainc, gammaln, roots_jacobi

from nsac import PhysParams, oracle
from nsac.cli import main
from nsac.errors import QuadratureError
from nsac.oracle import DataProfile, _longitudinal_gains, decay_norms, fit_exponent

from reference import build_symbol, evolve_mode, profile_amplitude


UNIT = PhysParams(nu=1.0, lam=0.0, rho_bar=1.0, pressure_a=1.0, pressure_gamma=1.0)  # p'(1) = 1


class TestBuildSymbol:
    def test_zero_mode_conserved(self, params):
        block = build_symbol(np.zeros(3), params)
        assert np.all(block.acoustic == 0)
        assert block.phase_factor == 0.0

    def test_unit_wavenumber_critical_damping(self):
        # nu=1, lam=0, rho_bar=1, p'(rho_bar)=1 at |k|=1: the longitudinal pair
        # solves x^2 + 2x + 1 = 0 (double root -1) and transverse modes decay
        # at rate -nu |k|^2 = -1, so the whole 4x4 block has eigenvalues -1
        block = build_symbol(np.array([1.0, 0.0, 0.0]), UNIT)
        eig = np.linalg.eigvals(block.acoustic)
        assert np.allclose(sorted(eig.real), [-1.0] * 4, atol=1e-12)
        assert np.allclose(eig.imag, 0.0, atol=1e-12)

    def test_longitudinal_characteristic_polynomial(self):
        # oracle: the longitudinal eigenvalues must solve
        # x^2 + (2 nu + lam)|k|^2 / rho_bar x + p'(rho_bar)|k|^2 = 0
        params = PhysParams(nu=0.7, lam=0.4, rho_bar=1.3, pressure_a=0.8, pressure_gamma=1.4)
        k = np.array([1.0, -2.0, 0.5])
        k2 = float(k @ k)
        block = build_symbol(k, params)
        eig = np.linalg.eigvals(block.acoustic)
        poly = lambda x: x**2 + (2 * params.nu + params.lam) * k2 / params.rho_bar * x + params.p_prime_bar * k2
        # two transverse eigenvalues sit at -nu |k|^2 / rho_bar
        trans = -params.nu * k2 / params.rho_bar
        longitudinal = sorted(eig, key=lambda z: abs(z - trans))[2:]
        for lam_ in longitudinal:
            assert abs(poly(lam_)) <= 1e-9 * max(1.0, abs(lam_) ** 2)

    def test_transverse_velocity_eigenvector(self, params):
        k = np.array([1.0, 2.0, 2.0])
        block = build_symbol(k, params)
        v = np.array([0.0, 2.0, -1.0, 0.0])  # perpendicular to k
        amp = np.concatenate([[0.0], v[1:]])
        out = block.acoustic @ amp
        rate = -params.nu * float(k @ k) / params.rho_bar
        assert np.allclose(out, rate * amp, atol=1e-12)

    def test_dissipative_spectrum(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            params = PhysParams(
                nu=rng.uniform(0.2, 2.0),
                lam=rng.uniform(-0.1, 1.0),
                rho_bar=rng.uniform(0.5, 2.0),
                pressure_gamma=rng.uniform(1.0, 2.0),
            )
            k = rng.normal(size=3) * 3
            eig = np.linalg.eigvals(build_symbol(k, params).acoustic)
            assert np.all(eig.real <= 1e-12)


class TestEvolveMode:
    def test_identity_at_t_zero(self, params):
        block = build_symbol(np.array([1.0, 1.0, 0.0]), params)
        init = np.array([1.0, 0.5j, -0.25, 0.1, 0.7 + 0.2j])
        assert np.allclose(evolve_mode(block, init, 0.0), init, atol=1e-14)

    def test_phase_heat_factor(self):
        # |k| = 2, eps = rho_bar = 1, t = 0.5 -> factor e^(-2)
        params = PhysParams(epsilon=1.0, rho_bar=1.0)
        block = build_symbol(np.array([2.0, 0.0, 0.0]), params)
        init = np.zeros(5, dtype=complex)
        init[4] = 1.0
        out = evolve_mode(block, init, 0.5)
        assert out[4] == pytest.approx(np.exp(-2.0), rel=1e-14)

    def test_against_high_accuracy_ode(self, params):
        block = build_symbol(np.array([1.0, -1.0, 2.0]), params)
        init = np.array([0.3 - 0.1j, 0.2, -0.5j, 0.1 + 0.1j])

        def rhs_ode(_t, y):
            y = y[:4] + 1j * y[4:]
            dy = block.acoustic @ y
            return np.concatenate([dy.real, dy.imag])

        y0 = np.concatenate([init.real, init.imag])
        sol = solve_ivp(rhs_ode, (0.0, 2.0), y0, rtol=1e-12, atol=1e-14, dense_output=True)
        for t in (0.5, 1.0, 2.0):
            ours = evolve_mode(block, np.append(init, 0.0), t)[:4]
            ref = sol.sol(t)
            ref = ref[:4] + 1j * ref[4:]
            assert np.max(np.abs(ours - ref)) <= 1e-10

    def test_semigroup(self, params):
        block = build_symbol(np.array([0.5, 1.5, -1.0]), params)
        init = np.array([0.1, 0.2j, 0.3, -0.4, 0.5])
        one = evolve_mode(block, evolve_mode(block, init, 0.7), 1.1)
        both = evolve_mode(block, init, 1.8)
        assert np.max(np.abs(one - both)) <= 1e-10 * max(1.0, np.max(np.abs(both)))

    def test_energy_form_non_increasing(self, params):
        block = build_symbol(np.array([2.0, 0.0, 1.0]), params)
        init = np.array([1.0, 0.3 - 0.2j, -0.7, 0.2j, 0.0])
        w = params.p_prime_bar / params.rho_bar**2

        def energy(amp):
            return w * abs(amp[0]) ** 2 + np.sum(np.abs(amp[1:4]) ** 2)

        values = [energy(evolve_mode(block, init, t)) for t in np.linspace(0, 3, 40)]
        assert np.all(np.diff(values) <= 1e-12 * values[0])

    def test_input_validation(self, params):
        block = build_symbol(np.array([1.0, 0.0, 0.0]), params)
        with pytest.raises(ValueError, match="nonnegative"):
            evolve_mode(block, np.zeros(5), -1.0)
        with pytest.raises(ValueError, match="amplitudes"):
            evolve_mode(block, np.zeros(3), 1.0)


class TestDataProfile:
    def test_kinds(self):
        DataProfile(s=0.5)
        DataProfile(s=0.0, kind="l1")
        with pytest.raises(ValueError, match="kind"):
            DataProfile(s=0.5, kind="gaussian")
        with pytest.raises(ValueError, match=r"\[0, 1.5\)"):
            DataProfile(s=1.5)

    def test_amplitude_support(self):
        prof = DataProfile(s=1.0)
        r = np.array([0.0, 0.5, 1.0, 1.5])
        a = profile_amplitude(prof, r)
        assert a[3] == 0.0
        assert a[1] == pytest.approx(0.5**prof.beta)

    def test_negative_space_membership(self):
        # int_0^1 r^(2 - 2s) a(r)^2 dr must converge: the power profile sits
        # margin inside, so shrinking s further keeps it integrable
        prof = DataProfile(s=0.5)
        val, _ = quad(lambda r: r ** (2 - 2 * prof.s) * profile_amplitude(prof, r) ** 2, 0, 1)
        assert np.isfinite(val)


class TestLongitudinalPropagator:
    def test_matches_expm(self, params):
        # the gains are the squared rows of exp(t A2) (1, 1), with A2 the
        # longitudinal block; k2 = 4 p' / b^2 is critical damping (r = 1.18 for
        # the defaults, 0.15 for the second set), so both branches are crossed
        from scipy.linalg import expm

        for p in (params, PhysParams(nu=3.0, lam=1.0, pressure_a=0.2)):
            b = p.longitudinal_diffusivity
            critical = 4.0 * p.p_prime_bar / b**2
            for k2 in (1e-12, 1e-4, 0.09, 1.0, critical, 4.0, 25.0):
                r = np.sqrt(k2)
                A = np.array([
                    [0.0, -1j * p.rho_bar * r],
                    [-1j * p.sound_coupling * r, -b * k2],
                ])
                for t in (0.0, 0.1, 10.0, 5e3):
                    E = np.abs(expm(t * A) @ np.ones(2)) ** 2
                    with np.errstate(all="raise", under="ignore"):
                        ours = np.concatenate(_longitudinal_gains(np.array([k2]), t, p))
                    assert np.max(np.abs(ours - E)) <= 1e-10 * max(1.0, np.max(E))


class TestDecayNorm:
    def test_t_zero_is_plain_data_norm(self, params):
        prof = DataProfile(s=0.0, kind="l1")
        # phi: 4 pi / 3; u: one longitudinal + two transverse polarizations
        assert decay_norms([(0, prof)], 0.0, "phi", params)[0] == pytest.approx(4 * np.pi / 3, rel=1e-10)
        assert decay_norms([(0, prof)], 0.0, "sigma", params)[0] == pytest.approx(4 * np.pi / 3, rel=1e-10)
        assert decay_norms([(0, prof)], 0.0, "u", params)[0] == pytest.approx(3 * 4 * np.pi / 3, rel=1e-10)

    def test_heat_norm_against_quadrature_oracle(self):
        # eps t / rho_bar^2 = 1: N = 4 pi int_0^1 e^(-2 r^2) r^2 dr
        params = PhysParams(epsilon=1.0, rho_bar=1.0)
        prof = DataProfile(s=0.0, kind="l1")
        oracle = 4 * np.pi * quad(lambda r: np.exp(-2 * r**2) * r**2, 0, 1, epsrel=1e-13)[0]
        assert decay_norms([(0, prof)], 1.0, "phi", params)[0] == pytest.approx(oracle, rel=1e-9)

    @pytest.mark.parametrize("l,s", [(0, 0.5), (1, 1.0), (2, 1.2)])
    def test_heat_norm_against_incomplete_gamma(self, params, l, s):
        # closed form: 4 pi int_0^1 r^(2a-1) e^(-2ctr^2) dr
        #            = 2 pi (2ct)^(-a) Gamma(a) P(a, 2ct), a = l + 3/2 + beta
        prof = DataProfile(s=s)
        c = params.epsilon / params.rho_bar**2
        a = l + 1.5 + prof.beta
        for t in (3.0, 40.0, 800.0):
            x = 2 * c * t
            closed = 2 * np.pi * x ** (-a) * np.exp(gammaln(a)) * gammainc(a, x)
            assert decay_norms([(l, prof)], t, "phi", params)[0] == pytest.approx(closed, rel=1e-7)

    @pytest.mark.parametrize("component", ["sigma", "u"])
    def test_acoustic_norm_against_scipy_quad(self, params, component):
        # independent scalar quadrature of the radial integrand, each value
        # from the dense exp(t A) of the full symbol at k = (r, 0, 0): the
        # velocity (1, 1, 1) is one longitudinal and two transverse polarizations

        prof = DataProfile(s=1.0)
        l, t = 1, 50.0

        def integrand(r):
            out = evolve_mode(build_symbol((r, 0.0, 0.0), params), [1, 1, 1, 1, 0], t)
            amp2 = abs(out[0]) ** 2 if component == "sigma" else float(np.sum(np.abs(out[1:4]) ** 2))
            return r ** (2 * l + 2 + 2 * prof.beta) * amp2

        oracle = 4 * np.pi * quad(integrand, 0.0, 1.0, epsabs=1e-14, epsrel=1e-11, limit=200)[0]
        assert decay_norms([(l, prof)], t, component, params)[0] == pytest.approx(oracle, rel=1e-7)

    def test_decreasing_in_time(self, params):
        prof = DataProfile(s=1.0)
        for comp in ("phi", "sigma", "u"):
            vals = [decay_norms([(0, prof)], t, comp, params)[0] for t in (0.0, 1.0, 10.0, 100.0)]
            assert np.all(np.diff(vals) < 0)

    def test_l1_profile_slope(self, params):
        ts = np.geomspace(1e2, 1e4, 30)
        prof = DataProfile(s=0.0, kind="l1")
        vals = [decay_norms([(0, prof)], t, "phi", params)[0] for t in ts]
        fit = fit_exponent(ts, vals, (ts[0], ts[-1]))
        assert abs(fit.exponent - (-1.5)) <= 0.05

    def test_validation(self, params, monkeypatch):
        prof = DataProfile(s=0.5)
        with pytest.raises(ValueError, match="l must lie"):
            decay_norms([(4, prof)], 1.0, "phi", params)
        with pytest.raises(ValueError, match="component"):
            decay_norms([(0, prof)], 1.0, "pressure", params)
        monkeypatch.setattr(oracle, "_adaptive_radial", None)  # no quadrature starts
        # an infinite t puts the origin panel at 0, so the ladder never reaches 1
        for t in (np.nan, np.inf, -1.0):
            with pytest.raises(ValueError, match="t must be finite and nonnegative"):
                decay_norms([(0, prof)], t, "phi", params)


class TestJacobiRule:
    """The origin panel's numpy Gauss-Jacobi rule against scipy's."""

    #: Every radial power of the CLI's default s list under both profiles, l 0-3.
    POWERS = sorted({
        2.0 * l + 2.0 + 2.0 * DataProfile(s=s, kind=kind).beta
        for l in range(4) for s in (0.5, 1.0, 1.49) for kind in ("power", "l1")
    })
    NODE_ATOL = 1e-15
    #: an eigenvector's first components are good to ulps of the largest, so the weights
    #: near x = -1, which shrink like (1+x)^p, are good to a few 1e-12 relative
    WEIGHT_RTOL = 1e-10
    #: a sum of 24 rounded weights
    SUM_RTOL = 1e-14

    def test_matches_scipy_roots_jacobi(self):
        for p in self.POWERS:
            x, w = oracle._jacobi_rule(p)
            x_ref, w_ref = roots_jacobi(24, 0.0, p)
            assert np.max(np.abs(x - x_ref)) <= self.NODE_ATOL
            assert np.max(np.abs(w / w_ref - 1.0)) <= self.WEIGHT_RTOL
            assert w.sum() == pytest.approx(2.0 ** (p + 1.0) / (p + 1.0), rel=self.SUM_RTOL, abs=0)


class TestQuadratureCost:
    """Envelope evaluations of one acoustic quadrature, counted, not timed."""

    def test_envelope_calls_and_block_size(self, params, monkeypatch):
        sizes = []

        def counted(k2, t, params_):
            sizes.append(np.size(k2))
            return _longitudinal_gains(k2, t, params_)

        monkeypatch.setattr(oracle, "_longitudinal_gains", counted)
        decay_norms([(1, DataProfile(s=1.0))], 1e4, "u", params)
        # 5 refinement levels, the ladder's 12, 26, 60, 128 and 288
        # sub-intervals in blocks of 64; each level's first block carries the origin panel
        assert len(sizes) == 1 + 1 + 1 + 2 + 5
        assert max(sizes) == 64 * 16 + 24  # a full block and the origin panel, never larger

    @pytest.mark.parametrize("component,l,s,t", [("phi", 0, 0.5, 100.0), ("sigma", 2, 1.49, 1e4), ("u", 1, 1.0, 1e4)])
    def test_blocked_sum_matches_per_panel_loop(self, params, component, l, s, t):
        # reference: the same ladder, refinement and Gauss rules, one envelope
        # call and one sum per ladder panel; blocking only reorders the sum
        g = oracle._decay_envelope(t, component, params)
        prof = DataProfile(s=s)
        p = 2.0 * l + 2.0 + 2.0 * prof.beta
        rate = 2.0 * params.phase_diffusivity if component == "phi" else params.longitudinal_diffusivity
        r_eff = min(1.0, 1.0 / np.sqrt(max(rate * t, 1.0)))
        xj, wj = oracle._jacobi_rule(p)
        xg, wg = np.polynomial.legendre.leggauss(16)

        def per_panel(n_sub, shrink):
            first = r_eff / (4.0 * shrink)
            total = (first / 2.0) ** (p + 1.0) * float(np.sum(wj * g(first * 0.5 * (1.0 + xj))))
            edges, scale = [first], first
            while edges[-1] < 1.0:
                scale *= 1.6
                edges.append(min(1.0, edges[-1] + scale))
            for lo, hi in zip(edges[:-1], edges[1:]):
                sub = np.linspace(lo, hi, n_sub + 1)
                mid, half = 0.5 * (sub[:-1] + sub[1:]), 0.5 * (sub[1:] - sub[:-1])
                nodes = mid[:, None] + half[:, None] * xg
                total += float(np.sum(half[:, None] * nodes**p * g(nodes.ravel()).reshape(nodes.shape) * wg))
            return total

        levels = [per_panel(1, 1)]
        for n in (2, 4, 8, 16, 32, 64):
            levels.append(per_panel(n, n))
            if abs(levels[-1] - levels[-2]) <= oracle.QUADRATURE_RTOL * abs(levels[-1]):
                break
        ours = decay_norms([(l, prof)], t, component, params)[0]
        assert ours == pytest.approx(4.0 * np.pi * levels[-1], rel=1e-13, abs=0)

#: The CLI's default (l, profile) pairs, in its (s, l) order.
DEFAULT_PAIRS = [(l, DataProfile(s=s)) for s in (0.5, 1.0, 1.49) for l in (0, 1, 2)]


class TestSharedQuadrature:
    """Every (l, profile) of one (component, t) on one ladder and one envelope."""

    @pytest.mark.parametrize("component", ["phi", "sigma", "u"])
    def test_equals_one_quadrature_per_pair(self, params, component):
        # at (sigma, 1e3) and (sigma, 1e4) the pairs stop at different levels
        for t in (0.0, 100.0, 1e3, 1e4):
            alone = [decay_norms([(l, prof)], t, component, params)[0] for l, prof in DEFAULT_PAIRS]
            assert decay_norms(DEFAULT_PAIRS, t, component, params) == alone
        assert decay_norms([], 1.0, component, params) == []

    def test_envelope_calls_of_one_shared_evaluation(self, params, monkeypatch):
        levels = []

        def counted(k2, t, params_):
            levels.append(np.size(k2))
            return _longitudinal_gains(k2, t, params_)

        monkeypatch.setattr(oracle, "_longitudinal_gains", counted)
        for l, prof in DEFAULT_PAIRS:
            decay_norms([(l, prof)], 1e4, "sigma", params)
        alone, levels[:] = len(levels), []
        decay_norms(DEFAULT_PAIRS, 1e4, "sigma", params)
        # seven pairs stop after 5 levels and two after 6: each level's ladder
        # blocks once (10 blocks for 5 levels, 10 more for the sixth), the first
        # block of a level carrying the origin panels of the pairs still refining;
        # one pair at a time evaluates the ladder per pair
        assert (len(levels), alone) == (20, 110)
        assert max(levels) == 64 * 16 + 9 * 24

    def test_envelope_calls_of_the_default_sweep(self, monkeypatch, tmp_path):
        sizes = []
        envelope = oracle._decay_envelope

        def counted(t, component, params_):
            g = envelope(t, component, params_)

            def g_counted(r):
                sizes.append(np.size(r))
                return g(r)

            return g_counted

        monkeypatch.setattr(oracle, "_decay_envelope", counted)
        assert main(["linear-decay", "--out-csv", str(tmp_path / "d.csv"), "--out-json", str(tmp_path / "d.json")]) == 0
        # 3 components x 40 times, one call per ladder block and level
        assert (len(sizes), sum(sizes)) == (558, 421_672)
        assert max(sizes) == 64 * 16 + 9 * 24

    def test_one_nonconvergent_integrand_raises_with_its_residual(self):
        rng = np.random.default_rng(2)

        def noisy_near_origin(r):
            # r^6 hides the noise below 1e-3 from the second power, not from r^0
            return 1.0 + np.where(r < 1e-3, rng.standard_normal(r.shape), 0.0)

        assert oracle._adaptive_radial(noisy_near_origin, [6.0], 1.0, 1.0) == [pytest.approx(1.0 / 7.0, rel=1e-12)]
        with pytest.raises(QuadratureError, match="residual") as err:
            oracle._adaptive_radial(noisy_near_origin, [6.0, 0.0], 1.0, 1.0)
        assert err.value.residual > oracle.QUADRATURE_RTOL


class TestFitExponent:
    def test_exact_power_law(self):
        t = np.geomspace(1, 1e4, 60)
        fit = fit_exponent(t, (1 + t) ** (-2.0), (1.0, 1e4))
        assert fit.exponent == pytest.approx(-2.0, abs=1e-9)
        assert fit.r2 == pytest.approx(1.0, abs=1e-12)
        assert fit.prefactor == pytest.approx(1.0, rel=1e-9)

    def test_constant_series(self):
        t = np.linspace(1, 100, 20)
        fit = fit_exponent(t, np.full(20, 3.0), (1.0, 100.0))
        assert fit.exponent == pytest.approx(0.0, abs=1e-12)

    def test_requires_samples_and_positivity(self):
        t = np.linspace(1, 10, 5)
        with pytest.raises(ValueError, match="at least 10"):
            fit_exponent(t, np.ones(5), (1.0, 10.0))
        t = np.linspace(1, 10, 20)
        vals = np.ones(20)
        vals[3] = -1.0
        with pytest.raises(ValueError, match="positive"):
            fit_exponent(t, vals, (1.0, 10.0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_requires_finite_values_and_times(self, bad):
        t = np.linspace(1, 10, 20)
        vals = np.ones(20)
        vals[3] = bad
        with pytest.raises(ValueError, match="strictly positive"):
            fit_exponent(t, vals, (1.0, 10.0))
        vals[3] = 1.0
        fit_exponent(t, vals, (1.0, 10.0))
        t[-1] = bad
        with pytest.raises(ValueError, match="t must be finite"):
            fit_exponent(t, vals, (1.0, np.inf))

    @pytest.mark.parametrize("n_values", [10, 21])
    def test_rejects_values_of_another_length(self, n_values):
        # a shorter series used to reach the window mask and raise IndexError
        with pytest.raises(ValueError, match="same shape"):
            fit_exponent(np.linspace(1, 10, 20), np.ones(n_values), (1, 10))


class TestQuadratureFailure:
    def test_bad_weight_exponent_rejected(self):
        from nsac.oracle import _adaptive_radial

        with pytest.raises(ValueError, match="exceed -1"):
            _adaptive_radial(lambda r: np.ones_like(r), [-1.5], 1.0, 1.0)

    def test_nonconvergent_integrand_raises_with_residual(self):
        from nsac.oracle import _adaptive_radial

        rng = np.random.default_rng(1)

        def noisy(r):
            return 1.0 + rng.standard_normal(r.shape)

        with pytest.raises(QuadratureError, match="residual"):
            _adaptive_radial(noisy, [0.0], 1.0, 1.0)

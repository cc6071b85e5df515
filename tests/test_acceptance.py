"""Acceptance gate: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion. The shared 64^3 decay trajectory (criteria 3, 4, 5) takes a
few minutes; everything else is fast.
"""

import time

import numpy as np
import pytest

from nsac import Grid, PhysParams, State, StepConfig, run
from nsac.config import ICSpec, RunConfig
from nsac.diagnostics import decay_suite, energy_ledger, level_energy, negative_functional
from nsac.initial import make_initial
from nsac.oracle import DataProfile, build_symbol, decay_norm, evolve_mode
from nsac.spectral import (
    SpectralField,
    fractional_laplacian,
    hk_norm_sq,
    interpolation_check,
)
from nsac.verify import GN_STABLE_CASES, GN_SUP_CAP, GN_SUP_CASE, gn_ensemble_max

from conftest import random_zero_mean_field
from test_integrate import observed_order


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"{'PASS' if passed else 'FAIL'} {criterion}: {detail}")
    assert passed, f"{criterion}: {detail}"


# ---------------------------------------------------------------------------
# Criteria 1 and 2: linear-oracle decay exponents
# ---------------------------------------------------------------------------


class TestLinearDecayExponents:
    def test_criterion_1_power_profiles(self, params):
        t0 = time.perf_counter()
        ts = np.geomspace(1e2, 1e4, 40)
        failures = []
        worst = 0.0
        for comp, tol in (("phi", 0.1), ("sigma", 0.15), ("u", 0.15)):
            for s in (0.5, 1.0, 1.5 - 0.01):
                prof = DataProfile(s=s)
                for l in (0, 1, 2):
                    vals = [decay_norm(l, s, t, prof, comp, params) for t in ts]
                    fit = decay_suite(ts, vals, l, s, tol=tol)
                    worst = max(worst, abs(fit.exponent - fit.target))
                    if not fit.passed:
                        failures.append((comp, l, s, fit.exponent, fit.target))
        elapsed = time.perf_counter() - t0
        report(
            "criterion 1 (linear decay exponents)",
            not failures and elapsed < 60.0,
            f"27 fits, worst |exponent - target| = {worst:.4f} "
            f"(tol 0.1 heat / 0.15 acoustic), {elapsed:.1f} s",
        )

    def test_criterion_2_l1_endpoint(self, params):
        ts = np.geomspace(1e2, 1e4, 40)
        prof = DataProfile(s=0.0, kind="l1")
        worst = 0.0
        ok = True
        for l in (0, 1, 2):
            vals = [decay_norm(l, 0.0, t, prof, "phi", params) for t in ts]
            fit = decay_suite(ts, vals, l, 1.5, tol=0.1)
            worst = max(worst, abs(fit.exponent + (l + 1.5)))
            ok = ok and fit.passed
        report(
            "criterion 2 (flat-profile endpoint)",
            ok,
            f"heat exponents match -(l + 3/2) within {worst:.4f} (tol 0.1)",
        )


# ---------------------------------------------------------------------------
# Criteria 3, 4, 5: shared nonlinear 64^3 decay run
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def decay_run(params):
    # Two-segment time-step schedule: the dissipation integral is dominated by
    # the first fraction of a time unit, where the stiffest excited modes need
    # dt * rate < 1/2 for the sampled dissipation to integrate faithfully; the
    # long tail then runs at the configured cap of 0.05.
    grid = Grid(dim=3, n=64, length=2 * np.pi)
    cfg = RunConfig(
        grid=grid,
        phys=params,
        step=StepConfig(dt=0.05, t_end=50.0, scheme_order=2),
        ic=ICSpec(kind="random_perturbation", delta=1e-2, max_mode=4, seed=2024),
    )
    state = make_initial(cfg)
    rows = {k: [] for k in ("t", "E", "D", "mass", "phimax", "comb", "neg05", "neg1")}

    def obs(_i, s):
        if rows["t"] and s.t == rows["t"][-1]:
            return
        rep = energy_ledger(s, params)
        rows["t"].append(s.t)
        rows["E"].append(rep.total)
        rows["D"].append(rep.diss_visc + rep.diss_div + rep.diss_mu)
        rows["mass"].append(s.mass(params))
        rows["phimax"].append(float(np.max(np.abs(s.phi()))))
        rows["comb"].append(level_energy(s, 0).combined)
        rows["neg05"].append(negative_functional(s, 0.5).total)
        rows["neg1"].append(negative_functional(s, 1.0).total)

    holder = {}

    def keep(_i, s):
        holder["state"] = s

    early = StepConfig(dt=5e-3, t_end=1.0, scheme_order=2)
    summary = run(state, early, params, observers=(obs, keep))
    assert summary.termination == "t_end"
    summary = run(holder["state"], cfg.step, params, observers=(obs,))
    assert summary.termination == "t_end"
    return {k: np.asarray(v) for k, v in rows.items()}


class TestNonlinearRun:
    def test_criterion_3_invariants(self, decay_run):
        t, E, D = decay_run["t"], decay_run["E"], decay_run["D"]
        mass, phimax = decay_run["mass"], decay_run["phimax"]

        drift = np.max(np.abs(mass - mass[0])) / abs(mass[0])
        bound = phimax.max()
        max_rise = np.max(np.diff(E))
        cum_diss = np.sum(0.5 * np.diff(t) * (D[1:] + D[:-1]))

        a = drift <= 1e-12
        b = bound <= 1.0 + 1e-6
        c = max_rise <= 1e-10 * E[0]
        d = cum_diss <= 1.1 * E[0]
        report(
            "criterion 3 (torus invariants, 64^3, t_end = 50)",
            a and b and c and d,
            f"(a) mass drift {drift:.2e} <= 1e-12: {a}; "
            f"(b) max|phi| {bound:.9f} <= 1+1e-6: {b}; "
            f"(c) max energy rise {max_rise / E[0]:.2e} x E(0) <= 1e-10: {c}; "
            f"(d) cumulative dissipation {cum_diss / E[0]:.4f} x E(0) <= 1.1: {d}",
        )

    def test_criterion_4_boundedness(self, decay_run):
        comb = decay_run["comb"]
        ratio = comb.max() / comb[0]
        report(
            "criterion 4 (combined-norm boundedness)",
            ratio <= 3.0,
            f"sup_t of squared H3/H2/L2 combination = {ratio:.4f} x initial (bound 3)",
        )

    def test_criterion_5_negative_norm_boundedness(self, decay_run):
        t = decay_run["t"]
        ok = True
        details = []
        for key, s in (("neg05", 0.5), ("neg1", 1.0)):
            series = decay_run[key]
            early_max = series[t <= 1.0].max()
            ratio = series.max() / early_max
            ok = ok and ratio <= 2.0
            details.append(f"s={s}: sup/early-max = {ratio:.4f}")
        report(
            "criterion 5 (negative-norm functional bounded)",
            ok,
            "; ".join(details) + " (bound 2)",
        )


# ---------------------------------------------------------------------------
# Criterion 6: nonlinear solver against the exact linear evolution
# ---------------------------------------------------------------------------


class TestOracleSolverEquivalence:
    def test_criterion_6(self, params):
        # single seeded mode at delta = 1e-4: quadratic feedback onto the seed
        # is third order, so the comparison isolates integrator fidelity
        grid = Grid(dim=3, n=8, length=2 * np.pi)
        delta = 1e-4
        m0 = (1, 0, 0)
        rsh = grid.rshape
        sigma_hat = np.zeros(rsh, complex)
        u_hat = np.zeros((3,) + rsh, complex)
        amps = (0.9 + 0.3j, 0.5 - 0.2j, -0.4 + 0.7j, 0.2 + 0.1j)
        sigma_hat[m0] = amps[0]
        for i in range(3):
            u_hat[i][m0] = amps[1 + i]
        phi_hat = np.zeros(rsh, complex)
        phi_hat[(0, 0, 0)] = 1.0
        state = State(grid, 0.0, sigma_hat, u_hat, phi_hat)
        base = np.sqrt(
            hk_norm_sq(SpectralField(state.grid, state.sigma_hat), 3)
            + sum(hk_norm_sq(SpectralField(state.grid, c), 3) for c in state.u_hat)
        )
        scale = delta / base
        state = State(grid, 0.0, sigma_hat * scale, u_hat * scale, phi_hat)

        block = build_symbol(np.array([1.0, 0.0, 0.0]), params)
        y0 = np.array(
            [state.sigma_hat[m0]] + [state.u_hat[i][m0] for i in range(3)] + [0.0], complex
        )
        samples = []

        def obs(_i, s):
            samples.append((s.t, s.sigma_hat[m0], np.array([s.u_hat[j][m0] for j in range(3)])))

        cfg = StepConfig(dt=5e-4, t_end=5.0, scheme_order=2)
        summary = run(state, cfg, params, observers=(obs,), cadence=500)
        assert summary.termination == "t_end"

        tol = max(1e-6, 10 * delta**2)
        amp0 = max(abs(a * scale) for a in amps)
        worst = 0.0
        for (t, sg, uu) in samples:
            exact = evolve_mode(block, y0, t)
            err = max(abs(sg - exact[0]), max(abs(uu[j] - exact[1 + j]) for j in range(3)))
            worst = max(worst, err / amp0)
        report(
            "criterion 6 (nonlinear solver matches linear evolution)",
            worst <= tol,
            f"worst per-mode relative deviation {worst:.3e} <= {tol:g} over t in [0, 5]",
        )


# ---------------------------------------------------------------------------
# Criterion 7: operator correctness
# ---------------------------------------------------------------------------


class TestOperatorCorrectness:
    def test_criterion_7(self, grid16):
        rng = np.random.default_rng(77)
        f = random_zero_mean_field(rng, grid16, 5)

        phys = f.to_physical()
        back = grid16.forward(phys)
        rt = np.max(np.abs(back - f.coeffs)) / np.max(np.abs(f.coeffs))

        quad = grid16.volume * float(np.mean(phys**2))
        mode = grid16.mode_sum_sq(f.coeffs, 0.0)
        pv = abs(quad - mode) / mode

        frac = 0.0
        for s in (0.5, 1.0, 1.5):
            again = fractional_laplacian(fractional_laplacian(f, s), -s)
            frac = max(frac, np.max(np.abs(again.coeffs - f.coeffs)) / np.max(np.abs(f.coeffs)))

        x = grid16.meshgrid()[0]
        single = SpectralField.from_physical(grid16, np.sin(3 * x))
        lhs, rhs_ = interpolation_check(single, 1, 0.5)
        interp = abs(lhs - rhs_) / rhs_

        grid32 = Grid(dim=3, n=32, length=2 * np.pi)
        base = gn_ensemble_max(grid32, seed=10)
        other = gn_ensemble_max(grid32, seed=11)
        gn_spread = max(
            abs(base[c] - other[c]) / max(base[c], other[c]) for c in GN_STABLE_CASES
        )
        gn_ok = gn_spread <= 0.05 and base[GN_SUP_CASE] <= GN_SUP_CAP

        ok = rt <= 1e-12 and pv <= 1e-12 and frac <= 1e-12 and interp <= 1e-12 and gn_ok
        report(
            "criterion 7 (operator correctness)",
            ok,
            f"round-trip {rt:.1e}, parseval {pv:.1e}, power-inverse {frac:.1e}, "
            f"single-mode interpolation defect {interp:.1e} (all <= 1e-12); "
            f"ratio-ensemble seed spread {gn_spread:.3f} <= 0.05",
        )


# ---------------------------------------------------------------------------
# Criterion 8: temporal convergence
# ---------------------------------------------------------------------------


class TestTemporalConvergence:
    def test_criterion_8(self, params):
        order = observed_order(params, scheme_order=2)
        report(
            "criterion 8 (temporal convergence)",
            order >= 1.8,
            f"observed order {order:.3f} >= 1.8 against a dt/16 reference",
        )

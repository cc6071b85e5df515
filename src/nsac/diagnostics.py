"""Observer-side functionals: energy ledger, level energies, negative norms,
decay fitting and ``SeriesObserver``, the one sample row and verdicts of a
run. The invariant monitor lives beside the admissible set in ``model``.

All operations are read-only over immutable state snapshots and safe to run
concurrently with integration.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .config import RunConfig
from .model import DISSIPATION_BUDGET, PhysParams, State, chemical_potential, energy_monotone, g_potential
from .model import invariant_monitor
from .oracle import DecayFit, fit_exponent

# ---------------------------------------------------------------------------
# Energy ledger
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EnergyReport:
    """Components of the total free energy and its dissipation.

    ``total = kinetic + g_part + gradient_part + double_well`` and along exact
    dynamics ``d total/dt = -(diss_visc + diss_div + diss_mu)``.
    """

    kinetic: float
    g_part: float
    gradient_part: float
    double_well: float
    total: float
    diss_visc: float
    diss_div: float
    diss_mu: float


def energy_ledger(state: State, params: PhysParams) -> EnergyReport:
    """Energy ledger: ``int( rho|u|^2/2 + G(rho) + eps|grad phi|^2/2 + rho (phi^2-1)^2/(4 eps) )``.

    Dissipation terms: ``nu ||grad u||^2``, ``(nu+lambda) ||div u||^2`` and
    ``||mu||^2`` with the chemical potential mu.
    """
    g = state.grid
    V = g.volume
    u = state.u()
    sigma = state.sigma()
    phi = state.phi()
    rho = params.rho_bar + sigma

    kinetic = 0.5 * V * float(np.mean(rho * np.sum(u * u, axis=0)))
    g_part = V * float(np.mean(g_potential(rho, params)))
    gradient_part = 0.5 * params.epsilon * g.shell_sum(state.spectrum("phi"), order=1.0)
    double_well = V / (4.0 * params.epsilon) * float(np.mean(rho * (phi**2 - 1.0) ** 2))

    grad_u_sq = g.shell_sum(state.spectrum("u"), order=1.0)
    div_u_sq = g.mode_sum_sq(g.divergence(state.u_hat))
    mu = chemical_potential(state, params)
    mu_sq = V * float(np.mean(mu * mu))

    return EnergyReport(
        kinetic=kinetic,
        g_part=g_part,
        gradient_part=gradient_part,
        double_well=double_well,
        total=kinetic + g_part + gradient_part + double_well,
        diss_visc=params.nu * grad_u_sq,
        diss_div=(params.nu + params.lam) * div_u_sq,
        diss_mu=mu_sq,
    )


# ---------------------------------------------------------------------------
# Level energies
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LevelEnergy:
    """Squared norm combination tracked at derivative level ``l``.

    ``sigma_hk``/``u_hk`` hold ``||D^l .||^2`` measured through order ``3-l``
    above the base, ``phi_grad`` the same for the phase gradient through order
    ``2-l``, and ``phi_sq`` the plain squared norm of ``phi^2 - 1``. Their sum
    at ``l = 0`` is the boundedness functional of the global theory.
    """

    l: int
    sigma_hk: float
    u_hk: float
    phi_grad: float
    phi_sq: float

    @property
    def combined(self) -> float:
        return self.sigma_hk + self.u_hk + self.phi_grad + self.phi_sq


def level_energy(state: State, l: int) -> LevelEnergy:
    """Evaluate the level-``l`` norm combination from the cached shell spectra."""
    if l not in (0, 1, 2):
        raise ValueError(f"level must be 0, 1 or 2, got {l}")
    g = state.grid
    return LevelEnergy(
        l=l,
        sigma_hk=g.shell_window(state.spectrum("sigma"), l, 3),
        u_hk=g.shell_window(state.spectrum("u"), l, 3),
        # ||D^(l+1) phi||^2 summed through total order 3 equals the gradient block
        phi_grad=g.shell_window(state.spectrum("phi"), l + 1, 3),
        phi_sq=g.shell_sum(state.spectrum("phisq")),
    )


# ---------------------------------------------------------------------------
# Negative-order functional
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NegativeFunctional:
    """The four squared negative-order norms controlling decay.

    On the torus each input is reduced to zero mean before applying the
    negative-order multiplier; the removed means are reported so nothing is
    silently discarded (``phi^2 - 1`` genuinely carries one for any
    perturbation of a pure phase).
    """

    s: float
    sigma_neg: float
    u_neg: float
    gradphi_neg: float
    phisq_neg: float
    total: float
    sigma_mean: float
    u_mean: tuple
    phisq_mean: float


def negative_functional(state: State, s: float) -> NegativeFunctional:
    if not (0.0 < s < 1.5):
        raise ValueError(f"s must lie in (0, 1.5), got {s}")
    g = state.grid
    # a negative-order shell sum skips shell 0, which removes the mean
    sigma_neg = g.shell_sum(state.spectrum("sigma"), -s)
    u_neg = g.shell_sum(state.spectrum("u"), -s)
    # sum_i |k_i phi|^2 = |k|^2 |phi|^2, so grad phi has the spectrum k^2 S_phi
    gradphi_neg = g.shell_sum(g.shell_k2 * state.spectrum("phi"), -s)
    phisq_neg = g.shell_sum(state.spectrum("phisq"), -s)
    total = sigma_neg + u_neg + gradphi_neg + phisq_neg
    return NegativeFunctional(
        s=s,
        sigma_neg=sigma_neg,
        u_neg=u_neg,
        gradphi_neg=gradphi_neg,
        phisq_neg=phisq_neg,
        total=total,
        sigma_mean=g.mean_value(state.sigma_hat),
        u_mean=tuple(g.mean_value(c) for c in state.u_hat),
        phisq_mean=g.mean_value(state.phisq_hat),
    )


# ---------------------------------------------------------------------------
# Decay fitting against the expected exponent
# ---------------------------------------------------------------------------

#: r^2 below which a window is considered contaminated (e.g. by the
#: exponential tail a finite box develops once the spectral gap bites).
R2_MIN = 0.98


def decay_suite(
    t,
    values,
    l: int,
    s: float,
    tol: float,
    window: tuple[float, float] | None = None,
) -> DecayFit:
    """Fit a series and compare the slope against the expected ``-(l+s)``.

    A fit with ``r2 < R2_MIN`` fails regardless of the slope: a low ``r2``
    over a decade is the signature of non-power behavior and must surface
    rather than be averaged through. A target ``l + s`` that is not finite or
    a ``tol`` outside ``(0, inf)`` raises ``ValueError`` before the fit.
    """
    if not np.isfinite(l + s):
        raise ValueError(f"the target exponent -(l + s) needs a finite l + s, got l={l}, s={s}")
    if not 0 < tol < np.inf:  # also false for a NaN
        raise ValueError(f"tol {tol} must be positive and finite")
    t = np.asarray(t, dtype=np.float64)
    if window is None:
        window = (float(t.min()), float(t.max()))
    fit = fit_exponent(t, values, window)
    target = -(l + s)
    passed = abs(fit.exponent - target) <= tol and fit.r2 >= R2_MIN
    return replace(fit, target=target, tol=tol, passed=passed)


# ---------------------------------------------------------------------------
# The series of a run
# ---------------------------------------------------------------------------

#: Columns of a sample row in order; one ``Eneg_s<s>`` column per ``diag.s_list`` entry follows.
CSV_BASE_COLUMNS = (
    "t",
    "mass",
    "phi_max",
    "E_total",
    "E_kin",
    "E_G",
    "E_grad",
    "E_dw",
    "D_visc",
    "D_div",
    "D_mu",
    "H3_sigma_u",
    "H2_gradphi",
    "L2_phisq",
)


class SeriesObserver:
    """A ``run`` observer that returns each sample's row and keeps the series.

    Each sample takes one ``invariant_monitor`` report at ``step.phi_tol``, one
    energy ledger, the level energies of ``diag.l_list`` and the negative
    functionals of ``diag.s_list``; ``columns`` names the row's entries. A
    verdict holds when every sample passed it.
    """

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        self.columns = CSV_BASE_COLUMNS + tuple(f"Eneg_s{s:g}" for s in cfg.diag.s_list)
        self.t, self.energy = [], []
        self.level = {l: [] for l in cfg.diag.l_list}
        self.mass0 = self.last_state = self._last = None  # _last: (t, dissipation) for the trapezoid
        self.mass_drift_max = self.phi_max_overall = self.diss_cumulative = 0.0
        self.max_principle = self.mass_conserved = self.admissible = True

    def __call__(self, _step: int, state: State) -> list:
        self.last_state = state
        params, diag = self.cfg.phys, self.cfg.diag
        inv = invariant_monitor(state, params, mass_reference=self.mass0, phi_tol=self.cfg.step.phi_tol)
        if self.mass0 is None:
            self.mass0 = inv.mass
        self.mass_drift_max = max(self.mass_drift_max, abs(inv.mass_drift or 0.0))
        self.phi_max_overall = max(self.phi_max_overall, inv.phi_max)
        self.max_principle &= inv.phase_bounded
        self.mass_conserved &= inv.mass_conserved
        self.admissible &= inv.clean

        rep = energy_ledger(state, params)
        levels = {l: level_energy(state, l) for l in diag.l_list}
        lvl0 = levels.get(0) or level_energy(state, 0)
        negs = [negative_functional(state, s).total for s in diag.s_list]

        diss = rep.diss_visc + rep.diss_div + rep.diss_mu
        if self._last is not None:
            t0, d0 = self._last
            self.diss_cumulative += 0.5 * (state.t - t0) * (d0 + diss)
        self._last = (state.t, diss)
        self.t.append(state.t)
        self.energy.append(rep.total)
        for l, lv in levels.items():
            self.level[l].append(lv.combined)
        return [
            state.t,
            inv.mass,
            inv.phi_max,
            rep.total,
            rep.kinetic,
            rep.g_part,
            rep.gradient_part,
            rep.double_well,
            rep.diss_visc,
            rep.diss_div,
            rep.diss_mu,
            lvl0.sigma_hk + lvl0.u_hk,
            lvl0.phi_grad,
            lvl0.phi_sq,
        ] + negs

    def verdicts(self) -> dict:
        e = np.asarray(self.energy)
        out = {
            "energy_monotone": energy_monotone(e),
            "max_principle": self.max_principle,
            "mass_conserved": self.mass_conserved,
            "admissible": self.admissible,
            "mass_drift_max": self.mass_drift_max,
            "phi_max_overall": self.phi_max_overall,
            "dissipation_cumulative": self.diss_cumulative,
        }
        if e.size:
            out["dissipation_within_budget"] = bool(self.diss_cumulative <= DISSIPATION_BUDGET * e[0])
        return out

    def decay_fits(self) -> list[dict]:
        fits = []
        t = np.asarray(self.t)
        diag = self.cfg.diag
        window = (diag.fit_t_lo, min(diag.fit_t_hi, float(t[-1]) if t.size else 0.0))
        for l in diag.l_list:
            series = np.asarray(self.level[l])
            for s in diag.s_list:
                entry = {"l": l, "s": s}
                try:
                    fit = decay_suite(t, series, l, s, tol=diag.fit_tol, window=window)
                    entry.update(fit.as_dict())
                    entry["pass"] = entry.pop("passed")
                except ValueError as err:
                    entry.update({"pass": False, "error": str(err)})
                fits.append(entry)
        return fits

"""Observer-side functionals: energy ledger, level energies, negative norms
and decay fitting. The invariant monitor lives beside the admissible set in
``model`` and is re-exported here.

All operations are read-only over immutable state snapshots and safe to run
concurrently with integration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import EnergyReport, InvariantReport, PhysParams, State, invariant_monitor, total_energy  # noqa: F401  (re-exported)
from .oracle import DecayFit, fit_exponent


def energy_ledger(state: State, params: PhysParams) -> EnergyReport:
    """Energy components and dissipation terms for a snapshot."""
    return total_energy(state, params)


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


def phi_sq_minus_one_hat(state: State) -> np.ndarray:
    """De-aliased coefficients of ``phi^2 - 1`` (cached on the snapshot)."""

    def build():
        g = state.grid
        phi = state.phi()
        c = g.forward_product(phi * phi)
        c[(0,) * g.dim] -= 1.0
        return c

    return state._phys("phisq_hat", build)


def _phisq_spectrum(state: State) -> np.ndarray:
    return state._phys("phisq_shells", lambda: state.grid.shell_spectrum(phi_sq_minus_one_hat(state)))


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
        phi_sq=g.shell_sum(_phisq_spectrum(state)),
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
    phisq_neg = g.shell_sum(_phisq_spectrum(state), -s)
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
        phisq_mean=g.mean_value(phi_sq_minus_one_hat(state)),
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
    r2_min: float = R2_MIN,
) -> DecayFit:
    """Fit a series and compare the slope against the expected ``-(l+s)``.

    A fit with ``r2 < r2_min`` fails regardless of the slope: a low ``r2``
    over a decade is the signature of non-power behavior and must surface
    rather than be averaged through.
    """
    t = np.asarray(t, dtype=np.float64)
    if window is None:
        window = (float(t.min()), float(t.max()))
    fit = fit_exponent(t, values, window)
    target = -(l + s)
    passed = abs(fit.exponent - target) <= tol and fit.r2 >= r2_min
    return DecayFit(
        exponent=fit.exponent,
        prefactor=fit.prefactor,
        r2=fit.r2,
        window=fit.window,
        n_samples=fit.n_samples,
        target=target,
        tol=tol,
        passed=passed,
    )

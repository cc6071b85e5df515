"""Compressible two-phase model: pressure law, free energy, and tendencies.

The evolved unknowns are the density perturbation ``sigma = rho - rho_bar``,
the velocity ``u`` and the phase field ``phi`` (pure phases at ``phi = +-1``).
In perturbation form the system reads

    sigma_t = -rho_bar div u + g1
    u_t     = (nu/rho_bar) Lap u + ((nu+lambda)/rho_bar) grad div u
              - (p'(rho_bar)/rho_bar) grad sigma - (eps/rho) grad(phi) Lap(phi)
              - (u.grad) u + h1(sigma) grad sigma
              - h2(sigma) (nu Lap u + (nu+lambda) grad div u)
    phi_t   = (eps/rho^2) Lap phi + (1 - phi^2) phi / (eps rho) - u.grad phi

with ``g1 = -div(sigma u)``, ``h1 = p'(rho_bar)/rho_bar - p'(rho)/rho`` and
``h2 = 1/rho_bar - 1/rho``. The capillary force uses the identity
``div(grad phi x grad phi - |grad phi|^2/2 I) = grad(phi) Lap(phi)`` (the
gradient part is absorbed into the pressure). The tendency takes the
advection in rotational form and ``h1 grad sigma`` as the gradient of
``H = enthalpy_remainder(sigma)``, so it needs neither ``grad u`` nor
``grad sigma`` (see `nonlinear_terms`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InvariantViolation, VacuumError
from .spectral import Grid

# The admissible set: every threshold that runs, initial conditions and
# verdicts are judged by.

#: Allowed overshoot of |phi| beyond 1 before a run is declared broken.
PHI_TOL = 1e-6
#: Admissible density window ``[RHO_WINDOW[0] rho_bar, RHO_WINDOW[1] rho_bar]``.
RHO_WINDOW = (0.5, 2.0)
#: Largest relative drift of the total mass that counts as conserved.
MASS_DRIFT_TOL = 1e-12
#: Largest energy rise between samples, relative to the first energy ``E_0``.
ENERGY_RISE_TOL = 1e-10
#: Largest cumulative (trapezoid) dissipation over a run, relative to ``E_0``.
DISSIPATION_BUDGET = 1.1


@dataclass(frozen=True)
class PhysParams:
    """Physical constants: viscosities, interface thickness, pressure law.

    ``lam`` is the second viscosity; ``nu > 0`` and ``lam + 2 nu / 3 >= 0``
    keep the stress dissipative. The barotropic law is ``p = a rho^gamma``.
    """

    nu: float = 1.0
    lam: float = 0.0
    epsilon: float = 0.1
    rho_bar: float = 1.0
    pressure_a: float = 1.0
    pressure_gamma: float = 1.4

    def __post_init__(self):
        if not self.nu > 0:
            raise ValueError(f"shear viscosity must be positive, got {self.nu}")
        if not self.lam + 2.0 * self.nu / 3.0 >= 0:
            raise ValueError(
                f"need lambda + 2 nu / 3 >= 0, got {self.lam + 2 * self.nu / 3}"
            )
        if not self.epsilon > 0:
            raise ValueError(f"interface thickness must be positive, got {self.epsilon}")
        if not self.rho_bar > 0:
            raise ValueError(f"reference density must be positive, got {self.rho_bar}")
        if not self.pressure_a > 0:
            raise ValueError(f"pressure coefficient must be positive, got {self.pressure_a}")
        if not self.pressure_gamma >= 1:
            raise ValueError(f"adiabatic exponent must be >= 1, got {self.pressure_gamma}")

    # Coefficients of the linearization around (rho_bar, 0, +-1), read by the
    # solver, the oracle and the tendencies alike.

    @property
    def p_prime_bar(self) -> float:
        """Squared reference sound speed p'(rho_bar)."""
        return self.pressure_a * self.pressure_gamma * self.rho_bar ** (self.pressure_gamma - 1.0)

    @property
    def sound_coupling(self) -> float:
        """``p'(rho_bar)/rho_bar``, the weight of ``grad sigma`` in the linear u-equation."""
        return self.p_prime_bar / self.rho_bar

    @property
    def shear_diffusivity(self) -> float:
        """``nu/rho_bar``, the decay rate of transverse velocity per ``|k|^2``."""
        return self.nu / self.rho_bar

    @property
    def longitudinal_diffusivity(self) -> float:
        """``(2 nu + lam)/rho_bar``, the viscous rate of ``div u`` per ``|k|^2``."""
        return (2.0 * self.nu + self.lam) / self.rho_bar

    @property
    def phase_diffusivity(self) -> float:
        """``eps/rho_bar^2``, the heat-flow rate of ``phi`` per ``|k|^2``."""
        return self.epsilon / self.rho_bar**2


def pressure(rho, params: PhysParams):
    """Barotropic pressure ``a rho^gamma``; rejects vacuum states."""
    rho = np.asarray(rho, dtype=np.float64)
    if np.any(rho <= 0):
        raise VacuumError(f"pressure undefined at rho <= 0 (min rho = {rho.min():.6g})")
    out = params.pressure_a * rho**params.pressure_gamma
    return float(out) if out.ndim == 0 else out


def pressure_prime(rho, params: PhysParams):
    """``p'(rho) = a gamma rho^(gamma-1) > 0``."""
    rho = np.asarray(rho, dtype=np.float64)
    if np.any(rho <= 0):
        raise VacuumError(f"pressure_prime undefined at rho <= 0 (min rho = {rho.min():.6g})")
    out = params.pressure_a * params.pressure_gamma * rho ** (params.pressure_gamma - 1.0)
    return float(out) if out.ndim == 0 else out


def g_potential(rho, params: PhysParams):
    """Compression potential ``G(rho) = rho * int_rho_bar^rho (p(z)-p(rho_bar))/z^2 dz``.

    Nonnegative, vanishing at ``rho_bar`` and comparable to ``(rho-rho_bar)^2``
    on the admissible density window. Evaluated in closed form through
    ``x = rho/rho_bar - 1``:

        G = a rho rho_bar^(g-1) [ expm1((g-1) log1p(x))/(g-1) - x/(1+x) ]

    (log form for ``g = 1``). The expm1/log1p route keeps the result accurate
    relative to its O(x^2) size however small the perturbation; the naive
    antiderivative difference loses everything to cancellation once
    ``x ~ sqrt(eps)``, which would put a spurious noise floor under the
    energy ledger of decayed states.
    """
    rho = np.asarray(rho, dtype=np.float64)
    if np.any(rho <= 0):
        raise VacuumError(f"g_potential undefined at rho <= 0 (min rho = {rho.min():.6g})")
    a, g, rb = params.pressure_a, params.pressure_gamma, params.rho_bar
    x = rho / rb - 1.0
    if g == 1.0:
        # (1+x) log1p(x) - x, times a rho_bar
        out = a * rb * ((1.0 + x) * np.log1p(x) - x)
    else:
        integral = np.expm1((g - 1.0) * np.log1p(x)) / (g - 1.0) - x / (1.0 + x)
        out = a * rho * rb ** (g - 1.0) * integral
    return float(out) if out.ndim == 0 else out


def enthalpy_remainder(sigma, params: PhysParams, out: np.ndarray | None = None):
    """``H(sigma) = int_0^sigma h1``, with ``h1 = p'(rho_bar)/rho_bar - p'(rho)/rho``.

    ``H`` is the linearization ``p'(rho_bar) x`` of the enthalpy perturbation
    ``int_rho_bar^rho p'(z)/z dz`` minus the perturbation itself, so
    ``grad H = h1 grad sigma``. With ``x = sigma/rho_bar``:

        H = p'(rho_bar) [ x - expm1((g-1) log1p(x))/(g-1) ]

    (``x - log1p(x)`` for ``g = 1``). Like `g_potential`, the expm1/log1p
    route keeps the error at a few ulps of ``x`` although ``H`` is O(x^2);
    ``H(0) = 0`` exactly. Written into ``out`` if given, with no other array.
    The density must be positive (the tendency checks through
    ``State.p_prime``).
    """
    g, rb = params.pressure_gamma, params.rho_bar
    sigma = np.asarray(sigma, dtype=np.float64)
    out = np.empty_like(sigma) if out is None else out
    # H = (p'(rho_bar)/rho_bar) (sigma - rho_bar E), E = expm1((g-1) log1p(x))/(g-1)
    np.divide(sigma, rb, out=out)
    np.log1p(out, out=out)
    if g == 1.0:
        out *= rb
    else:
        out *= g - 1.0
        np.expm1(out, out=out)
        out *= rb / (g - 1.0)
    np.subtract(sigma, out, out=out)
    out *= params.sound_coupling
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# State
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class State:
    """Fields at one time instant, stored spectrally with lazy physical views.

    The cache makes repeated evaluation (tendency, energy ledger, invariant
    monitor) share transforms, and every norm is read off cached shell
    spectra, taken once per field however many norms a sample reports; a
    State is immutable, so the cache never invalidates and snapshots are
    safe to share.
    """

    grid: Grid
    t: float
    sigma_hat: np.ndarray
    u_hat: np.ndarray  # shape (dim, *rshape)
    phi_hat: np.ndarray
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        rshape = self.grid.rshape
        if self.sigma_hat.shape != rshape or self.phi_hat.shape != rshape:
            raise ValueError("scalar coefficient arrays must use the grid's rfft layout")
        if self.u_hat.shape != (self.grid.dim,) + rshape:
            raise ValueError("velocity coefficients must have shape (dim, *rshape)")
        for name in ("sigma_hat", "u_hat", "phi_hat"):
            arr = np.ascontiguousarray(getattr(self, name), dtype=np.complex128)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @classmethod
    def from_physical(cls, grid: Grid, t: float, sigma, u, phi) -> "State":
        u = np.asarray(u, dtype=np.float64)
        if u.shape != (grid.dim,) + grid.shape:
            raise ValueError("u must have shape (dim, *grid.shape)")
        return cls(
            grid,
            t,
            grid.forward(np.asarray(sigma, dtype=np.float64)),
            np.stack([grid.forward(u[i]) for i in range(grid.dim)]),
            grid.forward(np.asarray(phi, dtype=np.float64)),
        )

    @classmethod
    def equilibrium(cls, grid: Grid, t: float = 0.0, phi_value: float = 1.0) -> "State":
        zero = np.zeros(grid.rshape, dtype=np.complex128)
        phi = zero.copy()
        phi[(0,) * grid.dim] = phi_value
        return cls(grid, t, zero, np.stack([zero.copy() for _ in range(grid.dim)]), phi)

    def stacked(self, out: np.ndarray | None = None) -> np.ndarray:
        """``(sigma_hat, u_hat, phi_hat)`` stacked on axis 0: the layout of every tendency."""
        return np.concatenate([self.sigma_hat[None], self.u_hat, self.phi_hat[None]], out=out)

    def _phys(self, key, builder):
        if key not in self._cache:
            self._cache[key] = builder()
        return self._cache[key]

    def sigma(self) -> np.ndarray:
        return self._phys("sigma", lambda: self.grid.inverse(self.sigma_hat))

    def u(self) -> np.ndarray:
        return self._phys("u", lambda: self.grid.inverse_many(self.u_hat))

    def phi(self) -> np.ndarray:
        return self._phys("phi", lambda: self.grid.inverse(self.phi_hat))

    def lap_phi(self) -> np.ndarray:
        return self._phys("lap_phi", lambda: self.grid.inverse(-self.grid.k2 * self.phi_hat))

    def p_prime(self, params: PhysParams) -> np.ndarray:
        """``p'(rho_bar + sigma)`` on the grid, evaluated once per State and params.

        The CFL bound and the tendency both read it; raises ``VacuumError`` at ``rho <= 0``.
        """
        return self._phys(("p_prime", params), lambda: pressure_prime(params.rho_bar + self.sigma(), params))

    def spectrum(self, name: str) -> np.ndarray:
        """Shell spectrum of ``"sigma"``, ``"u"`` (components summed) or ``"phi"``."""
        return self._phys(name + "_shells", lambda: self.grid.shell_spectrum(getattr(self, name + "_hat")))

    def mass(self, params: PhysParams) -> float:
        """Total fluid mass ``int rho dx`` on the box."""
        return self.grid.volume * (params.rho_bar + self.grid.mean_value(self.sigma_hat))


# ---------------------------------------------------------------------------
# Admissible set
# ---------------------------------------------------------------------------


def energy_monotone(energies) -> bool:
    """No rise between consecutive samples beyond ``ENERGY_RISE_TOL * E_0``."""
    e = np.asarray(energies, dtype=np.float64)
    return bool(np.all(np.diff(e) <= ENERGY_RISE_TOL * e[0])) if e.size > 1 else True


def _nonfinite_fields(state: State) -> tuple[str, ...]:
    arrays = (("sigma", state.sigma_hat), ("u", state.u_hat), ("phi", state.phi_hat))
    return tuple(name for name, arr in arrays if not np.all(np.isfinite(arr)))


def _location(arr: np.ndarray, index) -> tuple[int, ...]:
    return tuple(int(i) for i in np.unravel_index(int(index), arr.shape))


@dataclass(frozen=True)
class InvariantReport:
    """A snapshot against the admissible set: finite coefficients, density in
    ``rho_window``, ``max |phi| <= 1 + phi_tol`` and, given a reference mass,
    drift within ``MASS_DRIFT_TOL``. ``clean`` means all of them hold.

    Grid locations are kept for broken bounds only: the lowest density if it is
    below the window, else the highest; the largest ``|phi|``.
    """

    mass: float
    mass_drift: float | None
    phi_max: float
    phi_excess: float
    phi_excess_location: tuple | None
    rho_min: float
    rho_max: float
    rho_window_violation: float
    rho_violation_location: tuple | None
    nan_fields: tuple
    phi_tol: float
    rho_window: tuple

    @property
    def in_window(self) -> bool:
        return self.rho_window_violation <= 0

    @property
    def phase_bounded(self) -> bool:
        return bool(self.phi_max <= 1.0 + self.phi_tol)

    @property
    def mass_conserved(self) -> bool:
        return self.mass_drift is None or bool(abs(self.mass_drift) <= MASS_DRIFT_TOL)

    @property
    def clean(self) -> bool:
        return not self.nan_fields and self.in_window and self.phase_bounded and self.mass_conserved


def invariant_monitor(
    state: State,
    params: PhysParams | None = None,
    mass_reference: float | None = None,
    phi_tol: float = PHI_TOL,
) -> InvariantReport:
    """Judge a snapshot against the admissible set (see ``InvariantReport``).

    Costs no transform beyond the cached ``state.sigma()`` and ``state.phi()``.
    """
    params = params if params is not None else PhysParams()
    mass = state.mass(params)
    drift = None
    if mass_reference is not None:
        drift = (mass - mass_reference) / max(abs(mass_reference), 1e-300)

    lo, hi = RHO_WINDOW[0] * params.rho_bar, RHO_WINDOW[1] * params.rho_bar
    rho = params.rho_bar + state.sigma()
    rho_min, rho_max = float(rho.min()), float(rho.max())
    violation = max(lo - rho_min, rho_max - hi, 0.0)
    phi = state.phi()
    phi_max = float(np.max(np.abs(phi)))
    rep = InvariantReport(
        mass=mass,
        mass_drift=drift,
        phi_max=phi_max,
        phi_excess=max(phi_max - 1.0, 0.0),
        phi_excess_location=None,
        rho_min=rho_min,
        rho_max=rho_max,
        rho_window_violation=violation,
        rho_violation_location=None,
        nan_fields=_nonfinite_fields(state),
        phi_tol=phi_tol,
        rho_window=(lo, hi),
    )
    if not rep.in_window:
        worst = np.argmin(rho) if rho_min < lo else np.argmax(rho)
        rep = replace(rep, rho_violation_location=_location(rho, worst))
    if not rep.phase_bounded:
        rep = replace(rep, phi_excess_location=_location(phi, np.argmax(np.abs(phi))))
    return rep


def check_state(state: State, params: PhysParams, step: int | None = None, phi_tol: float = PHI_TOL) -> None:
    """Raise ``InvariantViolation`` for the first broken bound: finiteness, density, phase.

    Leaving the density window counts as blow-up, not as a state to continue
    from: the window is where the model's smallness assumptions mean something.
    """
    rep = invariant_monitor(state, params, phi_tol=phi_tol)
    if rep.nan_fields:
        raise InvariantViolation(rep.nan_fields[0], "non-finite coefficients", step=step)
    if not rep.in_window:
        lo, hi = rep.rho_window
        raise InvariantViolation(
            "rho",
            f"density left [{lo:g}, {hi:g}] (min {rep.rho_min:.6g}, max {rep.rho_max:.6g})",
            step=step,
            magnitude=rep.rho_min if rep.rho_min < lo else rep.rho_max,
            location=rep.rho_violation_location,
        )
    if not rep.phase_bounded:
        raise InvariantViolation(
            "phi",
            f"|phi| exceeded 1 + {phi_tol:g} (max |phi| = {rep.phi_max:.9g})",
            step=step,
            magnitude=rep.phi_max - 1.0,
            location=rep.phi_excess_location,
        )


# ---------------------------------------------------------------------------
# Pointwise constitutive quantities
# ---------------------------------------------------------------------------


def chemical_potential(state: State, params: PhysParams) -> np.ndarray:
    """``mu = (phi^3 - phi)/eps - (eps/rho) Lap phi`` on the grid."""
    phi = state.phi()
    rho = params.rho_bar + state.sigma()
    if np.any(rho <= 0):
        raise VacuumError("chemical_potential: vacuum state")
    eps = params.epsilon
    return (phi**3 - phi) / eps - (eps / rho) * state.lap_phi()


# ---------------------------------------------------------------------------
# Tendencies on the stacked state y = (sigma_hat, u_hat, phi_hat)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LinearSymbol:
    """The constant-coefficient operator ``B`` on ``y = (sigma_hat, u_hat, phi_hat)``, per mode.

    With ``D = i k.u`` and the PhysParams coefficients a (shear),
    b (longitudinal), c (sound coupling) and e (phase),
    ``B (sigma, u, phi) = (-rho_bar D, -a |k|^2 u + (b - a) i k D - c i k sigma, -e |k|^2 phi - shift phi)``.
    ``shift`` adds a constant decay rate to the phase row (the stepper's
    implicit share of the linearized reaction).

    `solve` inverts ``I - alpha B`` in closed form: B maps (sigma, D) into
    itself through ``[[0, -rho_bar], [c |k|^2, -b |k|^2]]``, solved by the
    explicit 2x2 inverse with
    ``det = 1 + alpha b |k|^2 + alpha^2 p'(rho_bar) |k|^2 >= 1``; the velocity
    and phase rows then cost one real division each. Nothing divides by
    ``|k|^2``, so the zero mode passes through and zero maps to exact zeros.
    """

    grid: Grid
    params: PhysParams
    shift: float = 0.0

    def viscous_row(
        self, u_hat, D, out: np.ndarray | None = None, scratch: np.ndarray | None = None
    ) -> np.ndarray:
        """B's viscous row ``-a |k|^2 u + (b - a) i k D``, written into ``out`` if given.

        In physical space this is ``(nu Lap u + (nu+lam) grad div u) / rho_bar``.
        ``scratch``, one spectral field, holds the grad-div part of each row.
        """
        g = self.grid
        a = self.params.shear_diffusivity
        grad_div = self.params.longitudinal_diffusivity - a
        if out is None:
            out = np.empty((g.dim,) + g.rshape, dtype=np.complex128)
        shear = -a * g.k2
        for i in range(g.dim):
            np.multiply(shear, u_hat[i], out=out[i])
            out[i] += np.multiply(grad_div * g.ik[i], D, out=scratch)
        return out

    def apply(self, y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``B y``, written into ``out`` if given, which must not overlap ``y``."""
        g, params = self.grid, self.params
        sigma_hat, u_hat, phi_hat = y[0], y[1:-1], y[-1]
        out = np.empty_like(y) if out is None else out
        D = g.divergence(u_hat)
        np.multiply(-params.rho_bar, D, out=out[0])
        u_row = self.viscous_row(u_hat, D, out=out[1:-1])
        for i in range(g.dim):
            u_row[i] -= params.sound_coupling * g.ik[i] * sigma_hat
        np.subtract(-params.phase_diffusivity * g.k2 * phi_hat, self.shift * phi_hat, out=out[-1])
        return out

    def solve(self, alpha: float, y: np.ndarray) -> np.ndarray:
        """``(I - alpha B)^-1 y`` in closed form (see the class docstring)."""
        g, params = self.grid, self.params
        a, b, c = params.shear_diffusivity, params.longitudinal_diffusivity, params.sound_coupling
        ak2 = alpha * g.k2
        inv_det = 1.0 / (1.0 + ak2 * (b + alpha * params.p_prime_bar))
        r_sigma, r_u = y[0], y[1:-1]
        out = np.empty_like(y)
        r_div = g.divergence(r_u)
        sigma = np.multiply((1.0 + b * ak2) * r_sigma - alpha * params.rho_bar * r_div, inv_det, out=out[0])
        div = (c * ak2 * r_sigma + r_div) * inv_det
        q = alpha * ((b - a) * div - c * sigma)  # (1 + alpha a |k|^2) u = r_u + i k q
        inv_den = 1.0 / (1.0 + a * ak2)
        for i in range(g.dim):
            np.multiply(r_u[i] + g.ik[i] * q, inv_den, out=out[1 + i])
        np.divide(y[-1], 1.0 + params.phase_diffusivity * ak2 + alpha * self.shift, out=out[-1])
        return out


class TendencyWorkspace:
    """The arrays `nonlinear_terms` fills in place on one grid, allocated once.

    ``spec`` is the spectral derivative stack: the ``d(d-1)/2`` vorticity
    components, B's viscous row (d), grad phi (d) and Lap phi, 10 fields at
    3-D. Its batched inverse overwrites it and lands in ``phys``.
    ``products`` holds the ``2 dim + 2`` explicit products, the last of them
    ``K - H`` (kinetic energy density minus enthalpy remainder). Their
    transforms go to ``hats[turn]``, and ``turn`` flips on every call, so the
    tendency one call returns (a view of its ``hats``) stays intact through
    the next call: CNAB2 extrapolates from the previous step's tendency. Each
    ``hats`` buffer is allocated by the first call that writes it, so a
    one-off call builds one. The pointwise and spectral work needs no further
    arrays: its scratch is rows not yet written or already spent.
    """

    def __init__(self, grid: Grid):
        d = grid.dim
        stack = 2 * d + d * (d - 1) // 2 + 1
        self.spec = np.empty((stack,) + grid.rshape, dtype=np.complex128)
        self.phys = np.empty((stack,) + grid.shape)
        self.products = np.empty((2 * d + 2,) + grid.shape)
        self._hats_shape = (2 * d + 2,) + grid.rshape
        self.hats = [None, None]
        self.turn = 0

    def next_hats(self) -> np.ndarray:
        """The buffer this call transforms into; ``turn`` flips to the other one."""
        if self.hats[self.turn] is None:
            self.hats[self.turn] = np.empty(self._hats_shape, dtype=np.complex128)
        hats = self.hats[self.turn]
        self.turn ^= 1
        return hats


def nonlinear_terms(state: State, params: PhysParams, work: TendencyWorkspace | None = None) -> np.ndarray:
    """Spectral tendency of every nonlinear / variable-coefficient term.

    Returns one ``(dim + 2, *rshape)`` array in the layout of
    ``State.stacked``. The constant-coefficient part ``B`` (`LinearSymbol`:
    acoustic coupling, viscosity, phase diffusion) is excluded so the time
    integrator can treat it exactly per mode. Given a ``work`` space the
    tendency allocates nothing beyond a few wavenumber-sized arrays and the
    result is a view into it, valid until the call after next on the same
    workspace; without one a fresh workspace is used.

    Advection is taken in rotational form,
    ``(u.grad) u_i = d_i K - sum_j u_j w_ij`` with ``K = |u|^2/2`` and the
    vorticity ``w_ij = d_i u_j - d_j u_i`` (``i < j`` stored: 0, 1 or 3
    components), so the derivative stack holds ``d(d-1)/2`` fields where
    ``grad u`` holds ``d^2``. The identity holds pointwise for continuous
    fields. Every velocity a run steps on lies inside the 2/3 band (every
    initial condition builds it there and the stepper cuts each new state to
    it), so each quadratic product has modes up to ``2n/3`` per axis, whose
    aliases land beyond the cut: after de-aliasing, the rotational and the
    convective form both give the exact band-limited product and differ only
    by roundoff (Orszag, J. Atmos. Sci. 28, 1971; Zang, Appl. Numer. Math. 7,
    1991). Outside the band they would differ by aliasing error.

    The pressure correction ``h1(sigma) grad sigma`` is taken as ``grad H``
    with ``H = enthalpy_remainder(sigma)``, whose derivative is ``h1``, so
    grad sigma leaves the stack. Neither ``h1`` nor ``H`` is a polynomial, so
    the two de-aliased forms differ by aliasing error of cubic and higher
    order in ``sigma``; the split-versus-direct check bounds it. ``K - H``
    is one product, and each velocity row subtracts ``i k_i (K - H)^`` after
    the cut.
    """
    g = state.grid
    d = g.dim
    eps = params.epsilon
    work = TendencyWorkspace(g) if work is None else work

    state.p_prime(params)  # the vacuum check: raises VacuumError at rho <= 0; the CFL bound shares it
    sigma = state.sigma()
    u = state.u()
    phi = state.phi()
    u_hat = state.u_hat
    ik = g.ik
    products = work.products
    hats = work.next_hats()

    # one batched inverse for every derivative this evaluation needs:
    # vorticity w_ij for i < j (d(d-1)/2), B's viscous row (d), grad phi (d),
    # Lap phi (1); D = i k.u and one product live in this call's transform
    # buffer, which the forward writes only later
    pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
    o = len(pairs)
    buf = work.spec
    spare_hat = hats[1]
    div_u_hat = g.divergence(u_hat, out=hats[0], scratch=spare_hat)
    LinearSymbol(g, params).viscous_row(u_hat, div_u_hat, out=buf[o : o + d], scratch=spare_hat)
    for m, (i, j) in enumerate(pairs):
        np.multiply(ik[i], u_hat[j], out=buf[m])
        buf[m] -= np.multiply(ik[j], u_hat[i], out=spare_hat)
    for i in range(d):
        np.multiply(ik[i], state.phi_hat, out=buf[o + d + i])
    np.multiply(-g.k2, state.phi_hat, out=buf[o + 2 * d])
    derivs = g.inverse_many(buf, out=work.phys)
    vorticity = derivs[:o]
    viscous = derivs[o : o + d]
    grad_phi = derivs[o + d : o + 2 * d]
    lap_phi = derivs[o + 2 * d]

    # de-aliased phi^2 through the K - H slots, which K - H overwrites last;
    # until then the physical slot is this call's scratch field
    square, square_hat = products[2 * d + 1 :], hats[2 * d + 1 :]
    spare = square[0]
    np.multiply(phi, phi, out=spare)
    g.dealias(g.forward_many(square, out=square_hat), in_place=True)
    phi2 = g.inverse_many(square_hat, out=square)[0]

    # 1/rho, in the first sigma u slot until sigma u is formed
    inv_rho = np.add(sigma, params.rho_bar, out=products[0])
    np.divide(1.0, inv_rho, out=inv_rho)

    # phi row: (1 - phi^2) phi / (eps rho) + (eps/rho^2 - eps/rho_bar^2) Lap phi - u.grad phi
    row = np.subtract(1.0, phi2, out=products[2 * d])
    row *= phi
    row *= inv_rho
    row /= eps
    coeff = np.multiply(inv_rho, inv_rho, out=spare)
    coeff *= eps
    coeff -= params.phase_diffusivity
    coeff *= lap_phi
    row += coeff
    for j in range(d):
        row -= np.multiply(u[j], grad_phi[j], out=spare)

    # u rows: -h2 (nu Lap u + (nu+lam) grad div u) = -(sigma/rho) times the
    # viscous row, the capillary force -(eps/rho) Lap phi grad phi, + sum_j u_j w_ij
    capillary = np.multiply(lap_phi, inv_rho, out=lap_phi)
    capillary *= -eps
    weight = np.multiply(sigma, inv_rho, out=inv_rho)
    for i in range(d):
        row = np.multiply(weight, viscous[i], out=products[d + i])
        np.subtract(np.multiply(capillary, grad_phi[i], out=grad_phi[i]), row, out=row)
    for m, (a, b) in enumerate(pairs):  # w_ba = -w_ab
        products[d + a] += np.multiply(u[b], vorticity[m], out=spare)
        products[d + b] -= np.multiply(u[a], vorticity[m], out=vorticity[m])

    # sigma u, then K - H with K = |u|^2/2 in the last slot; the viscous rows are spent
    for j in range(d):
        np.multiply(sigma, u[j], out=products[j])
    kinetic = np.multiply(u[0], u[0], out=products[2 * d + 1])
    for j in range(1, d):
        kinetic += np.multiply(u[j], u[j], out=viscous[0])
    kinetic *= 0.5
    kinetic -= enthalpy_remainder(sigma, params, out=viscous[0])

    # batched forward: sigma u (d), u rows (d), phi row (1), K - H (1); the
    # derivative stack is spent, so its first row is the spectral scratch
    g.dealias(g.forward_many(products, out=hats), in_place=True)
    spare_hat = buf[0]
    kh_hat = hats[2 * d + 1]
    for i in range(d):
        hats[d + i] -= np.multiply(ik[i], kh_hat, out=spare_hat)

    # the tendency is (-div of sigma u, hats[d:2d+1]): the divergence goes over
    # the last sigma u transform, once the others are summed into it
    out = hats[d - 1 : 2 * d + 1]
    div = out[0]
    div *= ik[d - 1]
    for j in range(d - 1):
        div += np.multiply(ik[j], hats[j], out=spare_hat)
    np.negative(div, out=div)
    return out


def rhs(state: State, params: PhysParams) -> np.ndarray:
    """Full right-hand side at a state, stacked like ``State.stacked``."""
    nonfinite = _nonfinite_fields(state)
    if nonfinite:
        raise InvariantViolation(nonfinite[0], "non-finite field passed to rhs")
    return nonlinear_terms(state, params) + LinearSymbol(state.grid, params).apply(state.stacked())


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


def total_energy(state: State, params: PhysParams) -> EnergyReport:
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
    div_u_sq = g.mode_sum_sq(g.divergence(state.u_hat), order=0.0)
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

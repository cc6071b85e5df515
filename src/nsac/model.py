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

from dataclasses import dataclass, field

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
    Every constant must be finite.
    """

    nu: float = 1.0
    lam: float = 0.0
    epsilon: float = 0.1
    rho_bar: float = 1.0
    pressure_a: float = 1.0
    pressure_gamma: float = 1.4

    def __post_init__(self):
        # each comparison is also false for a NaN
        if not 0 < self.nu < np.inf:
            raise ValueError(f"shear viscosity must be positive and finite, got {self.nu}")
        if not (abs(self.lam) < np.inf and self.lam + 2.0 * self.nu / 3.0 >= 0):
            raise ValueError(
                f"need a finite lambda with lambda + 2 nu / 3 >= 0, got lambda = {self.lam}"
            )
        if not 0 < self.epsilon < np.inf:
            raise ValueError(f"interface thickness must be positive and finite, got {self.epsilon}")
        if not 0 < self.rho_bar < np.inf:
            raise ValueError(f"reference density must be positive and finite, got {self.rho_bar}")
        if not 0 < self.pressure_a < np.inf:
            raise ValueError(f"pressure coefficient must be positive and finite, got {self.pressure_a}")
        if not 1 <= self.pressure_gamma < np.inf:
            raise ValueError(f"adiabatic exponent must be finite and >= 1, got {self.pressure_gamma}")

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


def _positive_density(rho, law: str) -> np.ndarray:
    """``rho`` as a float64 array; ``VacuumError`` naming ``law`` at ``rho <= 0``."""
    rho = np.asarray(rho, dtype=np.float64)
    if np.any(rho <= 0):
        raise VacuumError(f"{law} undefined at rho <= 0 (min rho = {rho.min():.6g})")
    return rho


def pressure(rho, params: PhysParams):
    """Barotropic pressure ``a rho^gamma``; rejects vacuum states."""
    rho = _positive_density(rho, "pressure")
    out = params.pressure_a * rho**params.pressure_gamma
    return float(out) if out.ndim == 0 else out


def pressure_prime(rho, params: PhysParams):
    """``p'(rho) = a gamma rho^(gamma-1) > 0``."""
    rho = _positive_density(rho, "pressure_prime")
    out = params.pressure_a * params.pressure_gamma * rho ** (params.pressure_gamma - 1.0)
    return float(out) if out.ndim == 0 else out


def g_potential(rho, params: PhysParams):
    """Compression potential ``G(rho) = rho * int_rho_bar^rho (p(z)-p(rho_bar))/z^2 dz``.

    Nonnegative, vanishing at ``rho_bar`` and comparable to ``(rho-rho_bar)^2``
    on the admissible density window. Evaluated in closed form through
    ``x = rho/rho_bar - 1``:

        G = a rho rho_bar^(g-1) [ expm1((g-1) log1p(x))/(g-1) - x/(1+x) ]

    (log form for ``g = 1``). The bracket still cancels its O(x) terms, so
    each carries an absolute error of about ``eps |x|`` and ``G`` a relative
    error of about ``eps/|x|``: at most 3.6e-16/|x| against the Taylor
    series for gamma 1, 1.4 and 2 and ``1e-10 <= |x| <= 1e-4`` (about 2e-12
    at ``|x| = 1e-4``). The naive antiderivative difference loses everything to
    cancellation once ``x ~ sqrt(eps)``, which would put a spurious noise
    floor under the energy ledger of decayed states.
    """
    rho = _positive_density(rho, "g_potential")
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
    The density must be positive (the tendency checks it on the State's
    scan).
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
    spectra, taken once per field however many norms a sample reports. It
    holds only what the coefficients determine, under keys only this module
    names. A State is immutable, so an entry never goes stale and snapshots
    are safe to share. `run` empties the cache of a State it has stepped
    from; a later read rebuilds the same view.
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

    def stacked(self, planes: slice = slice(None), out: np.ndarray | None = None) -> np.ndarray:
        """``(sigma_hat, u_hat, phi_hat)`` stacked on axis 0: the layout of every tendency.

        With ``planes``, only those axis-0 planes of each field (one of
        `Grid.slabs`). Written into ``out`` if given.
        """
        fields = [self.sigma_hat[None, planes], self.u_hat[:, planes], self.phi_hat[None, planes]]
        return np.concatenate(fields, out=out)

    def _phys(self, key, builder):
        """The value under ``key``, built and cached if absent.

        Returns the value it found or built, so a cache emptied meanwhile
        costs the next read a rebuild, never a ``KeyError``.
        """
        value = self._cache.get(key)
        if value is None:
            value = self._cache[key] = builder()
        return value

    def sigma(self) -> np.ndarray:
        return self._phys("sigma", lambda: self.grid.inverse(self.sigma_hat))

    def u(self) -> np.ndarray:
        return self._phys("u", lambda: self.grid.inverse(self.u_hat))

    def phi(self) -> np.ndarray:
        return self._phys("phi", lambda: self.grid.inverse(self.phi_hat))

    def lap_phi(self) -> np.ndarray:
        return self._phys("lap_phi", lambda: self.grid.inverse(-self.grid.k2 * self.phi_hat))

    @property
    def phisq_hat(self) -> np.ndarray:
        """De-aliased coefficients of ``phi^2 - 1``, cached like the views."""

        def build():
            phi = self.phi()
            c = self.grid.forward_product(phi * phi)
            c[(0,) * self.grid.dim] -= 1.0
            return c

        return self._phys("phisq_hat", build)

    def spectrum(self, name: str) -> np.ndarray:
        """Shell spectrum of ``"sigma"``, ``"u"`` (components summed), ``"phi"`` or ``"phisq"``."""
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


def _scan(state: State) -> tuple:
    """``(min sigma, max sigma, max |phi|, non-finite fields)``, from the views' own extrema: no State-sized array."""
    sigma, phi = state.sigma(), state.phi()
    arrays = (("sigma", state.sigma_hat), ("u", state.u_hat), ("phi", state.phi_hat))
    nonfinite = tuple(name for name, arr in arrays if not np.all(np.isfinite(arr)))
    return float(sigma.min()), float(sigma.max()), float(max(phi.max(), -phi.min())), nonfinite


def _scanned(state: State) -> tuple:  # every judgment of a State's input reads this one entry
    return state._phys("scan", lambda: _scan(state))


def _require_density(state: State, params: PhysParams, where: str) -> None:
    """Raise ``VacuumError`` at ``rho <= 0``, read off the scan; a NaN is left to the finiteness check."""
    rho_min = params.rho_bar + _scanned(state)[0]  # rounding is monotone: the least density
    if rho_min <= 0:
        raise VacuumError(f"{where}: vacuum state (min rho = {rho_min:.6g})")


def _location(arr: np.ndarray, index) -> tuple[int, ...]:
    return tuple(int(i) for i in np.unravel_index(int(index), arr.shape))


@dataclass(frozen=True)
class InvariantReport:
    """A snapshot against the admissible set: finite coefficients, density in
    ``rho_window``, ``max |phi| <= 1 + phi_tol`` and, given a reference mass,
    drift within ``MASS_DRIFT_TOL``. ``clean`` means all of them hold.
    """

    mass: float
    mass_drift: float | None
    phi_max: float
    rho_min: float
    rho_max: float
    nan_fields: tuple
    phi_tol: float
    rho_window: tuple

    @property
    def in_window(self) -> bool:
        lo, hi = self.rho_window
        return bool(lo <= self.rho_min and self.rho_max <= hi)

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
    params: PhysParams,
    mass_reference: float | None = None,
    phi_tol: float = PHI_TOL,
) -> InvariantReport:
    """Judge a snapshot against the admissible set (see ``InvariantReport``).

    Costs no transform beyond the cached ``state.sigma()`` and ``state.phi()``.
    It reads the State's one cached `_scan`, which holds no ``rho_bar``:
    `run`'s `check_state`, a sampling observer and the tendency judge a
    State through the same scan.
    """
    mass = state.mass(params)
    drift = None
    if mass_reference is not None:
        drift = (mass - mass_reference) / max(abs(mass_reference), 1e-300)
    sigma_min, sigma_max, phi_max, nan_fields = _scanned(state)
    return InvariantReport(
        mass=mass,
        mass_drift=drift,
        phi_max=phi_max,
        rho_min=params.rho_bar + sigma_min,
        rho_max=params.rho_bar + sigma_max,
        nan_fields=nan_fields,
        phi_tol=phi_tol,
        rho_window=(RHO_WINDOW[0] * params.rho_bar, RHO_WINDOW[1] * params.rho_bar),
    )


def check_state(state: State, params: PhysParams, step: int | None = None, phi_tol: float = PHI_TOL) -> None:
    """Raise ``InvariantViolation`` for the first broken bound: finiteness, density, phase.

    The only code that turns a report into an error. A broken bound carries
    its magnitude and the grid location of its worst cell: the lowest density
    if it is below the window, else the highest; the largest ``|phi|``.
    Leaving the density window counts as blow-up, not as a state to continue
    from: the window is where the model's smallness assumptions mean something.
    """
    rep = invariant_monitor(state, params, phi_tol=phi_tol)
    if rep.nan_fields:
        raise InvariantViolation(rep.nan_fields[0], "non-finite coefficients", step=step)
    if not rep.in_window:
        lo, hi = rep.rho_window
        rho = params.rho_bar + state.sigma()
        below = rep.rho_min < lo
        raise InvariantViolation(
            "rho",
            f"density left [{lo:g}, {hi:g}] (min {rep.rho_min:.6g}, max {rep.rho_max:.6g})",
            step=step,
            magnitude=rep.rho_min if below else rep.rho_max,
            location=_location(rho, np.argmin(rho) if below else np.argmax(rho)),
        )
    if not rep.phase_bounded:
        phi = state.phi()
        raise InvariantViolation(
            "phi",
            f"|phi| exceeded 1 + {phi_tol:g} (max |phi| = {rep.phi_max:.9g})",
            step=step,
            magnitude=rep.phi_max - 1.0,
            location=_location(phi, np.argmax(np.abs(phi))),
        )


# ---------------------------------------------------------------------------
# Pointwise constitutive quantities
# ---------------------------------------------------------------------------


def chemical_potential(state: State, params: PhysParams) -> np.ndarray:
    """``mu = (phi^3 - phi)/eps - (eps/rho) Lap phi`` on the grid.

    ``phi^3`` is taken as ``copysign(|phi|^3, phi)``: the same floats as
    ``phi**3`` where ``phi >= 0``, exactly odd in ``phi``, and off numpy's
    slow ``pow`` path for negative bases.
    """
    _require_density(state, params, "chemical_potential")
    phi = state.phi()
    rho = params.rho_bar + state.sigma()
    eps = params.epsilon
    # in place, in the formula's operand order: rho and mu are the only
    # fields allocated
    mu = np.abs(phi)
    mu **= 3
    np.copysign(mu, phi, out=mu)
    mu -= phi
    mu /= eps
    weight = np.divide(eps, rho, out=rho)
    weight *= state.lap_phi()
    mu -= weight
    return mu


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
        self, u_hat, D, out: np.ndarray, scratch: np.ndarray | None = None, planes: slice = slice(None)
    ) -> np.ndarray:
        """B's viscous row ``-a |k|^2 u + (b - a) i k D``, written into ``out``.

        In physical space this is ``(nu Lap u + (nu+lam) grad div u) / rho_bar``.
        ``scratch``, one spectral field, holds the grad-div part of each row.
        With ``planes`` (one of `Grid.slabs`), the operands hold only those
        axis-0 planes, and so do all of B's methods.
        """
        ik, k2 = self.grid.symbols(planes)
        a = self.params.shear_diffusivity
        grad_div = self.params.longitudinal_diffusivity - a
        shear = -a * k2
        for i in range(self.grid.dim):
            np.multiply(shear, u_hat[i], out=out[i])
            out[i] += np.multiply(grad_div * ik[i], D, out=scratch)
        return out

    def apply(self, y: np.ndarray, planes: slice = slice(None)) -> np.ndarray:
        """``B y`` into a fresh array."""
        g, params = self.grid, self.params
        ik, k2 = g.symbols(planes)
        sigma_hat, u_hat, phi_hat = y[0], y[1:-1], y[-1]
        out = np.empty_like(y)
        D = g.divergence(u_hat, planes=planes)
        np.multiply(-params.rho_bar, D, out=out[0])
        u_row = self.viscous_row(u_hat, D, out[1:-1], planes=planes)
        for i in range(g.dim):
            u_row[i] -= params.sound_coupling * ik[i] * sigma_hat
        np.subtract(-params.phase_diffusivity * k2 * phi_hat, self.shift * phi_hat, out=out[-1])
        return out

    def solve(
        self, alpha: float, y: np.ndarray, out: np.ndarray | None = None, planes: slice = slice(None)
    ) -> np.ndarray:
        """``(I - alpha B)^-1 y`` in closed form (see the class docstring).

        Written into ``out`` if given, which may be ``y`` itself: each row of
        ``y`` is read before its own row of ``out`` is written.
        """
        g, params = self.grid, self.params
        ik, k2 = g.symbols(planes)
        a, b, c = params.shear_diffusivity, params.longitudinal_diffusivity, params.sound_coupling
        ak2 = alpha * k2
        inv_det = 1.0 / (1.0 + ak2 * (b + alpha * params.p_prime_bar))
        r_sigma, r_u = y[0], y[1:-1]
        out = np.empty_like(y) if out is None else out
        r_div = g.divergence(r_u, planes=planes)
        div = (c * ak2 * r_sigma + r_div) * inv_det
        sigma = np.multiply((1.0 + b * ak2) * r_sigma - alpha * params.rho_bar * r_div, inv_det, out=out[0])
        q = alpha * ((b - a) * div - c * sigma)  # (1 + alpha a |k|^2) u = r_u + i k q
        inv_den = 1.0 / (1.0 + a * ak2)
        for i in range(g.dim):
            np.multiply(r_u[i] + ik[i] * q, inv_den, out=out[1 + i])
        np.divide(y[-1], 1.0 + params.phase_diffusivity * ak2 + alpha * self.shift, out=out[-1])
        return out


class TendencyWorkspace:
    """The arrays `nonlinear_terms` fills in place on one grid, allocated once.

    The derivative stack is ``[w, Lap phi, grad phi, viscous]``: the
    ``d(d-1)/2`` vorticity components, Lap phi, grad phi (d) and B's viscous
    row (d), 10 fields at 3-D. Each call sets it up in the transform window
    ``hats``, of ``max(stack, 2 dim + 3)`` rows (10 complex fields at 3-D, 7
    at 2-D and 5 at 1-D). Its inverse ends slab by slab (`planes`, from
    `Grid.plane_slabs`) in ``phys``, which holds one slab of physical axis-0
    planes; the slab's forward products land in the window's planes that its
    inverse has spent, the first ``2 dim + 2`` rows. Row ``2 dim + 2`` is the
    scratch of the spectral work after the forward. The tendency a call
    returns is rows ``[dim - 1, 2 dim + 1)`` of the window, which the next
    call overwrites. ``phi2`` is the one whole physical field, the
    de-aliased phi^2, formed through the window before the stack is set up.

    ``phys`` holds ``[1/rho | derivative block | phi row, K - H]``, where
    ``K - H`` is the kinetic energy density minus the enthalpy remainder. The
    products are formed in the rows their operands leave: the u rows in the
    viscous rows, sigma u in the grad phi rows. So the block from grad phi to
    ``K - H`` is the forward's input in the product order (sigma u, u rows,
    phi row, ``K - H``). The pointwise and spectral work needs no further
    arrays: its scratch is rows not yet written or already spent. At 3-D the
    workspace is 10 complex fields, 13 real rows of one slab and one real
    field; at 64^3 a slab is 4 planes.
    """

    def __init__(self, grid: Grid):
        d = grid.dim
        stack = 2 * d + d * (d - 1) // 2 + 1
        self.hats = np.empty((max(stack, 2 * d + 3),) + grid.rshape, dtype=np.complex128)
        self.planes = grid.plane_slabs()
        size = max(s.stop - s.start for s in self.planes)
        self.phys = np.empty((1 + stack + 2, size) + grid.shape[1:])
        self.phi2 = np.empty(grid.shape)


def nonlinear_terms(state: State, params: PhysParams, work: TendencyWorkspace | None = None) -> np.ndarray:
    """Spectral tendency of every nonlinear / variable-coefficient term.

    Returns one ``(dim + 2, *rshape)`` array in the layout of
    ``State.stacked``; raises ``VacuumError`` at ``rho <= 0``, read off the
    State's cached scan. The constant-coefficient part ``B`` (`LinearSymbol`:
    acoustic coupling, viscosity, phase diffusion) is excluded so the time
    integrator can treat it exactly per mode. Given a ``work`` space the
    tendency allocates nothing beyond a few wavenumber-sized arrays and the
    result is a view into it, valid until the next call on the same
    workspace; without one a fresh workspace is used. The derivative stack
    lives in the transform window and each product in the physical
    rows its operands leave (`TendencyWorkspace`), so every array is spent
    before it is overwritten. The pointwise work is blocked over slabs of
    physical axis-0 planes (`Grid.plane_slabs`) between the leading passes
    of the batched inverse and forward, so only de-aliased phi^2 is a whole
    physical field; each point sees the operations of a whole-grid pass in
    the same order, so the result does not depend on the slab size.

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

    _require_density(state, params, "nonlinear_terms")
    sigma = state.sigma()
    u = state.u()
    phi = state.phi()
    u_hat = state.u_hat
    hats = work.hats

    # de-aliased phi^2, through the window's first row before the stack is set up
    phi2 = np.multiply(phi, phi, out=work.phi2)
    g.forward_many(phi2[np.newaxis], out=hats[:1])
    g.inverse_many(hats[:1], out=phi2[np.newaxis])

    # one batched inverse for every derivative this evaluation needs:
    # vorticity w_ij for i < j (d(d-1)/2), Lap phi (1), grad phi (d), B's
    # viscous row (d). The stack is set up in the transform window:
    # D = i k.u lives in the Lap phi row, which is written last, and the
    # set-up's scratch in the first grad phi row, which is written after the
    # viscous and vorticity rows. The inverse reads only the 2/3 band, where
    # every state a run steps on lives, so the stack is set up slab by slab
    # and the planes between the slabs are left for it to zero
    pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
    o = len(pairs)
    stack = o + 2 * d + 1
    B = LinearSymbol(g, params)
    for planes in g.slabs():
        ik, k2 = g.symbols(planes)
        u_s, phi_s, b = u_hat[:, planes], state.phi_hat[planes], hats[:stack, planes]
        div_u_hat, spare_hat = b[o], b[o + 1]
        g.divergence(u_s, out=div_u_hat, scratch=spare_hat, planes=planes)
        B.viscous_row(u_s, div_u_hat, b[o + 1 + d :], scratch=spare_hat, planes=planes)
        for m, (i, j) in enumerate(pairs):
            np.multiply(ik[i], u_s[j], out=b[m])
            b[m] -= np.multiply(ik[j], u_s[i], out=spare_hat)
        for i in range(d):
            np.multiply(ik[i], phi_s, out=b[o + 1 + i])
        np.multiply(-k2, phi_s, out=b[o])
    g.inverse_leading(hats[:stack])

    # the pointwise work, one slab of physical axis-0 planes at a time: the
    # inverse ends in the slab, and the slab's products go forward into the
    # window's planes that its inverse has spent
    for planes in work.planes:
        phys = work.phys[:, : planes.stop - planes.start]
        inv_rho, derivs, row, spare = phys[0], phys[1 : 1 + stack], phys[1 + stack], phys[2 + stack]
        g.inverse_last(hats[:stack, planes], out=derivs)
        vorticity = derivs[:o]
        lap_phi = derivs[o]
        grad_phi = derivs[o + 1 : o + 1 + d]
        viscous = derivs[o + 1 + d :]
        sigma_s, u_s, phi_s = sigma[planes], u[:, planes], phi[planes]

        np.add(sigma_s, params.rho_bar, out=inv_rho)
        np.divide(1.0, inv_rho, out=inv_rho)

        # phi row: (1 - phi^2) phi / (eps rho) + (eps/rho^2 - eps/rho_bar^2) Lap phi - u.grad phi
        np.subtract(1.0, phi2[planes], out=row)
        row *= phi_s
        row *= inv_rho
        row /= eps
        coeff = np.multiply(inv_rho, inv_rho, out=spare)
        coeff *= eps
        coeff -= params.phase_diffusivity
        coeff *= lap_phi
        row += coeff
        for j in range(d):
            row -= np.multiply(u_s[j], grad_phi[j], out=spare)

        # u rows, in place in the viscous rows: -h2 (nu Lap u + (nu+lam) grad div u)
        # = -(sigma/rho) times the viscous row, the capillary force
        # -(eps/rho) Lap phi grad phi, + sum_j u_j w_ij
        capillary = np.multiply(lap_phi, inv_rho, out=lap_phi)
        capillary *= -eps
        weight = np.multiply(sigma_s, inv_rho, out=inv_rho)
        for i in range(d):
            u_row = np.multiply(weight, viscous[i], out=viscous[i])
            np.subtract(np.multiply(capillary, grad_phi[i], out=grad_phi[i]), u_row, out=u_row)
        for m, (a, b) in enumerate(pairs):  # w_ba = -w_ab
            viscous[a] += np.multiply(u_s[b], vorticity[m], out=spare)
            viscous[b] -= np.multiply(u_s[a], vorticity[m], out=vorticity[m])

        # sigma u in the spent grad phi rows, then K - H with K = |u|^2/2 in the
        # last row; the Lap phi row is spent
        for j in range(d):
            np.multiply(sigma_s, u_s[j], out=grad_phi[j])
        kinetic = np.multiply(u_s[0], u_s[0], out=spare)
        for j in range(1, d):
            kinetic += np.multiply(u_s[j], u_s[j], out=lap_phi)
        kinetic *= 0.5
        kinetic -= enthalpy_remainder(sigma_s, params, out=lap_phi)

        # the block from grad phi to K - H: sigma u (d), u rows (d), phi row
        # (1), K - H (1)
        g.forward_last(phys[2 + o :], out=hats[: 2 * d + 2, planes])

    # the forward's leading passes; the row after the products is the
    # spectral scratch. The planes between the slabs are zero, and stay zero
    g.forward_leading(hats[: 2 * d + 2])
    for planes in g.slabs():
        ik, _ = g.symbols(planes)
        h, spare_hat = hats[:, planes], hats[2 * d + 2, planes]
        for i in range(d):
            h[d + i] -= np.multiply(ik[i], h[2 * d + 1], out=spare_hat)
        # the tendency is (-div of sigma u, hats[d:2d+1]): the divergence goes
        # over the last sigma u transform, once the others are summed into it
        div = h[d - 1]
        div *= ik[d - 1]
        for j in range(d - 1):
            div += np.multiply(ik[j], h[j], out=spare_hat)
        np.negative(div, out=div)
    return hats[d - 1 : 2 * d + 1]


def rhs(state: State, params: PhysParams) -> np.ndarray:
    """Full right-hand side at a state, stacked like ``State.stacked``."""
    nonfinite = _scanned(state)[3]
    if nonfinite:
        raise InvariantViolation(nonfinite[0], "non-finite field passed to rhs")
    return nonlinear_terms(state, params) + LinearSymbol(state.grid, params).apply(state.stacked())

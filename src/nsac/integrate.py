"""Implicit-explicit time integration.

The constant-coefficient linear operator (acoustic coupling between sigma and
u, viscous Laplacian / grad-div, phase diffusion and optionally the linearized
phase reaction) is solved exactly per Fourier mode in closed form
(``model.LinearSymbol.solve``): an explicit 2x2 inverse for the longitudinal
pair (sigma_hat, div u_hat), then scalar divisions for the velocity and
phi_hat. Everything nonlinear or variable-coefficient is explicit.

Treating the acoustic coupling implicitly keeps the scheme stable without an
acoustic CFL restriction and makes the implicit update a contraction in the
energy norm, so discrete energy decay mirrors the continuous identity.

Schemes: order 1 is IMEX Euler. Order 2 uses Crank-Nicolson for the linear
part; `run` combines it with a two-level Adams-Bashforth extrapolation of the
nonlinear terms (one nonlinear evaluation per step), while the standalone
`step` uses a self-contained two-stage IMEX Runge-Kutta.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InvariantViolation, VacuumError
from .model import (
    PHI_TOL,
    LinearSymbol,
    PhysParams,
    State,
    TendencyWorkspace,
    check_state,
    nonlinear_terms,
)
from .spectral import Grid

_ARS_GAMMA = 1.0 - 1.0 / np.sqrt(2.0)
_ARS_DELTA = 1.0 - 1.0 / (2.0 * _ARS_GAMMA)


@dataclass(frozen=True)
class StepConfig:
    """Time-stepping controls.

    ``reaction_shift`` moves the constant linearization of the phase reaction
    (rate ``2/(eps rho_bar)``) into the implicit diagonal; the pure phases
    ``phi = +-1`` remain exact fixed points of the discrete update either way.
    """

    dt: float
    t_end: float
    cfl: float = 0.4
    max_steps: int = 1_000_000
    scheme_order: int = 2
    reaction_shift: bool = True
    phi_tol: float = PHI_TOL

    def __post_init__(self):
        if not self.dt > 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if not 0 < self.cfl < 1:
            raise ValueError(f"cfl must lie in (0, 1), got {self.cfl}")
        if self.scheme_order not in (1, 2):
            raise ValueError(f"scheme_order must be 1 or 2, got {self.scheme_order}")
        if self.max_steps < 0:
            raise ValueError("max_steps must be nonnegative")
        for name in ("t_end", "phi_tol"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {value}")


@dataclass
class RunSummary:
    """Outcome of `run`.

    ``dt_limits`` counts the accepted steps by what set their ``dt``: ``cap``
    (the configured ``dt``), ``cfl`` (the `adaptive_dt` speed bound) or
    ``t_end`` (shortened to land on it).
    """

    steps: int
    t_final: float
    termination: str  # "t_end" | "max_steps" | "invariant_violation"
    violation: dict | None = None
    dt_limits: dict = field(default_factory=lambda: dict.fromkeys(("cap", "cfl", "t_end"), 0))


def adaptive_dt(state: State, cfg: StepConfig, params: PhysParams) -> float:
    """Bound of the explicit remainder, ``min(cfg.dt, cfl * dx / max(|u| + |c(rho) - c(rho_bar)|))``.

    ``c = sqrt(p')``. The acoustic coupling at ``rho_bar`` is solved
    implicitly, so only advection and the pressure correction beyond it carry
    a speed; a quiescent state (speed zero) gets ``cfg.dt``.
    """
    u = state.u()
    c = np.sqrt(state.p_prime(params))
    speed = np.sqrt(np.sum(u * u, axis=0)) + np.abs(c - np.sqrt(params.p_prime_bar))
    vmax = float(np.max(speed))
    return cfg.dt if vmax == 0 else min(cfg.dt, cfg.cfl * state.grid.dx / vmax)


class Stepper:
    """IMEX stepper for a fixed grid/params/config.

    The state travels as ``y = (sigma_hat, u_hat, phi_hat)`` stacked on axis
    0. The implicit part is the closed-form per-mode solve of ``linear``, the
    `LinearSymbol` with the phase row shifted by the reaction rate when
    ``cfg.reaction_shift`` is set: nothing is factorized or cached, so a new
    time step size costs the same as a repeated one.

    Scratch arrays are allocated once, here: the tendency workspace, the
    stacked state ``_y`` and the increment ``_incr``. Of what an Euler or
    CNAB2 step allocates, only the solve's output outlives it, as the new
    State's arrays (a State owns its arrays and views). The tendency a step
    returns is a view into the workspace's other transform buffer; it holds
    until the next `step_cnab2` consumes it as ``prev``.
    """

    def __init__(self, grid: Grid, params: PhysParams, cfg: StepConfig):
        self.grid = grid
        self.params = params
        self.cfg = cfg
        shift = 2.0 / (params.epsilon * params.rho_bar) if cfg.reaction_shift else 0.0
        self.linear = LinearSymbol(grid, params, shift)
        self.work = TendencyWorkspace(grid)
        self._y, self._incr = (np.empty((grid.dim + 2,) + grid.rshape, dtype=np.complex128) for _ in range(2))

    def _nonlinear(self, state: State) -> np.ndarray:
        n = nonlinear_terms(state, self.params, self.work)
        n[-1] += self.linear.shift * state.phi_hat
        return n

    def _make_state(self, t: float, y: np.ndarray) -> State:
        """The State on ``y`` cut to the 2/3 band; masks ``y`` in place, so ``y`` must be a fresh array."""
        np.multiply(y, self.grid.dealias_mask, out=y)
        return State(self.grid, t, y[0], y[1:-1], y[-1])

    def _advance(self, t: float, y: np.ndarray, alpha: float, incr: np.ndarray) -> State:
        """The State at ``t`` on ``y + (I - alpha B)^-1 incr``, summed into the solve's output."""
        new = self.linear.solve(alpha, incr)
        return self._make_state(t, np.add(y, new, out=new))

    # -- schemes --------------------------------------------------------------
    #
    # Every scheme is written in increment form: the update adds a solve of
    # terms that vanish identically at a fixed point of the semi-discrete
    # system, so exact steady states (equilibrium, pure phases) are preserved
    # bit for bit, not just to roundoff.

    def step_euler(self, state: State, dt: float) -> tuple[State, np.ndarray]:
        """IMEX Euler: implicit linear solve around an explicit nonlinear shot."""
        n = self._nonlinear(state)
        y = state.stacked(out=self._y)
        incr = np.add(self.linear.apply(y, out=self._incr), n, out=self._incr)
        return self._advance(state.t + dt, y, dt, np.multiply(dt, incr, out=incr)), n

    def step_cnab2(self, state: State, dt: float, prev: np.ndarray | None, dt_prev: float | None):
        """Crank-Nicolson linear part + variable-step Adams-Bashforth nonlinear part.

        Bootstraps with an Euler step when no history is available. The
        extrapolated nonlinear term is written ``N + b0 (N_prev - N)`` with
        ``b0 = -dt / (2 dt_prev)``. The step consumes ``prev``: the history
        difference is written into its buffer, the workspace's other
        transform buffer, which the next tendency overwrites anyway.
        """
        if prev is None:
            return self.step_euler(state, dt)
        n = self._nonlinear(state)
        b0 = -0.5 * dt / dt_prev
        y = state.stacked(out=self._y)
        # dt * ((B y + N) + b0 (N_prev - N)), evaluated in that order
        incr = np.add(self.linear.apply(y, out=self._incr), n, out=self._incr)
        hist = np.subtract(prev, n, out=prev)
        np.add(incr, np.multiply(b0, hist, out=hist), out=incr)
        return self._advance(state.t + dt, y, 0.5 * dt, np.multiply(dt, incr, out=incr)), n

    def step_ars222(self, state: State, dt: float) -> State:
        """Self-contained two-stage second-order IMEX Runge-Kutta step."""
        g, dl, B = _ARS_GAMMA, _ARS_DELTA, self.linear
        y0 = state.stacked()
        n0 = self._nonlinear(state)
        y1 = y0 + B.solve(g * dt, g * dt * (B.apply(y0) + n0))
        n1 = self._nonlinear(self._make_state(state.t + g * dt, y1.copy()))
        incr = dt * (B.apply(y0) + n0 + (1 - dl) * (n1 - n0)) + (1 - g) * dt * B.apply(y1 - y0)
        return self._advance(state.t + dt, y0, g * dt, incr)


def step(state: State, cfg: StepConfig, params: PhysParams) -> State:
    """Advance one step of size ``cfg.dt`` and enforce post-step invariants."""
    stepper = Stepper(state.grid, params, cfg)
    if cfg.scheme_order == 1:
        new_state, _ = stepper.step_euler(state, cfg.dt)
    else:
        new_state = stepper.step_ars222(state, cfg.dt)
    check_state(new_state, params, phi_tol=cfg.phi_tol)
    return new_state


def run(
    state: State,
    cfg: StepConfig,
    params: PhysParams,
    observers: tuple = (),
    cadence: int = 1,
) -> RunSummary:
    """March to ``cfg.t_end``, invoking observers on immutable snapshots.

    Observers are called with ``(step_index, state)`` at step 0, at the given
    cadence and once on the last accepted state, however the run stops. The
    time step is the ``adaptive_dt`` bound of the explicit terms, kept
    piecewise constant: it shrinks only when the bound tightens or to land
    exactly on ``t_end``. On an invariant violation the summary records it
    and the partial trajectory seen by the observers stands.
    """
    if cadence < 1:
        raise ValueError("cadence must be >= 1")
    check_state(state, params, step=0, phi_tol=cfg.phi_tol)
    stepper = Stepper(state.grid, params, cfg)
    for obs in observers:
        obs(0, state)

    t_end = cfg.t_end
    t_tol = 1e-14 * max(1.0, abs(t_end))
    summary = RunSummary(0, state.t, "t_end")
    steps = seen = 0
    dt_curr: float | None = None
    prev_nl = None
    dt_prev = None
    while state.t < t_end - t_tol:
        if steps >= cfg.max_steps:
            summary.termination = "max_steps"
            break
        bound = adaptive_dt(state, cfg, params)
        if dt_curr is None or bound < dt_curr:
            dt_curr = bound
        dt = min(dt_curr, t_end - state.t)
        # land on t_end when roundoff would leave a sliver of at most 1e-9 dt
        final = dt >= t_end - state.t - max(t_tol, 1e-9 * dt_curr)
        try:
            if cfg.scheme_order == 1:
                new, nl = stepper.step_euler(state, dt)
            else:
                new, nl = stepper.step_cnab2(state, dt, prev_nl, dt_prev)
            if final:
                new = replace(new, t=t_end)
            check_state(new, params, step=steps + 1, phi_tol=cfg.phi_tol)
        except (InvariantViolation, VacuumError) as err:
            if isinstance(err, VacuumError):
                err = InvariantViolation("rho", str(err), step=steps + 1)
            summary.termination, summary.violation = "invariant_violation", err.as_dict()
            break
        # adopt the candidate only once it is admissible, so t_final matches steps
        state, prev_nl, dt_prev = new, nl, dt
        steps += 1
        summary.dt_limits["t_end" if dt < dt_curr else "cap" if dt_curr == cfg.dt else "cfl"] += 1
        if steps % cadence == 0:
            for obs in observers:
                obs(steps, state)
            seen = steps
    if seen != steps:
        for obs in observers:
            obs(steps, state)
    summary.steps, summary.t_final = steps, state.t
    return summary

"""Implicit-explicit time integration.

The constant-coefficient linear operator (acoustic coupling between sigma and
u, viscous Laplacian / grad-div, phase diffusion and the linearized phase
reaction) is solved exactly per Fourier mode in closed form
(``model.LinearSymbol.solve``): an explicit 2x2 inverse for the longitudinal
pair (sigma_hat, div u_hat), then scalar divisions for the velocity and
phi_hat. Everything nonlinear or variable-coefficient is explicit.

Treating the acoustic coupling implicitly keeps the scheme stable without an
acoustic CFL restriction and makes the implicit update a contraction in the
energy norm, so discrete energy decay mirrors the continuous identity.

Schemes: order 1 is IMEX Euler. Order 2 is CNAB2: Crank-Nicolson for the
linear part with a two-level Adams-Bashforth extrapolation of the nonlinear
terms (one nonlinear evaluation per step), bootstrapped by an Euler step.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InvariantViolation
from .model import (
    PHI_TOL,
    LinearSymbol,
    PhysParams,
    State,
    TendencyWorkspace,
    check_state,
    nonlinear_terms,
    pressure_prime,
)
from .spectral import Grid


@dataclass(frozen=True)
class StepConfig:
    """Time-stepping controls of `run`.

    ``scheme_order`` 1 is IMEX Euler and 2 is CNAB2.
    """

    dt: float
    t_end: float
    cfl: float = 0.4
    max_steps: int = 1_000_000
    scheme_order: int = 2
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
    a speed; a quiescent state (speed zero) gets ``cfg.dt``. ``p'(rho)``, read
    by nothing else, lives in temporaries (``VacuumError`` at ``rho <= 0``).
    """
    u = state.u()
    speed = np.multiply(u[0], u[0])  # |u|^2 summed in np.sum's order, then |u| + |c - c_bar|
    scratch = np.empty_like(speed)
    for j in range(1, state.grid.dim):
        speed += np.multiply(u[j], u[j], out=scratch)
    np.sqrt(speed, out=speed)
    c = np.sqrt(pressure_prime(params.rho_bar + state.sigma(), params), out=scratch)
    c -= np.sqrt(params.p_prime_bar)
    speed += np.abs(c, out=c)
    vmax = float(np.max(speed))
    return cfg.dt if vmax == 0 else min(cfg.dt, cfg.cfl * state.grid.dx / vmax)


class Stepper:
    """IMEX stepper for a fixed grid and params.

    The state travels as ``y = (sigma_hat, u_hat, phi_hat)`` stacked on axis
    0. The implicit part is the closed-form per-mode solve of ``linear``, the
    `LinearSymbol` with the phase row shifted by the linearized reaction rate
    ``2/(eps rho_bar)`` (the pure phases ``phi = +-1`` stay exact fixed
    points): nothing is factorized or cached, so a new time step size costs
    the same as a repeated one.

    The tendency workspace and the CNAB2 history (the previous tendency
    ``prev``, ``dim + 2`` fields, and its step ``dt_prev``) are allocated
    once, here; every step writes its tendency into ``prev``. An Euler or
    CNAB2 step works slab by slab (`Grid.slabs`): of what it allocates, only
    the new State's arrays outlive it (a State owns its arrays and views),
    and the rest is a few slab-sized temporaries. Once the tendency is formed
    and the new State's storage allocated, a step empties the cache of the
    State it started from: from then on that State holds only its
    coefficient arrays, and a view read from it later is rebuilt, the same
    floats. A step reads nothing of that State once it returns, so the
    caller may release it while it checks the new one.
    """

    def __init__(self, grid: Grid, params: PhysParams):
        self.grid = grid
        self.params = params
        self.linear = LinearSymbol(grid, params, 2.0 / (params.epsilon * params.rho_bar))
        self.work = TendencyWorkspace(grid)
        self.prev = np.empty((grid.dim + 2,) + grid.rshape, dtype=np.complex128)
        self.dt_prev: float | None = None

    def _advance(self, state: State, dt: float, alpha: float, b0: float = 0.0) -> State:
        """The State at ``t + dt`` on ``y + (I - alpha B)^-1 dt((B y + N) + b0 (N_prev - N))``.

        ``N`` is the tendency at ``state`` plus the phase row's shift, and
        ``N_prev`` is ``prev``; ``b0 = 0`` leaves the history term out. Every
        operation acts per mode, so the update runs over one slab of axis-0
        planes at a time (`Grid.slabs`), whose operands stay in cache from
        one pass to the next: ``y`` is stacked into the new state's storage
        and the solve is added to it there. The history difference is formed
        in ``prev``'s slab, and then ``N`` is copied into it. The planes
        between the slabs lie outside the 2/3 band, so the new state is zero
        there; ``prev`` is not written there, and nothing reads it.
        """
        g, B = self.grid, self.linear
        n = nonlinear_terms(state, self.params, self.work)
        new = np.empty_like(n)
        # the rest reads only the coefficients; emptied after the allocation,
        # since before it glibc trims and regrows its heap on every 64^3 step
        state._cache.clear()
        done = 0
        for planes in g.slabs():
            new[:, done : planes.start] = 0
            done = planes.stop
            y, n_s, prev = state.stacked(planes, out=new[:, planes]), n[:, planes], self.prev[:, planes]
            n_s[-1] += B.shift * state.phi_hat[planes]
            # dt * ((B y + N) + b0 (N_prev - N)), evaluated in that order
            incr = B.apply(y, planes)
            incr += n_s
            if b0:
                hist = np.subtract(prev, n_s, out=prev)
                incr += np.multiply(b0, hist, out=hist)
            prev[...] = n_s
            incr *= dt
            y += B.solve(alpha, incr, out=incr, planes=planes)
            g.cut_to_band(y, slab=True)
        new[:, done:] = 0
        self.dt_prev = dt
        return State(g, state.t + dt, new[0], new[1:-1], new[-1])

    # -- schemes --------------------------------------------------------------
    #
    # Every scheme is written in increment form: the update adds a solve of
    # terms that vanish identically at a fixed point of the semi-discrete
    # system, so exact steady states (equilibrium, pure phases) are preserved
    # bit for bit, not just to roundoff.

    def step_euler(self, state: State, dt: float) -> State:
        """IMEX Euler: implicit linear solve around an explicit nonlinear shot."""
        return self._advance(state, dt, dt)

    def step_cnab2(self, state: State, dt: float) -> State:
        """Crank-Nicolson linear part + variable-step Adams-Bashforth nonlinear part.

        Bootstraps with an Euler step while the Stepper has taken no step.
        The extrapolated nonlinear term is written ``N + b0 (N_prev - N)``
        with ``b0 = -dt / (2 dt_prev)``.
        """
        if self.dt_prev is None:
            return self.step_euler(state, dt)
        return self._advance(state, dt, 0.5 * dt, -0.5 * dt / self.dt_prev)


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

    The run holds only what its next step reads. It steps a State of its own,
    which shares ``state``'s arrays and starts from a copy of its cache, so
    nothing the run caches lands on the caller's object. Once a step's
    candidate exists, the State it started from is released if the observers
    have seen it; an unobserved one (``cadence > 1``) is kept for the closing
    observer call. The current time is kept beside the State. The Stepper
    empties the cache of every State it steps from, so an observer that
    keeps a State keeps its coefficient arrays, not its views and spectra.
    """
    if cadence < 1:
        raise ValueError("cadence must be >= 1")
    state = replace(state, _cache=dict(state._cache))
    check_state(state, params, step=0, phi_tol=cfg.phi_tol)
    stepper = Stepper(state.grid, params)
    step = stepper.step_euler if cfg.scheme_order == 1 else stepper.step_cnab2
    for obs in observers:
        obs(0, state)

    t_end = cfg.t_end
    t_tol = 1e-14 * max(1.0, abs(t_end))
    t = state.t
    summary = RunSummary(0, t, "t_end")
    steps = seen = 0
    dt_curr: float | None = None
    while t < t_end - t_tol:
        if steps >= cfg.max_steps:
            summary.termination = "max_steps"
            break
        bound = adaptive_dt(state, cfg, params)
        if dt_curr is None or bound < dt_curr:
            dt_curr = bound
        dt = min(dt_curr, t_end - t)
        # land on t_end when roundoff would leave a sliver of at most 1e-9 dt
        final = dt >= t_end - t - max(t_tol, 1e-9 * dt_curr)
        try:
            new = step(state, dt)
            if seen == steps:
                state = None  # observed: nothing reads it again
            if final:
                new = replace(new, t=t_end)
            check_state(new, params, step=steps + 1, phi_tol=cfg.phi_tol)
        except InvariantViolation as err:
            summary.termination, summary.violation = "invariant_violation", err.as_dict()
            break
        # adopt the candidate only once it is admissible, so t_final matches steps
        state, t = new, new.t
        steps += 1
        summary.dt_limits["t_end" if dt < dt_curr else "cap" if dt_curr == cfg.dt else "cfl"] += 1
        if steps % cadence == 0:
            for obs in observers:
                obs(steps, state)
            seen = steps
    if seen != steps:
        for obs in observers:
            obs(steps, state)
    summary.steps, summary.t_final = steps, t
    return summary

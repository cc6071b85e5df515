"""Initial-condition generation.

``random_perturbation`` builds zero-mean band-limited sigma and u together
with a one-sided phase perturbation (phi <= 1 pointwise, so the discrete
phase bound holds from the first snapshot on) and rescales the trio so that

    ||(sigma, u)||_{H^3} + ||grad phi||_{H^2} + ||phi^2 - 1|| = delta

holds to 1e-10. Everything is deterministic given the seed.
"""

from __future__ import annotations

import numpy as np

from .config import ICSpec, RunConfig
from .errors import InfeasibleInitialCondition, InvariantViolation
from .model import PhysParams, State, check_state
from .spectral import Grid, band_limited_noise


def _band_limited_noise(rng: np.random.Generator, grid: Grid, max_mode: int) -> np.ndarray:
    """Zero-mean field with integer modes ``0 < |m| <= max_mode``, unit rms."""
    if max_mode > grid.band_cut():
        raise InfeasibleInitialCondition(
            f"ic.max_mode = {max_mode} exceeds the de-aliased band n/3 = {grid.band_cut()}"
        )
    c = band_limited_noise(rng, grid, max_mode)
    scale = float(np.sqrt(np.mean(grid.inverse(c) ** 2)))
    return c / scale if scale > 0 else c


def _smallness(grid: Grid, sigma_hat, u_hat, psi_hat):
    """The smallness functional of the fields scaled by ``alpha``; monotone in ``alpha``.

    The norms are taken once, so an evaluation costs pointwise work only.
    """
    su_sq = sum(grid.shell_window(grid.shell_spectrum(c), 0, 3) for c in (sigma_hat, u_hat))
    # ||grad psi||^2 + ||D^2 psi||^2 + ||D^3 psi||^2
    gp_sq = grid.shell_window(grid.shell_spectrum(psi_hat), 1, 3)
    psi = grid.inverse(psi_hat)

    def norm(alpha: float) -> float:
        phisq = (1.0 + alpha * psi) ** 2 - 1.0
        l2 = np.sqrt(grid.volume * float(np.mean(phisq**2)))
        return np.sqrt(alpha**2 * su_sq) + alpha * np.sqrt(gp_sq) + l2

    return norm


def _random_perturbation(grid: Grid, ic: ICSpec) -> State:
    rng = np.random.default_rng(ic.seed)
    sigma_hat = _band_limited_noise(rng, grid, ic.max_mode)
    u_hat = np.stack([_band_limited_noise(rng, grid, ic.max_mode) for _ in range(grid.dim)])
    # one-sided phase bump: psi <= 0 keeps phi <= 1 pointwise
    raw = _band_limited_noise(rng, grid, ic.max_mode)
    bump = grid.inverse(raw)
    bump = bump - bump.max()
    psi_hat = grid.forward(bump)

    norm = _smallness(grid, sigma_hat, u_hat, psi_hat)
    target = ic.delta
    lo, hi = 0.0, 1.0
    while norm(hi) < target:
        hi *= 2.0
        if hi > 1e6:
            raise InfeasibleInitialCondition("cannot reach the requested smallness norm")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:  # lo and hi are adjacent floats
            break
        if norm(mid) < target:
            lo = mid
        else:
            hi = mid
    alpha = 0.5 * (lo + hi)

    phi_hat = alpha * psi_hat
    phi_hat[(0,) * grid.dim] += 1.0
    return State(grid, 0.0, alpha * sigma_hat, alpha * u_hat, phi_hat)


def _check_feasible(state: State, params: PhysParams, size: str, phi_tol: float) -> None:
    """Fail fast on an inadmissible initial state; ``size`` names the IC's parameter, ``ic.<key> = <value>``."""
    try:
        check_state(state, params, phi_tol=phi_tol)
    except InvariantViolation as err:
        raise InfeasibleInitialCondition(f"{size} gives an inadmissible initial state: {err}") from err


def _tanh_interface(grid: Grid, width: float) -> State:
    """Two flat interfaces along the first axis; demo profile, not for decay runs."""
    x = grid.meshgrid()[0]
    L = grid.length
    phi1d = np.tanh((x - L / 4.0) / width) - np.tanh((x - 3.0 * L / 4.0) / width) - 1.0
    sigma = np.zeros(grid.shape)
    u = np.zeros((grid.dim,) + grid.shape)
    return State.from_physical(grid, 0.0, sigma, u, phi1d)


def _manufactured(grid: Grid, amplitude: float) -> State:
    """Fixed smooth deterministic perturbation used by convergence studies."""
    xs = grid.meshgrid()
    a = amplitude
    sigma = a * np.sin(2.0 * np.pi * xs[0] / grid.length)
    u = np.zeros((grid.dim,) + grid.shape)
    u[0] = a * np.sin(2.0 * np.pi * xs[-1] / grid.length)
    if grid.dim > 1:
        u[1] = a * np.cos(2.0 * np.pi * xs[0] / grid.length)
    bump = np.ones(grid.shape)
    for x in xs:
        bump = bump * (1.0 - np.cos(2.0 * np.pi * x / grid.length)) / 2.0
    phi = 1.0 - a * bump
    return State.from_physical(grid, 0.0, sigma, u, phi)


def make_initial(cfg: RunConfig) -> State:
    """Build the configured initial state; fails fast if it is infeasible."""
    grid, params, ic = cfg.grid, cfg.phys, cfg.ic
    if ic.kind == "equilibrium":
        return State.equilibrium(grid)
    if ic.kind == "random_perturbation":
        state, size = _random_perturbation(grid, ic), f"ic.delta = {ic.delta:g}"
    elif ic.kind == "tanh_interface":
        state, size = _tanh_interface(grid, ic.width), f"ic.width = {ic.width:g}"
    elif ic.kind == "manufactured":
        state, size = _manufactured(grid, ic.amplitude), f"ic.amplitude = {ic.amplitude:g}"
    else:
        raise InfeasibleInitialCondition(f"unknown ic kind {ic.kind!r}")
    _check_feasible(state, params, size, cfg.step.phi_tol)
    return state

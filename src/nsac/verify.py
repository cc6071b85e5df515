"""Self-check property suite behind the ``verify`` subcommand.

Each check is small enough to run at import-test speed yet sharp enough to
catch a mis-assembled operator: round trips, Parseval, operator inverses,
interpolation equality, ratio ensembles, steady-state exactness, the
split-versus-direct tendency equivalence, alias-free products, and a short
trajectory whose conservation and monotonicity are asserted.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .config import ICSpec, RunConfig
from .diagnostics import SeriesObserver
from .initial import make_initial
from .integrate import StepConfig, run
from .model import PhysParams, State, pressure_prime, rhs
from .spectral import Grid, band_limited_noise, fractional_laplacian, gn_ratios, interpolation_check


@dataclass
class PropertyResult:
    name: str
    passed: bool
    detail: str


def direct_rhs_physical(state: State, params: PhysParams):
    """Independent tendency evaluation straight from the primitive equations.

    Works in physical variables (rho, u, phi) without the h1/h2 perturbation
    split: u_t = [nu Lap u + (nu+lam) grad div u - grad p - eps grad(phi) Lap(phi)] / rho
    - (u.grad)u, etc. Used only as a cross-check oracle.
    """
    g = state.grid
    d = g.dim
    sigma, u, phi = state.sigma(), state.u(), state.phi()
    rho = params.rho_bar + sigma
    ik = g.ik

    grad_sigma = [g.inverse(ik[i] * state.sigma_hat) for i in range(d)]
    lap_u = [g.inverse(-g.k2 * state.u_hat[i]) for i in range(d)]
    div_u_hat = sum(ik[j] * state.u_hat[j] for j in range(d))
    grad_div_u = [g.inverse(ik[i] * div_u_hat) for i in range(d)]
    grad_u = [[g.inverse(ik[j] * state.u_hat[i]) for j in range(d)] for i in range(d)]
    grad_phi = [g.inverse(ik[i] * state.phi_hat) for i in range(d)]
    lap_phi = g.inverse(-g.k2 * state.phi_hat)

    dsigma = np.zeros(g.rshape, dtype=np.complex128)
    for j in range(d):
        dsigma -= ik[j] * g.forward_product(rho * u[j])

    gp = pressure_prime(rho, params)
    du = np.empty((d,) + g.rshape, dtype=np.complex128)
    for i in range(d):
        force = (
            params.nu * lap_u[i]
            + (params.nu + params.lam) * grad_div_u[i]
            - gp * grad_sigma[i]
            - params.epsilon * grad_phi[i] * lap_phi
        )
        advect = sum(u[j] * grad_u[i][j] for j in range(d))
        du[i] = g.forward_product(force / rho - advect)

    mu = (phi**3 - phi) / params.epsilon - (params.epsilon / rho) * lap_phi
    transport = sum(u[j] * grad_phi[j] for j in range(d))
    dphi = g.forward_product(-transport - mu / rho)
    return dsigma, du, dphi


def random_state(rng, grid: Grid, amplitude: float = 1e-2, max_mode: int = 2) -> State:
    """Small band-limited perturbation of the quiescent single phase, ``phi <= 1``."""
    sigma = amplitude * grid.inverse(band_limited_noise(rng, grid, max_mode))
    u = np.stack(
        [amplitude * grid.inverse(band_limited_noise(rng, grid, max_mode)) for _ in range(grid.dim)]
    )
    psi = amplitude * grid.inverse(band_limited_noise(rng, grid, max_mode))
    phi = 1.0 + psi - psi.max()
    return State.from_physical(grid, 0.0, sigma, u, phi)


# ---------------------------------------------------------------------------
# Individual checks
# ---------------------------------------------------------------------------


def check_round_trip(grid: Grid, seed: int) -> PropertyResult:
    rng = np.random.default_rng(seed)
    f = rng.standard_normal(grid.shape)
    back = grid.inverse(grid.forward(f))
    err = float(np.max(np.abs(back - f)) / np.max(np.abs(f)))
    return PropertyResult("transform_round_trip", err <= 1e-12, f"max rel err {err:.3e}")


def check_parseval(grid: Grid, seed: int) -> PropertyResult:
    rng = np.random.default_rng(seed)
    c = band_limited_noise(rng, grid, grid.n // 3)
    quad = grid.volume * float(np.mean(grid.inverse(c) ** 2))
    mode = grid.mode_sum_sq(c)
    err = abs(quad - mode) / mode
    return PropertyResult("parseval_identity", err <= 1e-10, f"rel err {err:.3e}")


def check_fractional_inverse(grid: Grid, seed: int) -> PropertyResult:
    rng = np.random.default_rng(seed)
    c = band_limited_noise(rng, grid, grid.n // 3)
    worst = 0.0
    for s in (0.5, 1.0, 1.5):
        back = fractional_laplacian(grid, fractional_laplacian(grid, c, s), -s)
        err = float(np.max(np.abs(back - c)) / np.max(np.abs(c)))
        worst = max(worst, err)
    return PropertyResult("fractional_power_inverse", worst <= 1e-12, f"max rel err {worst:.3e}")


def check_interpolation(grid: Grid, seed: int) -> PropertyResult:
    rng = np.random.default_rng(seed)
    # single mode: log-linearity in |k| makes the two sides equal
    x = grid.meshgrid()[0]
    single = grid.forward(np.sin(2.0 * x * (2 * np.pi / grid.length)))
    lhs, rhs_ = interpolation_check(grid, single, 1, 1.0)
    eq_err = abs(lhs - rhs_) / rhs_
    ok = eq_err <= 1e-12
    detail = f"single-mode defect {eq_err:.3e}"
    for _ in range(20):
        c = band_limited_noise(rng, grid, grid.n // 3)
        for (l, s) in ((0, 0.5), (1, 1.0), (2, 0.5)):
            lhs, rhs_ = interpolation_check(grid, c, l, s)
            if lhs > rhs_ * (1.0 + 1e-12):
                ok = False
                detail = f"inequality violated at l={l}, s={s}: lhs/rhs = {lhs / rhs_!r}"
    return PropertyResult("interpolation_inequality", ok, detail)


#: interpolation, L6 embedding and L3 interpolation instances: their ensemble
#: max is a stable statistic; the sup-norm instance is checked for boundedness
#: only (sample maxima of sup norms fluctuate too much to pin within percent).
GN_STABLE_CASES = (
    # (l, p, s, r, k, q, theta)
    (1, 2.0, 0, 2.0, 2, 2.0, 0.5),
    (0, 6.0, 0, 2.0, 1, 2.0, 1.0),
    (0, 3.0, 0, 2.0, 1, 2.0, 0.5),
)
GN_SUP_CASE = (0, np.inf, 0, 2.0, 2, 2.0, 0.75)
GN_SUP_CAP = 0.2


def gn_ensemble_max(grid: Grid, seed: int) -> dict:
    """The largest ratio of each case over 100 band-limited fields with modes up to 8."""
    cases = GN_STABLE_CASES + (GN_SUP_CASE,)
    rng = np.random.default_rng(seed)
    worst = {case: 0.0 for case in cases}
    for _ in range(100):
        c = band_limited_noise(rng, grid, 8)
        for case, ratio in zip(cases, gn_ratios(grid, c, cases)):
            worst[case] = max(worst[case], ratio)
    return worst


def check_gn_ensemble(seed: int) -> PropertyResult:
    grid = Grid(dim=3, n=32, length=2 * np.pi)
    base = gn_ensemble_max(grid, seed)
    other = gn_ensemble_max(grid, seed + 1)
    ok = all(np.isfinite(v) for v in list(base.values()) + list(other.values()))
    spreads = []
    for case in GN_STABLE_CASES:
        a, b = base[case], other[case]
        spread = abs(a - b) / max(a, b)
        spreads.append(spread)
        if spread > 0.05:
            ok = False
    if base[GN_SUP_CASE] > GN_SUP_CAP or other[GN_SUP_CASE] > GN_SUP_CAP:
        ok = False
    return PropertyResult(
        "gn_ratio_ensemble",
        ok,
        f"max ratios {[f'{base[c]:.3f}' for c in GN_STABLE_CASES]}, "
        f"sup-case {base[GN_SUP_CASE]:.3f} < {GN_SUP_CAP}, seed spread {max(spreads):.3f}",
    )


def check_steady_state(grid: Grid, params: PhysParams) -> PropertyResult:
    worst = 0.0
    for sign in (1.0, -1.0):
        tend = rhs(State.equilibrium(grid, phi_value=sign), params)
        worst = max(worst, float(np.max(np.abs(tend))))
    return PropertyResult("steady_state_exact", worst <= 1e-15, f"max tendency {worst:.3e}")


def check_split_equivalence(grid: Grid, params: PhysParams, seed: int) -> PropertyResult:
    rng = np.random.default_rng(seed)
    state = random_state(rng, grid, amplitude=1e-2, max_mode=max(2, grid.n // 8))
    split = rhs(state, params)
    direct = direct_rhs_physical(state, params)
    worst = 0.0
    for a, b in zip((split[0], split[1:-1], split[-1]), direct):
        scale = max(float(np.max(np.abs(b))), 1e-300)
        worst = max(worst, float(np.max(np.abs(a - b))) / scale)
    return PropertyResult("split_vs_direct_rhs", worst <= 1e-9, f"max rel err {worst:.3e}")


def check_product_dealiasing(grid: Grid, seed: int) -> PropertyResult:
    """Quadratic products must be alias-free after the two-thirds cut.

    Oracle: zero-pad both factors onto a double grid, multiply there, truncate
    back to ``|m| <= n // 3`` on every axis. Detects a dropped de-aliasing
    step immediately.
    """
    rng = np.random.default_rng(seed)
    fa = grid.inverse(band_limited_noise(rng, grid, grid.n // 3))
    fb = grid.inverse(band_limited_noise(rng, grid, grid.n // 3))
    prod = grid.forward_product(fa * fb)

    fine = Grid(dim=grid.dim, n=2 * grid.n, length=grid.length)
    sel = _coarse_modes(grid, fine)
    pa = np.zeros(fine.rshape, dtype=np.complex128)
    pb = np.zeros(fine.rshape, dtype=np.complex128)
    pa[sel], pb[sel] = grid.forward(fa), grid.forward(fb)
    exact = fine.forward(fine.inverse(pa) * fine.inverse(pb))[sel]
    exact[reduce(np.maximum, np.ix_(*[np.abs(m) for m in grid.modes])) > grid.n // 3] = 0

    scale = max(float(np.max(np.abs(exact))), 1e-300)
    err = float(np.max(np.abs(prod - exact))) / scale
    return PropertyResult("quadratic_product_alias_free", err <= 1e-13, f"max rel err {err:.3e}")


def _coarse_modes(coarse: Grid, fine: Grid):
    """Index of the coarse grid's modes within the fine grid's rfft layout."""
    return np.ix_(*[m % fine.n if ax < coarse.dim - 1 else m for ax, m in enumerate(coarse.modes)])


def check_mini_run(grid: Grid, params: PhysParams, seed: int) -> PropertyResult:
    cfg = RunConfig(
        grid=grid,
        phys=params,
        step=StepConfig(dt=0.02, t_end=1.0, scheme_order=2),
        ic=ICSpec(kind="random_perturbation", delta=1e-2, max_mode=3, seed=seed),
    )
    series = SeriesObserver(cfg)
    summary = run(make_initial(cfg), cfg.step, params, observers=(series,))
    v = series.verdicts()
    ok = summary.termination == "t_end" and v["energy_monotone"] and v["admissible"]
    return PropertyResult(
        "mini_run_invariants",
        ok,
        f"termination {summary.termination}, mass drift {v['mass_drift_max']:.2e}, "
        f"max |phi| {v['phi_max_overall']:.9f}, energy monotone {v['energy_monotone']}",
    )


@contextlib.contextmanager
def disable_dealiasing():
    """Inject the "dropped de-aliasing" fault while the context lasts.

    ``Grid.band_cut`` keeps every mode, so the transforms of products are
    full ones and the stepper cuts nothing.
    """
    original = Grid.band_cut
    Grid.band_cut = lambda self: self.n // 2
    try:
        yield
    finally:
        Grid.band_cut = original


#: The smallest grid the suite runs on. Below it the mini run's initial
#: condition (``max_mode`` 3) does not fit the ``n/3`` band, and the split
#: check's random ``phi^2`` has modes beyond the band, so neither could pass.
MIN_SUITE_N = 16


def run_property_suite(n: int = 16, seed: int = 0, inject_fault: str | None = None):
    """Run every check on an ``n^3`` grid (a power of two >= ``MIN_SUITE_N``);
    ``inject_fault='no_dealias'`` demonstrates detection. The exception is
    `check_gn_ensemble`, which always builds its own 32^3 grid.

    Raises ``ValueError`` before any check for an ``n`` or ``seed`` the suite
    cannot run with.
    """
    if n < MIN_SUITE_N or n & (n - 1):
        raise ValueError(f"n = {n}: the property suite needs a power of two >= {MIN_SUITE_N}")
    if seed < 0:
        raise ValueError(f"seed = {seed}: the suite's random states need a seed >= 0")
    grid = Grid(dim=3, n=n, length=2 * np.pi)
    params = PhysParams()
    checks = [
        lambda: check_round_trip(grid, seed),
        lambda: check_parseval(grid, seed + 1),
        lambda: check_fractional_inverse(grid, seed + 2),
        lambda: check_interpolation(grid, seed + 3),
        lambda: check_gn_ensemble(seed + 4),
        lambda: check_steady_state(grid, params),
        lambda: check_split_equivalence(grid, params, seed + 5),
        lambda: check_product_dealiasing(grid, seed + 6),
        lambda: check_mini_run(grid, params, seed + 7),
    ]
    if inject_fault == "no_dealias":
        fault = disable_dealiasing()
    elif inject_fault in (None, "none"):
        fault = contextlib.nullcontext()
    else:
        raise ValueError(f"unknown fault {inject_fault!r}")
    with fault:
        return [c() for c in checks]

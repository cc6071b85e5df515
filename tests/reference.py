"""Reference implementations that only the tests compare against.

The dense per-mode linear operator, evolved with scipy's ``expm``, is the
independent reference for ``model.LinearSymbol``, the oracle's closed-form
longitudinal gains and criterion 6. The Sobolev-type norms are plain mode
sums, which the diagnostics' shell-spectrum paths are checked against.
`profile_amplitude` writes out the radial amplitude an ``oracle.DataProfile``
stands for.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from nsac.model import PhysParams
from nsac.oracle import DataProfile
from nsac.spectral import Grid, _require_zero_mean


@dataclass(frozen=True)
class SymbolBlock:
    """Linear evolution operator at one wavenumber.

    ``acoustic`` is the (1+dim)x(1+dim) matrix acting on (sigma_hat, u_hat);
    ``phase_factor`` is the scalar rate multiplying phi_hat.
    """

    k: np.ndarray
    acoustic: np.ndarray
    phase_factor: float


def build_symbol(k, params: PhysParams) -> SymbolBlock:
    """Assemble the per-mode linear operator; the zero mode is conserved."""
    k = np.asarray(k, dtype=np.float64)
    d = k.size
    a, b = params.shear_diffusivity, params.longitudinal_diffusivity
    A = np.zeros((1 + d, 1 + d), dtype=np.complex128)
    k2 = float(k @ k)
    if k2 > 0:
        A[0, 1:] = -1j * params.rho_bar * k
        A[1:, 0] = -1j * params.sound_coupling * k
        A[1:, 1:] = -a * k2 * np.eye(d) - (b - a) * np.outer(k, k)
    return SymbolBlock(k=k, acoustic=A, phase_factor=-params.phase_diffusivity * k2)


def evolve_mode(block: SymbolBlock, init: np.ndarray, t: float) -> np.ndarray:
    """Apply ``exp(t A)`` to ``(sigma_hat, u_hat)`` and the heat factor to ``phi_hat``.

    ``init`` stacks the amplitudes as ``[sigma, u_1..u_d, phi]``.
    """
    if t < 0:
        raise ValueError(f"t must be nonnegative, got {t}")
    init = np.asarray(init, dtype=np.complex128)
    n_acu = block.acoustic.shape[0]
    if init.size != n_acu + 1:
        raise ValueError(f"expected {n_acu + 1} amplitudes, got {init.size}")
    out = np.empty_like(init)
    out[:n_acu] = expm(t * block.acoustic) @ init[:n_acu]
    out[n_acu] = np.exp(block.phase_factor * t) * init[n_acu]
    return out


def sobolev_norm(grid: Grid, coeffs: np.ndarray, l: int) -> float:
    """``||f||`` weighted by ``|k|^l`` (the homogeneous derivative seminorm)."""
    if l < 0 or int(l) != l:
        raise ValueError(f"derivative order must be a non-negative integer, got {l}")
    return float(np.sqrt(grid.shell_sum(grid.shell_spectrum(coeffs), float(l))))


def hk_norm_sq(grid: Grid, coeffs: np.ndarray, k: int) -> float:
    """Squared inhomogeneous Sobolev norm ``sum_{j<=k} ||D^j f||^2``."""
    return grid.shell_window(grid.shell_spectrum(coeffs), 0, k)


def negative_norm(grid: Grid, coeffs: np.ndarray, s: float) -> float:
    """``||f||`` weighted by ``|k|^(-s)``, defined for ``0 < s < 3/2``.

    Low-frequency content controls algebraic decay rates, which is why the
    harness tracks these norms; the upper limit 3/2 matches the regime in
    which the nonlinear estimates close.
    """
    if not (0.0 < s < 1.5):
        raise ValueError(f"negative-order index s must lie in (0, 1.5), got {s}")
    _require_zero_mean(grid, coeffs, "negative_norm")
    return float(np.sqrt(grid.shell_sum(grid.shell_spectrum(coeffs), -s)))


def profile_amplitude(profile: DataProfile, r: np.ndarray) -> np.ndarray:
    """The radial amplitude ``a(r)`` of ``profile``: ``r^beta`` (flat for ``l1``) on ``r <= 1``, zero beyond."""
    r = np.asarray(r, dtype=np.float64)
    inside = r <= 1.0
    if profile.kind == "l1":
        return inside.astype(np.float64)
    with np.errstate(divide="ignore"):
        a = np.where(r > 0, r, 1.0) ** profile.beta
    at_zero = 1.0 if profile.beta == 0 else 0.0
    return np.where(inside & (r > 0), a, np.where(inside, at_zero, 0.0))

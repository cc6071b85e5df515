"""Exact evolution of the constant-coefficient linearization on whole space.

Linearized around the quiescent single-phase state, the system decouples in
Fourier space into the operator ``B`` of ``model.LinearSymbol``: a scalar
heat flow for the phase field and an acoustic block coupling ``sigma_hat``
with the velocity. Splitting the velocity into components parallel and
transverse to ``k`` reduces the block to a 2x2 longitudinal system plus
scalar transverse decay, so squared derivative norms on R^3 become radial
integrals

    N_l(t) = 4 pi * int r^(2l+2) |amplification(t, r)|^2 a(r)^2 dr

over the radial data profile ``a``. These integrals are the ground truth the
nonlinear solver's decay diagnostics are checked against: data whose profile
behaves like ``r^(s-3/2)`` near the origin yields ``N_l(t) ~ t^-(l+s)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import QuadratureError
from .model import PhysParams

QUADRATURE_RTOL = 1e-8
#: How far a ``power`` profile sits inside the negative-order space of its ``s``.
PROFILE_MARGIN = 0.01
#: Fewest samples inside the window that `fit_exponent` fits a power law to.
MIN_FIT_SAMPLES = 10
_GAUSS_NODES, _GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(16)
#: Sub-intervals per envelope call in the composite Gauss-Legendre part. The
#: finest level splits each ladder panel into 64, so blocks of 64 x 16 nodes
#: keep the largest temporary near one panel's size (the first block of a level
#: also carries 24 origin nodes per power) while one call serves many panels
#: at coarse levels.
_BLOCK_INTERVALS = 64


# ---------------------------------------------------------------------------
# Radial data profiles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DataProfile:
    """Radial spectral amplitude ``a(r)`` of the initial data, supported on r <= 1.

    ``kind='l1'`` is the flat profile ``a = 1`` on the unit ball (the endpoint
    case, squared norms decaying like ``t^-(l+3/2)``). ``kind='power'`` shapes
    ``a = r^(s - 3/2 + PROFILE_MARGIN)``, which puts the data just inside the
    negative-order space of index ``s`` and produces
    ``t^-(l+s+PROFILE_MARGIN)``.
    """

    s: float
    kind: str = "power"

    def __post_init__(self):
        if self.kind not in ("l1", "power"):
            raise ValueError(f"unknown profile kind {self.kind!r}")
        if not (0.0 <= self.s < 1.5):
            raise ValueError(f"regularity index s must lie in [0, 1.5), got {self.s}")
        # finiteness of int |k|^(-2s) a^2 dk near the origin
        if 2.0 - 2.0 * self.s + 2.0 * self.beta <= -1.0:
            raise ValueError("profile is not in the requested negative-order space")

    @property
    def beta(self) -> float:
        return 0.0 if self.kind == "l1" else self.s - 1.5 + PROFILE_MARGIN


# ---------------------------------------------------------------------------
# Closed-form longitudinal gains, vectorized over |k|^2
# ---------------------------------------------------------------------------


def _longitudinal_gains(k2: np.ndarray, t: float, params: PhysParams):
    """Squared gains ``|exp(t A2) (1, 1)|^2`` of the 2x2 longitudinal block, row by row.

    ``A2 = [[0, -i rho_bar r], [-i p'(rho_bar)/rho_bar r, -b r^2]]`` with
    ``r^2 = k2`` and ``b = (2 nu + lam)/rho_bar``. With ``m = -b k2 / 2`` and
    ``q = m^2 - p' k2``, ``exp(t A2) = C I + S (A2 - m I)`` for the real
    ``C = e^(mt) cosh(sqrt(q) t)`` and ``S = e^(mt) sinh(sqrt(q) t)/sqrt(q)``.
    An underdamped mode (``q <= 0``) takes them as ``cos`` and ``t sinc`` of
    ``w = sqrt(-q)``; an overdamped one builds both from ``exp((m +- d) t)``,
    ``d = sqrt(q)``, whose exponents are nonpositive, with ``expm1`` for the
    difference, so nothing overflows or cancels however stiff the mode.
    Returns the sigma row ``(C - S m)^2 + (rho_bar r S)^2`` and the u row
    ``(C + S m)^2 + (p'/rho_bar r S)^2``.
    """
    k2 = np.asarray(k2, dtype=np.float64)
    m = -0.5 * params.longitudinal_diffusivity * k2
    q = m * m - params.p_prime_bar * k2
    C = np.empty_like(k2)
    S = np.empty_like(k2)
    under = q <= 0
    over = ~under
    decay = np.exp(m[under] * t)
    wt = np.sqrt(-q[under]) * t
    C[under] = decay * np.cos(wt)
    S[under] = decay * t * np.sinc(wt / np.pi)
    d = np.sqrt(q[over])
    slow = np.exp((m[over] + d) * t)
    C[over] = 0.5 * (slow + np.exp((m[over] - d) * t))
    S[over] = -slow * np.expm1(-2.0 * d * t) / (2.0 * d)
    Sm = S * m
    S2k2 = S * S * k2
    sigma = (C - Sm) ** 2 + params.rho_bar**2 * S2k2
    u = (C + Sm) ** 2 + params.sound_coupling**2 * S2k2
    return sigma, u


def check_component(component: str) -> None:
    """Raise ``ValueError`` unless ``component`` is a field the oracle evolves."""
    if component not in ("phi", "sigma", "u"):
        raise ValueError(f"unknown component {component!r}; use sigma, u or phi")


def _decay_envelope(t: float, component: str, params: PhysParams):
    """Smooth part of the integrand: squared amplification factor at radius r.

    The power-law weight ``r^(2l+2) a(r)^2 = r^p`` is kept separate so the
    quadrature can treat its singularity at the origin exactly, and so one
    envelope serves every ``(l, profile)`` of a component at one ``t``.
    """
    check_component(component)

    def g(r: np.ndarray) -> np.ndarray:
        k2 = r**2
        if component == "phi":
            return np.exp(-2.0 * params.phase_diffusivity * k2 * t)
        if component == "sigma":
            return _longitudinal_gains(k2, t, params)[0]
        trans2 = 2.0 * np.exp(-2.0 * params.shear_diffusivity * k2 * t)
        return _longitudinal_gains(k2, t, params)[1] + trans2

    return g


_JACOBI_CACHE: dict[float, tuple[np.ndarray, np.ndarray]] = {}
#: Nodes of the origin panel's Gauss-Jacobi rule.
_JACOBI_NODES = 24


def _jacobi_rule(p: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Jacobi nodes/weights for ``(1+x)^p`` on [-1, 1] (alpha = 0).

    Golub and Welsch (Math. Comp. 23, 1969): the nodes are the eigenvalues of
    the symmetric tridiagonal Jacobi matrix of the orthonormal three-term
    recurrence, and each weight is ``int (1+x)^p dx = 2^(p+1)/(p+1)`` times
    the squared first component of the node's unit eigenvector.
    """
    if p not in _JACOBI_CACHE:
        # sqrt(b_(j+1)) q_(j+1) = (x - a_j) q_j - sqrt(b_j) q_(j-1) for the Jacobi
        # polynomials (0, p): a_j on the diagonal, sqrt(b_j) beside it
        k = np.arange(1.0, _JACOBI_NODES)
        s = 2.0 * k + p
        diag = np.concatenate(([p / (p + 2.0)], p * p / (s * (s + 2.0))))
        off = 2.0 * k * (k + p) / (s * np.sqrt(s * s - 1.0))
        x, v = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
        _JACOBI_CACHE[p] = x, 2.0 ** (p + 1.0) / (p + 1.0) * v[0] ** 2
    return _JACOBI_CACHE[p]


#: Refinement levels: sub-intervals per ladder panel, which is also the origin panel's shrink.
_LEVELS = (1, 2, 4, 8, 16, 32, 64)


def _adaptive_radial(g, powers, t: float, rate: float) -> list[float]:
    """Adaptive quadratures of ``r^p g(r)`` over ``[0, 1]``, one per ``p > -1`` in ``powers``.

    The origin panel uses Gauss-Jacobi quadrature matched to each ``r^p``
    weight (exact however weak the integrability); the rest is composite
    Gauss-Legendre on a ladder graded around the diffusive scale
    ``1/sqrt(rate*t)``, which depends on no power. Refinement shrinks the
    origin panel and doubles the subdivision; each power stops at the first
    level whose value agrees with its previous level's to ``QUADRATURE_RTOL``. At each
    level ``g`` is evaluated once per block of ladder nodes for every power
    still refining, the first block's call also taking each such power's
    origin nodes; every power's integrand of a block is one stacked array,
    summed row by row. Each power adds its origin panel and then its blocks in
    ladder order, so every value is the one a quadrature of that power alone
    returns, bit for bit.
    """
    powers = [float(p) for p in powers]
    for p in powers:
        if p <= -1.0:
            raise ValueError(f"radial weight exponent must exceed -1, got {p}")
    if not powers:
        return []
    r_eff = min(1.0, 1.0 / np.sqrt(max(rate * t, 1.0)))
    # each power's origin rule as a row
    rule_nodes = np.stack([_jacobi_rule(p)[0] for p in powers])
    rule_weights = np.stack([_jacobi_rule(p)[1] for p in powers])
    values: list[float] = [0.0] * len(powers)
    residuals = [np.inf] * len(powers)
    active = list(range(len(powers)))

    for level, n_sub in enumerate(_LEVELS):
        first = r_eff / (4.0 * n_sub)
        # origin panel [0, first]: int r^p g = (first/2)^(p+1) * sum wj g(nodes)
        origin = first * 0.5 * (1.0 + rule_nodes[active])
        edges = [first]
        scale = first
        while edges[-1] < 1.0:
            scale *= 1.6
            edges.append(min(1.0, edges[-1] + scale))
        edges = np.asarray(edges)
        # every ladder panel split into n_sub equal sub-intervals, flattened
        sub = np.linspace(edges[:-1], edges[1:], n_sub + 1, axis=1)
        mid = 0.5 * (sub[:, :-1] + sub[:, 1:]).reshape(-1, 1)
        half = 0.5 * (sub[:, 1:] - sub[:, :-1]).reshape(-1, 1)
        for start in range(0, len(mid), _BLOCK_INTERVALS):
            block = slice(start, start + _BLOCK_INTERVALS)
            nodes = mid[block] + half[block] * _GAUSS_NODES
            if start:
                envelope = g(nodes.ravel())
            else:  # the first block's call also carries every origin panel
                envelope = g(np.concatenate((origin.ravel(), nodes.ravel())))
                at_origin = (rule_weights[active] * envelope[: origin.size].reshape(origin.shape)).sum(axis=1)
                totals = [(first / 2.0) ** (powers[i] + 1.0) * float(s) for i, s in zip(active, at_origin)]
                envelope = envelope[origin.size :]
            # one scalar exponent per power: an exponent array loses numpy's
            # fast paths for the integer powers and moves values by an ulp;
            # the products of half * (r^p g) * W run in place, in that order
            terms = np.stack([nodes ** powers[i] for i in active])
            terms *= envelope.reshape(nodes.shape)
            terms *= half[block]
            terms *= _GAUSS_WEIGHTS
            for j, block_sum in enumerate(terms.reshape(len(active), -1).sum(axis=1)):
                totals[j] += float(block_sum)
        refining = []
        for i, curr in zip(active, totals):
            if level:
                residuals[i] = abs(curr - values[i])
            values[i] = curr
            if not residuals[i] <= QUADRATURE_RTOL * max(abs(curr), 1e-300):
                refining.append(i)
        active = refining
        if not active:
            return values
    raise QuadratureError("radial quadrature did not converge", residual=residuals[active[0]])


def decay_norms(pairs, t: float, component: str, params: PhysParams) -> list[float]:
    """Squared derivative norm ``4 pi int r^(2l+2) |w_hat(t, r)|^2 dr`` on R^3
    of every ``(l, profile)`` in ``pairs`` at one ``t``, in order.

    Each field starts from the profile amplitude (velocity: one longitudinal
    plus two transverse polarizations). At ``t = 0`` a norm is the plain
    squared data norm; it decreases in ``t`` and its log-log slope against
    ``1 + t`` is the decay exponent under test. The amplification factor
    depends only on ``component`` and ``t``, so every pair integrates it on
    the same ladder nodes, evaluated once per node for all of them. Each
    value equals that of a call with its pair alone, bit for bit; nothing is
    kept beyond the call.
    """
    pairs = list(pairs)
    for l, _ in pairs:
        if not (0 <= l <= 3):
            raise ValueError(f"derivative order l must lie in [0, 3], got {l}")
    if not 0.0 <= t < np.inf:  # also false for a NaN, which no quadrature converges on
        raise ValueError("t must be finite and nonnegative")
    g = _decay_envelope(t, component, params)
    powers = [2.0 * l + 2.0 + 2.0 * profile.beta for l, profile in pairs]
    if component == "phi":
        rate = 2.0 * params.phase_diffusivity
    else:
        rate = params.longitudinal_diffusivity
    return [4.0 * np.pi * value for value in _adaptive_radial(g, powers, t, rate)]


# ---------------------------------------------------------------------------
# Decay-exponent fitting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DecayFit:
    """Least-squares power-law fit ``value ~ prefactor * (1+t)^exponent``.

    ``target``/``passed`` are filled by the diagnostics layer when the fit is
    compared against an expected exponent; ``r2`` near one certifies that the
    window is still in the algebraic regime (an exponential tail drags it
    down, which is how contaminated windows are flagged).
    """

    exponent: float
    prefactor: float
    r2: float
    window: tuple[float, float]
    n_samples: int
    target: float | None = None
    tol: float | None = None
    passed: bool | None = None

    def as_dict(self) -> dict:
        out = {
            "exponent": self.exponent,
            "prefactor": self.prefactor,
            "r2": self.r2,
            "window": list(self.window),
            "n_samples": self.n_samples,
        }
        if self.target is not None:
            out.update(target=self.target, tol=self.tol, passed=bool(self.passed))
        return out


def fit_exponent(t, values, window: tuple[float, float]) -> DecayFit:
    """Fit ``log(values)`` against ``log(1+t)`` over the window.

    Requires one value per sample time, finite sample times and at least
    ``MIN_FIT_SAMPLES`` finite, strictly positive samples inside the window.
    """
    t = np.asarray(t, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if t.shape != values.shape:
        raise ValueError(f"t and values must have the same shape, got {t.shape} and {values.shape}")
    if not np.all(np.isfinite(t)):
        raise ValueError("sample times t must be finite")
    lo, hi = window
    sel = (t >= lo) & (t <= hi)
    if int(np.count_nonzero(sel)) < MIN_FIT_SAMPLES:
        raise ValueError(f"need at least {MIN_FIT_SAMPLES} samples in window [{lo}, {hi}], got {np.count_nonzero(sel)}")
    v = values[sel]
    if not np.all((v > 0) & (v < np.inf)):  # also false for a NaN
        raise ValueError("series must be finite and strictly positive inside the fit window")
    x = np.log1p(t[sel])
    y = np.log(v)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return DecayFit(
        exponent=float(slope),
        prefactor=float(np.exp(intercept)),
        r2=float(r2),
        window=(float(lo), float(hi)),
        n_samples=int(np.count_nonzero(sel)),
    )

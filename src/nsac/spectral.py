"""Discrete Fourier machinery on a periodic box.

Everything downstream (model evaluation, time stepping, diagnostics) is built
on the conventions fixed here:

* Coefficients use the amplitude normalization ``f(x) = sum_k F_k exp(i k.x)``
  with wavenumbers ``k = 2*pi*m/L`` for integer mode vectors ``m``, stored in
  ``rfftn`` layout (last axis halved, Hermitian half implicit).
* ``||f||_L2^2 = V * sum_k |F_k|^2`` where ``V`` is the box volume; the
  ``l``-th derivative norm is the mode sum weighted by ``|k|^(2l)``, read off
  the integer shells ``|k|^2 = k0^2 |m|^2`` of the shell spectrum ``S(|m|^2)``.
* Products of fields are de-aliased with the two-thirds rule; cubic terms must
  be assembled from pairwise de-aliased products.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce

import numpy as np
from scipy import fft as _fft

_FFT_WORKERS = -1  # scipy interprets -1 as "all available cores"


def _transform_in_place(transform, view: np.ndarray, axes: tuple[int, ...]) -> None:
    """Complex ``transform`` of ``view`` over ``axes``, stored back into ``view``."""
    res = transform(view, axes=axes, norm="forward", overwrite_x=True, workers=_FFT_WORKERS)
    if not np.may_share_memory(res, view):  # scipy may decline to overwrite its input
        view[...] = res


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class Grid:
    """Cubic periodic box ``[0, length)^dim`` sampled on ``n`` points per axis.

    Precomputes the derivative symbol ``ik`` (``1j * k`` per axis) and
    ``|k|^2``, the two-thirds de-aliasing mask, and the Hermitian doubling
    weights and integer shell index used by every mode sum.
    """

    dim: int
    n: int
    length: float
    # derived once in __post_init__; equality, hash and repr read (dim, n, length) only
    shape: tuple = field(init=False, repr=False, compare=False)
    rshape: tuple = field(init=False, repr=False, compare=False)
    modes: tuple = field(init=False, repr=False, compare=False)
    ik: tuple = field(init=False, repr=False, compare=False)
    k2: np.ndarray = field(init=False, repr=False, compare=False)
    weight: np.ndarray = field(init=False, repr=False, compare=False)
    dealias_mask: np.ndarray = field(init=False, repr=False, compare=False)
    shell: np.ndarray = field(init=False, repr=False, compare=False)
    shell_k2: np.ndarray = field(init=False, repr=False, compare=False)
    volume: float = field(init=False, repr=False, compare=False)
    dx: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.dim not in (1, 2, 3):
            raise ValueError(f"dim must be 1, 2 or 3, got {self.dim}")
        if self.n < 8 or not _is_power_of_two(self.n):
            raise ValueError(f"n must be a power of two >= 8, got {self.n}")
        if not self.length > 0:
            raise ValueError(f"box length must be positive, got {self.length}")

        n, dim = self.n, self.dim
        shape = (n,) * dim
        rshape = (n,) * (dim - 1) + (n // 2 + 1,)
        k0 = 2.0 * np.pi / self.length

        # integer mode numbers per axis (full layout except the last, rfft half)
        modes = [np.rint(np.fft.fftfreq(n) * n).astype(np.int64) for _ in range(dim - 1)]
        modes.append(np.arange(n // 2 + 1, dtype=np.int64))
        kvec = []
        shell = np.zeros(rshape, dtype=np.int64)  # integer |m|^2, 0 .. dim (n/2)^2
        for ax, m in enumerate(modes):
            sh = [1] * dim
            sh[ax] = m.size
            kvec.append((k0 * m.astype(np.float64)).reshape(sh))
            shell += (m * m).reshape(sh)
        shell_k2 = k0**2 * np.arange(dim * (n // 2) ** 2 + 1, dtype=np.float64)  # |k|^2 per shell
        k2 = reduce(np.add, (np.broadcast_to(k * k, rshape) for k in kvec)).copy()
        ik = tuple(1j * k for k in kvec)  # the derivative symbol per axis

        # Hermitian weights: interior half-axis modes stand for a conjugate pair
        wlast = np.ones(n // 2 + 1)
        wlast[1:] = 2.0
        if n % 2 == 0:
            wlast[-1] = 1.0
        weight = np.broadcast_to(wlast.reshape((1,) * (dim - 1) + (-1,)), rshape).copy()

        cut = n // 3
        mask = np.ones(rshape, dtype=bool)
        for ax, m in enumerate(modes):
            sh = [1] * dim
            sh[ax] = m.size
            mask &= (np.abs(m) <= cut).reshape(sh)

        for arr in (*ik, k2, weight, mask, shell, shell_k2):
            arr.flags.writeable = False
        derived = dict(
            shape=shape,
            rshape=rshape,
            modes=tuple(modes),
            ik=ik,
            k2=k2,
            weight=weight,
            dealias_mask=mask,
            shell=shell,
            shell_k2=shell_k2,
            volume=self.length**dim,
            dx=self.length / n,
        )
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    # -- geometry -----------------------------------------------------------

    def axis_coords(self):
        """1-D coordinate array shared by every axis."""
        return np.arange(self.n) * self.dx

    def meshgrid(self):
        x = self.axis_coords()
        return np.meshgrid(*([x] * self.dim), indexing="ij")

    # -- transforms ---------------------------------------------------------

    def forward(self, values: np.ndarray) -> np.ndarray:
        """Real field on the grid -> amplitude-normalized rfft coefficients."""
        if values.shape != self.shape:
            raise ValueError(f"field shape {values.shape} != grid shape {self.shape}")
        return _fft.rfftn(values, norm="forward", workers=_FFT_WORKERS)

    def inverse(self, coeffs: np.ndarray) -> np.ndarray:
        """Amplitude-normalized coefficients -> real field on the grid."""
        return _fft.irfftn(coeffs, s=self.shape, norm="forward", workers=_FFT_WORKERS)

    def forward_many(self, values: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Batched forward over a leading stack axis, written into ``out``.

        Nothing is allocated: a real transform of the last axis into ``out``,
        then an in-place complex transform of the others. Since ``n`` is a
        power of two, the two partial scalings multiply to ``1/n^dim`` exactly
        and the result equals scipy's one-dispatch ``rfftn`` bit for bit.
        """
        np.fft.rfft(values, axis=-1, norm="forward", out=out)
        if self.dim > 1:
            _transform_in_place(_fft.fftn, out, tuple(range(1, self.dim)))
        return out

    def inverse_many(self, coeffs: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Batched inverse over a leading stack axis.

        With ``out`` the fields are written there and ``coeffs`` is used as
        scratch (overwritten): an in-place complex transform of the leading
        spatial axes, then a real transform of the last axis into ``out``.
        That is the order scipy's one-dispatch ``irfftn`` takes, and each line
        sees the same input, so the result is the same bit for bit.
        """
        if out is None:
            axes = tuple(range(1, self.dim + 1))
            return _fft.irfftn(coeffs, s=self.shape, axes=axes, norm="forward", workers=_FFT_WORKERS)
        if self.dim > 1:
            _transform_in_place(_fft.ifftn, coeffs, tuple(range(1, self.dim)))
        return np.fft.irfft(coeffs, n=self.n, axis=-1, norm="forward", out=out)

    def divergence(
        self, coeffs: np.ndarray, out: np.ndarray | None = None, scratch: np.ndarray | None = None
    ) -> np.ndarray:
        """``i k.F`` of a ``(dim, *rshape)`` stack, written into ``out`` if given.

        ``scratch``, one spectral field, holds each term after the first.
        """
        out = np.multiply(self.ik[0], coeffs[0], out=out)
        for j in range(1, self.dim):
            out += np.multiply(self.ik[j], coeffs[j], out=scratch)
        return out

    def dealias(self, coeffs: np.ndarray, in_place: bool = False) -> np.ndarray:
        """Zero the modes beyond the two-thirds cut, in ``coeffs`` itself if ``in_place``."""
        return np.multiply(coeffs, self.dealias_mask, out=coeffs if in_place else None)

    def forward_product(self, values: np.ndarray) -> np.ndarray:
        """Transform a pointwise product and de-alias the result."""
        return self.dealias(self.forward(values))

    # -- mode sums ----------------------------------------------------------

    def shell_spectrum(self, coeffs: np.ndarray) -> np.ndarray:
        """``S(m2)``: ``weight |F|^2`` summed over each shell and over any leading stack axes."""
        mag2 = np.sum(coeffs.real**2 + coeffs.imag**2, axis=tuple(range(coeffs.ndim - self.dim)))
        return np.bincount(self.shell.ravel(), weights=(self.weight * mag2).ravel(), minlength=self.shell_k2.size)

    def shell_sum(self, spectrum: np.ndarray, order: float = 0.0) -> float:
        """``V * sum_m2 S(m2) |k|^(2*order)``; the zero shell counts only at order 0."""
        if order == 0:
            return self.volume * float(np.sum(spectrum))
        return self.volume * float(np.dot(spectrum[1:], self.shell_k2[1:] ** order))

    def shell_window(self, spectrum: np.ndarray, lo: int, hi: int) -> float:
        """``sum_{j=lo..hi} ||D^j f||^2`` from the shell spectrum of ``f``."""
        return sum(self.shell_sum(spectrum, j) for j in range(lo, hi + 1))

    def mode_sum_sq(self, coeffs: np.ndarray, order: float = 0.0) -> float:
        """``V * sum_k |k|^(2*order) |F_k|^2``; order 0 is Parseval's sum and needs no shells."""
        if order == 0:
            return self.volume * float(np.sum(self.weight * (coeffs.real**2 + coeffs.imag**2)))
        return self.shell_sum(self.shell_spectrum(coeffs), order)

    def mean_value(self, coeffs: np.ndarray) -> float:
        return float(coeffs[(0,) * self.dim].real)


# ---------------------------------------------------------------------------
# Spectral fields
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpectralField:
    """Immutable complex coefficient array of a real field on a :class:`Grid`.

    The rfft layout keeps the redundant Hermitian half implicit.
    """

    grid: Grid
    coeffs: np.ndarray

    def __post_init__(self):
        if self.coeffs.shape != self.grid.rshape:
            raise ValueError(
                f"coefficient shape {self.coeffs.shape} != rfft layout {self.grid.rshape}"
            )
        c = np.ascontiguousarray(self.coeffs, dtype=np.complex128)
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    @classmethod
    def from_physical(cls, grid: Grid, values: np.ndarray) -> "SpectralField":
        return cls(grid, grid.forward(np.asarray(values, dtype=np.float64)))

    def to_physical(self) -> np.ndarray:
        return self.grid.inverse(self.coeffs)

    def mean(self) -> float:
        return self.grid.mean_value(self.coeffs)


def band_limited_noise(rng: np.random.Generator, grid: Grid, max_mode: int) -> SpectralField:
    """One ``rng.standard_normal`` draw kept on the integer modes ``0 < |m| <= max_mode``."""
    c = grid.forward(rng.standard_normal(grid.shape))
    return SpectralField(grid, np.where((grid.shell > 0) & (grid.shell <= max_mode**2), c, 0.0))


# ---------------------------------------------------------------------------
# Operators and norms
# ---------------------------------------------------------------------------

#: Relative threshold below which a field counts as zero-mean.
ZERO_MEAN_RTOL = 1e-10


def _require_zero_mean(grid: Grid, coeffs: np.ndarray, what: str) -> None:
    mean = abs(coeffs[(0,) * grid.dim])
    scale = float(np.max(np.abs(coeffs))) if coeffs.size else 0.0
    if mean > ZERO_MEAN_RTOL * max(scale, 1e-300):
        raise ValueError(
            f"{what} requires a zero-mean field (negative powers of |k| are "
            f"singular at the zero mode); got mean coefficient {mean:.3e}"
        )


def fractional_laplacian(f: SpectralField, s: float) -> SpectralField:
    """Apply ``|k|^s`` mode-by-mode (``s=2`` is ``-Laplacian``).

    For ``s < 0`` the input must be zero-mean; the zero mode is mapped to zero
    for every ``s != 0``.
    """
    grid, c = f.grid, f.coeffs
    if s == 0:
        return f
    if s < 0:
        _require_zero_mean(grid, c, "fractional_laplacian with s < 0")
    with np.errstate(divide="ignore"):
        mult = np.sqrt(np.where(grid.k2 > 0, grid.k2, 1.0)) ** s
    mult = np.where(grid.k2 > 0, mult, 0.0)
    return SpectralField(grid, c * mult)


def sobolev_norm(f: SpectralField, l: int) -> float:
    """``||f||`` weighted by ``|k|^l`` (the homogeneous derivative seminorm)."""
    if l < 0 or int(l) != l:
        raise ValueError(f"derivative order must be a non-negative integer, got {l}")
    grid, c = f.grid, f.coeffs
    return float(np.sqrt(grid.mode_sum_sq(c, order=float(l))))


def hk_norm_sq(f: SpectralField, k: int) -> float:
    """Squared inhomogeneous Sobolev norm ``sum_{j<=k} ||D^j f||^2``."""
    return f.grid.shell_window(f.grid.shell_spectrum(f.coeffs), 0, k)


def negative_norm(f: SpectralField, s: float) -> float:
    """``||f||`` weighted by ``|k|^(-s)``, defined for ``0 < s < 3/2``.

    Low-frequency content controls algebraic decay rates, which is why the
    harness tracks these norms; the upper limit 3/2 matches the regime in
    which the nonlinear estimates close.
    """
    if not (0.0 < s < 1.5):
        raise ValueError(f"negative-order index s must lie in (0, 1.5), got {s}")
    grid, c = f.grid, f.coeffs
    _require_zero_mean(grid, c, "negative_norm")
    return float(np.sqrt(grid.mode_sum_sq(c, order=-s)))


def interpolation_check(f: SpectralField, l: int, s: float) -> tuple[float, float]:
    """Both sides of ``||D^l f|| <= ||D^(l+1) f||^(1-th) * ||f||_{-s}^th``.

    ``th = 1/(l+s+1)``. The two sides are equal for a single Fourier mode and
    the inequality holds with constant one for every zero-mean field.
    """
    if l < 0:
        raise ValueError("l must be >= 0")
    if not (0.0 <= s < 1.5):
        raise ValueError(f"s must lie in [0, 1.5), got {s}")
    grid, c = f.grid, f.coeffs
    _require_zero_mean(grid, c, "interpolation_check")
    spectrum = grid.shell_spectrum(c)
    lo = grid.shell_sum(spectrum, order=float(l))
    if lo == 0.0:
        raise ValueError("zero field: interpolation ratio undefined")
    hi = grid.shell_sum(spectrum, order=float(l) + 1.0)
    neg = grid.shell_sum(spectrum, order=-s)
    theta = 1.0 / (l + s + 1.0)
    lhs = np.sqrt(lo)
    rhs = np.sqrt(hi) ** (1.0 - theta) * np.sqrt(neg) ** theta
    return float(lhs), float(rhs)


def lp_norm(f: SpectralField, p: float) -> float:
    """Grid-level Lebesgue norm (collocation values, no super-resolution)."""
    vals = f.to_physical()
    if p == np.inf:
        return float(np.max(np.abs(vals)))
    if p < 1:
        raise ValueError(f"Lebesgue exponent must be >= 1, got {p}")
    return float((f.grid.volume * np.mean(np.abs(vals) ** p)) ** (1.0 / p))


def gn_ratio(
    f: SpectralField,
    l: int,
    p: float,
    s: int,
    r: float,
    k: int,
    q: float,
    theta: float,
) -> float:
    """Ratio ``||D^l f||_p / (||D^s f||_r^(1-th) * ||D^k f||_q^th)``.

    The exponents must satisfy the dimensional balance
    ``l/d - 1/p = (s/d - 1/r)(1-th) + (k/d - 1/q) th`` with ``l/k <= th <= 1``
    and ``0 <= l, s < k``; otherwise the ratio is meaningless and an error is
    raised carrying the balance residual. Derivatives of non-integer Lebesgue
    flavor are measured through the ``|k|^m`` multiplier applied before the
    grid norm.
    """
    grid = f.grid
    d = float(grid.dim)
    if not (0 <= l < k and 0 <= s < k):
        raise ValueError(f"need 0 <= l, s < k, got l={l}, s={s}, k={k}")
    if not (l / k <= theta <= 1.0):
        raise ValueError(f"theta must lie in [l/k, 1] = [{l / k}, 1], got {theta}")
    inv = lambda e: 0.0 if e == np.inf else 1.0 / e
    residual = (l / d - inv(p)) - (1.0 - theta) * (s / d - inv(r)) - theta * (k / d - inv(q))
    if abs(residual) > 1e-12:
        raise ValueError(
            f"exponent relation violated: dimensional balance residual {residual:.3e}"
        )
    num = lp_norm(fractional_laplacian(f, float(l)), p)
    den_s = lp_norm(fractional_laplacian(f, float(s)), r)
    den_k = lp_norm(fractional_laplacian(f, float(k)), q)
    den = den_s ** (1.0 - theta) * den_k**theta
    if den == 0.0:
        raise ValueError("zero field: ratio undefined")
    return float(num / den)

"""Discrete Fourier machinery on a periodic box.

Everything downstream (model evaluation, time stepping, diagnostics) is built
on the conventions fixed here:

* Coefficients use the amplitude normalization ``f(x) = sum_k F_k exp(i k.x)``
  with wavenumbers ``k = 2*pi*m/L`` for integer mode vectors ``m``, stored in
  ``rfftn`` layout (last axis halved, Hermitian half implicit).
* ``||f||_L2^2 = V * sum_k |F_k|^2`` where ``V`` is the box volume; the
  ``l``-th derivative norm is the mode sum weighted by ``|k|^(2l)``, read off
  the integer shells ``|k|^2 = k0^2 |m|^2`` of the shell spectrum ``S(|m|^2)``.
* Products of fields are de-aliased with the two-thirds rule, which
  `Grid.band_cut` states once; cubic terms must be assembled from pairwise
  de-aliased products.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from itertools import product
from math import prod

import numpy as np

_FFT_WORKERS = 1  # numpy.fft transforms each line on one thread

#: Bytes of one complex field in a slab of `Grid.slabs`: the step's elementwise
#: passes each read or write a few such fields, which then stay in a 2 MiB L2 cache.
SLAB_BYTES = 256 * 1024


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class Grid:
    """Cubic periodic box ``[0, length)^dim`` sampled on ``n`` points per axis.

    Precomputes the derivative symbol ``ik`` (``1j * k`` per axis) and
    ``|k|^2``, and the Hermitian doubling weights and integer shell index used
    by every mode sum. The two-thirds band is `band_cut`, and `slabs` splits
    its axis-0 planes into cache-sized runs; `plane_slabs` splits the
    physical axis-0 planes the same way.
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
    shell: np.ndarray = field(init=False, repr=False, compare=False)
    shell_k2: np.ndarray = field(init=False, repr=False, compare=False)
    volume: float = field(init=False, repr=False, compare=False)
    dx: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.dim not in (1, 2, 3):
            raise ValueError(f"dim must be 1, 2 or 3, got {self.dim}")
        if self.n < 8 or not _is_power_of_two(self.n):
            raise ValueError(f"n must be a power of two >= 8, got {self.n}")
        if not 0 < self.length < np.inf:  # also false for a NaN
            raise ValueError(f"box length must be positive and finite, got {self.length}")

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
        wlast[1:-1] = 2.0  # n is even, so the Nyquist plane is its own conjugate
        weight = np.broadcast_to(wlast.reshape((1,) * (dim - 1) + (-1,)), rshape).copy()

        for arr in (*ik, k2, weight, shell, shell_k2):
            arr.flags.writeable = False
        derived = dict(
            shape=shape,
            rshape=rshape,
            modes=tuple(modes),
            ik=ik,
            k2=k2,
            weight=weight,
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
        """Real field on the grid -> amplitude-normalized rfft coefficients.

        One numpy pass per axis in scipy's ``rfftn`` order; the scalings
        ``1/n`` are exact (``n`` is a power of two), so the result equals
        scipy's ``rfftn`` bit for bit.
        """
        if values.shape != self.shape:
            raise ValueError(f"field shape {values.shape} != grid shape {self.shape}")
        out = np.fft.rfft(values, axis=-1, norm="forward")
        for ax in range(-self.dim, -1):
            np.fft.fft(out, axis=ax, norm="forward", out=out)
        return out

    def inverse(self, coeffs: np.ndarray) -> np.ndarray:
        """Amplitude-normalized coefficients of one field or a stack -> real values on the grid.

        Passes in scipy's ``irfftn`` order. The first writes a fresh array, so
        ``coeffs`` is left untouched and a read-only input is never copied.
        """
        work = coeffs
        for ax in range(-self.dim, -1):
            work = np.fft.ifft(work, axis=ax, norm="forward", out=None if work is coeffs else work)
        return np.fft.irfft(work, n=self.n, axis=-1, norm="forward")

    def band_cut(self) -> int:
        """The largest ``|m|`` per axis that every de-aliased product and state keeps: the 2/3 rule's ``n // 3``."""
        return self.n // 3

    def _band(self) -> tuple[int, tuple[slice, slice], slice]:
        """``(keep, blocks, gap)``: the last axis keeps its first ``keep`` modes;
        a full axis keeps the ``blocks`` ``0..cut`` and ``-cut..-1``, with ``gap`` between."""
        n, cut = self.n, self.band_cut()
        hi = max(n - cut, cut + 1)  # a cut of n // 2 keeps every mode once
        return cut + 1, (slice(0, cut + 1), slice(hi, n)), slice(cut + 1, hi)

    def cut_to_band(self, coeffs: np.ndarray, slab: bool = False) -> np.ndarray:
        """Zero, in place, every mode of a stack beyond `band_cut`: the tail of
        the last (half) axis and the gap between the blocks of each full axis.

        With ``slab``, ``coeffs`` holds only the axis-0 planes of one of
        `slabs`, which lie inside the band, so only the later axes are cut.
        """
        keep, _, gap = self._band()
        coeffs[..., keep:] = 0  # a 1-D slab is no longer than keep
        for ax in range(2 if slab else 1, self.dim):
            coeffs[(slice(None),) * ax + (gap, Ellipsis, slice(keep))] = 0
        return coeffs

    def slabs(self) -> tuple[slice, ...]:
        """The axis-0 planes inside the band, as ascending runs of about `SLAB_BYTES` per complex field.

        The step's elementwise spectral work goes slab by slab, so that each
        pass finds its operands in cache. The planes between the slabs (the
        gap of a full axis 0, the tail of a 1-D grid's half axis) hold no mode
        of the band and are skipped. Each block of the band is split into
        runs of near-equal length; with `band_cut` at ``n // 2`` (no
        de-aliasing) the slabs cover every plane.
        """
        keep, blocks, _ = self._band()
        per_slab = SLAB_BYTES // (16 * prod(self.rshape[1:]))
        blocks = [slice(0, keep)] if self.dim == 1 else blocks
        return tuple(run for block in blocks for run in _runs(block, per_slab))

    def plane_slabs(self) -> tuple[slice, ...]:
        """Every physical axis-0 plane, as ascending runs of about `SLAB_BYTES` per two real fields.

        The tendency's pointwise work goes slab by slab between the leading
        passes of its transforms (`inverse_leading`, `forward_leading`),
        whose physical axis 0 is the first axis of a coefficient array. A 1-D
        grid's axis 0 is its real-transform axis, so it has one slab,
        ``0..n``, which also spans the whole half axis of a coefficient array.
        """
        if self.dim == 1:
            return (slice(0, self.n),)
        return _runs(slice(0, self.n), SLAB_BYTES // (16 * self.n ** (self.dim - 1)))

    def symbols(self, planes: slice = slice(None)) -> tuple[tuple, np.ndarray]:
        """``(ik, k2)`` on the axis-0 ``planes``, as views: the symbols a slab's elementwise work reads."""
        return (self.ik[0][planes], *self.ik[1:]), self.k2[planes]

    def forward_last(self, values: np.ndarray, out: np.ndarray) -> np.ndarray:
        """The real transform of the last axis of a stack, or of its axis-0 planes, written into ``out``."""
        return np.fft.rfft(values, axis=-1, norm="forward", out=out)

    def forward_leading(self, coeffs: np.ndarray) -> np.ndarray:
        """The pruned complex passes of a stack's leading axes after `forward_last`, in place, then the cut.

        Each leading spatial axis, in scipy's ``rfftn`` order, gets an
        in-place complex transform of only the lines whose transformed
        indices lie in the band (`band_cut`): at 64^3, 1408 and then 946
        lines of 2112. Every mode beyond the cut is then set to exactly zero.
        """
        keep, blocks, _ = self._band()
        for ax in range(1, self.dim):
            for lead in product(blocks, repeat=ax - 1):
                lines = coeffs[(slice(None), *lead, Ellipsis, slice(keep))]
                np.fft.fft(lines, axis=ax, norm="forward", out=lines)
        return self.cut_to_band(coeffs)

    def forward_many(self, values: np.ndarray, out: np.ndarray) -> np.ndarray:
        """De-aliased batched forward over a leading stack axis, written into ``out``.

        Nothing is allocated: `forward_last` fills ``out`` and
        `forward_leading` finishes it there. The lines kept see the inputs of
        a full transform, and the scalings ``1/n`` are exact (``n`` is a power
        of two), so each kept mode equals scipy's ``rfftn`` bit for bit.
        """
        return self.forward_leading(self.forward_last(values, out))

    def inverse_leading(self, coeffs: np.ndarray) -> np.ndarray:
        """The pruned complex passes of a stack's leading axes, in place, before `inverse_last`.

        Every mode of ``coeffs`` beyond the cut (`band_cut`) counts as zero,
        and ``coeffs`` is scratch. Its gaps are zeroed; each leading spatial
        axis, in scipy's ``irfftn`` order, gets an in-place complex transform
        of only the lines whose untransformed indices lie in the band (at
        64^3, 946 and then 1408 lines of 2112). The leading axes are then
        physical and the last axis is still spectral.
        """
        keep, blocks, _ = self._band()
        self.cut_to_band(coeffs[..., :keep])  # the gaps: no pass reads the last axis beyond keep
        for ax in range(1, self.dim):
            for trail in product(blocks, repeat=self.dim - 1 - ax):
                lines = coeffs[(slice(None), Ellipsis, *trail, slice(keep))]
                np.fft.ifft(lines, axis=ax, norm="forward", out=lines)
        return coeffs

    def inverse_last(self, coeffs: np.ndarray, out: np.ndarray) -> np.ndarray:
        """The real transform of the last axis's kept modes, after `inverse_leading`, written into ``out``.

        ``coeffs`` may be the whole stack or its physical axis-0 planes.
        """
        return np.fft.irfft(coeffs[..., : self._band()[0]], n=self.n, axis=-1, norm="forward", out=out)

    def inverse_many(self, coeffs: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Band-limited batched inverse over a leading stack axis, written into ``out``.

        `inverse_leading` on ``coeffs``, which is scratch (overwritten), then
        `inverse_last` into ``out``. For input that is zero beyond the cut
        the result equals scipy's ``irfftn`` bit for bit.
        """
        return self.inverse_last(self.inverse_leading(coeffs), out)

    def divergence(
        self,
        coeffs: np.ndarray,
        out: np.ndarray | None = None,
        scratch: np.ndarray | None = None,
        planes: slice = slice(None),
    ) -> np.ndarray:
        """``i k.F`` of a ``(dim, *rshape)`` stack, written into ``out`` if given.

        ``scratch``, one spectral field, holds each term after the first. With
        ``planes``, ``coeffs`` holds only those axis-0 planes.
        """
        ik, _ = self.symbols(planes)
        out = np.multiply(ik[0], coeffs[0], out=out)
        for j in range(1, self.dim):
            out += np.multiply(ik[j], coeffs[j], out=scratch)
        return out

    def forward_product(self, values: np.ndarray) -> np.ndarray:
        """Transform a pointwise product, de-aliased: `forward_many` of one field."""
        if values.shape != self.shape:
            raise ValueError(f"field shape {values.shape} != grid shape {self.shape}")
        return self.forward_many(values[np.newaxis], np.empty((1,) + self.rshape, dtype=np.complex128))[0]

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

    def mode_sum_sq(self, coeffs: np.ndarray) -> float:
        """Parseval's sum ``V * sum_k |F_k|^2``, which needs no shells."""
        return self.volume * float(np.sum(self.weight * (coeffs.real**2 + coeffs.imag**2)))

    def mean_value(self, coeffs: np.ndarray) -> float:
        return float(coeffs[(0,) * self.dim].real)


def _runs(planes: slice, per_run: int) -> tuple[slice, ...]:
    """``planes`` split into ascending runs of near-equal length, at most ``per_run`` (at least one) planes each."""
    size = planes.stop - planes.start
    count = -(-size // max(1, per_run))
    edges = [planes.start + size * i // count for i in range(count + 1)]
    return tuple(slice(lo, hi) for lo, hi in zip(edges, edges[1:]))


def band_limited_noise(rng: np.random.Generator, grid: Grid, max_mode: int) -> np.ndarray:
    """One ``rng.standard_normal`` draw kept on the integer modes ``0 < |m| <= max_mode``."""
    c = grid.forward(rng.standard_normal(grid.shape))
    return np.where((grid.shell > 0) & (grid.shell <= max_mode**2), c, 0.0)


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


def _require_layout(grid: Grid, coeffs: np.ndarray) -> None:
    if np.shape(coeffs) != grid.rshape:
        raise ValueError(f"coefficient shape {np.shape(coeffs)} != rfft layout {grid.rshape}")


def fractional_laplacian(grid: Grid, coeffs: np.ndarray, s: float) -> np.ndarray:
    """Apply ``|k|^s`` mode-by-mode (``s=2`` is ``-Laplacian``); a new array.

    ``s`` must be finite. For ``s < 0`` the input must be zero-mean; the zero
    mode is mapped to zero for every ``s != 0``.
    """
    _require_layout(grid, coeffs)
    if not -np.inf < s < np.inf:  # also false for a NaN
        raise ValueError(f"power s must be finite, got {s}")
    if s == 0:
        return coeffs.copy()
    if s < 0:
        _require_zero_mean(grid, coeffs, "fractional_laplacian with s < 0")
    with np.errstate(divide="ignore"):
        mult = np.sqrt(np.where(grid.k2 > 0, grid.k2, 1.0)) ** s
    mult = np.where(grid.k2 > 0, mult, 0.0)
    return coeffs * mult


def interpolation_check(grid: Grid, coeffs: np.ndarray, l: int, s: float) -> tuple[float, float]:
    """Both sides of ``||D^l f|| <= ||D^(l+1) f||^(1-th) * ||f||_{-s}^th``.

    ``th = 1/(l+s+1)``. The two sides are equal for a single Fourier mode and
    the inequality holds with constant one for every zero-mean field.
    """
    _require_layout(grid, coeffs)
    if not 0 <= l < np.inf:  # also false for a NaN
        raise ValueError(f"l must be finite and >= 0, got {l}")
    if not (0.0 <= s < 1.5):
        raise ValueError(f"s must lie in [0, 1.5), got {s}")
    _require_zero_mean(grid, coeffs, "interpolation_check")
    spectrum = grid.shell_spectrum(coeffs)
    lo = grid.shell_sum(spectrum, order=float(l))
    if lo == 0.0:
        raise ValueError("zero field: interpolation ratio undefined")
    hi = grid.shell_sum(spectrum, order=float(l) + 1.0)
    neg = grid.shell_sum(spectrum, order=-s)
    theta = 1.0 / (l + s + 1.0)
    lhs = np.sqrt(lo)
    rhs = np.sqrt(hi) ** (1.0 - theta) * np.sqrt(neg) ** theta
    return float(lhs), float(rhs)


def lp_norm(grid: Grid, coeffs: np.ndarray, p: float) -> float:
    """Grid-level Lebesgue norm (collocation values, no super-resolution); ``p = inf`` is the sup norm."""
    _require_layout(grid, coeffs)
    return _grid_norm(grid, grid.inverse(coeffs), p)


def _grid_norm(grid: Grid, vals: np.ndarray, p: float) -> float:
    if not p >= 1:  # also true for a NaN
        raise ValueError(f"Lebesgue exponent must be >= 1, got {p}")
    if p == np.inf:
        return float(np.max(np.abs(vals)))
    return float((grid.volume * np.mean(np.abs(vals) ** p)) ** (1.0 / p))


def gn_ratios(grid: Grid, coeffs: np.ndarray, cases) -> list[float]:
    """Ratio ``||D^l f||_p / (||D^s f||_r^(1-th) * ||D^k f||_q^th)`` of each case ``(l, p, s, r, k, q, th)``.

    Each case's exponents must satisfy the dimensional balance
    ``l/d - 1/p = (s/d - 1/r)(1-th) + (k/d - 1/q) th`` with ``l/k <= th <= 1``,
    ``0 <= l, s < k`` and ``p, r, q`` in ``[1, inf]``; otherwise an error is raised
    before any transform, naming the exponent or carrying the balance residual. Derivatives
    of non-integer Lebesgue flavor are measured through the ``|k|^m``
    multiplier applied before the grid norm. Each distinct power is
    transformed once for all cases; a single case is a one-element list.
    """
    d = float(grid.dim)
    inv = lambda e: 0.0 if e == np.inf else 1.0 / e
    for l, p, s, r, k, q, theta in cases:
        for name, e in (("p", p), ("r", r), ("q", q)):
            if not 1 <= e <= np.inf:  # also false for a NaN
                raise ValueError(f"Lebesgue exponent {name} must lie in [1, inf], got {e}")
        if not (0 <= l < k and 0 <= s < k):
            raise ValueError(f"need 0 <= l, s < k, got l={l}, s={s}, k={k}")
        if not (l / k <= theta <= 1.0):
            raise ValueError(f"theta must lie in [l/k, 1] = [{l / k}, 1], got {theta}")
        residual = (l / d - inv(p)) - (1.0 - theta) * (s / d - inv(r)) - theta * (k / d - inv(q))
        if not abs(residual) <= 1e-12:
            raise ValueError(
                f"exponent relation violated: dimensional balance residual {residual:.3e}"
            )
    values = {}

    def norm(power, p):
        if power not in values:
            values[power] = grid.inverse(fractional_laplacian(grid, coeffs, float(power)))
        return _grid_norm(grid, values[power], p)

    ratios = []
    for l, p, s, r, k, q, theta in cases:
        num = norm(l, p)
        den = norm(s, r) ** (1.0 - theta) * norm(k, q) ** theta
        if den == 0.0:
            raise ValueError("zero field: ratio undefined")
        ratios.append(float(num / den))
    return ratios

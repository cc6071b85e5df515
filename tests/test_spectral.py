import contextlib
import dataclasses
from math import prod

import numpy as np
import pytest
from scipy import fft as sp_fft

import nsac.spectral
from nsac import Grid
from nsac.spectral import fractional_laplacian, gn_ratios, interpolation_check, lp_norm
from nsac.verify import GN_STABLE_CASES, GN_SUP_CASE, check_gn_ensemble, disable_dealiasing

from conftest import grid_counts, random_zero_mean_field, two_thirds_band
from reference import hk_norm_sq, negative_norm, sobolev_norm

V = (2 * np.pi) ** 3  # box volume for the standard test grid
SIN_L2_SQ = V / 2.0  # ||sin(k.x)||^2 on the box, any integer mode


class TestGrid:
    @pytest.mark.parametrize("bad", [dict(dim=4, n=16, length=1.0), dict(dim=0, n=16, length=1.0)])
    def test_rejects_bad_dim(self, bad):
        with pytest.raises(ValueError, match="dim"):
            Grid(**bad)

    @pytest.mark.parametrize("n", [4, 12, 17, 0])
    def test_rejects_bad_n(self, n):
        with pytest.raises(ValueError, match="power of two"):
            Grid(dim=3, n=n, length=1.0)

    def test_rejects_bad_length(self):
        for length in (-1.0, 0.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="length"):
                Grid(dim=2, n=16, length=length)

    def test_zero_wavenumber_only_at_zero_mode(self, grid16):
        k2 = grid16.k2
        assert k2[(0, 0, 0)] == 0.0
        flat = k2.ravel()
        assert np.count_nonzero(flat == 0.0) == 1

    def test_round_trip(self, grid16):
        rng = np.random.default_rng(0)
        f = rng.standard_normal(grid16.shape)
        back = grid16.inverse(grid16.forward(f))
        assert np.max(np.abs(back - f)) <= 1e-12 * np.max(np.abs(f))

    def test_round_trip_dims_1_and_2(self):
        rng = np.random.default_rng(1)
        for dim in (1, 2):
            g = Grid(dim=dim, n=32, length=1.0)
            f = rng.standard_normal(g.shape)
            assert np.allclose(g.inverse(g.forward(f)), f, atol=1e-13)

    def test_parseval_against_physical_quadrature(self, grid16):
        # band-limited f: trapezoid quadrature on the periodic grid is exact
        x, y, _ = grid16.meshgrid()
        f = np.sin(x) + 0.5 * np.cos(2 * y)
        quad = grid16.volume * np.mean(f**2)
        mode = grid16.mode_sum_sq(grid16.forward(f))
        assert abs(quad - mode) <= 1e-10 * mode

    def test_equality_hash_and_repr_read_the_defining_fields(self):
        a, b = Grid(dim=2, n=16, length=1.5), Grid(dim=2, n=16, length=1.5)
        assert a is not b and a == b and hash(a) == hash(b)
        assert a != Grid(dim=2, n=32, length=1.5)
        assert repr(a) == "Grid(dim=2, n=16, length=1.5)"

    @pytest.mark.parametrize("name", ["k2", "weight", "shell", "shell_k2"])
    def test_derived_arrays_read_only(self, grid16, name):
        with pytest.raises(ValueError, match="read-only"):
            getattr(grid16, name)[...] = 0
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(grid16, name, None)

    def test_disable_dealiasing_restores_band_cut_when_its_body_raises(self, grid16):
        original = Grid.band_cut
        with pytest.raises(RuntimeError, match="body"):
            with disable_dealiasing():
                assert Grid.band_cut is not original
                raise RuntimeError("body")
        assert Grid.band_cut is original
        ones = grid16.cut_to_band(np.ones((1,) + grid16.rshape, dtype=complex))
        assert np.array_equal(ones[0] != 0, two_thirds_band(grid16))

    @pytest.mark.parametrize("fault", [False, True], ids=["band", "no_dealias"])
    @pytest.mark.parametrize("n", [8, 16, 32, 64])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_slabs_partition_the_planes_of_the_band(self, dim, n, fault):
        g = Grid(dim=dim, n=n, length=1.0)
        with disable_dealiasing() if fault else contextlib.nullcontext():
            slabs = g.slabs()
        planes = [p for s in slabs for p in range(s.start, s.stop)]
        assert all(s.start < s.stop and s.step is None for s in slabs)
        assert planes == sorted(set(planes))  # disjoint and ascending
        m0 = g.modes[0]
        assert planes == (list(range(m0.size)) if fault else np.flatnonzero(np.abs(m0) <= n // 3).tolist())
        # a slab holds at most SLAB_BYTES per complex field, or a single plane
        plane_bytes = 16 * prod(g.rshape[1:])
        assert all(s.stop - s.start == 1 or (s.stop - s.start) * plane_bytes <= nsac.spectral.SLAB_BYTES for s in slabs)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_slab_cut_matches_the_whole_cut(self, dim, monkeypatch):
        monkeypatch.setattr(nsac.spectral, "SLAB_BYTES", 1)  # one plane per slab
        g = Grid(dim=dim, n=16, length=1.0)
        coeffs = np.random.default_rng(dim).standard_normal((2,) + g.rshape) + 1j
        whole = g.cut_to_band(coeffs.copy())
        for planes in g.slabs():
            assert g.cut_to_band(coeffs[:, planes].copy(), slab=True).tobytes() == whole[:, planes].tobytes()

    @pytest.mark.parametrize("slab_bytes", [nsac.spectral.SLAB_BYTES, 1])
    @pytest.mark.parametrize("n", [8, 16, 64])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_plane_slabs_partition_every_physical_plane(self, dim, n, slab_bytes, monkeypatch):
        monkeypatch.setattr(nsac.spectral, "SLAB_BYTES", slab_bytes)
        slabs = Grid(dim=dim, n=n, length=1.0).plane_slabs()
        assert [p for s in slabs for p in range(s.start, s.stop)] == list(range(n))
        assert all(s.start < s.stop and s.step is None for s in slabs)
        if dim == 1:  # axis 0 is the real transform's axis
            assert slabs == (slice(0, n),)
        else:  # at most SLAB_BYTES per two real fields, or a single plane
            plane_bytes = 16 * n ** (dim - 1)
            assert all(s.stop - s.start == 1 or (s.stop - s.start) * plane_bytes <= slab_bytes for s in slabs)


class TestBatchedTransforms:
    """numpy's per-axis routes against scipy's one-dispatch transforms.

    The one-off routes are full transforms; the batched routes with ``out``
    are band-limited: the forward returns ``rfftn`` on the 2/3 band with exact
    zeros beyond it, and the inverse treats every mode beyond it as zero.
    """

    @staticmethod
    def _data(dim, stack=4):
        g = Grid(dim=dim, n=16, length=2 * np.pi)
        rng = np.random.default_rng(dim)
        values = rng.standard_normal((stack,) + g.shape)
        coeffs = rng.standard_normal((stack,) + g.rshape) + 1j * rng.standard_normal((stack,) + g.rshape)
        return g, values, coeffs, tuple(range(1, dim + 1))

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_one_off_routes_are_rfftn_and_irfftn(self, dim):
        g, values, coeffs, axes = self._data(dim)
        coeffs.flags.writeable = False  # a State's arrays are read-only and must not be copied into
        assert np.array_equal(g.forward(values[0]), sp_fft.rfftn(values[0], norm="forward"))
        assert np.array_equal(g.inverse(coeffs[0]), sp_fft.irfftn(coeffs[0], s=g.shape, norm="forward"))
        expected = sp_fft.irfftn(coeffs, s=g.shape, axes=axes, norm="forward")
        assert np.array_equal(g.inverse(coeffs), expected)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_in_place_inverse_is_irfftn(self, dim):
        # the band of the input, whatever lies beyond the cut
        g, _, coeffs, axes = self._data(dim)
        expected = sp_fft.irfftn(np.where(two_thirds_band(g), coeffs, 0), s=g.shape, axes=axes, norm="forward")
        out = np.empty((4,) + g.shape)
        assert g.inverse_many(coeffs.copy(), out=out) is out
        assert np.array_equal(out, expected)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_in_place_forward_is_rfftn(self, dim):
        g, values, _, axes = self._data(dim)
        band = two_thirds_band(g)
        expected = np.where(band, sp_fft.rfftn(values, axes=axes, norm="forward"), 0)
        out = np.full((4,) + g.rshape, np.nan, dtype=np.complex128)
        assert g.forward_many(values, out=out) is out
        assert np.array_equal(out, expected)
        assert np.all(out[:, ~band] == 0)
        # forward_product is the same forward of one field
        assert np.array_equal(g.forward_product(values[0]), expected[0])
        with pytest.raises(ValueError, match="shape"):
            g.forward_product(values)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_cut_to_band_zeroes_exactly_the_modes_beyond_the_cut(self, dim):
        g, _, coeffs, _ = self._data(dim)
        band, cut = two_thirds_band(g), coeffs.copy()
        assert g.cut_to_band(cut) is cut
        assert cut[:, band].tobytes() == coeffs[:, band].tobytes()
        assert np.all(cut[:, ~band] == 0)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_disable_dealiasing_makes_the_batched_routes_full(self, dim):
        g, values, coeffs, axes = self._data(dim)
        out, phys = np.empty((4,) + g.rshape, dtype=np.complex128), np.empty((4,) + g.shape)
        with disable_dealiasing():
            g.forward_many(values, out=out)
            g.inverse_many(coeffs.copy(), out=phys)
        assert np.array_equal(out, sp_fft.rfftn(values, axes=axes, norm="forward"))
        assert np.array_equal(phys, sp_fft.irfftn(coeffs, s=g.shape, axes=axes, norm="forward"))

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_last_axis_passes_by_plane_slab_match_the_whole(self, dim, monkeypatch):
        # the leading passes on the whole stack and the last axis one plane at a time
        monkeypatch.setattr(nsac.spectral, "SLAB_BYTES", 1)
        g, values, coeffs, _ = self._data(dim)
        phys = np.empty((4,) + g.shape)
        work = g.inverse_leading(coeffs.copy())
        for planes in g.plane_slabs():
            g.inverse_last(work[:, planes], out=phys[:, planes])
        assert phys.tobytes() == g.inverse_many(coeffs.copy(), out=np.empty_like(phys)).tobytes()
        out = np.empty((4,) + g.rshape, dtype=np.complex128)
        for planes in g.plane_slabs():
            g.forward_last(values[:, planes], out=out[:, planes])
        whole = g.forward_many(values, out=np.empty_like(out))
        assert g.forward_leading(out).tobytes() == whole.tobytes()

    def test_complex_passes_skip_the_lines_beyond_the_cut(self, monkeypatch):
        # n = 16, two fields: the band keeps 6 of the 9 half-axis modes and the
        # blocks 0..5 and -5..-1 (11 of 16) of a full axis. A full complex pass
        # takes 16 * 9 = 144 lines a field; the pruned ones take 96 and 66
        lines = []

        def counting(transform):
            def wrapped(a, axis=-1, **kw):
                lines.append(a.size // a.shape[axis])
                return transform(a, axis=axis, **kw)
            return wrapped

        monkeypatch.setattr(np.fft, "fft", counting(np.fft.fft))
        monkeypatch.setattr(np.fft, "ifft", counting(np.fft.ifft))
        g, values, coeffs, _ = self._data(3, stack=2)
        g.forward_many(values, out=np.empty((2,) + g.rshape, dtype=np.complex128))
        assert lines == [2 * 16 * 6, 2 * 6 * 6, 2 * 5 * 6]
        lines.clear()
        g.inverse_many(coeffs, out=np.empty((2,) + g.shape))
        assert lines == [2 * 6 * 6, 2 * 5 * 6, 2 * 16 * 6]


class TestCoefficientLayout:
    def test_shape_validation(self, grid16):
        # one layout check guards every analysis function
        bad = np.zeros((4, 4, 4), dtype=complex)
        calls = [
            lambda: fractional_laplacian(grid16, bad, 1.0),
            lambda: interpolation_check(grid16, bad, 0, 0.5),
            lambda: lp_norm(grid16, bad, 2.0),
            lambda: gn_ratios(grid16, bad, [(1, 2.0, 0, 2.0, 2, 2.0, 0.5)])[0],
        ]
        for call in calls:
            with pytest.raises(ValueError, match="rfft layout"):
                call()

    def test_real_symmetry_defect_small(self, grid16):
        rng = np.random.default_rng(2)
        f = grid16.forward(rng.standard_normal(grid16.shape))
        # relative defect of the round trip through the grid values
        back = grid16.forward(grid16.inverse(f))
        assert np.linalg.norm(back - f) <= 1e-12 * np.linalg.norm(f)


class TestNonFiniteExponents:
    @pytest.mark.parametrize(
        "call",
        [
            pytest.param(lambda g, c: gn_ratios(g, c, [(0, np.nan, 0, 2.0, 1, 2.0, 1.0)])[0], id="gn_ratio-p-nan"),
            pytest.param(lambda g, c: gn_ratios(g, c, [(0, 0.0, 0, 2.0, 1, 2.0, 1.0)])[0], id="gn_ratio-p-zero"),
            pytest.param(lambda g, c: gn_ratios(g, c, [(0, 6.0, 0, 0.0, 1, 2.0, 1.0)])[0], id="gn_ratio-r-zero"),
            pytest.param(lambda g, c: gn_ratios(g, c, [(0, 6.0, 0, 2.0, 1, 0.0, 1.0)])[0], id="gn_ratio-q-zero"),
            pytest.param(lambda g, c: gn_ratios(g, c, [(0, 6.0, 0, 2.0, 1, np.nan, 1.0)])[0], id="gn_ratio-q-nan"),
            pytest.param(
                lambda g, c: gn_ratios(g, c, [(0, 6.0, 0, np.nan, 1, 2.0, 1.0)])[0], id="gn_ratio-r-nan-theta-1"
            ),
            pytest.param(lambda g, c: lp_norm(g, c, np.nan), id="lp_norm-nan"),
            pytest.param(lambda g, c: fractional_laplacian(g, c, np.nan), id="fractional_laplacian-nan"),
            pytest.param(lambda g, c: fractional_laplacian(g, c, np.inf), id="fractional_laplacian-inf"),
            pytest.param(lambda g, c: fractional_laplacian(g, c, -np.inf), id="fractional_laplacian-minus-inf"),
            pytest.param(lambda g, c: interpolation_check(g, c, np.nan, 0.5), id="interpolation_check-l-nan"),
            pytest.param(lambda g, c: interpolation_check(g, c, np.inf, 0.5), id="interpolation_check-l-inf"),
        ],
    )
    def test_rejected(self, grid16, call):
        # each returned NaN or a finite number, or raised ZeroDivisionError, before: NaN
        # compares false with every bound
        c = random_zero_mean_field(np.random.default_rng(10), grid16, 4)
        with pytest.raises(ValueError):
            call(grid16, c)

    @pytest.mark.parametrize(
        "name, case",
        [("p", (0, 0.0, 0, 2.0, 1, 2.0, 1.0)), ("r", (0, 6.0, 0, 0.5, 1, 2.0, 1.0)), ("q", (0, 6.0, 0, 2.0, 1, -1.0, 1.0))],
    )
    def test_gn_ratio_names_a_lebesgue_exponent_below_one(self, grid16, name, case):
        # checked before the balance and before the coefficients' layout is read
        bad_layout = np.zeros(grid16.shape, dtype=np.complex128)
        with pytest.raises(ValueError, match=f"Lebesgue exponent {name} must lie in"):
            gn_ratios(grid16, bad_layout, [case])


class TestFractionalLaplacian:
    def test_unit_wavenumber_s2_identity(self, grid16):
        x = grid16.meshgrid()[0]
        f = grid16.forward(np.sin(x))
        out = fractional_laplacian(grid16, f, 2.0)
        assert np.max(np.abs(out - f)) <= 1e-14

    def test_s_zero_identity(self, grid16):
        rng = np.random.default_rng(3)
        f = grid16.forward(rng.standard_normal(grid16.shape))
        out = fractional_laplacian(grid16, f, 0.0)
        assert np.max(np.abs(out - f)) <= 1e-14 * np.max(np.abs(f))

    def test_half_power_mode_scaling(self, grid16):
        x, y, _ = grid16.meshgrid()
        f = grid16.forward(np.sin(2 * x) + np.sin(y))
        out = fractional_laplacian(grid16, f, 0.5)
        # per-mode scaling: sqrt(2) on |k| = 2, 1 on |k| = 1
        assert abs(out[(2, 0, 0)] / f[(2, 0, 0)] - np.sqrt(2)) <= 1e-13
        assert abs(out[(0, 1, 0)] / f[(0, 1, 0)] - 1.0) <= 1e-13
        # brute-force mode summation oracle for the squared half-derivative norm:
        # modes +-2e1 and +-e2 with amplitude 1/2 each
        expected = V * (2 * 0.25 * 2.0 + 2 * 0.25 * 1.0)
        assert abs(sobolev_norm(grid16, out, 0) ** 2 - expected) <= 1e-10 * expected

    def test_negative_power_requires_zero_mean(self, grid16):
        f = grid16.forward(1.0 + np.sin(grid16.meshgrid()[0]))
        with pytest.raises(ValueError, match="zero-mean"):
            fractional_laplacian(grid16, f, -0.5)

    @pytest.mark.parametrize("s", [0.5, 1.0, 1.5])
    def test_inverse_round_trip(self, grid16, s):
        rng = np.random.default_rng(4)
        f = random_zero_mean_field(rng, grid16, 5)
        back = fractional_laplacian(grid16, fractional_laplacian(grid16, f, s), -s)
        assert np.max(np.abs(back - f)) <= 1e-12 * np.max(np.abs(f))


class TestSobolevNorm:
    def test_unit_mode_first_derivative(self, grid16):
        f = grid16.forward(np.sin(grid16.meshgrid()[0]))
        l2 = sobolev_norm(grid16, f, 0)
        assert abs(sobolev_norm(grid16, f, 1) - l2) <= 1e-12 * l2
        assert abs(l2 - np.sqrt(SIN_L2_SQ)) <= 1e-12 * np.sqrt(SIN_L2_SQ)

    def test_zero_field(self, grid16):
        f = grid16.forward(np.zeros(grid16.shape))
        assert sobolev_norm(grid16, f, 0) == 0.0

    def test_single_mode_hand_value(self, grid16):
        f = grid16.forward(np.sin(3 * grid16.meshgrid()[0]))
        d2 = sobolev_norm(grid16, f, 2)
        assert abs(d2 - 9 * sobolev_norm(grid16, f, 0)) <= 1e-12 * d2

    def test_agrees_with_physical_quadrature(self, grid16):
        # |grad f|^2 assembled from closed-form derivatives on the grid
        x, y, _ = grid16.meshgrid()
        f = grid16.forward(np.sin(x) + 0.5 * np.cos(2 * y))
        grad_sq = np.cos(x) ** 2 + np.sin(2 * y) ** 2
        quad = grid16.volume * np.mean(grad_sq)
        assert abs(sobolev_norm(grid16, f, 1) ** 2 - quad) <= 1e-10 * quad

    def test_rejects_negative_order(self, grid16):
        f = grid16.forward(np.sin(grid16.meshgrid()[0]))
        with pytest.raises(ValueError, match="non-negative"):
            sobolev_norm(grid16, f, -1)

    def test_hk_norm_accumulates(self, grid16):
        f = grid16.forward(np.sin(2 * grid16.meshgrid()[0]))
        expected = sum(sobolev_norm(grid16, f, j) ** 2 for j in range(4))
        assert abs(hk_norm_sq(grid16, f, 3) - expected) <= 1e-12 * expected


class TestNegativeNorm:
    def test_single_mode_half_scaling(self, grid16):
        f = grid16.forward(np.sin(2 * grid16.meshgrid()[0]))
        assert abs(negative_norm(grid16, f, 1.0) - 0.5 * sobolev_norm(grid16, f, 0)) <= 1e-12

    def test_unit_mode_any_s(self, grid16):
        f = grid16.forward(np.sin(grid16.meshgrid()[0]))
        l2 = sobolev_norm(grid16, f, 0)
        for s in (0.3, 0.7, 1.2):
            assert abs(negative_norm(grid16, f, s) - l2) <= 1e-12 * l2

    def test_composition_oracle(self, grid16):
        x, y, _ = grid16.meshgrid()
        f = grid16.forward(np.sin(x) + np.sin(4 * y))
        via_composition = sobolev_norm(grid16, fractional_laplacian(grid16, f, -0.5), 0)
        assert abs(negative_norm(grid16, f, 0.5) - via_composition) <= 1e-12 * via_composition

    def test_rejects_nonzero_mean(self, grid16):
        f = grid16.forward(1.0 + np.sin(grid16.meshgrid()[0]))
        with pytest.raises(ValueError, match="zero-mean"):
            negative_norm(grid16, f, 0.5)

    @pytest.mark.parametrize("s", [-0.1, 0.0, 1.5, 2.0])
    def test_rejects_s_out_of_range(self, grid16, s):
        f = grid16.forward(np.sin(grid16.meshgrid()[0]))
        with pytest.raises(ValueError, match=r"\(0, 1.5\)"):
            negative_norm(grid16, f, s)


class TestInterpolationCheck:
    def test_single_mode_equality(self, grid16):
        f = grid16.forward(np.sin(2 * grid16.meshgrid()[0]))
        lhs, rhs = interpolation_check(grid16, f, 1, 1.0)  # theta = 1/3
        assert abs(lhs - rhs) <= 1e-12 * rhs

    def test_unit_mode_equality(self, grid16):
        f = grid16.forward(np.sin(grid16.meshgrid()[0]))
        lhs, rhs = interpolation_check(grid16, f, 0, 0.5)
        assert abs(lhs - rhs) <= 1e-12 * rhs

    def test_two_mode_strict_inequality_with_oracle(self, grid16):
        x, y, _ = grid16.meshgrid()
        f = grid16.forward(np.sin(x) + 0.5 * np.sin(4 * y))
        lhs, rhs = interpolation_check(grid16, f, 0, 0.5)
        # direct mode summation over the two shells: |F| = 1/2 at |k|=1, 1/4 at |k|=4
        sq = lambda order: V * 2 * (0.25 * 1.0**(2 * order) + 0.0625 * 4.0**(2 * order))
        theta = 1.0 / (0 + 0.5 + 1.0)
        lhs_oracle = np.sqrt(sq(0))
        rhs_oracle = np.sqrt(sq(1)) ** (1 - theta) * np.sqrt(sq(-0.5)) ** theta
        assert abs(lhs - lhs_oracle) <= 1e-12 * lhs_oracle
        assert abs(rhs - rhs_oracle) <= 1e-12 * rhs_oracle
        assert lhs < rhs

    def test_inequality_on_random_fields(self, grid16):
        rng = np.random.default_rng(5)
        for _ in range(25):
            f = random_zero_mean_field(rng, grid16, 5)
            for (l, s) in ((0, 0.5), (1, 1.0), (2, 1.4), (0, 0.0)):
                lhs, rhs = interpolation_check(grid16, f, l, s)
                assert lhs <= rhs * (1 + 1e-12)

    def test_zero_field_rejected(self, grid16):
        f = grid16.forward(np.zeros(grid16.shape))
        with pytest.raises(ValueError, match="zero field"):
            interpolation_check(grid16, f, 0, 0.5)


class TestGnRatio:
    def test_amplitude_invariance(self, grid16):
        rng = np.random.default_rng(6)
        f = random_zero_mean_field(rng, grid16, 4)
        args = (1, 2.0, 0, 2.0, 2, 2.0, 0.5)
        ratio = gn_ratios(grid16, f, [args])[0]
        assert abs(ratio - gn_ratios(grid16, 2.0 * f, [args])[0]) <= 1e-12 * ratio

    def test_single_mode_ratio_one(self, grid16):
        f = grid16.forward(np.sin(grid16.meshgrid()[0]))
        ratio = gn_ratios(grid16, f, [(1, 2.0, 0, 2.0, 2, 2.0, 0.5)])[0]
        assert abs(ratio - 1.0) <= 1e-12

    def test_exponent_relation_enforced(self, grid16):
        f = grid16.forward(np.sin(grid16.meshgrid()[0]))
        with pytest.raises(ValueError, match="residual"):
            gn_ratios(grid16, f, [(1, 2.0, 0, 2.0, 2, 2.0, 0.6)])[0]

    def test_theta_range_enforced(self, grid16):
        f = grid16.forward(np.sin(grid16.meshgrid()[0]))
        with pytest.raises(ValueError, match="theta"):
            gn_ratios(grid16, f, [(1, 2.0, 0, 2.0, 2, 2.0, 0.25)])[0]

    def test_cases_share_transforms_bit_for_bit(self, grid16):
        rng = np.random.default_rng(8)
        f = random_zero_mean_field(rng, grid16, 4)
        cases = GN_STABLE_CASES + (GN_SUP_CASE,)
        assert gn_ratios(grid16, f, cases) == [gn_ratios(grid16, f, [case])[0] for case in cases]

    def test_ensemble_transforms_each_power_once(self, monkeypatch):
        fields, _ = grid_counts(monkeypatch, ("inverse",))
        assert check_gn_ensemble(4).passed
        # 2 seeds x 100 fields x the powers 0, 1 and 2 of the four cases
        assert fields["inverse"] == 600

    def test_sobolev_embedding_case_bounded(self, grid32):
        # ||f||_L6 <= C ||grad f||_L2 across an ensemble; ratios finite and stable
        rng = np.random.default_rng(7)
        fields = [random_zero_mean_field(rng, grid32, 8) for _ in range(30)]
        ratios = [gn_ratios(grid32, f, [(0, 6.0, 0, 2.0, 1, 2.0, 1.0)])[0] for f in fields]
        assert np.all(np.isfinite(ratios))
        assert max(ratios) < 1.0  # well below the sharp constant on this box


class TestCompositionBound:
    def test_smooth_composition_gradient_bound(self, grid16):
        # h(sigma) = 1/(sigma+rho_bar)^2 - 1/rho_bar^2 with ||sigma||_inf <= rho_bar/2:
        # the gradient of the composition is bounded by max |h'| times ||grad sigma||
        rng = np.random.default_rng(8)
        rho_bar = 1.0
        sigma = grid16.inverse(random_zero_mean_field(rng, grid16, 3))
        sigma *= 0.5 * rho_bar / (2 * np.max(np.abs(sigma)))
        h = 1.0 / (sigma + rho_bar) ** 2 - 1.0 / rho_bar**2
        c_h = np.max(2.0 / (sigma + rho_bar) ** 3)
        lhs = sobolev_norm(grid16, grid16.forward(h), 1)
        rhs = c_h * sobolev_norm(grid16, grid16.forward(sigma), 1)
        assert lhs <= rhs * (1 + 1e-6)


class TestLpNorm:
    def test_sup_norm_is_grid_max(self, grid16):
        f = grid16.forward(np.sin(grid16.meshgrid()[0]))
        assert abs(lp_norm(grid16, f, np.inf) - 1.0) <= 1e-12

    def test_l2_matches_mode_sum(self, grid16):
        rng = np.random.default_rng(9)
        f = random_zero_mean_field(rng, grid16, 5)
        l2 = sobolev_norm(grid16, f, 0)
        assert abs(lp_norm(grid16, f, 2.0) - l2) <= 1e-10 * l2


def _reference_mode_sum(grid, coeffs, order):
    """The full-grid formula ``V * sum weight |k|^(2 order) |F|^2``, zero mode dropped for order != 0."""
    k2 = np.asarray(grid.k2)
    power = np.zeros_like(k2)
    power[k2 > 0] = np.sqrt(k2[k2 > 0]) ** (2.0 * order)
    if order == 0:
        power[k2 == 0] = 1.0
    mag2 = np.abs(coeffs) ** 2
    return grid.volume * float(np.sum(grid.weight * power * mag2))


def _reference_window(grid, coeffs, lo, hi):
    return sum(_reference_mode_sum(grid, coeffs, j) for j in range(lo, hi + 1))


@pytest.mark.parametrize("dim, n", [(d, n) for d in (1, 2, 3) for n in (16, 32)])
class TestShellSums:
    """Shell-spectrum sums against the full-grid mode sums they replace.

    Unfiltered random fields put content on every mode, the Nyquist planes
    included.
    """

    @staticmethod
    def _state(dim, n, seed=5):
        from nsac import State

        grid = Grid(dim=dim, n=n, length=3.0)
        rng = np.random.default_rng(seed)
        phi = 1.0 + 0.1 * rng.standard_normal(grid.shape)
        return State.from_physical(
            grid, 0.0, rng.standard_normal(grid.shape), rng.standard_normal((dim,) + grid.shape), phi
        )

    def test_shell_index_spans_every_shell(self, dim, n):
        grid = Grid(dim=dim, n=n, length=3.0)
        assert grid.shell.max() == dim * (n // 2) ** 2
        assert grid.shell_k2.size == dim * (n // 2) ** 2 + 1
        np.testing.assert_allclose(grid.shell_k2[grid.shell], grid.k2, rtol=1e-15, atol=0)

    @pytest.mark.parametrize("order", [-1.2, -0.5, 0.0, 1.0, 3.0])
    def test_mode_sum_sq(self, dim, n, order):
        # order 0 is Parseval's sum, the others are read off the shell spectrum
        state = self._state(dim, n)
        g = state.grid
        for coeffs in (state.sigma_hat, state.phi_hat):
            ref = _reference_mode_sum(g, coeffs, order)
            got = g.mode_sum_sq(coeffs) if order == 0 else g.shell_sum(g.shell_spectrum(coeffs), order)
            assert got == pytest.approx(ref, rel=1e-13)

    def test_hk_norm_sq(self, dim, n):
        state = self._state(dim, n)
        for k in (0, 1, 3):
            ref = _reference_window(state.grid, state.sigma_hat, 0, k)
            assert hk_norm_sq(state.grid, state.sigma_hat, k) == pytest.approx(ref, rel=1e-13)

    def test_level_energy(self, dim, n):
        from nsac.diagnostics import level_energy

        state = self._state(dim, n)
        g = state.grid
        for l in (0, 1, 2):
            lv = level_energy(state, l)
            assert lv.sigma_hk == pytest.approx(_reference_window(g, state.sigma_hat, l, 3), rel=1e-13)
            u_ref = sum(_reference_window(g, state.u_hat[i], l, 3) for i in range(dim))
            assert lv.u_hk == pytest.approx(u_ref, rel=1e-13)
            assert lv.phi_grad == pytest.approx(_reference_window(g, state.phi_hat, l + 1, 3), rel=1e-13)
            phisq_ref = _reference_mode_sum(g, state.phisq_hat, 0.0)
            assert lv.phi_sq == pytest.approx(phisq_ref, rel=1e-13)

    def test_negative_functional(self, dim, n):
        from nsac.diagnostics import negative_functional

        state = self._state(dim, n)
        g = state.grid
        for s in (0.5, 1.0, 1.3):
            nf = negative_functional(state, s)
            assert nf.sigma_neg == pytest.approx(_reference_mode_sum(g, state.sigma_hat, -s), rel=1e-13)
            u_ref = sum(_reference_mode_sum(g, state.u_hat[i], -s) for i in range(dim))
            assert nf.u_neg == pytest.approx(u_ref, rel=1e-13)
            # explicit gradient arrays i k_j phi_hat
            grad_ref = sum(_reference_mode_sum(g, g.ik[j] * state.phi_hat, -s) for j in range(dim))
            assert nf.gradphi_neg == pytest.approx(grad_ref, rel=1e-13)
            phisq_ref = _reference_mode_sum(g, state.phisq_hat, -s)
            assert nf.phisq_neg == pytest.approx(phisq_ref, rel=1e-13)

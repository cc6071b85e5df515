import dataclasses

import numpy as np
import pytest
from scipy import fft as sp_fft

from nsac import Grid, spectral
from nsac.spectral import (
    SpectralField,
    fractional_laplacian,
    gn_ratio,
    hk_norm_sq,
    interpolation_check,
    lp_norm,
    negative_norm,
    sobolev_norm,
)
from nsac.verify import disable_dealiasing

from conftest import random_zero_mean_field

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
        with pytest.raises(ValueError, match="length"):
            Grid(dim=2, n=16, length=-1.0)

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
        mode = grid16.mode_sum_sq(grid16.forward(f), order=0.0)
        assert abs(quad - mode) <= 1e-10 * mode

    def test_equality_hash_and_repr_read_the_defining_fields(self):
        a, b = Grid(dim=2, n=16, length=1.5), Grid(dim=2, n=16, length=1.5)
        assert a is not b and a == b and hash(a) == hash(b)
        assert a != Grid(dim=2, n=32, length=1.5)
        assert repr(a) == "Grid(dim=2, n=16, length=1.5)"

    @pytest.mark.parametrize("name", ["k2", "weight", "dealias_mask", "shell", "shell_k2"])
    def test_derived_arrays_read_only(self, grid16, name):
        with pytest.raises(ValueError, match="read-only"):
            getattr(grid16, name)[...] = 0
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(grid16, name, None)

    def test_disable_dealiasing_restores_dealias_when_its_body_raises(self, grid16):
        original = Grid.dealias
        with pytest.raises(RuntimeError, match="body"):
            with disable_dealiasing():
                assert Grid.dealias is not original
                raise RuntimeError("body")
        assert Grid.dealias is original
        assert not np.any(grid16.dealias(np.ones(grid16.rshape, dtype=complex))[~grid16.dealias_mask])


class TestBatchedTransforms:
    """The in-place routes (``out=``) against scipy's one-dispatch transforms."""

    @staticmethod
    def _check_inverse(dim):
        g = Grid(dim=dim, n=16, length=2 * np.pi)
        rng = np.random.default_rng(dim)
        coeffs = rng.standard_normal((4,) + g.rshape) + 1j * rng.standard_normal((4,) + g.rshape)
        expected = sp_fft.irfftn(coeffs, s=g.shape, axes=tuple(range(1, dim + 1)), norm="forward")
        out = np.empty((4,) + g.shape)
        assert g.inverse_many(coeffs.copy(), out=out) is out
        assert np.array_equal(out, expected)

    @staticmethod
    def _check_forward(dim):
        g = Grid(dim=dim, n=16, length=2 * np.pi)
        values = np.random.default_rng(dim).standard_normal((4,) + g.shape)
        expected = sp_fft.rfftn(values, axes=tuple(range(1, dim + 1)), norm="forward")
        out = np.empty((4,) + g.rshape, dtype=np.complex128)
        assert g.forward_many(values, out=out) is out
        assert np.array_equal(out, expected)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_in_place_inverse_is_irfftn(self, dim):
        self._check_inverse(dim)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_in_place_forward_is_rfftn(self, dim):
        self._check_forward(dim)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_backend_that_keeps_its_input(self, dim, monkeypatch):
        # overwrite_x only permits scipy to reuse the input; a backend that
        # returns a fresh array must still leave the result in place
        class CopyingFFT:
            def __getattr__(self, name):
                return getattr(sp_fft, name)

            def fftn(self, x, **kw):
                return sp_fft.fftn(x, **{**kw, "overwrite_x": False})

            def ifftn(self, x, **kw):
                return sp_fft.ifftn(x, **{**kw, "overwrite_x": False})

        monkeypatch.setattr(spectral, "_fft", CopyingFFT())
        self._check_inverse(dim)
        self._check_forward(dim)


class TestSpectralField:
    def test_shape_validation(self, grid16):
        with pytest.raises(ValueError, match="layout"):
            SpectralField(grid16, np.zeros((4, 4, 4), dtype=complex))

    def test_immutability(self, grid16):
        f = SpectralField.from_physical(grid16, np.zeros(grid16.shape))
        with pytest.raises(ValueError):
            f.coeffs[0, 0, 0] = 1.0

    def test_real_symmetry_defect_small(self, grid16):
        rng = np.random.default_rng(2)
        f = SpectralField.from_physical(grid16, rng.standard_normal(grid16.shape))
        # relative defect of the round trip through the grid values
        back = grid16.forward(f.to_physical())
        assert np.linalg.norm(back - f.coeffs) <= 1e-12 * np.linalg.norm(f.coeffs)


class TestFractionalLaplacian:
    def test_unit_wavenumber_s2_identity(self, grid16):
        x = grid16.meshgrid()[0]
        f = SpectralField.from_physical(grid16, np.sin(x))
        out = fractional_laplacian(f, 2.0)
        assert np.max(np.abs(out.coeffs - f.coeffs)) <= 1e-14

    def test_s_zero_identity(self, grid16):
        rng = np.random.default_rng(3)
        f = SpectralField.from_physical(grid16, rng.standard_normal(grid16.shape))
        out = fractional_laplacian(f, 0.0)
        assert np.max(np.abs(out.coeffs - f.coeffs)) <= 1e-14 * np.max(np.abs(f.coeffs))

    def test_half_power_mode_scaling(self, grid16):
        x, y, _ = grid16.meshgrid()
        f = SpectralField.from_physical(grid16, np.sin(2 * x) + np.sin(y))
        out = fractional_laplacian(f, 0.5)
        # per-mode scaling: sqrt(2) on |k| = 2, 1 on |k| = 1
        assert abs(out.coeffs[(2, 0, 0)] / f.coeffs[(2, 0, 0)] - np.sqrt(2)) <= 1e-13
        assert abs(out.coeffs[(0, 1, 0)] / f.coeffs[(0, 1, 0)] - 1.0) <= 1e-13
        # brute-force mode summation oracle for the squared half-derivative norm:
        # modes +-2e1 and +-e2 with amplitude 1/2 each
        expected = V * (2 * 0.25 * 2.0 + 2 * 0.25 * 1.0)
        assert abs(sobolev_norm(out, 0) ** 2 - expected) <= 1e-10 * expected

    def test_negative_power_requires_zero_mean(self, grid16):
        f = SpectralField.from_physical(grid16, 1.0 + np.sin(grid16.meshgrid()[0]))
        with pytest.raises(ValueError, match="zero-mean"):
            fractional_laplacian(f, -0.5)

    @pytest.mark.parametrize("s", [0.5, 1.0, 1.5])
    def test_inverse_round_trip(self, grid16, s):
        rng = np.random.default_rng(4)
        f = random_zero_mean_field(rng, grid16, 5)
        back = fractional_laplacian(fractional_laplacian(f, s), -s)
        assert np.max(np.abs(back.coeffs - f.coeffs)) <= 1e-12 * np.max(np.abs(f.coeffs))


class TestSobolevNorm:
    def test_unit_mode_first_derivative(self, grid16):
        f = SpectralField.from_physical(grid16, np.sin(grid16.meshgrid()[0]))
        assert abs(sobolev_norm(f, 1) - sobolev_norm(f, 0)) <= 1e-12 * sobolev_norm(f, 0)
        assert abs(sobolev_norm(f, 0) - np.sqrt(SIN_L2_SQ)) <= 1e-12 * np.sqrt(SIN_L2_SQ)

    def test_zero_field(self, grid16):
        f = SpectralField.from_physical(grid16, np.zeros(grid16.shape))
        assert sobolev_norm(f, 0) == 0.0

    def test_single_mode_hand_value(self, grid16):
        f = SpectralField.from_physical(grid16, np.sin(3 * grid16.meshgrid()[0]))
        assert abs(sobolev_norm(f, 2) - 9 * sobolev_norm(f, 0)) <= 1e-12 * sobolev_norm(f, 2)

    def test_agrees_with_physical_quadrature(self, grid16):
        # |grad f|^2 assembled from closed-form derivatives on the grid
        x, y, _ = grid16.meshgrid()
        f = SpectralField.from_physical(grid16, np.sin(x) + 0.5 * np.cos(2 * y))
        grad_sq = np.cos(x) ** 2 + np.sin(2 * y) ** 2
        quad = grid16.volume * np.mean(grad_sq)
        assert abs(sobolev_norm(f, 1) ** 2 - quad) <= 1e-10 * quad

    def test_rejects_negative_order(self, grid16):
        f = SpectralField.from_physical(grid16, np.sin(grid16.meshgrid()[0]))
        with pytest.raises(ValueError, match="non-negative"):
            sobolev_norm(f, -1)

    def test_hk_norm_accumulates(self, grid16):
        f = SpectralField.from_physical(grid16, np.sin(2 * grid16.meshgrid()[0]))
        expected = sum(sobolev_norm(f, j) ** 2 for j in range(4))
        assert abs(hk_norm_sq(f, 3) - expected) <= 1e-12 * expected


class TestNegativeNorm:
    def test_single_mode_half_scaling(self, grid16):
        f = SpectralField.from_physical(grid16, np.sin(2 * grid16.meshgrid()[0]))
        assert abs(negative_norm(f, 1.0) - 0.5 * sobolev_norm(f, 0)) <= 1e-12

    def test_unit_mode_any_s(self, grid16):
        f = SpectralField.from_physical(grid16, np.sin(grid16.meshgrid()[0]))
        for s in (0.3, 0.7, 1.2):
            assert abs(negative_norm(f, s) - sobolev_norm(f, 0)) <= 1e-12 * sobolev_norm(f, 0)

    def test_composition_oracle(self, grid16):
        x, y, _ = grid16.meshgrid()
        f = SpectralField.from_physical(grid16, np.sin(x) + np.sin(4 * y))
        via_composition = sobolev_norm(fractional_laplacian(f, -0.5), 0)
        assert abs(negative_norm(f, 0.5) - via_composition) <= 1e-12 * via_composition

    def test_rejects_nonzero_mean(self, grid16):
        f = SpectralField.from_physical(grid16, 1.0 + np.sin(grid16.meshgrid()[0]))
        with pytest.raises(ValueError, match="zero-mean"):
            negative_norm(f, 0.5)

    @pytest.mark.parametrize("s", [-0.1, 0.0, 1.5, 2.0])
    def test_rejects_s_out_of_range(self, grid16, s):
        f = SpectralField.from_physical(grid16, np.sin(grid16.meshgrid()[0]))
        with pytest.raises(ValueError, match=r"\(0, 1.5\)"):
            negative_norm(f, s)


class TestInterpolationCheck:
    def test_single_mode_equality(self, grid16):
        f = SpectralField.from_physical(grid16, np.sin(2 * grid16.meshgrid()[0]))
        lhs, rhs = interpolation_check(f, 1, 1.0)  # theta = 1/3
        assert abs(lhs - rhs) <= 1e-12 * rhs

    def test_unit_mode_equality(self, grid16):
        f = SpectralField.from_physical(grid16, np.sin(grid16.meshgrid()[0]))
        lhs, rhs = interpolation_check(f, 0, 0.5)
        assert abs(lhs - rhs) <= 1e-12 * rhs

    def test_two_mode_strict_inequality_with_oracle(self, grid16):
        x, y, _ = grid16.meshgrid()
        f = SpectralField.from_physical(grid16, np.sin(x) + 0.5 * np.sin(4 * y))
        lhs, rhs = interpolation_check(f, 0, 0.5)
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
                lhs, rhs = interpolation_check(f, l, s)
                assert lhs <= rhs * (1 + 1e-12)

    def test_zero_field_rejected(self, grid16):
        f = SpectralField.from_physical(grid16, np.zeros(grid16.shape))
        with pytest.raises(ValueError, match="zero field"):
            interpolation_check(f, 0, 0.5)


class TestGnRatio:
    def test_amplitude_invariance(self, grid16):
        rng = np.random.default_rng(6)
        f = random_zero_mean_field(rng, grid16, 4)
        f2 = SpectralField(grid16, 2.0 * f.coeffs)
        args = (1, 2.0, 0, 2.0, 2, 2.0, 0.5)
        assert abs(gn_ratio(f, *args) - gn_ratio(f2, *args)) <= 1e-12 * gn_ratio(f, *args)

    def test_single_mode_ratio_one(self, grid16):
        f = SpectralField.from_physical(grid16, np.sin(grid16.meshgrid()[0]))
        ratio = gn_ratio(f, 1, 2.0, 0, 2.0, 2, 2.0, 0.5)
        assert abs(ratio - 1.0) <= 1e-12

    def test_exponent_relation_enforced(self, grid16):
        f = SpectralField.from_physical(grid16, np.sin(grid16.meshgrid()[0]))
        with pytest.raises(ValueError, match="residual"):
            gn_ratio(f, 1, 2.0, 0, 2.0, 2, 2.0, 0.6)

    def test_theta_range_enforced(self, grid16):
        f = SpectralField.from_physical(grid16, np.sin(grid16.meshgrid()[0]))
        with pytest.raises(ValueError, match="theta"):
            gn_ratio(f, 1, 2.0, 0, 2.0, 2, 2.0, 0.25)

    def test_sobolev_embedding_case_bounded(self, grid32):
        # ||f||_L6 <= C ||grad f||_L2 across an ensemble; ratios finite and stable
        rng = np.random.default_rng(7)
        ratios = [gn_ratio(random_zero_mean_field(rng, grid32, 8), 0, 6.0, 0, 2.0, 1, 2.0, 1.0) for _ in range(30)]
        assert np.all(np.isfinite(ratios))
        assert max(ratios) < 1.0  # well below the sharp constant on this box


class TestCompositionBound:
    def test_smooth_composition_gradient_bound(self, grid16):
        # h(sigma) = 1/(sigma+rho_bar)^2 - 1/rho_bar^2 with ||sigma||_inf <= rho_bar/2:
        # the gradient of the composition is bounded by max |h'| times ||grad sigma||
        rng = np.random.default_rng(8)
        rho_bar = 1.0
        sigma_f = random_zero_mean_field(rng, grid16, 3)
        sigma = sigma_f.to_physical()
        sigma *= 0.5 * rho_bar / (2 * np.max(np.abs(sigma)))
        h = 1.0 / (sigma + rho_bar) ** 2 - 1.0 / rho_bar**2
        c_h = np.max(2.0 / (sigma + rho_bar) ** 3)
        lhs = sobolev_norm(SpectralField.from_physical(grid16, h), 1)
        rhs = c_h * sobolev_norm(SpectralField.from_physical(grid16, sigma), 1)
        assert lhs <= rhs * (1 + 1e-6)


class TestLpNorm:
    def test_sup_norm_is_grid_max(self, grid16):
        f = SpectralField.from_physical(grid16, np.sin(grid16.meshgrid()[0]))
        assert abs(lp_norm(f, np.inf) - 1.0) <= 1e-12

    def test_l2_matches_mode_sum(self, grid16):
        rng = np.random.default_rng(9)
        f = random_zero_mean_field(rng, grid16, 5)
        assert abs(lp_norm(f, 2.0) - sobolev_norm(f, 0)) <= 1e-10 * sobolev_norm(f, 0)


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
        state = self._state(dim, n)
        for coeffs in (state.sigma_hat, state.phi_hat):
            ref = _reference_mode_sum(state.grid, coeffs, order)
            assert state.grid.mode_sum_sq(coeffs, order) == pytest.approx(ref, rel=1e-13)

    def test_hk_norm_sq(self, dim, n):
        state = self._state(dim, n)
        for k in (0, 1, 3):
            ref = _reference_window(state.grid, state.sigma_hat, 0, k)
            assert hk_norm_sq(SpectralField(state.grid, state.sigma_hat), k) == pytest.approx(ref, rel=1e-13)

    def test_level_energy(self, dim, n):
        from nsac.diagnostics import level_energy, phi_sq_minus_one_hat

        state = self._state(dim, n)
        g = state.grid
        for l in (0, 1, 2):
            lv = level_energy(state, l)
            assert lv.sigma_hk == pytest.approx(_reference_window(g, state.sigma_hat, l, 3), rel=1e-13)
            u_ref = sum(_reference_window(g, state.u_hat[i], l, 3) for i in range(dim))
            assert lv.u_hk == pytest.approx(u_ref, rel=1e-13)
            assert lv.phi_grad == pytest.approx(_reference_window(g, state.phi_hat, l + 1, 3), rel=1e-13)
            phisq_ref = _reference_mode_sum(g, phi_sq_minus_one_hat(state), 0.0)
            assert lv.phi_sq == pytest.approx(phisq_ref, rel=1e-13)

    def test_negative_functional(self, dim, n):
        from nsac.diagnostics import negative_functional, phi_sq_minus_one_hat

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
            phisq_ref = _reference_mode_sum(g, phi_sq_minus_one_hat(state), -s)
            assert nf.phisq_neg == pytest.approx(phisq_ref, rel=1e-13)

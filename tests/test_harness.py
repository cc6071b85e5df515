"""Configuration parsing, initial conditions, and file formats."""

import struct

import numpy as np
import pytest

from nsac import Grid, PhysParams
from nsac.config import (
    ICSpec,
    RunConfig,
    build_run_config,
    load_config,
    parse_config_text,
    serialize_config,
)
from nsac.errors import ConfigError, InfeasibleInitialCondition
from nsac.initial import make_initial
from nsac.integrate import StepConfig
from nsac.io import (
    CSV_BASE_COLUMNS,
    CsvWriter,
    csv_header,
    format_float,
    read_csv,
    read_snapshot,
    write_snapshot,
)
from nsac.model import State
from nsac.spectral import SpectralField, hk_norm_sq


class TestConfigParsing:
    def test_basic_file(self):
        text = """
        # comment line
        grid.dim = 3
        grid.n = 16            # inline comment
        phys.nu = 2.0
        phys.lambda = 0.5
        step.dt = 0.01
        step.t_end = 2.0
        ic.kind = random_perturbation
        ic.delta = 0.001
        diag.s_list = 0.5, 1.0
        """
        cfg = build_run_config(parse_config_text(text))
        assert cfg.grid.n == 16
        assert cfg.phys.nu == 2.0
        assert cfg.phys.lam == 0.5
        assert cfg.step.dt == 0.01
        assert cfg.ic.kind == "random_perturbation"
        assert cfg.diag.s_list == (0.5, 1.0)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            build_run_config({"grid.m": "16"})

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError, match="cannot parse"):
            build_run_config({"grid.n": "sixteen"})

    def test_malformed_line_rejected(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_text("grid.n 16")

    def test_defaults_by_dimension(self):
        assert build_run_config({"grid.dim": "1"}).grid.n == 4096
        assert build_run_config({"grid.dim": "2"}).grid.n == 256
        assert build_run_config({}).grid.n == 64

    def test_invalid_grid_reported_as_config_error(self):
        with pytest.raises(ConfigError, match="grid"):
            build_run_config({"grid.n": "15"})

    def test_serialize_round_trip(self):
        cfg = build_run_config(
            {"grid.n": "16", "phys.nu": "0.7", "step.dt": "0.02", "ic.kind": "equilibrium"}
        )
        back = build_run_config(parse_config_text(serialize_config(cfg)))
        assert back == cfg

    def test_load_with_overrides(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("grid.n = 16\nstep.dt = 0.1\n")
        cfg = load_config(str(path), {"step.dt": "0.01"})
        assert cfg.step.dt == 0.01
        assert cfg.grid.n == 16


class TestMakeInitial:
    def _cfg(self, **ic):
        return RunConfig(
            grid=Grid(dim=3, n=16, length=2 * np.pi),
            phys=PhysParams(),
            step=StepConfig(dt=0.01, t_end=1.0),
            ic=ICSpec(**ic),
        )

    def test_equilibrium(self):
        state = make_initial(self._cfg(kind="equilibrium"))
        assert np.max(np.abs(state.sigma())) == 0.0
        assert np.max(np.abs(state.u())) == 0.0
        assert np.allclose(state.phi(), 1.0, atol=1e-14)

    @pytest.mark.parametrize("delta", [1e-2, 1e-3])
    @pytest.mark.parametrize("seed", [0, 99])
    def test_smallness_norm_exact(self, delta, seed):
        cfg = self._cfg(kind="random_perturbation", delta=delta, max_mode=3, seed=seed)
        state = make_initial(cfg)
        grid = cfg.grid
        su = np.sqrt(
            hk_norm_sq(SpectralField(state.grid, state.sigma_hat), 3)
            + sum(hk_norm_sq(SpectralField(state.grid, c), 3) for c in state.u_hat)
        )
        gp = np.sqrt(sum(sobolev_sq(state, j) for j in (1, 2, 3)))
        phisq = state.phi() ** 2 - 1.0
        l2 = np.sqrt(grid.volume * np.mean(phisq**2))
        assert su + gp + l2 == pytest.approx(delta, abs=1e-10)

    def test_phase_stays_below_one(self):
        state = make_initial(self._cfg(kind="random_perturbation", delta=5e-2, max_mode=3, seed=5))
        assert np.max(state.phi()) <= 1.0 + 1e-12
        assert np.min(state.phi()) > -1.0

    def test_determinism(self):
        a = make_initial(self._cfg(kind="random_perturbation", delta=1e-2, seed=7))
        b = make_initial(self._cfg(kind="random_perturbation", delta=1e-2, seed=7))
        assert np.array_equal(a.sigma_hat, b.sigma_hat)
        assert np.array_equal(a.u_hat, b.u_hat)
        assert np.array_equal(a.phi_hat, b.phi_hat)
        c = make_initial(self._cfg(kind="random_perturbation", delta=1e-2, seed=8))
        assert not np.array_equal(a.sigma_hat, c.sigma_hat)

    def test_zero_mean_sigma_u(self):
        state = make_initial(self._cfg(kind="random_perturbation", delta=1e-2, seed=9))
        assert abs(state.sigma_hat[(0, 0, 0)]) == 0.0
        assert np.max(np.abs(state.u_hat[:, 0, 0, 0])) == 0.0

    def test_infeasible_delta_fails_before_stepping(self):
        # the Sobolev weights soak up most of the nominal size, so the window
        # is only reachable pointwise for a large requested norm
        with pytest.raises(InfeasibleInitialCondition, match="delta"):
            make_initial(self._cfg(kind="random_perturbation", delta=100.0, max_mode=2, seed=1))

    def test_max_mode_must_fit_dealiased_band(self):
        with pytest.raises(InfeasibleInitialCondition, match="max_mode"):
            make_initial(self._cfg(kind="random_perturbation", delta=1e-2, max_mode=8, seed=1))

    def test_tanh_interface(self):
        state = make_initial(self._cfg(kind="tanh_interface", width=0.3))
        phi = state.phi()
        assert np.max(np.abs(phi)) <= 1.0
        assert np.max(np.abs(state.sigma())) == 0.0
        assert np.max(np.abs(state.u())) == 0.0
        # two interfaces: phi changes sign twice along the first axis
        line = phi[:, 0, 0]
        assert np.count_nonzero(np.diff(np.sign(line)) != 0) == 2

    def test_manufactured_deterministic(self):
        a = make_initial(self._cfg(kind="manufactured", amplitude=0.05))
        b = make_initial(self._cfg(kind="manufactured", amplitude=0.05))
        assert np.array_equal(a.sigma_hat, b.sigma_hat)
        assert np.max(a.phi()) <= 1.0 + 1e-12


def sobolev_sq(state, order):
    from nsac.spectral import sobolev_norm

    return sobolev_norm(SpectralField(state.grid, state.phi_hat), order) ** 2


class TestCsv:
    def test_header_schema(self):
        assert csv_header() == "t,mass,phi_max,E_total,E_kin,E_G,E_grad,E_dw,D_visc,D_div,D_mu,H3_sigma_u,H2_gradphi,L2_phisq"
        assert csv_header([0.5, 1.0]).endswith("L2_phisq,Eneg_s0.5,Eneg_s1")

    def test_shortest_round_trip_floats(self):
        assert format_float(0.1) == "0.1"
        assert format_float(1.0 / 3.0) == "0.3333333333333333"
        assert float(format_float(np.pi)) == np.pi

    def test_write_read_round_trip(self, tmp_path):
        path = tmp_path / "series.csv"
        with CsvWriter(str(path), s_list=(0.5,)) as w:
            w.write([0.1 * i for i in range(len(CSV_BASE_COLUMNS) + 1)])
            w.write([0.2 * i for i in range(len(CSV_BASE_COLUMNS) + 1)])
        data = read_csv(str(path))
        assert data["t"].shape == (2,)
        assert data["Eneg_s0.5"][1] == 0.2 * len(CSV_BASE_COLUMNS)

    def test_column_count_enforced(self, tmp_path):
        with CsvWriter(str(tmp_path / "x.csv")) as w:
            with pytest.raises(ValueError, match="columns"):
                w.write([1.0, 2.0])


class TestSnapshot:
    def test_round_trip(self, tmp_path):
        grid = Grid(dim=3, n=16, length=2 * np.pi)
        rng = np.random.default_rng(40)
        sigma = 0.01 * rng.standard_normal(grid.shape)
        u = 0.01 * rng.standard_normal((3,) + grid.shape)
        phi = 1.0 - 0.01 * rng.random(grid.shape)
        state = State.from_physical(grid, 1.25, sigma, u, phi)
        path = tmp_path / "state.nsac"
        write_snapshot(str(path), state)
        back = read_snapshot(str(path))
        assert back.t == 1.25
        assert back.grid.n == 16 and back.grid.dim == 3
        assert np.max(np.abs(back.sigma() - state.sigma())) <= 1e-13
        assert np.max(np.abs(back.u() - state.u())) <= 1e-13
        assert np.max(np.abs(back.phi() - state.phi())) <= 1e-13

    def test_exact_byte_layout(self, tmp_path):
        grid = Grid(dim=1, n=8, length=1.0)
        state = State.from_physical(grid, 0.5, np.zeros(8), np.zeros((1, 8)), np.ones(8))
        path = tmp_path / "tiny.nsac"
        write_snapshot(str(path), state)
        raw = path.read_bytes()
        assert raw[:5] == b"NSAC1"
        dim = struct.unpack_from("<I", raw, 5)[0]
        assert dim == 1
        n = struct.unpack_from("<I", raw, 9)[0]
        assert n == 8
        length = struct.unpack_from("<d", raw, 13)[0]
        assert length == 1.0
        t = struct.unpack_from("<d", raw, 21)[0]
        assert t == 0.5
        # three fields of n little-endian doubles follow
        assert len(raw) == 29 + 3 * 8 * 8

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.nsac"
        path.write_bytes(b"JUNK!" + b"\x00" * 64)
        with pytest.raises(ValueError, match="magic"):
            read_snapshot(str(path))

    @pytest.mark.parametrize(
        "cut, pad",
        [(8, 0), (3, 0), (29 + 3 * 8 * 8 - 20, 0), (0, 16)],
        ids=["one_double_short", "three_bytes_short", "cut_header", "sixteen_trailing_bytes"],
    )
    def test_size_must_match_header(self, tmp_path, cut, pad):
        grid = Grid(dim=1, n=8, length=1.0)
        state = State.from_physical(grid, 0.5, np.zeros(8), np.zeros((1, 8)), np.ones(8))
        path = tmp_path / "tiny.nsac"
        write_snapshot(str(path), state)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - cut] + b"\x00" * pad)
        with pytest.raises(ValueError, match=r"expected (at least )?\d+ bytes.*got \d+"):
            read_snapshot(str(path))

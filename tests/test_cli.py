"""End-to-end tests of the command-line surface."""

import filecmp
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nsac
from nsac import State
from nsac.cli import main
from nsac.config import build_run_config
from nsac.diagnostics import SeriesObserver
from nsac.io import read_csv

from conftest import TRANSFORMS, grid_counts, nsac_output


def base_overrides(tmp_path, tag=""):
    return [
        "grid.n=16",
        "step.dt=0.02",
        "step.t_end=0.5",
        f"out.csv={tmp_path}/run{tag}.csv",
        f"out.snapshot={tmp_path}/run{tag}.nsac",
        f"out.summary={tmp_path}/run{tag}.json",
    ]


class TestSimulate:
    def test_equilibrium_run(self, tmp_path):
        rc = main(["simulate", "ic.kind=equilibrium"] + base_overrides(tmp_path))
        assert rc == 0
        data = read_csv(f"{tmp_path}/run.csv")
        assert np.all(data["E_total"] == 0.0)
        assert np.all(data["phi_max"] == 1.0)
        assert np.all(data["mass"] == data["mass"][0])
        summary = json.loads((tmp_path / "run.json").read_text())
        assert summary["termination"] == "t_end"
        assert summary["energy_monotone"] and summary["max_principle"] and summary["mass_conserved"]

    def test_perturbation_run_monotone(self, tmp_path):
        rc = main(
            ["simulate", "ic.kind=random_perturbation", "ic.delta=0.01", "ic.max_mode=3", "ic.seed=2"]
            + base_overrides(tmp_path)
        )
        assert rc == 0
        data = read_csv(f"{tmp_path}/run.csv")
        e = data["E_total"]
        assert np.all(np.diff(e) <= 1e-10 * e[0])
        assert (tmp_path / "run.nsac").exists()

    def test_reproducible_byte_identical(self, tmp_path):
        args = ["simulate", "ic.kind=random_perturbation", "ic.delta=0.01", "ic.seed=11"]
        assert main(args + base_overrides(tmp_path, "a")) == 0
        assert main(args + base_overrides(tmp_path, "b")) == 0
        assert filecmp.cmp(f"{tmp_path}/runa.csv", f"{tmp_path}/runb.csv", shallow=False)

    def test_each_column_is_the_functional_its_header_names(self, tmp_path, params):
        from nsac.diagnostics import energy_ledger, level_energy, negative_functional
        from nsac.model import invariant_monitor
        from nsac.io import read_snapshot

        argv = ["simulate", "ic.kind=random_perturbation", "ic.delta=0.01", "ic.max_mode=3", "ic.seed=4"]
        assert main(argv + base_overrides(tmp_path)) == 0
        last = {name: column[-1] for name, column in read_csv(f"{tmp_path}/run.csv").items()}
        # the functionals taken directly on the state read back from the snapshot
        state = read_snapshot(f"{tmp_path}/run.nsac")
        inv, rep, lvl0 = invariant_monitor(state, params), energy_ledger(state, params), level_energy(state, 0)
        expected = {
            "t": state.t,
            "mass": inv.mass,
            "phi_max": inv.phi_max,
            "E_total": rep.total,
            "E_kin": rep.kinetic,
            "E_G": rep.g_part,
            "E_grad": rep.gradient_part,
            "E_dw": rep.double_well,
            "D_visc": rep.diss_visc,
            "D_div": rep.diss_div,
            "D_mu": rep.diss_mu,
            "H3_sigma_u": lvl0.sigma_hk + lvl0.u_hk,
            "H2_gradphi": lvl0.phi_grad,
            "L2_phisq": lvl0.phi_sq,
            "Eneg_s0.5": negative_functional(state, 0.5).total,
            "Eneg_s1": negative_functional(state, 1.0).total,
        }
        assert list(last) == list(expected)
        assert last == pytest.approx(expected, rel=1e-10)

    def test_summary_holds_every_run_summary_field(self, tmp_path, monkeypatch):
        from dataclasses import asdict

        from nsac import cli

        results = []

        def kept_run(*args, **kwargs):
            results.append(nsac.run(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(cli, "run", kept_run)
        assert main(["simulate", "ic.kind=equilibrium"] + base_overrides(tmp_path)) == 0
        summary = json.loads((tmp_path / "run.json").read_text())
        (result,) = results
        assert {name: summary[name] for name in asdict(result)} == asdict(result)

    def test_config_file_with_cli_override(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(
            "grid.n = 16\nstep.dt = 0.02\nstep.t_end = 0.1\nic.kind = equilibrium\n"
            f"out.csv = {tmp_path}/c.csv\nout.snapshot = {tmp_path}/c.nsac\nout.summary = {tmp_path}/c.json\n"
        )
        rc = main(["simulate", "--config", str(cfgfile), "step.t_end=0.04"])
        assert rc == 0
        data = read_csv(f"{tmp_path}/c.csv")
        assert data["t"][-1] == pytest.approx(0.04)

    def test_infeasible_ic_flushes_artifacts_and_fails(self, tmp_path):
        rc = main(
            ["simulate", "ic.kind=random_perturbation", "ic.delta=100.0", "ic.max_mode=2"]
            + base_overrides(tmp_path)
        )
        assert rc == 1
        summary = json.loads((tmp_path / "run.json").read_text())
        assert summary["termination"] == "infeasible_initial_condition"
        assert (tmp_path / "run.csv").exists()  # header-only, still flushed

    def test_max_principle_uses_configured_phi_tol(self, tmp_path):
        cfg = build_run_config({"grid.n": "8", "step.phi_tol": "1e-3"})
        observer = SeriesObserver(cfg)
        observer(0, State.equilibrium(cfg.grid, phi_value=1.0 + 1e-4))
        assert observer.verdicts()["max_principle"] is True

    def test_solver_error_still_writes_every_artifact(self, tmp_path, monkeypatch, capsys):
        from nsac import diagnostics
        from nsac.io import read_snapshot

        def broken_level_energy(state, l):
            raise FloatingPointError("overflow in level energy")

        monkeypatch.setattr(diagnostics, "level_energy", broken_level_energy)
        rc = main(["simulate", "ic.kind=equilibrium"] + base_overrides(tmp_path))
        assert rc == 1
        for name in ("run.csv", "run.nsac", "run.json"):
            assert (tmp_path / name).exists()
        summary = json.loads((tmp_path / "run.json").read_text())
        assert summary["termination"] == "error"
        assert summary["error_type"] == "FloatingPointError"
        assert "overflow in level energy" in summary["error"]
        assert read_snapshot(str(tmp_path / "run.nsac")).t == 0.0
        assert "FloatingPointError" in capsys.readouterr().err

    def test_invariant_violation_summary_is_written(self, tmp_path):
        # a violation's grid location must be JSON-serializable
        rc = main(
            ["simulate", "ic.kind=tanh_interface", "ic.width=0.3", "grid.n=32", "step.dt=0.05",
             "step.t_end=0.3", "diag.cadence=100"]
            + base_overrides(tmp_path)[2:]
        )
        assert rc == 1
        summary = json.loads((tmp_path / "run.json").read_text())
        assert summary["termination"] == "invariant_violation"
        assert summary["violation"]["field"] == "phi"
        assert all(isinstance(i, int) for i in summary["violation"]["location"])

    def test_max_steps_stop_writes_the_last_accepted_state(self, tmp_path):
        from nsac.io import read_snapshot

        rc = main(
            ["simulate", "grid.n=16", "step.dt=0.01", "step.t_end=1", "step.max_steps=5", "diag.cadence=10",
             "ic.seed=3"]
            + base_overrides(tmp_path)[3:]
        )
        assert rc == 1
        summary = json.loads((tmp_path / "run.json").read_text())
        assert summary["termination"] == "max_steps"
        assert summary["t_final"] == pytest.approx(0.05, rel=1e-12)
        assert summary["dt_limits"] == {"cap": 5, "cfl": 0, "t_end": 0}
        assert read_snapshot(str(tmp_path / "run.nsac")).t == summary["t_final"]
        assert read_csv(f"{tmp_path}/run.csv")["t"][-1] == summary["t_final"]

    def test_decay_fits_over_a_window_of_samples(self, tmp_path, monkeypatch):
        from nsac import cli
        from nsac.oracle import fit_exponent

        observers = []

        class KeptSeriesObserver(SeriesObserver):
            def __init__(self, cfg):
                super().__init__(cfg)
                observers.append(self)

        monkeypatch.setattr(cli, "SeriesObserver", KeptSeriesObserver)
        rc = main(
            ["simulate", "ic.kind=random_perturbation", "ic.seed=2", "diag.fit_t_lo=0.1", "diag.fit_t_hi=0.5"]
            + base_overrides(tmp_path)
        )
        assert rc == 0
        summary = json.loads((tmp_path / "run.json").read_text())
        (series,) = observers
        fits = summary["decay_fits"]
        assert [(f["l"], f["s"]) for f in fits] == [(l, s) for l in (0, 1, 2) for s in (0.5, 1.0)]
        for f in fits:
            assert "error" not in f and "passed" not in f
            assert isinstance(f["pass"], bool)
            assert f["target"] == -(f["l"] + f["s"])
            assert f["n_samples"] >= 10  # the samples at t = 0.1, 0.12, ..., 0.5
            assert f["exponent"] == fit_exponent(series.t, series.level[f["l"]], (0.1, 0.5)).exponent

    @pytest.mark.parametrize(
        "override",
        [
            "grid.length=inf",
            "phys.nu=inf",
            "diag.fit_t_lo=60",
            "diag.s_list=0.5,0.5",
            "ic.seed=-1",
            "ic.delta=inf",
            "ic.amplitude=nan",
            "ic.width=inf",
        ],
        ids=["length", "nu", "fit_window", "repeated_s", "negative_seed", "delta_inf", "amplitude_nan", "width_inf"],
    )
    def test_out_of_range_value_is_one_config_error(self, tmp_path, capsys, override):
        assert main(["simulate", override] + base_overrides(tmp_path)) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and err.count("\n") == 1
        assert not (tmp_path / "run.csv").exists()

    def test_unknown_key_is_config_error(self, tmp_path):
        rc = main(["simulate", "grid.bogus=3"] + base_overrides(tmp_path))
        assert rc == 2

    def test_negative_t_end_is_config_error(self, tmp_path):
        rc = main(["simulate"] + base_overrides(tmp_path) + ["step.t_end=-1"])
        assert rc == 2


class TestInputErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["fit", "--csv", "{tmp}/run.csv"],
            ["linear-decay", "--l", "0", "--s", "0.5", "--components", "phi", "--points", "5"],
            ["linear-decay", "--l", "0", "--s", "2", "--components", "phi", "--points", "15"],
            ["linear-decay", "--points", "0"],
            ["linear-decay", "--t-lo", "0"],
            ["linear-decay", "--t-lo", "-5"],
            ["linear-decay", "--t-lo", "1e4", "--t-hi", "1e2"],
            ["fit", "--csv", "{tmp}/two_series.csv", "--column", "value", "--where", "component=a", "--l", "1"],
            ["fit", "--csv", "{tmp}/two_series.csv", "--column", "value", "--where", "component=a", "--s", "0.5"],
            ["fit", "--csv", "{tmp}/missing.csv"],
            ["simulate", "out.csv={tmp}/absent/x.csv", "out.snapshot={tmp}/x.nsac", "out.summary={tmp}/x.json"],
            ["fit", "--csv", "{tmp}/no_t.csv"],
            ["fit", "--csv", "{tmp}/decay.csv", "--column", "value"],
            ["fit", "--csv", "{tmp}/ragged.csv"],
            ["fit", "--csv", "{tmp}/decay.csv", "--column", "kind"],
            ["fit", "--csv", "{tmp}/decay.csv", "--column", "l", "--where", "component=u"],
            ["fit", "--csv", "{tmp}/decay.csv", "--column", "l", "--where", "s=half"],
            ["fit", "--csv", "{tmp}/decay.csv", "--column", "l", "--where", "size=1"],
            ["fit", "--csv", "{tmp}/decay.csv", "--column", "l", "--where", "component"],
            ["fit", "--csv", "{tmp}/two_series.csv", "--column", "value"],
            ["verify", "--n", "12"],
            ["verify", "--n", "8"],
            ["linear-decay", "--l", ","],
            ["linear-decay", "--components", ""],
            ["linear-decay", "--l", "1,1"],
            ["linear-decay", "--s", "0.5,0.50"],
            ["linear-decay", "--components", "phi,phi"],
            ["linear-decay", "--l", "one"],
            ["verify", "--n", "16", "--seed", "-1"],
            ["fit", "--csv", "{tmp}/two_series.csv", "--column", "value", "--where", "component=a", "--t-lo", "nan"],
            ["fit", "--csv", "{tmp}/two_series.csv", "--column", "value", "--where", "component=a", "--t-hi", "nan"],
            ["fit", "--csv", "{tmp}/two_series.csv", "--column", "value", "--where", "component=a",
             "--t-lo", "0.3", "--t-hi", "0.1"],
            ["fit", "--csv", "{tmp}/nan_value.csv", "--column", "E_total"],
            ["fit", "--csv", "{tmp}/inf_t.csv", "--column", "E_total"],
            ["simulate", "out.csv={tmp}/x.csv", "out.snapshot={tmp}/absent/x.nsac", "out.summary={tmp}/x.json"],
            ["simulate", "out.csv={tmp}/x.csv", "out.snapshot={tmp}/x.nsac", "out.summary={tmp}/absent/x.json"],
            ["linear-decay", "--out-json", "{tmp}/absent/x.json"],
            ["linear-decay", "--out-csv", "{tmp}/absent/x.csv"],
            ["simulate", "out.csv={tmp}/x.csv", "out.snapshot={tmp}/x.nsac", "out.summary={tmp}"],
            ["simulate", "grid.n=16", "step.t_end=0.02",
             "out.csv={tmp}/a.out", "out.snapshot={tmp}/a.out", "out.summary={tmp}/x.json"],
            ["simulate", "grid.n=16", "step.t_end=0.02",
             "out.csv={tmp}/x.csv", "out.snapshot={tmp}/x.nsac", "out.summary={tmp}/./x.csv"],
            ["linear-decay", "--l", "0", "--s", "0.5", "--components", "phi", "--points", "10",
             "--out-json", "{tmp}/lin.csv"],
            ["fit", "--csv", "{tmp}/two_series.csv", "--column", "value", "--where", "component=a",
             "--l", "0", "--s", "nan"],
            ["fit", "--csv", "{tmp}/two_series.csv", "--column", "value", "--where", "component=a",
             "--l", "0", "--s", "inf"],
            ["linear-decay", "--out-json", ""],
            ["linear-decay", "--out-csv", ""],
        ],
        ids=[
            "fit_header_only_csv",
            "too_few_points",
            "s_out_of_range",
            "zero_points",
            "zero_t_lo",
            "negative_t_lo",
            "t_lo_above_t_hi",
            "fit_l_without_s",
            "fit_s_without_l",
            "fit_missing_csv",
            "simulate_missing_dir",
            "fit_csv_without_t",
            "fit_non_numeric_cell",
            "fit_ragged_row",
            "fit_text_column",
            "fit_where_matches_no_row",
            "fit_where_text_for_a_number",
            "fit_where_unknown_column",
            "fit_where_without_value",
            "fit_two_series_as_one",
            "verify_n_not_a_power_of_two",
            "verify_n_below_the_suite_minimum",
            "empty_l",
            "empty_components",
            "repeated_l",
            "repeated_s",
            "repeated_component",
            "non_integer_l",
            "verify_negative_seed",
            "fit_t_lo_nan",
            "fit_t_hi_nan",
            "fit_t_lo_above_t_hi",
            "fit_nan_value",
            "fit_inf_t",
            "simulate_snapshot_missing_dir",
            "simulate_summary_missing_dir",
            "linear_decay_json_missing_dir",
            "linear_decay_csv_missing_dir",
            "simulate_summary_is_a_directory",
            "simulate_csv_is_snapshot",
            "simulate_summary_is_csv",
            "linear_decay_json_is_csv",
            "fit_s_nan",
            "fit_s_inf",
            "linear_decay_json_empty",
            "linear_decay_csv_empty",
        ],
    )
    @pytest.mark.filterwarnings("error")  # a warning printed before the error line counts as a second line
    def test_one_error_line_exit_2_and_no_output(self, tmp_path, capsys, argv):
        # an infeasible initial condition leaves a header-only CSV
        main(["simulate", "ic.kind=random_perturbation", "ic.delta=100", "ic.max_mode=2"] + base_overrides(tmp_path))
        capsys.readouterr()
        (tmp_path / "no_t.csv").write_text("time,E_total\n1.0,2.0\n")
        (tmp_path / "decay.csv").write_text("component,kind,l,s,t,value\nphi,power,0,0.5,100.0,2.37e-3x\n")
        (tmp_path / "ragged.csv").write_text("t,E_total\n1.0,2.0\n3.0\n")
        # two decay series one after the other, as linear-decay writes them
        t = np.geomspace(1, 1e3, 12).tolist()
        series = [f"{c},{ti!r},{(1 + ti) ** -p!r}" for c, p in (("a", 1), ("b", 2)) for ti in t]
        (tmp_path / "two_series.csv").write_text("\n".join(["component,t,value"] + series) + "\n")
        # one decay series with a NaN sample, and one ending at t = inf
        decay = [f"{ti!r},{(1 + ti) ** -1!r}" for ti in t]
        (tmp_path / "nan_value.csv").write_text("\n".join(["t,E_total"] + decay[:5] + [f"{t[5]!r},nan"] + decay[6:]) + "\n")
        (tmp_path / "inf_t.csv").write_text("\n".join(["t,E_total"] + decay + ["inf,1e-4"]) + "\n")
        # a case's own --out-csv or --out-json comes later, so it wins
        outputs = ["--out-csv", f"{tmp_path}/lin.csv", "--out-json", f"{tmp_path}/lin.json"]
        argv = [a.format(tmp=tmp_path) for a in argv]
        argv = argv[:1] + outputs + argv[1:] if argv[0] == "linear-decay" else argv
        before = sorted(tmp_path.iterdir())
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert captured.out == ""
        assert not (tmp_path / "lin.csv").exists() and not (tmp_path / "lin.json").exists()
        assert sorted(tmp_path.iterdir()) == before

    def test_output_name_the_summary_cannot_hold_is_one_config_error(self, tmp_path, capsys):
        # summary.json embeds the config as text, where '#' starts a comment
        argv = ["simulate", "grid.n=16", "step.t_end=0.02",
                f"out.csv={tmp_path}/r#1.csv", f"out.snapshot={tmp_path}/x.nsac", f"out.summary={tmp_path}/x.json"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("configuration error: out.csv: ") and captured.err.count("\n") == 1
        assert captured.out == ""
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("key", ["out.csv", "out.snapshot", "out.summary"])
    def test_empty_output_path_is_one_config_error(self, tmp_path, capsys, key):
        # an empty value cannot load back from the summary's configuration text
        argv = ["simulate", "grid.n=16", "step.t_end=0.02",
                f"out.csv={tmp_path}/x.csv", f"out.snapshot={tmp_path}/x.nsac", f"out.summary={tmp_path}/x.json"]
        assert main(argv + [f"{key}="]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"configuration error: {key}: ") and captured.err.count("\n") == 1
        assert captured.out == ""
        assert not any(tmp_path.iterdir())

    def test_points_below_the_fit_minimum_name_the_option(self, tmp_path, capsys):
        outputs = ["--out-csv", f"{tmp_path}/lin.csv", "--out-json", f"{tmp_path}/lin.json"]
        assert main(["linear-decay", "--points", "9"] + outputs) == 2
        err = capsys.readouterr().err
        assert "--points 9" in err and "10" in err and "fit_exponent" in err

    def test_unknown_component_is_rejected_before_any_sweep(self, tmp_path, capsys, monkeypatch):
        # the phi and sigma sweeps come first in the list and must not run
        monkeypatch.setattr(nsac.oracle, "_adaptive_radial", None)  # no quadrature starts
        outputs = ["--out-csv", f"{tmp_path}/lin.csv", "--out-json", f"{tmp_path}/lin.json"]
        assert main(["linear-decay", "--components", "phi,sigma,bogus"] + outputs) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: unknown component 'bogus'; use sigma, u or phi\n"
        assert captured.out == ""
        assert sorted(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv, option",
        [
            (["linear-decay", "--tol-flow", "nan"], "--tol-flow"),
            (["linear-decay", "--tol-heat", "-1"], "--tol-heat"),
            (["fit", "--csv", "{tmp}/absent.csv", "--l", "1", "--s", "0", "--tol", "nan"], "--tol"),
        ],
        ids=["tol_flow", "tol_heat", "fit_tol"],
    )
    def test_tolerance_must_be_positive_and_finite(self, tmp_path, capsys, argv, option):
        # the linear-decay sweep would take seconds and the fit would read a missing CSV:
        # the tolerance is checked before either
        outputs = ["--out-csv", f"{tmp_path}/lin.csv", "--out-json", f"{tmp_path}/lin.json"]
        argv = [a.format(tmp=tmp_path) for a in argv] + (outputs if argv[0] == "linear-decay" else [])
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {option} ") and "positive and finite" in captured.err
        assert captured.err.count("\n") == 1 and captured.out == ""
        assert not (tmp_path / "lin.csv").exists() and not (tmp_path / "lin.json").exists()


class TestStartup:
    @staticmethod
    def _after_import(expression):
        src = str(Path(nsac.__file__).resolve().parents[1])
        code = f"import sys, nsac.cli; print({expression})"
        proc = subprocess.run(
            [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, check=True
        )
        return proc.stdout.strip()

    def test_import_leaves_scipy_linalg_unloaded(self):
        # only the dense expm reference needs it, and that lives in the tests
        assert self._after_import("'scipy.linalg' in sys.modules") == "False"

    def test_import_loads_no_scipy_module(self):
        # the transforms are numpy.fft, and nothing in the library imports scipy
        assert self._after_import("sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')") == "[]"

    def test_linear_decay_sweep_loads_no_scipy_module(self, tmp_path):
        # the oracle's Gauss-Jacobi rule is numpy too, so a sweep's first fit imports nothing more
        outputs = [f"--out-csv={tmp_path / 'lin.csv'}", f"--out-json={tmp_path / 'lin.json'}"]
        argv = ["linear-decay", "--points", "10", "--l", "0", "--s", "0.5", "--components", "phi"] + outputs
        loaded = f"nsac.cli.main({argv!r}), sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"
        assert self._after_import(loaded).splitlines()[-1] == "0 []"


class TestSampleCost:
    """What one observer sample costs, counted rather than timed."""

    def test_fft_fields_and_spectra_per_sample(self, tmp_path, monkeypatch):
        from nsac.initial import make_initial

        cfg = build_run_config(
            {"grid.n": "16", "ic.kind": "random_perturbation", "diag.l_list": "0,1,2", "diag.s_list": "0.5,1.0"}
        )
        # the IC check caches sigma and phi, as check_state does before a run samples a state
        state = make_initial(cfg)
        fields, calls = grid_counts(monkeypatch, TRANSFORMS + ("shell_spectrum",))

        SeriesObserver(cfg)(0, state)
        fft_fields = sum(fields[name] for name in TRANSFORMS)
        # u (3 fields), Lap phi and phi^2; spectra of sigma, u, phi and phi^2 - 1
        assert {"fft_fields": fft_fields, "spectra": calls["shell_spectrum"]} == {"fft_fields": 5, "spectra": 4}


class TestVerify:
    """The two runs are the fingerprint table's ``verify`` cases, shared through `nsac_output`."""

    def test_fresh_build_passes(self):
        rc, out = nsac_output("verify", "--n", "16", "--seed", "3")
        assert rc == 0
        assert "FAIL" not in out
        assert out.count("PASS") >= 9

    def test_injected_fault_detected(self):
        rc, out = nsac_output("verify", "--n", "16", "--seed", "3", "--inject-fault", "no_dealias")
        assert rc == 1
        assert "FAIL quadratic_product_alias_free" in out

    @pytest.mark.parametrize("n,seed", [(8, 0), (12, 0), (16, -1)])
    def test_library_suite_rejects_bad_input_before_any_check(self, monkeypatch, n, seed):
        import nsac.verify

        def ran(*args):
            raise AssertionError("a check ran")

        for name in dir(nsac.verify):
            if name.startswith("check_"):
                monkeypatch.setattr(nsac.verify, name, ran)
        with pytest.raises(ValueError, match="power of two" if seed >= 0 else "seed"):
            nsac.verify.run_property_suite(n=n, seed=seed)

    def test_invalid_config_rejected(self, tmp_path):
        # verify reads no configuration: --config is an unknown option
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text("grid.n = 0\n")
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--config", str(cfgfile)])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [["garbage"], ["garbage", "phys.nu=-3", "--n", "16"]])
    def test_stray_arguments_rejected(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(["verify", *argv])
        assert exc.value.code == 2


class TestLinearDecay:
    def test_heat_component_fits(self, tmp_path, capsys):
        rc = main(
            [
                "linear-decay",
                "--l", "0,1",
                "--s", "0.5",
                "--components", "phi",
                "--points", "15",
                "--out-csv", f"{tmp_path}/lin.csv",
                "--out-json", f"{tmp_path}/lin.json",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "PASS phi l=0" in out and "PASS phi l=1" in out
        fits = json.loads((tmp_path / "lin.json").read_text())["fits"]
        assert all(f["passed"] for f in fits)
        lines = (tmp_path / "lin.csv").read_text().splitlines()
        assert lines[0] == "component,kind,l,s,t,value"
        assert len(lines) == 1 + 2 * 15
        # plain numbers any CSV reader parses, one row per sample of each fit
        rows = [line.split(",") for line in lines[1:]]
        t = [float(row[4]) for row in rows]
        values = [float(row[5]) for row in rows]
        assert len(t) == len(values) == sum(f["n_samples"] for f in fits)
        assert t[0] == 100.0 and t[14] == pytest.approx(1e4) and all(v > 0 for v in values)


class TestFit:
    def _write_series(self, tmp_path, exponent):
        from nsac.diagnostics import CSV_BASE_COLUMNS
        from nsac.io import CsvWriter

        path = tmp_path / "series.csv"
        with CsvWriter(str(path), CSV_BASE_COLUMNS) as w:
            for t in np.geomspace(1, 1e3, 40):
                row = [t] + [0.0] * (len(CSV_BASE_COLUMNS) - 1)
                row[3] = (1 + t) ** exponent  # E_total column
                w.write(row)
        return str(path)

    def test_plain_fit(self, tmp_path, capsys):
        path = self._write_series(tmp_path, -2.0)
        rc = main(["fit", "--csv", path, "--column", "E_total"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["exponent"] == pytest.approx(-2.0, abs=1e-9)

    def test_fit_against_target(self, tmp_path, capsys):
        path = self._write_series(tmp_path, -1.5)
        rc = main(["fit", "--csv", path, "--column", "E_total", "--l", "1", "--s", "0.5", "--tol", "0.1"])
        assert rc == 0
        rc = main(["fit", "--csv", path, "--column", "E_total", "--l", "2", "--s", "0.5", "--tol", "0.1"])
        assert rc == 1

    def test_unbounded_window_allowed(self, tmp_path, capsys):
        path = self._write_series(tmp_path, -2.0)
        assert main(["fit", "--csv", path, "--t-lo", "10", "--t-hi", "inf"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["window"] == [10.0, np.inf] and out["exponent"] == pytest.approx(-2.0, abs=1e-9)

    @pytest.mark.parametrize(
        "window",
        [["--t-lo", "nan"], ["--t-hi", "nan"], ["--t-lo", "30", "--t-hi", "20"]],
        ids=["lo_nan", "hi_nan", "inverted"],
    )
    def test_window_error_names_the_options(self, tmp_path, capsys, window):
        path = self._write_series(tmp_path, -2.0)
        assert main(["fit", "--csv", path, *window]) == 2
        err = capsys.readouterr().err
        assert "--t-lo" in err and "--t-hi" in err and "samples" not in err

    def test_missing_column(self, tmp_path):
        path = self._write_series(tmp_path, -1.0)
        rc = main(["fit", "--csv", path, "--column", "nope"])
        assert rc == 2

    def test_where_selects_equal_cells(self, tmp_path, capsys):
        # text columns compare as text, numeric ones as floats ("1" matches 1.0)
        t = np.geomspace(1, 1e3, 20).tolist()
        rows = [f"{c},{l!r},{ti!r},{(1 + ti) ** -(l + 1)!r}" for c in ("a", "b") for l in (1.0, 2.0) for ti in t]
        path = tmp_path / "mixed.csv"
        path.write_text("\n".join(["c,l,t,v"] + rows) + "\n")
        for where, exponent in (("c=a,l=1", -2.0), ("l=2,c=b", -3.0)):
            assert main(["fit", "--csv", str(path), "--column", "v", "--where", where]) == 0
            out = json.loads(capsys.readouterr().out)
            assert out["n_samples"] == 20 and out["exponent"] == pytest.approx(exponent, abs=1e-9)

    def test_round_trip_of_the_linear_decay_csv(self, tmp_path, capsys):
        csv, fits = tmp_path / "lin.csv", tmp_path / "lin.json"
        argv = ["linear-decay", "--components", "sigma,u", "--l", "0,1", "--s", "0.5,1", "--points", "12"]
        assert main(argv + ["--out-csv", str(csv), "--out-json", str(fits)]) == 0
        capsys.readouterr()
        (entry,) = [
            f for f in json.loads(fits.read_text())["fits"] if (f["component"], f["l"], f["s"]) == ("sigma", 1, 0.5)
        ]
        rc = main(
            ["fit", "--csv", str(csv), "--column", "value", "--where", "component=sigma,l=1,s=0.5", "--l", "1", "--s", "0.5"]
        )
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["n_samples"] == 12
        for key in ("exponent", "prefactor", "r2"):
            assert out[key] == entry[key]

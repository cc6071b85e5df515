"""Command-line harness: ``simulate``, ``linear-decay``, ``verify``, ``fit``.

Configuration comes from ``--config <file>`` in the flat dotted-key format;
any trailing ``key=value`` arguments override file entries. Outputs are
byte-stable given identical configuration (seed included).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .config import RunConfig, build_run_config, load_config, serialize_config
from .diagnostics import decay_suite, energy_ledger, level_energy, negative_functional
from .errors import ConfigError, InfeasibleInitialCondition, QuadratureError
from .initial import make_initial
from .integrate import run
from .io import CsvWriter, read_csv, write_snapshot, write_summary
from .model import energy_monotone, invariant_monitor
from .oracle import DataProfile, decay_norm, fit_exponent
from .verify import run_property_suite


def _split_overrides(pairs) -> dict[str, str]:
    out = {}
    for item in pairs:
        token = item.lstrip("-")
        if "=" not in token:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        key, value = token.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _build_config(args) -> RunConfig:
    overrides = _split_overrides(args.overrides)
    if args.config:
        return load_config(args.config, overrides)
    return build_run_config(overrides)


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


class _SeriesObserver:
    """Writes CSV rows and keeps series and per-sample ``invariant_monitor`` verdicts."""

    def __init__(self, cfg: RunConfig, writer: CsvWriter):
        self.cfg = cfg
        self.writer = writer
        self.t = []
        self.energy = []
        self.level = {l: [] for l in cfg.diag.l_list}
        self.neg = {s: [] for s in cfg.diag.s_list}
        self.mass0 = None
        self.mass_drift_max = 0.0
        self.phi_max_overall = 0.0
        self.max_principle = True
        self.mass_conserved = True
        self.admissible = True
        self.last_state = None
        self.diss_cumulative = 0.0
        self._last = None  # (t, dissipation) for trapezoid accumulation

    def __call__(self, _step: int, state) -> None:
        self.last_state = state
        params = self.cfg.phys
        inv = invariant_monitor(state, params, mass_reference=self.mass0, phi_tol=self.cfg.step.phi_tol)
        if self.mass0 is None:
            self.mass0 = inv.mass
        self.mass_drift_max = max(self.mass_drift_max, abs(inv.mass_drift or 0.0))
        self.phi_max_overall = max(self.phi_max_overall, inv.phi_max)
        self.max_principle &= inv.phase_bounded
        self.mass_conserved &= inv.mass_conserved
        self.admissible &= inv.clean

        rep = energy_ledger(state, params)

        levels = {l: level_energy(state, l) for l in self.cfg.diag.l_list}
        lvl0 = levels.get(0) or level_energy(state, 0)
        negs = [negative_functional(state, s).total for s in self.cfg.diag.s_list]

        diss = rep.diss_visc + rep.diss_div + rep.diss_mu
        if self._last is not None:
            t0, d0 = self._last
            self.diss_cumulative += 0.5 * (state.t - t0) * (d0 + diss)
        self._last = (state.t, diss)

        self.t.append(state.t)
        self.energy.append(rep.total)
        for l, lv in levels.items():
            self.level[l].append(lv.combined)
        for s, val in zip(self.cfg.diag.s_list, negs):
            self.neg[s].append(val)

        row = [
            state.t,
            inv.mass,
            inv.phi_max,
            rep.total,
            rep.kinetic,
            rep.g_part,
            rep.gradient_part,
            rep.double_well,
            rep.diss_visc,
            rep.diss_div,
            rep.diss_mu,
            lvl0.sigma_hk + lvl0.u_hk,
            lvl0.phi_grad,
            lvl0.phi_sq,
        ] + negs
        self.writer.write(row)

    def verdicts(self) -> dict:
        e = np.asarray(self.energy)
        out = {
            "energy_monotone": energy_monotone(e),
            "max_principle": self.max_principle,
            "mass_conserved": self.mass_conserved,
            "admissible": self.admissible,
            "mass_drift_max": self.mass_drift_max,
            "phi_max_overall": self.phi_max_overall,
            "dissipation_cumulative": self.diss_cumulative,
        }
        if e.size:
            out["dissipation_within_budget"] = bool(self.diss_cumulative <= 1.1 * e[0])
        return out

    def decay_fits(self) -> list[dict]:
        fits = []
        t = np.asarray(self.t)
        window = (self.cfg.diag.fit_t_lo, min(self.cfg.diag.fit_t_hi, float(t[-1]) if t.size else 0.0))
        for l in self.cfg.diag.l_list:
            series = np.asarray(self.level[l])
            for s in self.cfg.diag.s_list:
                entry = {"l": l, "s": s}
                try:
                    fit = decay_suite(t, series, l, s, tol=self.cfg.diag.fit_tol, window=window)
                    entry.update(fit.as_dict())
                    entry["pass"] = entry.pop("passed")
                except (ValueError, ZeroDivisionError) as err:
                    entry.update({"pass": False, "error": str(err)})
                fits.append(entry)
        return fits


def cmd_simulate(args) -> int:
    """Run one configuration; CSV, snapshot and summary are written on any outcome."""
    cfg = _build_config(args)
    summary: dict = {"config": serialize_config(cfg)}
    writer = CsvWriter(cfg.out.csv, cfg.diag.s_list)
    observer = _SeriesObserver(cfg, writer)
    state = None
    try:
        state = make_initial(cfg)
        result = run(state, cfg.step, cfg.phys, observers=(observer,), cadence=cfg.diag.cadence)
        summary.update(
            termination=result.termination,
            steps=result.steps,
            t_final=result.t_final,
            dt_limits=result.dt_limits,
            violation=result.violation,
            decay_fits=observer.decay_fits(),
            **observer.verdicts(),
        )
    except InfeasibleInitialCondition as err:
        summary.update(termination="infeasible_initial_condition", error=str(err))
    except Exception as err:
        summary.update(termination="error", error_type=type(err).__name__, error=str(err))
    finally:
        writer.close()
        final = observer.last_state or state
        if final is not None:
            write_snapshot(cfg.out.snapshot, final)
        write_summary(cfg.out.summary, summary)

    if "error" in summary:
        cause = summary.get("error_type", "infeasible initial condition")
        print(f"error: {cause}: {summary['error']}", file=sys.stderr)
        return 1
    print(
        f"simulate: {summary['termination']} after {summary['steps']} steps (t = {summary['t_final']:g}); "
        f"artifacts: {cfg.out.csv}, {cfg.out.snapshot}, {cfg.out.summary}"
    )
    return 0 if summary["termination"] == "t_end" else 1


# ---------------------------------------------------------------------------
# linear-decay
# ---------------------------------------------------------------------------


def _parse_list(text: str, kind):
    return tuple(kind(tok) for tok in text.split(",") if tok.strip())


def cmd_linear_decay(args) -> int:
    cfg = _build_config(args)
    params = cfg.phys
    ls = _parse_list(args.l, int)
    ss = _parse_list(args.s, float)
    components = _parse_list(args.components, str)
    ts = np.geomspace(args.t_lo, args.t_hi, args.points)

    lines = ["component,kind,l,s,t,value"]
    fits = []
    for comp in components:
        tol = args.tol_heat if comp == "phi" else args.tol_flow
        for s in ss:
            profile = DataProfile(s=s, kind=args.profile)
            for l in ls:
                try:
                    values = [decay_norm(l, s, float(t), profile, comp, params) for t in ts]
                except QuadratureError as err:
                    print(f"error: {err}", file=sys.stderr)
                    return 1
                for t, v in zip(ts, values):
                    lines.append(f"{comp},{args.profile},{l},{s!r},{t!r},{v!r}")
                target_s = 1.5 if args.profile == "l1" else s
                fit = decay_suite(ts, values, l, target_s, tol=tol)
                entry = {"component": comp, "l": l, "s": s, "profile": args.profile}
                entry.update(fit.as_dict())
                fits.append(entry)

    with open(args.out_csv, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    with open(args.out_json, "w", encoding="utf-8", newline="\n") as fh:
        json.dump({"fits": fits}, fh, indent=2, sort_keys=True)
        fh.write("\n")

    failed = [f for f in fits if not f["passed"]]
    for f in fits:
        status = "PASS" if f["passed"] else "FAIL"
        print(
            f"{status} {f['component']} l={f['l']} s={f['s']}: "
            f"exponent {f['exponent']:+.4f} vs target {f['target']:+.4f} (r2 {f['r2']:.5f})"
        )
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def cmd_verify(args) -> int:
    if args.config:
        _build_config(args)  # fail fast on bad configuration
    results = run_property_suite(n=args.n, seed=args.seed, inject_fault=args.inject_fault)
    failed = 0
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"{status} {res.name}: {res.detail}")
        failed += 0 if res.passed else 1
    print(f"{len(results) - failed}/{len(results)} properties passed")
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------


def cmd_fit(args) -> int:
    data = read_csv(args.csv)
    if args.column not in data:
        print(f"error: column {args.column!r} not in {sorted(data)}", file=sys.stderr)
        return 2
    t = data["t"]
    window = (args.t_lo if args.t_lo is not None else float(t.min()),
              args.t_hi if args.t_hi is not None else float(t.max()))
    try:
        if args.l is not None and args.s is not None:
            fit = decay_suite(t, data[args.column], args.l, args.s, tol=args.tol, window=window)
        else:
            fit = fit_exponent(t, data[args.column], window)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    print(json.dumps(fit.as_dict(), indent=2, sort_keys=True))
    if fit.passed is not None and not fit.passed:
        return 1
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _add_config_arguments(p):
    p.add_argument("--config", help="path to a flat key=value configuration file")
    p.add_argument(
        "overrides",
        nargs="*",
        default=[],
        help="configuration overrides, e.g. grid.n=64 step.t_end=50",
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="nsac",
        description="Pseudo-spectral two-phase flow solver and verification harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run a simulation with diagnostics")
    _add_config_arguments(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_lin = sub.add_parser("linear-decay", help="decay norms of the linearized system")
    _add_config_arguments(p_lin)
    p_lin.add_argument("--l", default="0,1,2", help="comma list of derivative orders")
    p_lin.add_argument("--s", default="0.5,1,1.49", help="comma list of regularity indices")
    p_lin.add_argument("--components", default="phi,sigma,u")
    p_lin.add_argument("--profile", default="power", choices=("power", "l1"))
    p_lin.add_argument("--t-lo", type=float, default=1e2, dest="t_lo")
    p_lin.add_argument("--t-hi", type=float, default=1e4, dest="t_hi")
    p_lin.add_argument("--points", type=int, default=40)
    p_lin.add_argument("--tol-heat", type=float, default=0.1, dest="tol_heat")
    p_lin.add_argument("--tol-flow", type=float, default=0.15, dest="tol_flow")
    p_lin.add_argument("--out-csv", default="linear_decay.csv", dest="out_csv")
    p_lin.add_argument("--out-json", default="linear_decay_fits.json", dest="out_json")
    p_lin.set_defaults(func=cmd_linear_decay)

    p_ver = sub.add_parser("verify", help="run the operator/invariant property suite")
    _add_config_arguments(p_ver)
    p_ver.add_argument("--n", type=int, default=16, help="grid points per axis for the suite")
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument(
        "--inject-fault",
        default="none",
        choices=("none", "no_dealias"),
        dest="inject_fault",
        help="self-test hook: run the suite with a deliberately broken solver",
    )
    p_ver.set_defaults(func=cmd_verify)

    p_fit = sub.add_parser("fit", help="offline decay fit on an existing CSV column")
    p_fit.add_argument("--csv", required=True)
    p_fit.add_argument("--column", default="E_total")
    p_fit.add_argument("--t-lo", type=float, default=None, dest="t_lo")
    p_fit.add_argument("--t-hi", type=float, default=None, dest="t_hi")
    p_fit.add_argument("--l", type=int, default=None)
    p_fit.add_argument("--s", type=float, default=None)
    p_fit.add_argument("--tol", type=float, default=0.1)
    p_fit.set_defaults(func=cmd_fit)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

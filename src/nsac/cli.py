"""Command-line harness: ``simulate``, ``linear-decay``, ``verify``, ``fit``.

``simulate`` and ``linear-decay`` read their configuration from
``--config <file>`` in the flat dotted-key format; any trailing
``key=value`` arguments override file entries. Outputs are
byte-stable given identical configuration (seed included).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .config import RunConfig, build_run_config, load_config, serialize_config
from .diagnostics import SeriesObserver, decay_suite
from .errors import ConfigError, InfeasibleInitialCondition, QuadratureError
from .initial import make_initial
from .integrate import run
from .io import CsvWriter, format_float, read_csv, write_snapshot, write_summary
from .oracle import MIN_FIT_SAMPLES, DataProfile, decay_norms, fit_exponent
from .verify import MIN_SUITE_N, run_property_suite


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


def cmd_simulate(args) -> int:
    """Run one configuration; CSV, snapshot and summary are written on any outcome."""
    cfg = _build_config(args)
    summary: dict = {"config": serialize_config(cfg)}
    writer = CsvWriter(cfg.out.csv, cfg.diag.s_list)
    series = SeriesObserver(cfg)
    state = None
    try:
        state = make_initial(cfg)
        observe = (lambda i, s: writer.write(series(i, s)),)
        result = run(state, cfg.step, cfg.phys, observers=observe, cadence=cfg.diag.cadence)
        summary.update(
            termination=result.termination,
            steps=result.steps,
            t_final=result.t_final,
            dt_limits=result.dt_limits,
            violation=result.violation,
            decay_fits=series.decay_fits(),
            **series.verdicts(),
        )
    except InfeasibleInitialCondition as err:
        summary.update(termination="infeasible_initial_condition", error=str(err))
    except Exception as err:
        summary.update(termination="error", error_type=type(err).__name__, error=str(err))
    finally:
        writer.close()
        final = series.last_state or state
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
    if args.points < MIN_FIT_SAMPLES:
        print(
            f"error: --points {args.points} is below {MIN_FIT_SAMPLES}, the fewest samples fit_exponent fits",
            file=sys.stderr,
        )
        return 2
    if not 0 < args.t_lo < args.t_hi < np.inf:  # also false for a NaN
        print(
            f"error: --t-lo {args.t_lo} and --t-hi {args.t_hi} must be finite with 0 < t_lo < t_hi", file=sys.stderr
        )
        return 2
    ts = np.geomspace(args.t_lo, args.t_hi, args.points)

    lines = ["component,kind,l,s,t,value"]
    fits = []
    try:  # nothing is written unless every fit is made
        for comp in components:
            tol = args.tol_heat if comp == "phi" else args.tol_flow
            pairs = [(l, DataProfile(s=s, kind=args.profile)) for s in ss for l in ls]
            # one shared quadrature per t; columns[i][j] is pairs[j]'s norm at ts[i]
            columns = [decay_norms(pairs, float(t), comp, params) for t in ts]
            for j, (l, profile) in enumerate(pairs):
                s = profile.s
                values = [column[j] for column in columns]
                for t, v in zip(ts, values):
                    lines.append(f"{comp},{args.profile},{l},{s!r},{format_float(t)},{format_float(v)}")
                target_s = 1.5 if args.profile == "l1" else s
                fit = decay_suite(ts, values, l, target_s, tol=tol)
                entry = {"component": comp, "l": l, "s": s, "profile": args.profile}
                entry.update(fit.as_dict())
                fits.append(entry)
    except (QuadratureError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1 if isinstance(err, QuadratureError) else 2

    with open(args.out_csv, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    write_summary(args.out_json, {"fits": fits})

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
    if args.n < MIN_SUITE_N or args.n & (args.n - 1):
        print(f"error: --n {args.n}: the property suite needs a power of two >= {MIN_SUITE_N}", file=sys.stderr)
        return 2
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


def _where(data: dict[str, np.ndarray], where: str) -> dict[str, np.ndarray]:
    """The rows whose cells equal every ``column=value`` of ``where``; numeric columns compare as floats."""
    keep = True
    for term in where.split(","):
        name, sep, wanted = (part.strip() for part in term.partition("="))
        if not sep or not name:
            raise ValueError(f"--where term {term!r} is not of the form column=value")
        if name not in data:
            raise ValueError(f"--where column {name!r} not in {sorted(data)}")
        column = data[name]
        if column.dtype.kind == "f":
            try:
                wanted = float(wanted)
            except ValueError:
                raise ValueError(f"--where {name}={wanted}: column {name!r} holds numbers") from None
        keep = keep & (column == wanted)
    return {name: column[keep] for name, column in data.items()}


def cmd_fit(args) -> int:
    try:
        if (args.l is None) != (args.s is None):
            raise ValueError("--l and --s set the target together: give both or neither")
        data = read_csv(args.csv, numeric=("t", args.column))
        for name in ("t", args.column):
            if name not in data:
                raise ValueError(f"column {name!r} not in {sorted(data)}")
        if args.where:
            data = _where(data, args.where)
        t = data["t"]
        if not t.size:
            if args.where:
                raise ValueError(f"no row of {args.csv} matches --where {args.where}")
            raise ValueError(f"{args.csv} holds no samples")
        if np.any(np.diff(t) <= 0):
            raise ValueError(
                f"t is not strictly increasing in the selected rows of {args.csv}: they hold more than"
                " one series; pick one with --where column=value"
            )
        window = (args.t_lo if args.t_lo is not None else float(t.min()),
                  args.t_hi if args.t_hi is not None else float(t.max()))
        if args.l is not None:
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
    p_ver.add_argument(
        "--n", type=int, default=16, help=f"grid points per axis for the suite, a power of two >= {MIN_SUITE_N}"
    )
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
    p_fit.add_argument(
        "--where",
        default=None,
        help="fit only the rows whose cells equal every column=value of a comma list, "
        "e.g. component=sigma,l=1,s=0.5 on the linear-decay CSV; numeric columns compare as floats",
    )
    p_fit.set_defaults(func=cmd_fit)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 2
    except OSError as err:  # an input that cannot be read or an output that cannot be created
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Run configuration: flat dotted-key text format and typed assembly.

The on-disk format is one ``key = value`` pair per line with ``#`` comments,
keys dotted by section (``grid.n``, ``phys.nu``, ``ic.delta``). The same keys
are accepted as command-line overrides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

from .errors import ConfigError
from .integrate import StepConfig
from .model import PhysParams
from .spectral import Grid

#: Default points per axis by dimension (desk-scale resolutions).
DEFAULT_N = {1: 4096, 2: 256, 3: 64}


@dataclass(frozen=True)
class ICSpec:
    kind: str = "equilibrium"  # equilibrium | random_perturbation | tanh_interface | manufactured
    delta: float = 1e-2
    max_mode: int = 4
    seed: int = 12345
    width: float = 0.2
    amplitude: float = 0.05

    def __post_init__(self):
        kinds = ("equilibrium", "random_perturbation", "tanh_interface", "manufactured")
        if self.kind not in kinds:
            raise ConfigError(f"ic.kind must be one of {kinds}, got {self.kind!r}")
        if self.kind == "random_perturbation" and not self.delta > 0:
            raise ConfigError(f"ic.delta must be positive, got {self.delta}")
        if self.max_mode < 1:
            raise ConfigError(f"ic.max_mode must be >= 1, got {self.max_mode}")
        if not self.width > 0:
            raise ConfigError(f"ic.width must be positive, got {self.width}")


@dataclass(frozen=True)
class DiagSpec:
    s_list: tuple = (0.5, 1.0)
    l_list: tuple = (0, 1, 2)
    cadence: int = 1
    fit_t_lo: float = 5.0
    fit_t_hi: float = 50.0
    fit_tol: float = 0.25

    def __post_init__(self):
        if self.cadence < 1:
            raise ConfigError("diag.cadence must be >= 1")
        for s in self.s_list:
            if not (0.0 < s < 1.5):
                raise ConfigError(f"diag.s_list entries must lie in (0, 1.5), got {s}")
        for l in self.l_list:
            if l not in (0, 1, 2):
                raise ConfigError(f"diag.l_list entries must be 0, 1 or 2, got {l}")
        for name in ("s_list", "l_list"):  # a repeated entry would repeat a CSV column or a fit
            entries = getattr(self, name)
            if len(set(entries)) != len(entries):
                raise ConfigError(f"diag.{name} repeats an entry: {entries}")
        if not 0 <= self.fit_t_lo < self.fit_t_hi:  # also false for a NaN
            raise ConfigError(
                f"diag.fit_t_lo and diag.fit_t_hi need 0 <= fit_t_lo < fit_t_hi, "
                f"got {self.fit_t_lo} and {self.fit_t_hi}"
            )
        if not 0 < self.fit_tol < math.inf:
            raise ConfigError(f"diag.fit_tol must be positive and finite, got {self.fit_tol}")


@dataclass(frozen=True)
class OutSpec:
    csv: str = "run.csv"
    snapshot: str = "final.nsac"
    summary: str = "summary.json"


@dataclass(frozen=True)
class RunConfig:
    grid: Grid
    phys: PhysParams
    step: StepConfig
    ic: ICSpec = field(default_factory=ICSpec)
    diag: DiagSpec = field(default_factory=DiagSpec)
    out: OutSpec = field(default_factory=OutSpec)


def parse_config_text(text: str) -> dict[str, str]:
    """Parse the flat key/value format into a raw string mapping."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key, value = key.strip(), value.strip()
        if not key or not value:
            raise ConfigError(f"line {lineno}: empty key or value in {raw!r}")
        out[key] = value
    return out


def _parse_scalar(key: str, value: str, kind):
    try:
        if kind is bool:
            lowered = value.lower()
            if lowered in ("true", "1", "yes", "on"):
                return True
            if lowered in ("false", "0", "no", "off"):
                return False
            raise ValueError(value)
        if kind is int:
            return int(value)
        if kind is float:
            # allow simple expressions like 2*pi for box lengths
            if value.replace(" ", "") in ("2*pi", "2pi"):
                return 2.0 * math.pi
            return float(value)
        return value
    except ValueError as err:
        raise ConfigError(f"{key}: cannot parse {value!r} as {kind.__name__}") from err


def _parse_tuple(key: str, value: str, kind):
    return tuple(_parse_scalar(key, item.strip(), kind) for item in value.split(",") if item.strip())


_SCHEMA = {
    "grid.dim": int,
    "grid.n": int,
    "grid.length": float,
    "phys.nu": float,
    "phys.lambda": float,
    "phys.epsilon": float,
    "phys.rho_bar": float,
    "phys.pressure_a": float,
    "phys.pressure_gamma": float,
    "step.dt": float,
    "step.cfl": float,
    "step.t_end": float,
    "step.max_steps": int,
    "step.scheme_order": int,
    "step.reaction_shift": bool,
    "step.phi_tol": float,
    "ic.kind": str,
    "ic.delta": float,
    "ic.max_mode": int,
    "ic.seed": int,
    "ic.width": float,
    "ic.amplitude": float,
    "diag.s_list": (tuple, float),
    "diag.l_list": (tuple, int),
    "diag.cadence": int,
    "diag.fit_t_lo": float,
    "diag.fit_t_hi": float,
    "diag.fit_tol": float,
    "out.csv": str,
    "out.snapshot": str,
    "out.summary": str,
}


def build_run_config(raw: dict[str, str]) -> RunConfig:
    """Typed RunConfig from raw keys; unknown keys are errors, not warnings."""
    typed: dict[str, object] = {}
    for key, value in raw.items():
        if key not in _SCHEMA:
            raise ConfigError(f"unknown configuration key {key!r}")
        kind = _SCHEMA[key]
        if isinstance(kind, tuple):
            typed[key] = _parse_tuple(key, value, kind[1])
        else:
            typed[key] = _parse_scalar(key, value, kind)

    def section(prefix: str) -> dict:
        return {k.split(".", 1)[1]: v for k, v in typed.items() if k.startswith(prefix + ".")}

    gsec = section("grid")
    dim = gsec.get("dim", 3)
    n = gsec.get("n", DEFAULT_N.get(dim))
    if n is None:
        raise ConfigError(f"grid.dim must be 1, 2 or 3, got {dim}")
    length = gsec.get("length", 2.0 * math.pi)
    try:
        grid = Grid(dim=dim, n=n, length=length)
    except ValueError as err:
        raise ConfigError(f"grid: {err}") from err

    psec = section("phys")
    if "lambda" in psec:
        psec["lam"] = psec.pop("lambda")
    try:
        phys = PhysParams(**psec)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"phys: {err}") from err

    ssec = section("step")
    ssec.setdefault("dt", 0.05)
    ssec.setdefault("t_end", 1.0)
    try:
        step = StepConfig(**ssec)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"step: {err}") from err

    ic = ICSpec(**section("ic"))
    diag = DiagSpec(**section("diag"))
    out = OutSpec(**section("out"))
    return RunConfig(grid=grid, phys=phys, step=step, ic=ic, diag=diag, out=out)


def load_config(path: str, overrides: dict[str, str] | None = None) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        raw = parse_config_text(fh.read())
    if overrides:
        raw.update(overrides)
    return build_run_config(raw)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return value
    if isinstance(value, tuple):
        return ",".join(_fmt(v) for v in value)
    return repr(value)


def serialize_config(cfg: RunConfig) -> str:
    """Canonical flat-text form, suitable for embedding in run summaries."""
    lines = [
        f"grid.dim = {cfg.grid.dim}",
        f"grid.n = {cfg.grid.n}",
        f"grid.length = {_fmt(cfg.grid.length)}",
    ]
    for f_ in fields(PhysParams):
        key = "lambda" if f_.name == "lam" else f_.name
        lines.append(f"phys.{key} = {_fmt(getattr(cfg.phys, f_.name))}")
    for spec, prefix in ((cfg.step, "step"), (cfg.ic, "ic"), (cfg.diag, "diag"), (cfg.out, "out")):
        for f_ in fields(spec):
            lines.append(f"{prefix}.{f_.name} = {_fmt(getattr(spec, f_.name))}")
    return "\n".join(lines) + "\n"

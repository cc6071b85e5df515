"""Run configuration: flat dotted-key text format and typed assembly.

The on-disk format is one ``key = value`` pair per line with ``#`` comments.
A key is ``<section>.<field>``: a section is a field of `RunConfig` and the
field is an ``__init__`` field of that section's dataclass, parsed by its
annotated type (``phys.lambda`` is ``PhysParams.lam``). The same keys are
accepted as command-line overrides. A text value is not empty and holds no
``#`` and no line break, so that every configuration serializes to text that
loads back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import get_args, get_origin, get_type_hints

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
            raise ValueError(f"kind must be one of {kinds}, got {self.kind!r}")
        for name in ("delta", "width", "amplitude"):  # whatever the kind
            value = getattr(self, name)
            if not abs(value) < math.inf:  # also false for a NaN
                raise ValueError(f"{name} must be finite, got {value}")
        if self.kind == "random_perturbation" and not self.delta > 0:
            raise ValueError(f"delta must be positive, got {self.delta}")
        if self.max_mode < 1:
            raise ValueError(f"max_mode must be >= 1, got {self.max_mode}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not self.width > 0:
            raise ValueError(f"width must be positive, got {self.width}")


@dataclass(frozen=True)
class DiagSpec:
    s_list: tuple[float, ...] = (0.5, 1.0)
    l_list: tuple[int, ...] = (0, 1, 2)
    cadence: int = 1
    fit_t_lo: float = 5.0
    fit_t_hi: float = 50.0
    fit_tol: float = 0.25

    def __post_init__(self):
        if self.cadence < 1:
            raise ValueError("cadence must be >= 1")
        for s in self.s_list:
            if not (0.0 < s < 1.5):
                raise ValueError(f"s_list entries must lie in (0, 1.5), got {s}")
        for l in self.l_list:
            if l not in (0, 1, 2):
                raise ValueError(f"l_list entries must be 0, 1 or 2, got {l}")
        for name in ("s_list", "l_list"):  # a repeated entry would repeat a CSV column or a fit
            entries = getattr(self, name)
            if len(set(entries)) != len(entries):
                raise ValueError(f"{name} repeats an entry: {entries}")
        if not 0 <= self.fit_t_lo < self.fit_t_hi:  # also false for a NaN
            raise ValueError(
                f"fit_t_lo and fit_t_hi need 0 <= fit_t_lo < fit_t_hi, got {self.fit_t_lo} and {self.fit_t_hi}"
            )
        if not 0 < self.fit_tol < math.inf:
            raise ValueError(f"fit_tol must be positive and finite, got {self.fit_tol}")


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


#: Section name -> its dataclass, in `RunConfig` field order.
_SECTIONS = get_type_hints(RunConfig)


def _key_table() -> dict[str, tuple[str, str, type]]:
    """``key -> (section, field, annotated type)`` over every section's ``__init__`` fields."""
    table = {}
    for section, cls in _SECTIONS.items():
        hints = get_type_hints(cls)
        for f in fields(cls):
            if f.init:
                name = "lambda" if f.name == "lam" else f.name  # ``lambda`` is a Python keyword
                table[f"{section}.{name}"] = (section, f.name, hints[f.name])
    return table


_KEYS = _key_table()


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


def _parse(key: str, value: str, kind):
    """``value`` as a ``kind``; a ``tuple[T, ...]`` is a comma list of at least one ``T``."""
    if get_origin(kind) is tuple:
        item = get_args(kind)[0]
        entries = tuple(_parse(key, part.strip(), item) for part in value.split(",") if part.strip())
        if not entries:  # an empty list would serialize to a line that does not load back
            raise ConfigError(f"{key} {value!r} holds no entry")
        return entries
    if kind is str and not value:  # parse_config_text rejects an empty value, so it would not load back
        raise ConfigError(f"{key}: the value is empty, which a configuration line cannot hold")
    if kind is str and ("#" in value or "".join(value.splitlines()) != value):  # the text format would cut it there
        raise ConfigError(f"{key}: {value!r} holds a '#' or a line break, which a configuration line cannot hold")
    try:
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


def build_run_config(raw: dict[str, str]) -> RunConfig:
    """Typed RunConfig from raw keys; unknown keys are errors, not warnings."""
    values: dict[str, dict] = {section: {} for section in _SECTIONS}
    for key, value in raw.items():
        if key not in _KEYS:
            raise ConfigError(f"unknown configuration key {key!r}")
        section, name, kind = _KEYS[key]
        values[section][name] = _parse(key, value, kind)

    grid = values["grid"]
    grid.setdefault("dim", 3)
    grid.setdefault("n", DEFAULT_N.get(grid["dim"]))  # Grid rejects a dim with no default first
    grid.setdefault("length", 2.0 * math.pi)
    values["step"].setdefault("dt", 0.05)
    values["step"].setdefault("t_end", 1.0)

    built = {}
    for section, cls in _SECTIONS.items():
        try:
            built[section] = cls(**values[section])
        except (TypeError, ValueError) as err:
            raise ConfigError(f"{section}: {err}") from err
    return RunConfig(**built)


def load_config(path: str, overrides: dict[str, str] | None = None) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        raw = parse_config_text(fh.read())
    if overrides:
        raw.update(overrides)
    return build_run_config(raw)


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, tuple):
        return ",".join(_fmt(v) for v in value)
    return repr(value)


def serialize_config(cfg: RunConfig) -> str:
    """Canonical flat-text form, suitable for embedding in run summaries."""
    return "".join(
        f"{key} = {_fmt(getattr(getattr(cfg, section), name))}\n" for key, (section, name, _) in _KEYS.items()
    )

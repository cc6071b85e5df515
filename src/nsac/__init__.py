"""Pseudo-spectral solver and verification harness for compressible
two-phase flow coupled to a phase field on a periodic box."""

from .config import DiagSpec, ICSpec, OutSpec, RunConfig, build_run_config, load_config
from .diagnostics import (
    EnergyReport,
    LevelEnergy,
    NegativeFunctional,
    decay_suite,
    energy_ledger,
    level_energy,
    negative_functional,
)
from .errors import (
    ConfigError,
    InfeasibleInitialCondition,
    InvariantViolation,
    NsacError,
    QuadratureError,
    VacuumError,
)
from .initial import make_initial
from .integrate import RunSummary, StepConfig, Stepper, adaptive_dt, run
from .model import (
    InvariantReport,
    PhysParams,
    State,
    chemical_potential,
    g_potential,
    invariant_monitor,
    pressure,
    pressure_prime,
    rhs,
)
from .oracle import DataProfile, DecayFit, decay_norms, fit_exponent
from .spectral import (
    Grid,
    fractional_laplacian,
    gn_ratios,
    interpolation_check,
    lp_norm,
)

__version__ = "0.1.0"

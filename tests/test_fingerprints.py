"""Byte identity of small runs against a committed table of sha256 values.

Each entry hashes the final coefficient bytes of one `run` (CNAB2 or Euler
at 3-D 16^3, 2-D 32^2 and 1-D 64, at the default `SLAB_BYTES` and at 1) or
the stdout of one ``nsac verify --n 16 --seed 3``. A change that only
reorders floating-point work passes every tolerance but moves these bytes.

The bytes depend on numpy's build and on the machine, so the table records
the numpy version it was taken with. A change that moves bytes on purpose
re-records the table and says which entries moved and why:

    PYTHONPATH=src python tests/test_fingerprints.py --record
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import nsac.spectral
from nsac.config import ICSpec, RunConfig
from nsac.initial import make_initial
from nsac.integrate import StepConfig
from nsac.model import PhysParams, State
from nsac.spectral import Grid

from conftest import final_state, nsac_output

TABLE = Path(__file__).with_name("fingerprints.json")
RECORD = "PYTHONPATH=src python tests/test_fingerprints.py --record"

#: Run cases: ``id -> (dim, n, scheme_order, SLAB_BYTES)``.
RUNS = {
    f"{dim}d-n{n}-{scheme}-slab-{slab_name}": (dim, n, order, slab_bytes)
    for dim, n in ((3, 16), (2, 32), (1, 64))
    for scheme, order in (("cnab2", 2), ("euler", 1))
    for slab_name, slab_bytes in (("default", nsac.spectral.SLAB_BYTES), ("1", 1))
}
#: Verify cases: ``id -> argv`` of ``nsac verify``; `test_cli.py::TestVerify` asserts on the same two runs.
VERIFY = {
    "verify": ["verify", "--n", "16", "--seed", "3"],
    "verify-no_dealias": ["verify", "--n", "16", "--seed", "3", "--inject-fault", "no_dealias"],
}
STEP = StepConfig(dt=0.05, t_end=0.5)


@functools.cache
def _initial(dim: int, n: int) -> State:
    """decay64's IC settings (seed 1) on a small grid."""
    grid = Grid(dim=dim, n=n, length=2.0 * math.pi)
    ic = ICSpec(kind="random_perturbation", delta=1e-2, max_mode=4, seed=1)
    return make_initial(RunConfig(grid=grid, phys=PhysParams(), step=STEP, ic=ic))


def run_digest(case: str) -> str:
    """sha256 of the final ``t`` and coefficient bytes of one run to ``t = 0.5``."""
    dim, n, order, slab_bytes = RUNS[case]
    s = _initial(dim, n)
    state = State(s.grid, s.t, s.sigma_hat, s.u_hat, s.phi_hat)  # no cache shared between cases
    default, nsac.spectral.SLAB_BYTES = nsac.spectral.SLAB_BYTES, slab_bytes
    try:
        final, summary = final_state(state, replace(STEP, scheme_order=order), PhysParams())
    finally:
        nsac.spectral.SLAB_BYTES = default
    assert summary.termination == "t_end"
    digest = hashlib.sha256(repr(final.t).encode())
    for a in (final.sigma_hat, final.u_hat, final.phi_hat):
        digest.update(a.tobytes())
    return digest.hexdigest()


def verify_digest(case: str) -> str:
    """sha256 of the stdout of one ``nsac verify`` case."""
    return hashlib.sha256(nsac_output(*VERIFY[case])[1].encode()).hexdigest()


def _digest(case: str) -> str:
    return verify_digest(case) if case in VERIFY else run_digest(case)


@pytest.mark.parametrize("case", [*RUNS, *VERIFY])
def test_bytes_match_the_recorded_table(case):
    table = json.loads(TABLE.read_text())
    recorded, got = table["sha256"].get(case), _digest(case)
    assert got == recorded, (
        f"{case}: sha256 {got} where the table holds {recorded} (recorded with numpy "
        f"{table['numpy']}, running numpy {np.__version__}); if the bytes moved on purpose, "
        f"re-record the table with `{RECORD}` and say which entries moved and why"
    )


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(f"usage: {RECORD}")
    entries = {case: _digest(case) for case in [*RUNS, *VERIFY]}
    TABLE.write_text(json.dumps({"numpy": np.__version__, "sha256": entries}, indent=2) + "\n")
    print(f"wrote {len(entries)} entries to {TABLE}")

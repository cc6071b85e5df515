import contextlib
import functools
import io
from collections import Counter

import numpy as np
import pytest

from nsac import Grid, PhysParams, StepConfig, run
from nsac.cli import main
from nsac.config import ICSpec, RunConfig
from nsac.initial import make_initial
from nsac.spectral import band_limited_noise as random_zero_mean_field  # noqa: F401
from nsac.verify import random_state as random_admissible_state  # noqa: F401

#: The `Grid` methods that transform: every transform, batched or not, passes one of them.
TRANSFORMS = ("forward", "inverse", "forward_leading", "inverse_leading")


def two_thirds_band(g):
    """The modes the 2/3 rule keeps, ``|m| <= n // 3`` on every axis, in rfft layout."""
    return np.logical_and.reduce(np.meshgrid(*[np.abs(m) <= g.n // 3 for m in g.modes], indexing="ij"))


def grid_counts(monkeypatch, names=TRANSFORMS) -> tuple[Counter, Counter]:
    """Fields and calls of each `Grid` method of ``names``, keyed by name, counted while ``monkeypatch`` holds.

    A call's fields are those of its stack, the axes before the grid's own. A
    batched transform (`forward_many`, `inverse_many`, the tendency's) is
    counted once, at its leading passes: `forward_leading` and
    `inverse_leading` take the whole stack, its last-axis passes may run
    slab by slab.
    """
    fields, calls = Counter(), Counter()

    def wrap(name):
        original = getattr(Grid, name)

        def counted(self, arr, *args, **kwargs):
            fields[name] += int(np.prod(arr.shape[: -self.dim]))
            calls[name] += 1
            return original(self, arr, *args, **kwargs)

        monkeypatch.setattr(Grid, name, counted)

    for name in names:
        wrap(name)
    return fields, calls


@functools.cache
def nsac_output(*argv: str) -> tuple[int, str]:
    """Exit code and stdout of ``nsac <argv>``, run once per session for each argv."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


def final_state(state, step_cfg, params):
    """The last State a `run` of ``state`` accepts, and the run's summary."""
    held = {}
    summary = run(state, step_cfg, params, observers=(lambda _i, s: held.update(state=s),), cadence=10**9)
    return held["state"], summary


def observed_order(params, scheme_order, amplitude=0.05, n=16, t_end=0.5, dt=0.02):
    """Richardson-style order estimate against a dt/16 reference trajectory."""
    grid = Grid(dim=3, n=n, length=2 * np.pi)
    cfg0 = RunConfig(
        grid=grid,
        phys=params,
        step=StepConfig(dt=dt, t_end=t_end, scheme_order=scheme_order),
        ic=ICSpec(kind="manufactured", amplitude=amplitude),
    )
    state0 = make_initial(cfg0)

    def final_at(step_dt):
        state, summary = final_state(state0, StepConfig(dt=step_dt, t_end=t_end, scheme_order=scheme_order), params)
        assert summary.termination == "t_end"
        return state

    ref = final_at(dt / 16)

    def err(state):
        out = 0.0
        for a, b in (
            (state.sigma_hat, ref.sigma_hat),
            (state.u_hat, ref.u_hat),
            (state.phi_hat, ref.phi_hat),
        ):
            out = max(out, float(np.max(np.abs(a - b))))
        return out

    e1 = err(final_at(dt))
    e2 = err(final_at(dt / 2))
    return np.log2(e1 / e2)


@pytest.fixture(scope="session")
def grid16():
    return Grid(dim=3, n=16, length=2 * np.pi)


@pytest.fixture(scope="session")
def grid32():
    return Grid(dim=3, n=32, length=2 * np.pi)


@pytest.fixture(scope="session")
def params():
    return PhysParams()

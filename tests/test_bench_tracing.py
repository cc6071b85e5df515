"""The benchmark's traced names name code that exists in ``nsac``.

``perfbench/`` finds its spans by name: a span whose callable was renamed or
deleted is never opened, and every metric read from it quietly reads 0. So
each name in ``bench_tracing.py``'s tables, and each span name
``bench_layers.py`` reads or compares, must resolve to an attribute of the
package when its first part is an ``nsac`` module.
"""

import ast
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import nsac

PERFBENCH = Path(__file__).parents[1] / "perfbench"

#: Traced names whose code is gone (ROADMAP item 11(a)); the list shrinks as
#: the benchmark is mended.
STALE = {
    "integrate.Stepper._solve_mats",  # the closed-form solve factorizes nothing
    "cli._SeriesObserver.__call__",  # the observer is diagnostics.SeriesObserver
    "oracle.decay_norm",  # succeeded by oracle.decay_norms
}

#: bench_layers.py's readers of the spans of one name.
READERS = {"durations", "ms_p50", "pooled"}


def _tracing_names() -> set[str]:
    spec = importlib.util.spec_from_file_location("bench_tracing", PERFBENCH / "bench_tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return {
        *(".".join(entry) for entry in tracing.PRIVATE_ENTRY_POINTS),
        *tracing.FFT_SPANS,
        *tracing.SAMPLE_SPANS,
        *tracing.STEP_SPANS,
        tracing.FACTORIZE_SPAN,
        *tracing.ANNOTATIONS,
    }


def _layer_names() -> set[str]:
    """String arguments of the span readers in bench_layers.py and strings it compares with ``==``."""
    names = set()
    for node in ast.walk(ast.parse((PERFBENCH / "bench_layers.py").read_text())):
        if isinstance(node, ast.Call):
            func = node.func
            if getattr(func, "id", None) in READERS or getattr(func, "attr", None) in READERS:
                names.update(a.value for a in node.args if isinstance(a, ast.Constant) and isinstance(a.value, str))
        elif isinstance(node, ast.Compare) and any(isinstance(op, ast.Eq) for op in node.ops):
            operands = [node.left, *node.comparators]
            names.update(o.value for o in operands if isinstance(o, ast.Constant) and isinstance(o.value, str))
    return names


def _resolves(name: str) -> bool:
    obj = importlib.import_module(f"nsac.{name.split('.')[0]}")
    for attr in name.split(".")[1:]:
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return True


def test_every_traced_nsac_name_exists():
    names = _tracing_names() | _layer_names()
    assert {"integrate.Stepper.step_cnab2", "model.nonlinear_terms", "integrate.run"} <= names  # the scan finds them
    modules = {m.name for m in pkgutil.iter_modules(nsac.__path__)}
    unresolved = {name for name in names if name.split(".")[0] in modules and not _resolves(name)}
    assert unresolved == STALE

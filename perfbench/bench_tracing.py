"""Span tracer for ``--trace 1`` runs, applied to ``nsac`` from the outside.

``Tracer.install`` replaces the public entry points of every ``nsac`` module
(module-level functions and the public methods of public classes) with thin
wrappers that record one span per call: name, layer, start, end and the
index of the enclosing span. The layer of a span is the short name of the
module that defines the callable, so the layers are the package's modules.
Every module attribute that refers to a wrapped function is rebound, which
covers names imported with ``from .x import y``. ``uninstall`` restores the
originals, so an untraced unit in the same process runs unwrapped code.

Two private methods are wrapped as well because they carry a layer's key
event: ``Stepper._solve_mats`` (a new implicit coefficient is a batched 4x4
factorization) and the CLI's per-sample observer ``_SeriesObserver.__call__``.

Spans stay in memory; ``dump`` writes them out when the benchmark ends.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
import time

#: Private methods wrapped in addition to the public entry points.
PRIVATE_ENTRY_POINTS = {
    ("integrate", "Stepper", "_solve_mats"),
    ("cli", "_SeriesObserver", "__call__"),
}

FFT_SPANS = (
    "spectral.Grid.forward",
    "spectral.Grid.inverse",
    "spectral.Grid.forward_many",
    "spectral.Grid.inverse_many",
)
SAMPLE_SPANS = ("bench.sample", "cli._SeriesObserver.__call__")
STEP_SPANS = ("integrate.Stepper.step_cnab2", "integrate.Stepper.step_euler")
FACTORIZE_SPAN = "integrate.Stepper._solve_mats"

#: Modules that hold no callable worth a span.
SKIPPED_MODULES = ("errors",)


class Span:
    __slots__ = ("name", "layer", "parent", "t0", "t1", "fields", "factorize", "path")

    def __init__(self, name: str, layer: str, parent: int):
        self.name = name
        self.layer = layer
        self.parent = parent
        self.t0 = 0.0
        self.t1 = 0.0
        self.fields = 0  # fields a transform call transforms
        self.factorize = False  # the call factorizes a new implicit coefficient
        self.path = None  # file an I/O call writes

    @property
    def duration(self) -> float:
        return self.t1 - self.t0


def _one_field(span, args):
    span.fields = 1


def _stacked_fields(span, args):
    span.fields = int(args[1].shape[0])  # (grid, stack of fields)


def _new_coefficient(span, args):
    span.factorize = args[1] not in args[0]._solves  # (stepper, alpha)


def _writer_path(span, args):
    span.path = args[0].path


def _path_argument(span, args):
    span.path = args[0]


#: Per-span bookkeeping taken from the call's arguments.
ANNOTATIONS = {
    "spectral.Grid.forward": _one_field,
    "spectral.Grid.inverse": _one_field,
    "spectral.Grid.forward_many": _stacked_fields,
    "spectral.Grid.inverse_many": _stacked_fields,
    FACTORIZE_SPAN: _new_coefficient,
    "io.CsvWriter.write": _writer_path,
    "io.write_snapshot": _path_argument,
    "io.write_summary": _path_argument,
}


class Tracer:
    """Records nested spans around the ``nsac`` entry points while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------------

    def _open(self, name: str, layer: str) -> Span:
        span = Span(name, layer, self._stack[-1] if self._stack else -1)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    @contextlib.contextmanager
    def region(self, name: str):
        """A span around benchmark code (layer ``bench``), e.g. its own observer."""
        span = self._open(name, "bench")
        span.t0 = time.perf_counter()
        try:
            yield span
        finally:
            span.t1 = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name: str, layer: str):
        annotate = ANNOTATIONS.get(name)
        open_span, stack, now = self._open, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = open_span(name, layer)
            if annotate is not None:
                annotate(span, args)
            span.t0 = now()
            try:
                return fn(*args, **kwargs)
            finally:
                span.t1 = now()
                stack.pop()

        return traced

    # -- installation -------------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap_class(self, cls, layer: str) -> None:
        for attr, member in list(vars(cls).items()):
            private = (layer, cls.__name__, attr) in PRIVATE_ENTRY_POINTS
            if attr.startswith("_") and not private:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(member, (classmethod, staticmethod)):
                self._set(cls, attr, type(member)(self._wrap(member.__func__, name, layer)))
            elif inspect.isfunction(member):
                self._set(cls, attr, self._wrap(member, name, layer))

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer is already installed")
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if name.startswith("nsac.") and mod is not None
        }
        wrapped: dict[int, tuple[object, object]] = {}
        private_classes = {(layer, cls) for layer, cls, _ in PRIVATE_ENTRY_POINTS}
        for modname, mod in modules.items():
            layer = modname.split(".", 1)[1]
            if layer in SKIPPED_MODULES:
                continue
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != modname:
                    continue
                if inspect.isfunction(obj) and not attr.startswith("_"):
                    wrapped[id(obj)] = (obj, self._wrap(obj, f"{layer}.{attr}", layer))
                elif inspect.isclass(obj) and (
                    not attr.startswith("_") or (layer, attr) in private_classes
                ):
                    self._wrap_class(obj, layer)
        # rebind every reference, including re-exports and `from .x import y`
        for mod in [sys.modules["nsac"], *modules.values()]:
            for attr, obj in list(vars(mod).items()):
                entry = wrapped.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._set(mod, attr, entry[1])

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- output -------------------------------------------------------------------

    def dump(self, path: str, units: list[tuple[str, int, int]]) -> None:
        """Write every span as ``[name, layer, parent, t0, t1, fields]`` rows."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "columns": ["name", "layer", "parent", "t0", "t1", "fields"],
                    "units": [{"label": label, "first": a, "end": b} for label, a, b in units],
                    "spans": [
                        [s.name, s.layer, s.parent, s.t0, s.t1, s.fields] for s in self.spans
                    ],
                },
                fh,
                separators=(",", ":"),
            )
            fh.write("\n")

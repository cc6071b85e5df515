"""Per-layer metrics computed from the spans of traced units.

A unit is one timed piece of work (one ``run``, one ``nsac simulate`` or one
``nsac linear-decay``); its spans are a contiguous index range of the
tracer's list. Self time is a span's duration minus its direct children.

Counts that do not depend on timing (transformed fields, factorizations,
quadratures) are computed per unit and must repeat exactly between units.
"""

from __future__ import annotations

import os
from statistics import median

from bench_tracing import FACTORIZE_SPAN, FFT_SPANS, SAMPLE_SPANS, STEP_SPANS

#: Per-layer metrics in output order: name -> (unit, better).
LAYER_METRICS = {
    "spectral.fft_fields_per_step": ("count", "lower"),
    "spectral.fft_fields_per_sample": ("count", "lower"),
    "spectral.fft_fields_setup": ("count", "lower"),
    "spectral.fft_ms_per_field": ("ms", "lower"),
    "model.nonlinear_terms.ms_p50": ("ms", "lower"),
    "model.nonlinear_terms.share": ("ratio", "lower"),
    "model.check_state.ms_p50": ("ms", "lower"),
    "integrate.step_self.ms_p50": ("ms", "lower"),
    "integrate.factorizations": ("count", "lower"),
    "integrate.new_coeff_step.ms": ("ms", "lower"),
    "integrate.adaptive_dt.ms_p50": ("ms", "lower"),
    "diagnostics.sample.ms_p50": ("ms", "lower"),
    "diagnostics.energy_ledger.ms_p50": ("ms", "lower"),
    "diagnostics.level_energy.ms_p50": ("ms", "lower"),
    "diagnostics.negative_functional.ms_p50": ("ms", "lower"),
    "initial.make_initial.s": ("s", "lower"),
    "io.csv_row.ms_p50": ("ms", "lower"),
    "io.snapshot.ms": ("ms", "lower"),
    "io.bytes_written": ("bytes", "lower"),
    "oracle.decay_norm.calls": ("count", "lower"),
    "oracle.decay_norm.ms_p50": ("ms", "lower"),
    "oracle.fit_exponent.ms_p50": ("ms", "lower"),
    "cli.self.s": ("s", "lower"),
    "trace.coverage": ("ratio", "higher"),
    "trace.overhead": ("ratio", "lower"),
}

#: Counts that must be identical in every traced unit.
REPEATED_COUNTS = (
    "fft_fields_total",
    "fft_fields_per_step",
    "fft_fields_per_sample",
    "fft_fields_setup",
    "factorizations",
    "decay_norm_calls",
)


def _median_or_zero(values) -> float:
    """Median of the samples; 0.0 when the workload never enters the layer."""
    values = list(values)
    return float(median(values)) if values else 0.0


class UnitSpans:
    """Classifies the spans of one unit by step, sample and set-up."""

    def __init__(self, spans, first: int, end: int, wall: float, cpu: float):
        self.wall = wall
        self.cpu = cpu
        self.by_name: dict[str, list[float]] = {}
        self.fft_fields_total = 0
        self.fft_time = 0.0
        self.factorizations = 0
        self.step_self = []
        self.new_coeff_steps = []
        self.fields_per_step = []
        self.fields_per_sample = {}  # sample span index -> fields transformed
        self.fields_setup = {}  # make_initial span index -> fields transformed
        self.top_level_time = 0.0
        self.cli_self = 0.0
        self.paths = set()
        self._classify(spans, first, end)

    def _classify(self, spans, first: int, end: int) -> None:
        # context per span, inherited from the parent: the enclosing sample,
        # set-up (make_initial) or top-level step span, or -1
        sample, setup, step, in_run = {}, {}, {}, {}
        nl_in_step, factorizing, child_time = {}, set(), {}
        step_buckets = [0]  # bucket k: fields from the start of step k on
        for i in range(first, end):
            s = spans[i]
            d = s.duration
            p = s.parent
            self.by_name.setdefault(s.name, []).append(d)
            if p >= first:
                child_time[p] = child_time.get(p, 0.0) + d
            else:
                self.top_level_time += d
            sample[i] = i if s.name in SAMPLE_SPANS else sample.get(p, -1)
            setup[i] = i if s.name == "initial.make_initial" else setup.get(p, -1)
            if sample[i] == i:
                self.fields_per_sample[i] = 0
            if setup[i] == i:
                self.fields_setup[i] = 0
            in_run[i] = s.name == "integrate.run" or in_run.get(p, False)
            if s.name in STEP_SPANS and step.get(p, -1) < 0:
                step[i] = i
                step_buckets.append(0)
            else:
                step[i] = step.get(p, -1)
            if s.path is not None:
                self.paths.add(s.path)
            if s.name == "model.nonlinear_terms" and step[i] >= 0:
                nl_in_step[step[i]] = nl_in_step.get(step[i], 0.0) + d
            if s.name == FACTORIZE_SPAN and s.factorize:
                self.factorizations += 1
                if step[i] >= 0:
                    factorizing.add(step[i])
            if s.name in FFT_SPANS:
                self.fft_fields_total += s.fields
                self.fft_time += d
                if sample[i] >= 0:
                    self.fields_per_sample[sample[i]] += s.fields
                elif setup[i] >= 0:
                    self.fields_setup[setup[i]] += s.fields
                elif in_run[i]:
                    step_buckets[-1] += s.fields
        for i in range(first, end):
            s = spans[i]
            if s.layer == "cli":
                self.cli_self += s.duration - child_time.get(i, 0.0)
            if step.get(i) == i:
                self.step_self.append(s.duration - nl_in_step.get(i, 0.0))
                if i in factorizing:
                    self.new_coeff_steps.append(s.duration)
        # bucket 0 holds the transforms before the first step (initial check)
        self.fields_per_step = step_buckets[1:]

    def durations(self, name: str) -> list[float]:
        return self.by_name.get(name, [])

    def counts(self) -> dict[str, float]:
        return {
            "fft_fields_total": self.fft_fields_total,
            "fft_fields_per_step": _median_or_zero(self.fields_per_step),
            "fft_fields_per_sample": _median_or_zero(self.fields_per_sample.values()),
            "fft_fields_setup": _median_or_zero(self.fields_setup.values()),
            "factorizations": self.factorizations,
            "decay_norm_calls": len(self.durations("oracle.decay_norm")),
        }


def layer_metrics(units: list[UnitSpans], setup: UnitSpans, untraced):
    """Per-layer metrics over the traced units, plus the repeat-check failures."""
    counts = [u.counts() for u in units]
    mismatched = [k for k in REPEATED_COUNTS if len({c[k] for c in counts}) > 1]

    def pooled(name: str) -> list[float]:
        return [d for u in units for d in u.durations(name)]

    def ms_p50(name: str) -> float:
        return 1e3 * _median_or_zero(pooled(name))

    first = counts[0]
    setup_fields = first["fft_fields_setup"] or setup.counts()["fft_fields_setup"]
    make_initial = pooled("initial.make_initial") or setup.durations("initial.make_initial")
    fields = sum(u.fft_fields_total for u in units)
    fft_time = sum(u.fft_time for u in units)
    io_bytes = sum(os.path.getsize(p) for p in units[-1].paths if os.path.exists(p))
    values = {
        "spectral.fft_fields_per_step": first["fft_fields_per_step"],
        "spectral.fft_fields_per_sample": first["fft_fields_per_sample"],
        "spectral.fft_fields_setup": setup_fields,
        "spectral.fft_ms_per_field": 1e3 * fft_time / fields if fields else 0.0,
        "model.nonlinear_terms.ms_p50": ms_p50("model.nonlinear_terms"),
        "model.nonlinear_terms.share": median(
            sum(u.durations("model.nonlinear_terms")) / u.wall for u in units
        ),
        "model.check_state.ms_p50": ms_p50("model.check_state"),
        "integrate.step_self.ms_p50": 1e3 * _median_or_zero(d for u in units for d in u.step_self),
        "integrate.factorizations": first["factorizations"],
        "integrate.new_coeff_step.ms": 1e3
        * _median_or_zero(d for u in units for d in u.new_coeff_steps),
        "integrate.adaptive_dt.ms_p50": ms_p50("integrate.adaptive_dt"),
        "diagnostics.sample.ms_p50": 1e3
        * _median_or_zero(d for name in SAMPLE_SPANS for d in pooled(name)),
        "diagnostics.energy_ledger.ms_p50": ms_p50("diagnostics.energy_ledger"),
        "diagnostics.level_energy.ms_p50": ms_p50("diagnostics.level_energy"),
        "diagnostics.negative_functional.ms_p50": ms_p50("diagnostics.negative_functional"),
        "initial.make_initial.s": _median_or_zero(make_initial),
        "io.csv_row.ms_p50": ms_p50("io.CsvWriter.write"),
        "io.snapshot.ms": ms_p50("io.write_snapshot"),
        "io.bytes_written": io_bytes,
        "oracle.decay_norm.calls": first["decay_norm_calls"],
        "oracle.decay_norm.ms_p50": ms_p50("oracle.decay_norm"),
        "oracle.fit_exponent.ms_p50": ms_p50("oracle.fit_exponent"),
        "cli.self.s": median(u.cli_self for u in units),
        "trace.coverage": median(u.top_level_time / u.wall for u in units),
        # CPU time of the last traced unit against the untraced one before it
        "trace.overhead": units[-1].cpu / untraced.cpu,
    }
    metrics = {
        name: {"value": values[name], "unit": unit} for name, (unit, _) in LAYER_METRICS.items()
    }
    return metrics, counts, mismatched

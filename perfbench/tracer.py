"""Per-layer tracing for the benchmark's traced run.

The tracer wraps public blochwave names at the call sites the pipeline uses
(``blochwave.cli.propagate``, ``blochwave.bloch.solve_matrix_ivp``,
``blochwave.models.decompose``, ``AdiabaticFrame.hamiltonian_at`` ...) and
restores them on exit.  Nothing under ``src/`` is changed.

Two kinds of records are kept in memory:

* stage spans around the coarse pipeline stages (one record each, with the
  job label of the enclosing ``run_experiment`` call, the thread, and the
  time covered by child stage spans, so self time is span minus children);
* hot counters around calls made thousands of times per run (the frame
  Hamiltonian, the spectral decomposition): a count and a busy time per
  thread, merged when a job's metrics are collected.

Tracing runs only in the traced run; end-to-end metrics are measured with
it off, and the difference is reported as the tracing overhead.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from dataclasses import dataclass

import blochwave.bloch
import blochwave.cli
import blochwave.frame
import blochwave.models
import blochwave.operators
import blochwave.propagation
from blochwave.frame import AdiabaticFrame
from blochwave.models import GeneratorModel
from blochwave.propagation import PropagatorPath

#: stage spans wrapped at their ``blochwave.cli`` call sites
CLI_STAGES = {
    "run_experiment": "cli.pipeline",
    "build_model": "models.build",
    "build_frame": "frame.build",
    "propagate": "propagation.propagate",
    "stationary_ic": "bloch.stationary_ic",
    "integrate_riccati": "bloch.riccati",
    "closed_form_wave": "bloch.closed_form",
    "radon_wave": "bloch.radon",
    "bloch_effective_evolution": "bloch.effective",
    "unitarize": "diagnostics.unitarize",
    "distance_report": "diagnostics.distance_report",
    "_write_csv": "cli.csv_write",
}

#: where the integrator's function evaluations are charged, by enclosing stage
NFEV_OWNER = {
    "frame.build": "frame.transporter",
    "propagation.propagate": "propagation",
    "bloch.riccati": "bloch.riccati",
}

#: every per-layer metric the traced run reports, with its unit and direction
LAYER_METRICS = {
    "operators.decompose_calls": ("count", "lower"),
    "operators.decompose_s": ("s", "lower"),
    "operators.match_labels_calls": ("count", "lower"),
    "models.spectral_calls": ("count", "lower"),
    "models.generator_calls": ("count", "lower"),
    "frame.build_s": ("s", "lower"),
    "frame.transporter_nfev": ("count", "lower"),
    "frame.w_lookups": ("count", "lower"),
    "frame.hamiltonian_calls": ("count", "lower"),
    "frame.hamiltonian_us": ("us", "lower"),
    "propagation.propagate_s": ("s", "lower"),
    "propagation.nfev": ("count", "lower"),
    "propagation.us_per_eval": ("us", "lower"),
    "propagation.max_step": ("time_unit", "higher"),
    "bloch.riccati_s": ("s", "lower"),
    "bloch.riccati_nfev": ("count", "lower"),
    "bloch.riccati_solver_calls": ("count", "lower"),
    "bloch.closed_form_calls": ("count", "lower"),
    "bloch.closed_form_s": ("s", "lower"),
    "bloch.radon_s": ("s", "lower"),
    "bloch.effective_s": ("s", "lower"),
    "bloch.stationary_ic_s": ("s", "lower"),
    "diagnostics.unitarize_s": ("s", "lower"),
    "diagnostics.distance_report_s": ("s", "lower"),
    "cli.pipeline_self_s": ("s", "lower"),
    "cli.csv_write_s": ("s", "lower"),
    "cli.csv_bytes": ("bytes", "lower"),
    "cli.sweep_cpu_per_wall": ("ratio", "higher"),
    "cli.propagations_per_gamma": ("count", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


@dataclass
class Span:
    name: str
    label: str
    thread: int
    start: float
    end: float = 0.0
    child_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """Context manager installing the wrappers; ``collect()`` drains a job."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._hot_tables: list[dict] = []
        self._patches: list[tuple[object, str, object]] = []
        self.spans: list[Span] = []
        self.max_steps: list[float] = []
        self.csv_bytes = 0

    # ------------------------------------------------------------ recording

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _hot(self) -> dict:
        table = getattr(self._local, "hot", None)
        if table is None:
            table = self._local.hot = defaultdict(float)
            with self._lock:
                self._hot_tables.append(table)
        return table

    def _stage(self, name: str, fn, label_arg: bool = False):
        def wrapper(*args, **kwargs):
            stack = self._stack()
            if label_arg:
                label = kwargs.get("label", args[1] if len(args) > 1 else "run")
            else:
                label = stack[0].label if stack else ""
            span = Span(name, label, threading.get_ident(), time.perf_counter())
            stack.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if stack:
                    stack[-1].child_s += span.duration
                self.spans.append(span)

        return wrapper

    def _timed(self, key: str, fn):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                table = self._hot()
                table[key + "_calls"] += 1
                table[key + "_s"] += time.perf_counter() - start

        return wrapper

    def _counted(self, key: str, fn):
        def wrapper(*args, **kwargs):
            self._hot()[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _solver(self, fn):
        def wrapper(*args, **kwargs):
            sol = fn(*args, **kwargs)
            max_step = kwargs.get("max_step", args[4] if len(args) > 4 else None)
            stack = self._stack()
            owner = NFEV_OWNER.get(stack[-1].name) if stack else None
            if owner is not None:
                table = self._hot()
                table[owner + "_nfev"] += sol.nfev
                table[owner + "_solver_calls"] += 1
                if owner == "propagation" and max_step is not None:
                    self.max_steps.append(float(max_step))
            return sol

        return wrapper

    def _model_builder(self, fn):
        stage = self._stage("models.build", fn)

        def wrapper(*args, **kwargs):
            model = stage(*args, **kwargs)
            model.drift = self._counted("generator_calls", model.drift)
            model.drive = self._counted("generator_calls", model.drive)
            return model

        return wrapper

    def _csv_writer(self, fn):
        stage = self._stage("cli.csv_write", fn)

        def wrapper(path, *args, **kwargs):
            stage(path, *args, **kwargs)
            with self._lock:
                self.csv_bytes += path.stat().st_size

        return wrapper

    # ------------------------------------------------------------- patching

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def __enter__(self) -> "Tracer":
        cli = blochwave.cli
        for attr, name in CLI_STAGES.items():
            fn = getattr(cli, attr)
            if attr == "build_model":
                wrapper = self._model_builder(fn)
            elif attr == "_write_csv":
                wrapper = self._csv_writer(fn)
            else:
                wrapper = self._stage(name, fn, label_arg=attr == "run_experiment")
            self._patch(cli, attr, wrapper)
        for module in (blochwave.propagation, blochwave.bloch):
            self._patch(module, "solve_matrix_ivp", self._solver(module.solve_matrix_ivp))
        self._patch(blochwave.models, "decompose", self._timed("decompose", blochwave.models.decompose))
        for module in (blochwave.frame, blochwave.operators):
            self._patch(module, "match_labels", self._counted("match_labels_calls", module.match_labels))
        self._patch(GeneratorModel, "spectral_at", self._counted("spectral_calls", GeneratorModel.spectral_at))
        self._patch(AdiabaticFrame, "hamiltonian_at", self._timed("hamiltonian", AdiabaticFrame.hamiltonian_at))
        self._patch(PropagatorPath, "at", self._counted("w_lookups", PropagatorPath.at))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------ reporting

    def collect(self) -> dict:
        """Per-layer metrics of everything recorded since the last collect.

        ``trace.overhead_s``, ``cli.sweep_cpu_per_wall`` and
        ``cli.propagations_per_gamma`` need the job's own timings and are
        filled in by the caller.
        """
        hot: dict = defaultdict(float)
        with self._lock:
            for table in self._hot_tables:
                for key, value in table.items():
                    hot[key] += value
                table.clear()
            spans, self.spans = self.spans, []
            max_steps, self.max_steps = self.max_steps, []
            csv_bytes, self.csv_bytes = self.csv_bytes, 0

        busy: dict = defaultdict(float)
        self_s: dict = defaultdict(float)
        calls: dict = defaultdict(int)
        for span in spans:
            busy[span.name] += span.duration
            self_s[span.name] += span.self_s
            calls[span.name] += 1

        ham_calls = hot["hamiltonian_calls"]
        nfev = hot["propagation_nfev"]
        return {
            "operators.decompose_calls": hot["decompose_calls"],
            "operators.decompose_s": hot["decompose_s"],
            "operators.match_labels_calls": hot["match_labels_calls"],
            "models.spectral_calls": hot["spectral_calls"],
            "models.generator_calls": hot["generator_calls"],
            "frame.build_s": busy["frame.build"],
            "frame.transporter_nfev": hot["frame.transporter_nfev"],
            "frame.w_lookups": hot["w_lookups"],
            "frame.hamiltonian_calls": ham_calls,
            "frame.hamiltonian_us": 1e6 * hot["hamiltonian_s"] / ham_calls if ham_calls else 0.0,
            "propagation.propagate_s": busy["propagation.propagate"],
            "propagation.nfev": nfev,
            "propagation.us_per_eval": 1e6 * busy["propagation.propagate"] / nfev if nfev else 0.0,
            "propagation.max_step": min(max_steps) if max_steps else 0.0,
            "bloch.riccati_s": busy["bloch.riccati"],
            "bloch.riccati_nfev": hot["bloch.riccati_nfev"],
            "bloch.riccati_solver_calls": hot["bloch.riccati_solver_calls"],
            "bloch.closed_form_calls": calls["bloch.closed_form"],
            "bloch.closed_form_s": busy["bloch.closed_form"],
            "bloch.radon_s": busy["bloch.radon"],
            "bloch.effective_s": busy["bloch.effective"],
            "bloch.stationary_ic_s": busy["bloch.stationary_ic"],
            "diagnostics.unitarize_s": busy["diagnostics.unitarize"],
            "diagnostics.distance_report_s": busy["diagnostics.distance_report"],
            "cli.pipeline_self_s": self_s["cli.pipeline"],
            "cli.csv_write_s": busy["cli.csv_write"],
            "cli.csv_bytes": csv_bytes,
            "_propagations": calls["propagation.propagate"],
            "_stage_self_s": dict(self_s),
        }

"""Batch experiment runner.

Parses a line-oriented ``key = value`` config with sections, builds a model,
runs the frame -> propagate -> wave-operator -> diagnostics pipeline, and
emits ``trace.csv`` plus ``summary.csv``.  Sweep mode repeats the run over a
list of adiabatic parameters for both the identity and the stationary initial
conditions, writing ``sweep.csv`` and the fitted log-log slopes of the
supremum deviation versus the adiabatic parameter.

Every config key can be overridden from the command line via repeated
``--set section.key=value`` flags (command line wins), and the output
directory via the ``BLOCHWAVE_OUTPUT_DIR`` environment variable.

CSV files are deterministic for a fixed config and seed except for the
commented metadata header lines (``# key = value``: timestamp, wall-clock
time, package version), which are documented as non-reproducible.  Floats
are written with 17 significant digits so oracle comparisons stay bit-stable.

Exit codes: 0 success, 2 config or input-file error, 3 blow-up, 4 theorem
bound violated (a defect signal, never a warning), 5 other solver errors,
1 unexpected.
When the runs of a sweep fail differently, the precedence is 4 > 5 > 3 > 2.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import os
import sys
import time
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .bloch import (
    BlochInitialCondition,
    bloch_effective_evolution,
    closed_form_wave,
    custom_ic,
    identity_ic,
    integrate_riccati,
    radon_wave,
    restrict,
    stationary_ic,
)
from .diagnostics import distance_report, unitarize
from .errors import (
    BadInitialCondition,
    BlochwaveError,
    BlowUp,
    BoundViolated,
    ConfigError,
    IntegratorFailure,
    IoError,
)
from .frame import build_frame, frozen_decomposition
from .models import (
    GeneratorModel,
    builtin_model_names,
    landau_zener_model,
    load_tabulated_model,
    random_smooth_model,
    three_level_model,
)
from .operators import SKEW_TOL, spectral_norm
from .propagation import _estimate_max_step, propagate

__all__ = ["ExperimentConfig", "RunSummary", "load_config", "run_experiment", "sweep", "main"]

ROUTES = ("riccati", "closed_form", "radon")
IC_KINDS = ("identity", "stationary", "custom")
NORMS = ("spectral", "frobenius")

#: the most checkpoints a run may ask for (each is a few matrices per route)
MAX_CHECKPOINTS = 10**6
#: the largest ``random_smooth`` dimension a run may ask for (one batch of
#: ``dop853.MAX_NODES`` 64x64 complex matrices is 100 MB)
MAX_DIM = 64

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BLOWUP = 3
EXIT_BOUND = 4
EXIT_SOLVER = 5
#: which code a mixed sweep exits with: the theorem-violation defect signal
#: first, so no other failure can mask it
EXIT_PRECEDENCE = (EXIT_BOUND, EXIT_SOLVER, EXIT_BLOWUP, EXIT_CONFIG)


def _gamma_label(gamma: float) -> str:
    """Output-directory and summary-key stem of one sweep gamma."""
    return f"gamma_{gamma:g}"


@dataclass
class ExperimentConfig:
    """Validated experiment description (one run, or one sweep)."""

    model_name: str
    model_params: dict
    t0: float
    t_final: float
    checkpoint_count: int
    integrator_tol: float
    ic_kind: str
    ic_path: str | None
    route: str
    norms: tuple[str, ...]
    sweep_gammas: tuple[float, ...] | None
    output_dir: Path
    seed: int | None

    def validate(self) -> None:
        if self.model_name not in builtin_model_names() + ["custom"]:
            raise ConfigError(f"unknown model {self.model_name!r}")
        numbers = {"run.t0": self.t0, "run.t_final": self.t_final}
        numbers.update((f"model.{k}", v) for k, v in self.model_params.items() if k != "path")
        for key, value in numbers.items():
            if not np.isfinite(value):
                raise ConfigError(f"{key} must be finite, got {value!r}")
        if not self.t_final > self.t0:
            raise ConfigError(f"t_final={self.t_final} must exceed t0={self.t0}")
        if not 2 <= self.checkpoint_count <= MAX_CHECKPOINTS:
            raise ConfigError(f"checkpoint_count must lie in [2, {MAX_CHECKPOINTS}]")
        if not 1e-14 < self.integrator_tol < 1e-2:
            raise ConfigError("integrator_tol must lie in (1e-14, 1e-2)")
        if self.ic_kind not in IC_KINDS:
            raise ConfigError(f"ic must be one of {IC_KINDS}")
        if self.model_name == "custom":
            path = self.model_params.get("path")
            if not path:
                raise ConfigError("model = custom requires path")
            if not Path(path).is_file():
                raise ConfigError(f"tabulated model {path} is not a file")
        if self.ic_kind == "custom":
            if not self.ic_path:
                raise ConfigError("ic = custom requires ic_path")
            if not Path(self.ic_path).is_file():
                raise ConfigError(f"initial condition {self.ic_path} is not a file")
        if self.route not in ROUTES + ("all",):
            raise ConfigError(f"route must be one of {ROUTES + ('all',)}")
        for n in self.norms:
            if n not in NORMS:
                raise ConfigError(f"unknown norm {n!r}")
        for gamma in (self.model_params.get("gamma", 1.0), *(self.sweep_gammas or ())):
            if not (np.isfinite(gamma) and gamma > 0):
                raise ConfigError(f"gamma must be finite and positive, got {gamma!r}")
        if self.sweep_gammas is not None:
            if len(self.sweep_gammas) < 1:
                raise ConfigError("sweep gamma list is empty")
            by_label: dict[str, list[float]] = {}
            for gamma in self.sweep_gammas:
                by_label.setdefault(_gamma_label(gamma), []).append(gamma)
            for label, values in by_label.items():
                if len(values) > 1:
                    raise ConfigError(
                        f"sweep gammas {', '.join(repr(g) for g in values)} share "
                        f"the output label {label!r}; sweep gammas must differ "
                        "within 6 significant digits"
                    )

    @property
    def routes(self) -> tuple[str, ...]:
        return ROUTES if self.route == "all" else (self.route,)


def _get(cp: configparser.ConfigParser, section: str, key: str, default=None):
    if cp.has_option(section, key):
        value = cp.get(section, key).strip()
        if value != "":
            return value
    return default


def load_config(path, overrides: list[str] | None = None) -> ExperimentConfig:
    """Parse and validate an experiment config file.

    ``overrides`` are ``section.key=value`` strings applied after the file
    (command line wins).  The output directory yields to the
    ``BLOCHWAVE_OUTPUT_DIR`` environment variable when that is set.
    """
    # values are literal: '%' starts no interpolation
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    try:
        with open(path, encoding="utf-8") as fh:
            cp.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path} is not UTF-8 text: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from exc

    for item in overrides or []:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(f"override {item!r} is not of the form section.key=value")
        target, value = item.split("=", 1)
        section, key = target.split(".", 1)
        section, key, value = section.strip(), key.strip(), value.strip()
        if not cp.has_section(section):
            cp.add_section(section)
        cp.set(section, key, value)

    def need(section, key, cast, default=None):
        raw = _get(cp, section, key, default)
        if raw is None:
            raise ConfigError(f"missing required key [{section}] {key}")
        try:
            return cast(raw)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad value for [{section}] {key}: {raw!r}") from exc

    model_name = need("model", "name", str)
    model_params: dict = {}
    if cp.has_section("model"):
        for key, raw in cp.items("model"):
            if key == "name":
                continue
            if key == "path":
                model_params[key] = raw.strip()
                continue
            try:
                value = float(raw)
            except ValueError as exc:
                raise ConfigError(f"bad value for [model] {key}: {raw!r}") from exc
            model_params[key] = value

    sweep_raw = _get(cp, "sweep", "gamma")
    sweep_gammas = None
    if sweep_raw is not None:
        try:
            sweep_gammas = tuple(float(x) for x in sweep_raw.replace(",", " ").split())
        except ValueError as exc:
            raise ConfigError(f"bad sweep gamma list {sweep_raw!r}") from exc

    norms_raw = need("run", "norms", str, "spectral,frobenius")
    norms = tuple(n.strip() for n in norms_raw.replace(",", " ").split())

    out_dir = os.environ.get(
        "BLOCHWAVE_OUTPUT_DIR", need("output", "dir", str, "blochwave_out")
    )

    config = ExperimentConfig(
        model_name=model_name,
        model_params=model_params,
        t0=need("run", "t0", float),
        t_final=need("run", "t_final", float),
        checkpoint_count=need("run", "checkpoint_count", int, "201"),
        integrator_tol=need("run", "integrator_tol", float, "1e-10"),
        ic_kind=need("run", "ic", str, "identity"),
        ic_path=_get(cp, "run", "ic_path"),
        route=need("run", "route", str, "all"),
        norms=norms,
        sweep_gammas=sweep_gammas,
        output_dir=Path(out_dir),
        seed=need("output", "seed", int) if _get(cp, "output", "seed") is not None else None,
    )
    config.validate()
    return config


def build_model(config: ExperimentConfig) -> GeneratorModel:
    params = config.model_params
    name = config.model_name
    try:
        if name == "landau_zener":
            return landau_zener_model(params["gamma"])
        if name == "three_level":
            return three_level_model(
                params["gamma"], params["a"], params.get("omega", 1.0)
            )
        if name == "random_smooth":
            given = {"seed": config.seed or 0, **params}
            for key in ("dim", "n_blocks", "seed"):
                if given[key] != int(given[key]):
                    raise ConfigError(f"model.{key} must be an integer, got {given[key]!r}")
            if given["dim"] > MAX_DIM:
                raise ConfigError(f"model.dim must be at most {MAX_DIM}, got {given['dim']!r}")
            return random_smooth_model(
                int(given["dim"]), int(given["n_blocks"]), int(given["seed"]),
                gamma=params["gamma"], drive_strength=params.get("drive_strength", 1.0),
            )
        if name == "custom":
            return load_tabulated_model(params["path"], params["gamma"])
    except KeyError as exc:
        raise ConfigError(f"model {name!r} is missing parameter {exc}") from exc
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"bad parameters for model {name!r}: {exc}") from exc
    raise ConfigError(f"unknown model {name!r}")


def _load_custom_ic(path, dim: int) -> np.ndarray:
    """The initial-condition matrix in ``path``: ``dim`` rows of ``dim``
    finite complex literals."""
    try:
        with open(path, newline="") as fh:
            rows = [row for row in csv.reader(fh) if row and not row[0].startswith("#")]
        matrix = np.array([[complex(cell) for cell in row] for row in rows], dtype=complex)
    except OSError as exc:
        raise IoError(f"cannot read initial condition {path}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"malformed initial condition {path}: {exc}") from exc
    if matrix.shape != (dim, dim) or not np.all(np.isfinite(matrix)):
        raise ConfigError(f"initial condition {path} is not a finite {dim}x{dim} matrix")
    return matrix


def _custom_ic(path, blocks) -> BlochInitialCondition:
    """The initial condition in ``path``, checked against the frozen blocks:
    a matrix that breaks the Bloch condition is an input error."""
    try:
        return custom_ic(_load_custom_ic(path, blocks[0].shape[0]), blocks)
    except BadInitialCondition as exc:
        raise ConfigError(f"initial condition {path}: {exc}") from exc


@dataclass
class RunSummary:
    """Everything one run produced, ready for CSV and exit-code logic."""

    label: str
    config: ExperimentConfig
    gamma: float
    fields: dict
    blowup: bool
    status: str
    error_code: str | None = None
    wall_seconds: float = 0.0
    report: object | None = None
    paths: dict = field(default_factory=dict)
    #: step statistics per integration ("propagate", "riccati") that ran
    integrator: dict = field(default_factory=dict)


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    if value is None:
        return ""
    return str(value)


def _write_csv(path: Path, header: list[str], rows: list[dict], meta: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        for key, value in meta.items():
            fh.write(f"# {key} = {value}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(row.get(col)) for col in header])


def _metadata(wall_seconds: float | None = None) -> dict:
    meta = {
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    if wall_seconds is not None:
        meta["wall_seconds"] = f"{wall_seconds:.3f}"
    return meta


def run_experiment(
    config: ExperimentConfig, label: str = "run", shared: dict | None = None
) -> RunSummary:
    """Run the full pipeline for one configuration and write its CSV files.

    Writes ``trace.csv`` (per-checkpoint diagnostics) and ``summary.csv``
    (one row) under ``config.output_dir``.  Solver errors and blow-ups are
    captured in the returned summary rather than raised, so sweeps can
    continue past failed runs; the CLI layer turns them into exit codes.

    ``shared`` (internal; :func:`sweep` passes one dict per gamma) holds the
    ``model``, ``frame``, ``max_step`` and ``m`` that do not depend on the
    initial condition: reused when present (a model when set), else stored
    once ``M`` exists.
    It also carries the ``ic_kinds`` of the gamma's runs, their initial
    conditions (``ics``, each built once) and their ``riccati`` paths,
    integrated together by the first run that needs one.
    """
    start = time.perf_counter()
    out_dir = config.output_dir
    summary = RunSummary(
        label=label,
        config=config,
        gamma=float(config.model_params.get("gamma", 0.0)),
        fields={},
        blowup=False,
        status="ok",
    )
    try:
        _run_pipeline(config, summary, {} if shared is None else shared)
    except BlochwaveError as exc:
        summary.status = "error"
        summary.error_code = exc.code
        summary.fields["error_message"] = str(exc)
        if isinstance(exc, BlowUp):
            summary.blowup = True
    summary.wall_seconds = time.perf_counter() - start

    base = {
        "label": label,
        "model": config.model_name,
        "model_params": ";".join(
            f"{k}={config.model_params[k]}" for k in sorted(config.model_params)
        ),
        "gamma": summary.gamma,
        "ic": config.ic_kind,
        "route": config.route,
        "t0": config.t0,
        "t_final": config.t_final,
        "checkpoint_count": config.checkpoint_count,
        "integrator_tol": config.integrator_tol,
        "seed": config.seed if config.seed is not None else "",
        "blowup": int(summary.blowup),
        "status": summary.status,
        "error_code": summary.error_code or "",
        "version": __version__,
    }
    row = {**base, **{k: v for k, v in summary.fields.items() if np.isscalar(v) or v is None}}
    meta = _metadata(summary.wall_seconds)
    for stage, stats in summary.integrator.items():
        meta.update((f"{stage}_{key}", _fmt(value)) for key, value in stats.items())
    _write_csv(out_dir / "summary.csv", list(row.keys()), [row], meta)
    return summary


def _initial_condition(config: ExperimentConfig, kind: str, shared: dict) -> BlochInitialCondition:
    """The initial condition of ``kind`` in the frame of ``shared``, built once."""
    built = shared.setdefault("ics", {})
    if kind not in built:
        frame = shared["frame"]
        if kind == "identity":
            built[kind] = identity_ic(frame.blocks)
        elif kind == "stationary":
            built[kind] = stationary_ic(frame)
        else:
            built[kind] = _custom_ic(config.ic_path, frame.blocks)
    return built[kind]


def _riccati_path(config: ExperimentConfig, shared: dict, grid):
    """The Riccati path of the run's initial condition, in the frame of ``shared``.

    In a sweep the first run of a gamma integrates every kind of
    ``shared["ic_kinds"]`` that can be built in one lockstep call and leaves
    the paths in ``shared["riccati"]``.  A run whose path is not there (its
    condition failed to build, or the lockstep call failed) integrates alone.
    """
    frame, paths = shared["frame"], shared.setdefault("riccati", {})

    def solve(ics):
        return integrate_riccati(
            frame, ics, config.t0, grid,
            tol=config.integrator_tol, max_step=shared["max_step"], m_path=shared["m"],
        )

    if not paths:
        ics = {config.ic_kind: _initial_condition(config, config.ic_kind, shared)}
        for kind in set(shared.get("ic_kinds", ())) - {config.ic_kind}:
            try:
                ics[kind] = _initial_condition(config, kind, shared)
            except BlochwaveError:  # left to its own run, which meets it again
                pass
        if len(ics) > 1:
            try:
                paths.update(zip(ics, solve(list(ics.values()))))
            except IntegratorFailure:  # each run then integrates its own alone
                pass
    if config.ic_kind not in paths:
        paths[config.ic_kind] = solve(_initial_condition(config, config.ic_kind, shared))
    return paths[config.ic_kind]


def _run_pipeline(config: ExperimentConfig, summary: RunSummary, shared: dict) -> None:
    model = shared.get("model") or build_model(config)
    summary.gamma = model.gamma
    summary.fields["resolved_model_params"] = ";".join(
        f"{k}={model.params[k]}" for k in sorted(model.params)
    )
    tol = config.integrator_tol
    grid = np.linspace(config.t0, config.t_final, config.checkpoint_count)

    if "m" in shared:
        frame, max_step, m_path = shared["frame"], shared["max_step"], shared["m"]
    else:
        frame = build_frame(model, config.t0, config.t_final, tol=tol)
        # one step cap serves both integrations of the frame Hamiltonian
        max_step = _estimate_max_step(frame.hamiltonian_at, config.t0, config.t_final)
        m_path = propagate(frame, config.t0, grid, tol=tol, max_step=max_step)
        shared.update(model=model, frame=frame, max_step=max_step, m=m_path)
    summary.integrator["propagate"] = m_path.stats
    blocks = frame.blocks
    ic = _initial_condition(config, config.ic_kind, shared)
    restricted = restrict(m_path, ic, frame.basis)  # shared by the closed form and M_eff

    u_paths = {}
    for route in config.routes:
        if route == "riccati":
            u_paths[route] = _riccati_path(config, shared, grid)
            summary.integrator["riccati"] = u_paths[route].stats
        elif route == "closed_form":
            u_paths[route] = closed_form_wave(m_path, ic, blocks, restricted=restricted)
        else:
            u_paths[route] = radon_wave(m_path, ic, blocks)
    primary = next(r for r in ROUTES if r in u_paths)
    u_path = u_paths[primary]

    fields = summary.fields
    for ra, rb in (("riccati", "closed_form"), ("riccati", "radon"), ("closed_form", "radon")):
        if ra in u_paths and rb in u_paths:
            n = min(len(u_paths[ra].times), len(u_paths[rb].times))
            fields[f"agreement_{ra}_{rb}"] = float(
                np.max(spectral_norm(u_paths[ra].matrices[:n] - u_paths[rb].matrices[:n]))
            )

    if "radon" in u_paths:
        fields["radon_pi_offblock_defect"] = u_paths["radon"].diagnostics["pi_offblock_defect"]

    m_eff = bloch_effective_evolution(m_path, ic, blocks, restricted=restricted)
    v_path = None
    if not u_path.blowup_flag:
        v_path = unitarize(u_path, m_path=m_path)
    report = distance_report(u_path, m_path, m_eff, v_path=v_path)
    summary.report = report
    summary.blowup = any(p.blowup_flag for p in u_paths.values())
    summary.paths = {"m": m_path, "u": u_paths, "m_eff": m_eff, "v": v_path, "frame": frame}

    n = len(u_path.times)
    min_sv = m_eff.block_min_sv.min(axis=1)[:n]  # the closed form's existence certificate

    dev_f = u_path.deviation("frobenius")
    dev_s = u_path.deviation("spectral")
    rows = []
    for i in range(n):
        row = {
            "t": float(u_path.times[i]),
            "norm_U_minus_1_fro": float(dev_f[i]),
            "norm_U_minus_1_spec": float(dev_s[i]),
            "bloch_defect": float(u_path.bloch_defects[i]),
            "min_block_sv": float(min_sv[i]),
            "unitarity_defect": float(m_path.unitarity_defects[i]),
        }
        for k, leak in enumerate(report.leakage[i]):
            row[f"leakage_block_{k}"] = float(leak)
        rows.append(row)
    header = (
        ["t", "norm_U_minus_1_fro", "norm_U_minus_1_spec"]
        + [f"leakage_block_{k}" for k in range(len(blocks))]
        + ["bloch_defect", "min_block_sv", "unitarity_defect"]
    )
    _write_csv(config.output_dir / "trace.csv", header, rows, _metadata())

    fields.update(report.row())
    fields.update(
        {
            "primary_route": primary,
            "delta_spectral_final": float(dev_s[-1]),
            "delta_frobenius_final": float(dev_f[-1]),
            "max_bloch_defect": u_path.max_bloch_defect(),
            "min_block_sv_min": float(np.min(min_sv)),
            "m_unitarity_defect": m_path.max_unitarity_defect(),
            "stationarity_defect": ic.stationarity_defect,
            "v_unitarity_defect": v_path.max_unitarity_defect() if v_path else None,
            "v_gram_offblock": v_path.gram_offblock_defect if v_path else None,
            "v_conjugated_offblock": (
                v_path.conjugated_offblock_defect if v_path else None
            ),
        }
    )
    if u_path.blowup_flag:
        raise BlowUp(
            f"wave operator blew up near t={u_path.blowup_time:g} "
            f"(route {primary})"
        )


def _fit_slope(gammas, sups) -> float:
    x = np.log(np.asarray(gammas, dtype=float))
    y = np.log(np.asarray(sups, dtype=float))
    return float(np.polyfit(x, y, 1)[0])


def sweep(config: ExperimentConfig) -> dict:
    """Run the pipeline per sweep gamma for both reference initial conditions.

    The runs at one gamma share its model, frame and ``M``, built once; failed
    runs are marked and skipped by the slope fit, which needs at least two
    surviving points.  Writes ``sweep.csv`` (one row per run) and ``slopes.csv``
    (fitted log-log slope per initial condition and norm), then returns
    ``{(ic, norm): slope}`` plus the summaries.
    """
    if config.sweep_gammas is None:
        raise ConfigError("sweep requires a [sweep] gamma list")
    gammas = config.sweep_gammas
    ics = ("identity", "stationary") if config.ic_kind != "custom" else (config.ic_kind,)
    table = None  # a tabulated model's drift and drive do not depend on gamma: read once

    summaries: dict[str, RunSummary] = {}
    for gamma in gammas:
        model = table and replace(table, gamma=gamma, params={**table.params, "gamma": gamma})
        shared = {"ic_kinds": ics, "model": model}
        for ic_kind in ics:
            label = f"{_gamma_label(gamma)}_{ic_kind}"
            sub = replace(
                config,
                model_params={**config.model_params, "gamma": float(gamma)},
                ic_kind=ic_kind,
                output_dir=config.output_dir / label,
                sweep_gammas=None,
            )
            summaries[label] = run_experiment(sub, label, shared=shared)
        if config.model_name == "custom":
            table = table or shared.get("model")

    rows = []
    for ic_kind in ics:
        for gamma in gammas:
            s = summaries[f"{_gamma_label(gamma)}_{ic_kind}"]
            rows.append(
                {
                    "gamma": gamma,
                    "ic": ic_kind,
                    "sup_dev_spectral": s.fields.get("delta_spectral"),
                    "sup_dev_frobenius": s.fields.get("delta_frobenius"),
                    "final_dev_spectral": s.fields.get("delta_spectral_final"),
                    "final_dev_frobenius": s.fields.get("delta_frobenius_final"),
                    "blowup": int(s.blowup),
                    "status": s.status,
                }
            )
    _write_csv(config.output_dir / "sweep.csv", list(rows[0]), rows, _metadata())

    slopes = {}
    slope_rows = []
    for ic_kind in ics:
        for norm in config.norms:
            key = "sup_dev_spectral" if norm == "spectral" else "sup_dev_frobenius"
            pts = [
                (row["gamma"], row[key])
                for row in rows
                if row["ic"] == ic_kind
                and row["status"] == "ok"
                and row[key] is not None
                and row[key] > 0
            ]
            if len(pts) >= 2:
                slope = _fit_slope([p[0] for p in pts], [p[1] for p in pts])
            else:
                slope = float("nan")
            slopes[(ic_kind, norm)] = slope
            slope_rows.append(
                {"ic": ic_kind, "norm": norm, "slope": slope, "n_points": len(pts)}
            )
    _write_csv(
        config.output_dir / "slopes.csv",
        ["ic", "norm", "slope", "n_points"],
        slope_rows,
        _metadata(),
    )
    return {"slopes": slopes, "summaries": summaries}


def _exit_code(summaries) -> int:
    codes = set()
    for s in summaries:
        if s.status == "ok":
            continue
        if s.error_code == BlowUp.code:
            codes.add(EXIT_BLOWUP)
        elif s.error_code == BoundViolated.code:
            codes.add(EXIT_BOUND)
        elif s.error_code in (ConfigError.code, IoError.code):
            codes.add(EXIT_CONFIG)
        else:
            codes.add(EXIT_SOLVER)
    return next((code for code in EXIT_PRECEDENCE if code in codes), EXIT_OK)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="blochwave",
        description="Adiabatic-frame wave-operator experiments with certified leakage bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_ in (
        ("run", "run one experiment from a config file"),
        ("sweep", "run the gamma sweep defined in a config file"),
        ("validate", "parse and validate a config file, then exit"),
    ):
        p = sub.add_parser(name, help=help_)
        p.add_argument("config", help="path to the experiment config")
        p.add_argument(
            "--set",
            dest="overrides",
            action="append",
            default=[],
            metavar="SECTION.KEY=VALUE",
            help="override a config value (repeatable; command line wins)",
        )
    sub.add_parser("models", help="list built-in model names")

    args = parser.parse_args(argv)

    if args.command == "models":
        for name in builtin_model_names():
            print(name)
        return EXIT_OK

    try:
        config = load_config(args.config, args.overrides)
        if args.command == "validate":  # what only the models check, span included
            sweep_params = [{**config.model_params, "gamma": g} for g in config.sweep_gammas or ()]
            for params in sweep_params or [config.model_params]:
                model = build_model(replace(config, model_params=params))  # checks the gamma
                if config.model_name == "custom":
                    break  # a table's drift and drive do not depend on gamma: read it once
            try:
                model.validate(np.array([config.t0, config.t_final]), tol=SKEW_TOL)
            except ValueError as exc:
                raise ConfigError(f"model {model.name!r}: {exc}") from exc
            frozen = frozen_decomposition(model, config.t0, config.t_final)  # as build_frame
            if config.ic_kind == "custom":
                _custom_ic(config.ic_path, frozen.projectors)
    except (ConfigError, IoError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except BlochwaveError as exc:  # a drift the run could not decompose or label either
        print(f"{exc.code}: {exc}", file=sys.stderr)
        return EXIT_SOLVER

    if args.command == "validate":
        print(f"config ok: {args.config}")
        return EXIT_OK

    try:
        if args.command == "run":
            summary = run_experiment(config)
            _print_summary(summary)
            return _exit_code([summary])
        result = sweep(config)
        for (ic_kind, norm), slope in result["slopes"].items():
            print(f"slope[{ic_kind}, {norm}] = {slope:.4f}")
        return _exit_code(result["summaries"].values())
    except BlochwaveError as exc:
        print(f"{exc.code}: {exc}", file=sys.stderr)
        return EXIT_CONFIG if isinstance(exc, (ConfigError, IoError)) else EXIT_SOLVER


def _print_summary(summary: RunSummary) -> None:
    print(f"status: {summary.status}  (wall {summary.wall_seconds:.2f}s)")
    for key in (
        "delta_spectral",
        "delta_spectral_final",
        "delta_frobenius",
        "bound_leakage",
        "max_effective_distance",
        "max_bloch_defect",
    ):
        if key in summary.fields:
            print(f"{key} = {_fmt(summary.fields[key])}")
    if summary.error_code:
        print(f"error: {summary.error_code}: {summary.fields.get('error_message', '')}")


if __name__ == "__main__":
    sys.exit(main())

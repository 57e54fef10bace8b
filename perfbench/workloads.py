"""The benchmark's workloads, their correctness gates and output digests.

A job is one call into the public entry points, ``blochwave.cli.load_config``
followed by ``run_experiment`` or ``sweep``: the path ``blochwave run`` and
``blochwave sweep`` take.  Each workload is a fixed list of jobs; the
benchmark repeats that list in a closed loop (the next job starts when the
previous one has ended).

Why these four (the workload names are fixed, the sizes are ours; each
example is shortened so that a 25 s measuring window holds several rounds):

* ``three_level_all``: the shipped three-level example (gamma 10, all routes)
  over [0, 50] with 251 checkpoints, the only workload running all three
  routes, the agreement check and ``unitarize`` on a long grid.  Cost sits in
  the Riccati restarts and per-checkpoint loops; the drift is static, so the
  frame builds nothing.
* ``landau_zener``: the shipped two-level example (gamma 2, closed form only)
  over [-25, 25] with 401 checkpoints, the paper's headline result and the
  only workload whose frame integrates a transporter and looks it up densely
  during propagation.  No Riccati.  The asymptotic formulas still hold there
  to 6e-4 relative, well inside the 2% gate.
* ``gamma_sweep``: the shipped sweep (gamma 10, 20, 40, 80, both initial
  conditions) over [0, 4] with 21 checkpoints and workers capped at the CPU
  count.  The only workload reaching ``cli.sweep`` and ``stationary_ic``;
  propagation cost grows with gamma.  The thread pool is left as configured,
  so its cost stays visible.
* ``custom_corpus``: seeded random smooth models sampled into tabulated CSVs
  and run as ``model.name = custom`` with all routes on a short horizon.  The
  only path through the numeric decomposition, label matching, numeric
  projector derivatives and the spline model; many short runs also expose
  fixed per-run cost.  Shapes, gammas and step counts are the same for every
  seed, so the seed changes the data and not the amount of work.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os
import resource
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from blochwave import cli, lz_asymptotic_amplitude, random_smooth_model

EXAMPLES = Path("docs/examples")

#: route agreement required wherever two routes ran
AGREEMENT_TOL = 1e-5
#: relative tolerance of the two-level asymptotic formulas
LZ_REL_TOL = 0.02
#: allowed distance of the sweep's Frobenius log-log slopes from -1
SLOPE_TOL = 0.15

#: (dim, n_blocks, gamma) of each corpus model.  Fixed so that every seed
#: yields a corpus of the same shape and cost; the seed draws the matrices and
#: drive strength.
CORPUS_MODELS = ((4, 3, 8.0), (6, 2, 16.0))
SMOKE_CORPUS_MODELS = ((4, 2, 8.0),)
CORPUS_T_FINAL = 1.0
CORPUS_CHECKPOINTS = 11
#: integrator tolerance of the corpus runs.  Loose enough that the step cap
#: (span / 50) sets every step count, so each seed makes the same number of
#: evaluations and the seed changes only the data; route agreement still
#: stays far inside its gate
CORPUS_TOL = 1e-8
#: tabulation density (samples per unit time) and margin beyond [t0, t_final]
TABLE_DENSITY = 40
TABLE_MARGIN = 0.5


def nproc() -> int:
    return len(os.sched_getaffinity(0))


@dataclass
class Job:
    """One entry-point call: a config file plus ``--set`` style overrides."""

    name: str
    config: Path
    overrides: list[str]
    kind: str = "run"  # "run" or "sweep"


@dataclass
class JobResult:
    wall_s: float
    cpu_s: float
    pipeline_s: list[float]
    gammas: set
    digest: str


def sweep_workers() -> int:
    """The example sweep's ``workers = 4``, capped at the CPU count."""
    return min(4, nproc())


def make_jobs(workload: str, seed: int, workdir: Path, smoke: bool = False) -> list[Job]:
    """The job list of ``workload``; inputs depend only on ``seed``."""
    if workload == "three_level_all":
        size = ["run.t_final=2", "run.checkpoint_count=11"] if smoke else [
            "run.t_final=50",
            "run.checkpoint_count=251",
        ]
        return [Job("three_level", EXAMPLES / "three_level.cfg", size)]
    if workload == "landau_zener":
        size = ["run.t0=-8", "run.t_final=8", "run.checkpoint_count=65"] if smoke else [
            "run.t0=-25",
            "run.t_final=25",
            "run.checkpoint_count=401",
        ]
        return [Job("landau_zener", EXAMPLES / "landau_zener.cfg", size)]
    if workload == "gamma_sweep":
        size = ["run.t_final=2", "run.checkpoint_count=11"] if smoke else [
            "run.t_final=4",
            "run.checkpoint_count=21",
        ]
        return [
            Job("sweep", EXAMPLES / "three_level_sweep.cfg", size + [f"output.workers={sweep_workers()}"], "sweep")
        ]
    if workload == "custom_corpus":
        return corpus_jobs(seed, workdir, SMOKE_CORPUS_MODELS if smoke else CORPUS_MODELS)
    raise ValueError(f"unknown workload {workload!r}")


def write_tabulated(path: Path, model, times) -> None:
    """Sample a model's drift and drive in the tabulated-model CSV format."""
    dim = model.dim
    entries = [f"{i}{j}" for i in range(dim) for j in range(dim)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time"] + [f"B_{e}" for e in entries] + [f"C_{e}" for e in entries])
        for t in times:
            cells = np.concatenate([model.drift(t).ravel(), model.drive(t).ravel()])
            writer.writerow([repr(float(t))] + [str(complex(x)) for x in cells])


def corpus_jobs(seed: int, workdir: Path, models) -> list[Job]:
    """Seeded random smooth models, tabulated and run as custom models.

    Shapes and gammas are fixed (see ``CORPUS_MODELS``), so the corpus cost
    does not swing with the draw.
    """
    rng = np.random.default_rng(seed)
    times = np.linspace(
        -TABLE_MARGIN,
        CORPUS_T_FINAL + TABLE_MARGIN,
        int(round((CORPUS_T_FINAL + 2 * TABLE_MARGIN) * TABLE_DENSITY)) + 1,
    )
    jobs = []
    for i, (dim, n_blocks, gamma) in enumerate(models):
        model = random_smooth_model(
            dim,
            n_blocks,
            seed=int(rng.integers(2**31)),
            gamma=gamma,
            drive_strength=float(rng.uniform(0.5, 1.5)),
            analytic=False,
        )
        table = workdir / f"model_{i}.csv"
        write_tabulated(table, model, times)
        config = workdir / f"model_{i}.cfg"
        config.write_text(
            "[model]\nname = custom\n"
            f"path = {table}\ngamma = {gamma!r}\n\n"
            f"[run]\nt0 = 0.0\nt_final = {CORPUS_T_FINAL!r}\n"
            f"checkpoint_count = {CORPUS_CHECKPOINTS}\nintegrator_tol = {CORPUS_TOL!r}\n"
            "ic = identity\nroute = all\n\n"
            f"[output]\ndir = out\nseed = {seed}\n"
        )
        jobs.append(Job(f"model_{i}_d{dim}_b{n_blocks}", config, []))
    return jobs


def warmup_job() -> Job:
    """A tiny run through every route, so lazy set-up is not timed."""
    return Job("warmup", EXAMPLES / "three_level.cfg", ["run.t_final=1", "run.checkpoint_count=6"])


def output_digest(out_dir: Path) -> str:
    """SHA-256 over the data rows (lines not starting with ``#``) of every
    CSV a job wrote, in path order."""
    digest = hashlib.sha256()
    for path in sorted(out_dir.rglob("*.csv")):
        digest.update(str(path.relative_to(out_dir)).encode() + b"\0")
        with open(path, "rb") as fh:
            for line in fh:
                if not line.startswith(b"#"):
                    digest.update(line)
    return digest.hexdigest()


def cpu_seconds() -> float:
    """CPU time of this process (all threads) and its waited-for children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def run_job(job: Job, out_dir: Path) -> tuple[JobResult, object]:
    """Execute one job; returns its timings and digest plus the raw outcome
    (a ``RunSummary`` or the ``sweep`` result) for the gates."""
    shutil.rmtree(out_dir, ignore_errors=True)
    overrides = job.overrides + [f"output.dir={out_dir}"]
    start_cpu = cpu_seconds()
    start = time.perf_counter()
    # resolved through the module so the tracer's wrappers are seen
    config = cli.load_config(job.config, overrides)
    if job.kind == "sweep":
        outcome = cli.sweep(config)
        summaries = list(outcome["summaries"].values())
    else:
        outcome = cli.run_experiment(config)
        summaries = [outcome]
    wall = time.perf_counter() - start
    cpu = cpu_seconds() - start_cpu
    result = JobResult(
        wall_s=wall,
        cpu_s=cpu,
        pipeline_s=[s.wall_seconds for s in summaries],
        gammas={s.gamma for s in summaries},
        digest=output_digest(out_dir),
    )
    return result, outcome


def _last_trace_row(out_dir: Path) -> dict:
    with open(out_dir / "trace.csv") as fh:
        rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    return rows[-1]


def check_job(workload: str, outcome, out_dir: Path, tol_scale: float = 1.0) -> list[str]:
    """The workload's correctness gate; returns the reasons a job failed.

    ``tol_scale`` multiplies every tolerance (0 forces a failure; the
    benchmark's self-test uses that).
    """
    failures = []
    summaries = (
        list(outcome["summaries"].values()) if isinstance(outcome, dict) else [outcome]
    )
    for s in summaries:
        if s.status != "ok" or s.blowup:
            failures.append(f"{s.label}: status={s.status} error={s.error_code} blowup={s.blowup}")
        for key, value in s.fields.items():
            if key.startswith("agreement_") and not value <= AGREEMENT_TOL * tol_scale:
                failures.append(f"{s.label}: {key}={value:.3e} > {AGREEMENT_TOL:g}")

    if workload == "landau_zener":
        s = summaries[0]
        sin_phi, tan_phi = lz_asymptotic_amplitude(s.gamma)
        final = s.fields.get("delta_spectral_final", math.nan)
        rel = abs(final - tan_phi) / tan_phi
        if not rel <= LZ_REL_TOL * tol_scale:
            failures.append(f"delta_spectral_final {final:.6g} vs tan(phi) {tan_phi:.6g}: rel {rel:.2e}")
        amp = float(_last_trace_row(out_dir)["leakage_block_0"])
        rel = abs(amp**2 - sin_phi**2) / sin_phi**2
        if not rel <= LZ_REL_TOL * tol_scale:
            failures.append(f"leakage_block_0^2 {amp**2:.6g} vs exp(-pi*gamma) {sin_phi**2:.6g}: rel {rel:.2e}")

    if workload == "gamma_sweep":
        for ic in ("identity", "stationary"):
            slope = outcome["slopes"].get((ic, "frobenius"), math.nan)
            if not abs(slope + 1.0) <= SLOPE_TOL * tol_scale:
                failures.append(f"{ic} frobenius slope {slope:.4f} not within -1 +/- {SLOPE_TOL}")
    return failures

"""blochwave benchmark.

Run from the repository root::

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads are defined in ``workloads.py``.  One process drives the public
entry points in-process with one closed-loop client: a round (the workload's
job list) starts when the previous round has ended, and rounds repeat while
at least half of one more fits in ``--seconds`` (at least two rounds, so the
digest of every job is checked against a repeat).

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics (medians over rounds): ``wall_s``, ``job_s_max``,
``setup_s`` (median over fresh-interpreter probes) and ``peak_rss_mb``.  The
three times are in reference-speed seconds: right before every job the fixed
computation of ``reference.py`` is timed ``REFERENCE_CALLS`` times, and the
job's raw time is scaled by ``REFERENCE_S / median(those reference times)``,
which cancels the host's speed drift (see ``reference.py``).  Set-up probes
run in another process, so they are scaled by the median over all reference
timings of the run.  The raw medians are printed on the ``#`` lines.
With ``--trace 1`` untraced and traced rounds alternate and the JSON holds
the per-layer metrics of ``tracer.LAYER_METRICS``, including the tracing
overhead.  ``attempted``/``failed`` count jobs; their ratio is the
workload's fail ratio.  Lines before the JSON start with ``#`` and record
the environment, each round, each job's output digest and any gate failure.

``--smoke`` runs every workload at a tiny size (the benchmark's self-test);
``--break-gate`` scales every gate tolerance to zero to force failures.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# numpy reads the BLAS thread count when it is first imported
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"
# the benchmark chooses every output directory itself
os.environ.pop("BLOCHWAVE_OUTPUT_DIR", None)
sys.path.insert(0, "src")

import numpy  # noqa: E402
import scipy  # noqa: E402

import workloads as wl  # noqa: E402
from reference import REFERENCE_S, reference_seconds  # noqa: E402
from tracer import LAYER_METRICS, Tracer  # noqa: E402

WORKLOADS = ("three_level_all", "landau_zener", "gamma_sweep", "custom_corpus")
#: fresh-interpreter set-up probes per run (median reported)
SETUP_PROBES = 3
#: reference timings right before each job (their median is used)
REFERENCE_CALLS = 3
MIN_ROUNDS = 2
PROBE = Path(__file__).with_name("probe.py")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, one set-up probe")
    parser.add_argument("--break-gate", action="store_true", help="force every gate to fail")
    return parser.parse_args(argv)


def measure_setup(job) -> float:
    """Seconds from spawning a fresh interpreter to its first pipeline call."""
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, str(PROBE), str(job.config), *job.overrides],
        stdout=subprocess.PIPE,
        text=True,
    ) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        proc.wait(timeout=120)
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return elapsed


def more_time(start: float, seconds: float, last: float) -> bool:
    """Start another round only if at least half of one (as long as the last)
    fits in the measuring window, so runs end near ``seconds`` on average."""
    return time.perf_counter() - start + 0.5 * last < seconds


def log(*parts) -> None:
    print("#", *parts, flush=True)


def main(argv=None) -> int:
    args = parse_args(argv)
    log(
        "env",
        json.dumps(
            {
                "workload": args.workload,
                "seed": args.seed,
                "seconds": args.seconds,
                "trace": args.trace,
                "smoke": args.smoke,
                "nproc": wl.nproc(),
                "sweep_workers": wl.sweep_workers(),
                "python": sys.version.split()[0],
                "numpy": numpy.__version__,
                "scipy": scipy.__version__,
                **{var: os.environ[var] for var in BLAS_THREAD_VARS},
            }
        ),
    )

    workdir = Path(".perfbench") / f"{args.workload}-{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        jobs = wl.make_jobs(args.workload, args.seed, workdir, smoke=args.smoke)
        wl.run_job(wl.warmup_job(), workdir / "warmup")
        tol_scale = 0.0 if args.break_gate else 1.0
        bench = Bench(args.workload, jobs, workdir, tol_scale)
        if args.trace:
            metrics = bench.traced(args.seconds)
        else:
            reference_seconds()  # warm-up, not recorded
            setup = [measure_setup(jobs[0]) for _ in range(1 if args.smoke else SETUP_PROBES)]
            metrics = bench.untraced(args.seconds, setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still use it
            workdir.parent.rmdir()

    log("fail_ratio", f"{bench.failed / bench.attempted:.6g}", f"({bench.failed}/{bench.attempted} jobs)")
    print(
        json.dumps(
            {
                "correct": bench.failed == 0,
                "attempted": bench.attempted,
                "failed": bench.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


class Bench:
    """Closed-loop rounds over a workload's jobs, with gates and digests."""

    def __init__(self, workload, jobs, workdir, tol_scale):
        self.workload = workload
        self.jobs = jobs
        self.workdir = workdir
        self.tol_scale = tol_scale
        self.attempted = 0
        self.failed = 0
        self.digests: dict[str, str] = {}
        self.reference: list[float] = []

    def host_speed(self) -> float:
        """Reference-speed seconds per raw second right now: ``REFERENCE_S``
        over the median of ``REFERENCE_CALLS`` reference timings."""
        times = [reference_seconds() for _ in range(REFERENCE_CALLS)]
        self.reference += times
        return REFERENCE_S / statistics.median(times)

    def round(self, index: int, calibrated: bool = False) -> dict:
        """Run every job once; returns the round's wall time, slowest
        pipeline, CPU time and distinct gammas.  With ``calibrated`` the host
        speed is measured before each job, and the round's wall time and
        slowest pipeline are also given in reference-speed seconds
        (``*_ref``)."""
        wall = wall_ref = cpu = 0.0
        pipelines: list[tuple[float, float]] = []  # (raw, reference-speed)
        gammas: set = set()
        for job in self.jobs:
            out_dir = self.workdir / "out" / job.name
            speed = self.host_speed() if calibrated else 1.0
            self.attempted += 1
            try:
                result, outcome = wl.run_job(job, out_dir)
                failures = wl.check_job(self.workload, outcome, out_dir, self.tol_scale)
            except Exception:  # a crashing job is a failed job; keep measuring
                traceback.print_exc()
                self.failed += 1
                log("FAIL", job.name, "raised")
                continue
            first = self.digests.setdefault(job.name, result.digest)
            if result.digest != first:
                failures.append(f"digest {result.digest} differs from first run {first}")
            if index == 0:
                log("digest", job.name, result.digest)
            for reason in failures:
                log("FAIL", job.name, reason)
            self.failed += bool(failures)
            wall += result.wall_s
            wall_ref += result.wall_s * speed
            cpu += result.cpu_s
            pipelines += [(p, p * speed) for p in result.pipeline_s]
            gammas |= result.gammas
        slowest = max(pipelines, default=(0.0, 0.0))
        stats = {
            "wall_s": wall,
            "job_s_max": slowest[0],
            "wall_ref": wall_ref,
            "job_ref_max": slowest[1],
            "cpu_s": cpu,
            "gammas": len(gammas),
        }
        log("round", index, f"wall_s={wall:.4f}", f"job_s_max={slowest[0]:.4f}", f"wall_ref={wall_ref:.4f}")
        return stats

    def untraced(self, seconds: float, setup: list[float]) -> dict:
        """Rounds; ``setup`` holds the raw set-up probe times.  Times are
        reported in reference-speed seconds, or in raw seconds for a
        workload that runs a thread pool."""
        # The reference runs on one thread.  A sweep's worker threads spread
        # over both vCPUs, whose speeds it does not see: calibrating the sweep
        # widened its run-to-run spread (wall_s 5.5% raw against 15% scaled
        # over six seeds), so the sweep keeps raw seconds.
        calibrated = not any(job.kind == "sweep" for job in self.jobs)
        rounds: list[dict] = []
        start = time.perf_counter()
        last = 0.0
        while len(rounds) < MIN_ROUNDS or more_time(start, seconds, last):
            began = time.perf_counter()
            rounds.append(self.round(len(rounds), calibrated))
            last = time.perf_counter() - began
        raw = {
            "wall_s": [r["wall_s"] for r in rounds],
            "job_s_max": [r["job_s_max"] for r in rounds],
            "setup_s": setup,
        }
        run_speed = 1.0
        if calibrated:
            ref = self.reference
            run_speed = REFERENCE_S / statistics.median(ref)
            log("reference", f"median={statistics.median(ref):.6g}", f"max={max(ref):.6g}", f"n={len(ref)}", f"nominal={REFERENCE_S:g}")
        else:
            log("reference", "none: threaded workload, times in raw seconds")
        scaled = {
            "wall_s": [r["wall_ref"] for r in rounds],
            "job_s_max": [r["job_ref_max"] for r in rounds],
            "setup_s": [t * run_speed for t in setup],
        }
        for name, vals in raw.items():
            log(name, "raw", f"median={statistics.median(vals):.6g}", f"max={max(vals):.6g}", f"n={len(vals)}")
        for name, vals in scaled.items():
            log(name, f"median={statistics.median(vals):.6g}", f"max={max(vals):.6g}", f"n={len(vals)}")
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {name: (statistics.median(vals), "s") for name, vals in scaled.items()}
        metrics["peak_rss_mb"] = (rss_mb, "MB")
        return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}

    def traced(self, seconds: float) -> dict:
        """Alternate untraced and traced rounds; per-layer metrics are
        medians over the traced ones, the overhead is the difference of the
        two medians."""
        tracer = Tracer()
        untraced: list[dict] = []
        per_round: list[dict] = []
        start = time.perf_counter()
        while not per_round or more_time(start, seconds, untraced[-1]["wall_s"] + stats["wall_s"]):
            untraced.append(self.round(2 * len(per_round)))
            with tracer:
                stats = self.round(2 * len(per_round) + 1)
            values = tracer.collect()
            stage_self = values.pop("_stage_self_s")
            values["_wall_s"] = stats["wall_s"]
            values["cli.propagations_per_gamma"] = values.pop("_propagations") / max(stats["gammas"], 1)
            per_round.append(values)
        untraced_wall = statistics.median(r["wall_s"] for r in untraced)
        for values in per_round:
            values["trace.overhead_s"] = values.pop("_wall_s") - untraced_wall
            values["cli.sweep_cpu_per_wall"] = statistics.median(r["cpu_s"] / max(r["wall_s"], 1e-9) for r in untraced)
        log("stage self time (s), last traced round:")
        for name, value in sorted(stage_self.items(), key=lambda kv: -kv[1]):
            log(f"  {name:32s} {value:10.4f}")
        log(f"untraced rounds: median wall_s {untraced_wall:.4f}, n={len(untraced)}")
        metrics = {}
        log("per-layer metrics (median over traced rounds):")
        for name, (unit, _better) in LAYER_METRICS.items():
            value = statistics.median(r[name] for r in per_round)
            log(f"  {name:32s} {value:14.6g} {unit}")
            metrics[name] = {"value": value, "unit": unit}
        return metrics


if __name__ == "__main__":
    sys.exit(main())

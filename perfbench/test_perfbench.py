"""Self-test of the benchmark at smoke size.

Run from the repository root::

    python3 -m pytest -q perfbench/test_perfbench.py

Every workload runs at a tiny size.  The tests check that every metric
named in ``BENCHMARK.json`` is printed with its unit, that a forced gate
failure shows up in ``failed`` (the fail ratio's numerator), and that the
output digests are identical across two runs of the same code.
"""

import functools
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().with_name("run.py")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@functools.lru_cache(maxsize=None)
def bench(workload: str, trace: int = 0, *flags: str):
    """Run the benchmark at smoke size; returns (result, diagnostic lines)."""
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--smoke", *flags],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def digests(lines):
    return [line for line in lines if line.startswith("# digest ")]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_named_metric_is_printed_with_its_unit(workload, trace):
    result, lines = bench(workload, trace)
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {m["name"]: m["unit"] for m in spec} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    env = json.loads(next(line for line in lines if line.startswith("# env "))[6:])
    assert env["OPENBLAS_NUM_THREADS"] == "1" and env["sweep_workers"] <= env["nproc"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_forced_gate_failure_raises_fail_ratio(workload):
    result, lines = bench(workload, 0, "--break-gate")
    assert not result["correct"]
    assert 0 < result["failed"] <= result["attempted"]
    assert any(line.startswith("# FAIL ") for line in lines)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_digest_is_stable(workload):
    _, first = bench(workload, 0)
    _, traced = bench(workload, 1)
    assert digests(first) and digests(first) == digests(traced)

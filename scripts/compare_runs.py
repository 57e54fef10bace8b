"""Run the benchmark's four workloads into a directory, or compare the CSV
data rows of two such runs cell by cell.

    python scripts/compare_runs.py run OUT --seed N [--smoke]
    python scripts/compare_runs.py diff A B

``run`` builds the jobs of ``three_level_all``, ``landau_zener``,
``gamma_sweep`` and ``custom_corpus`` with ``make_jobs`` of
``perfbench/workloads.py`` and runs each with its ``run_job`` into
``OUT/<workload>/<job>``.  The corpus tables go into one fixed absolute
directory, :data:`CORPUS_DIR`, whatever ``OUT`` is: ``custom_corpus``'s
``summary.csv`` records the table path in ``model_params``, so tables under
each run's own directory would make every corpus row differ.  Two runs
therefore share the tables and must not run at the same time.

``diff`` lists every data cell (a CSV line not starting with ``#``) that
differs between ``A`` and ``B``, with its absolute and relative change, and
every file or row on one side only.  It exits 0 only when all data rows are
byte-identical: the ``#`` header lines carry timings and are not compared.

Both commands run from any directory; the repository is the parent of this
script's directory.  Comparing two commits means running ``run`` in each
checkout (with this script copied there if it lacks it) and ``diff`` once.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("three_level_all", "landau_zener", "gamma_sweep", "custom_corpus")
#: where every run writes the corpus tables (see the module docstring)
CORPUS_DIR = Path(tempfile.gettempdir()) / "blochwave-compare-corpus"


def run(out: Path, seed: int, smoke: bool) -> None:
    """Every job of the four workloads at ``seed``, into ``out``."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    os.chdir(ROOT)  # the job configs name docs/examples relative to the root
    import workloads

    CORPUS_DIR.mkdir(parents=True, exist_ok=True)
    for workload in WORKLOADS:
        for job in workloads.make_jobs(workload, seed, CORPUS_DIR, smoke=smoke):
            result, _ = workloads.run_job(job, out / workload / job.name)
            print(f"{workload}/{job.name}: {result.digest}")


def _data_lines(path: Path) -> list[bytes]:
    with open(path, "rb") as fh:
        return [line for line in fh if not line.startswith(b"#")]


def _change(a: str, b: str) -> str:
    try:
        x, y = float(a), float(b)
    except ValueError:
        return "not numeric"
    gap = abs(y - x)
    return f"abs {gap:.3g}, rel {gap / abs(x):.3g}" if x else f"abs {gap:.3g}"


def diff(a: Path, b: Path) -> int:
    """Print every data cell in which ``a`` and ``b`` differ; the count of
    differences (cells, rows and files on one side only)."""
    names = {p.relative_to(a) for p in a.rglob("*.csv")} | {p.relative_to(b) for p in b.rglob("*.csv")}
    differences = 0
    for name in sorted(names):
        if not ((a / name).exists() and (b / name).exists()):
            print(f"{name}: only in {a if (a / name).exists() else b}")
            differences += 1
            continue
        left, right = _data_lines(a / name), _data_lines(b / name)
        if left == right:
            continue
        rows_a = list(csv.reader(line.decode() for line in left))
        rows_b = list(csv.reader(line.decode() for line in right))
        header = rows_a[0] if rows_a else []
        before = differences
        for i, (row_a, row_b) in enumerate(zip(rows_a, rows_b)):
            for j in range(max(len(row_a), len(row_b))):
                cell_a = row_a[j] if j < len(row_a) else ""
                cell_b = row_b[j] if j < len(row_b) else ""
                if cell_a != cell_b:
                    column = header[j] if i and j < len(header) else f"column {j}"
                    print(f"{name} row {i} {column}: {cell_a} -> {cell_b} ({_change(cell_a, cell_b)})")
                    differences += 1
        if len(rows_a) != len(rows_b):
            print(f"{name}: {len(rows_a)} data rows against {len(rows_b)}")
            differences += 1
        if differences == before:  # same cells, other bytes (quoting, line ends)
            print(f"{name}: data rows differ in their bytes, not in their cells")
            differences += 1
    return differences


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)
    run_parser = commands.add_parser("run", help="run every job of the four workloads into OUT")
    run_parser.add_argument("out", type=Path)
    run_parser.add_argument("--seed", type=int, required=True)
    run_parser.add_argument("--smoke", action="store_true", help="the benchmark's smoke sizes")
    diff_parser = commands.add_parser("diff", help="list the CSV data cells that differ")
    diff_parser.add_argument("a", type=Path)
    diff_parser.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    if args.command == "run":
        run(args.out.resolve(), args.seed, args.smoke)
        return 0
    differences = diff(args.a, args.b)
    print(f"{differences} difference(s)" if differences else "data rows identical")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())

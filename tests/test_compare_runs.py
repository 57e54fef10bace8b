"""The output comparison of scripts/compare_runs.py."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "compare_runs.py"
spec = importlib.util.spec_from_file_location("compare_runs", SCRIPT)
compare_runs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compare_runs)


def write(path, text):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def test_diff_lists_every_differing_data_cell_and_ignores_the_header(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    write(a / "job" / "trace.csv", "# wall_seconds = 1.0\nt,x,y\n0.0,1.0,2.0\n1.0,4.0,5.0\n")
    write(b / "job" / "trace.csv", "# wall_seconds = 2.0\nt,x,y\n0.0,1.0,2.0\n1.0,4.0,5.0\n")
    assert compare_runs.main(["diff", str(a), str(b)]) == 0
    write(b / "job" / "trace.csv", "# wall_seconds = 2.0\nt,x,y\n0.0,1.0,2.5\n1.0,4.0,5.0\n")
    write(b / "job" / "extra.csv", "t\n0.0\n")
    capsys.readouterr()
    assert compare_runs.main(["diff", str(a), str(b)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out == [
        f"{Path('job/extra.csv')}: only in {b}",
        f"{Path('job/trace.csv')} row 1 y: 2.0 -> 2.5 (abs 0.5, rel 0.25)",
        "2 difference(s)",
    ]


def test_diff_counts_rows_on_one_side_and_bytes_that_differ_outside_the_cells(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    write(a / "summary.csv", "x\n1.0\n")
    write(b / "summary.csv", "x\n1.0\n2.0\n")
    assert compare_runs.diff(a, b) == 1
    write(b / "summary.csv", 'x\n"1.0"\n')
    assert compare_runs.diff(a, b) == 1

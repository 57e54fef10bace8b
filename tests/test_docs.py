"""The README's library example runs as written."""

import math
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs(capsys):
    section = README.read_text(encoding="utf-8").split("\n## Library example\n", 1)[1]
    (code,) = re.findall(r"```python\n(.*?)```", section.split("\n## ", 1)[0], re.S)
    exec(compile(code, f"{README} (Library example)", "exec"), {"__name__": "readme_example"})
    # it prints delta_frobenius and the leakage bound, both finite and positive
    delta, bound = (float(word) for word in capsys.readouterr().out.split())
    assert 0.0 < delta and 0.0 < bound < math.inf

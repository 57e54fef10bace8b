"""Set-up probe: a fresh interpreter up to the first pipeline call.

Run by ``run.py`` from the repository root as
``python3 perfbench/probe.py <config> [section.key=value ...]``.  Imports
blochwave, loads the config and builds the model (for a tabulated model that
includes the CSV parse and spline fit), then prints ``ready``; the parent
times the interval from process start to that line.
"""

import sys

sys.path.insert(0, "src")

from blochwave.cli import build_model, load_config  # noqa: E402

build_model(load_config(sys.argv[1], sys.argv[2:]))
print("ready", flush=True)

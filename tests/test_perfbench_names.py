"""The benchmark's tracer wraps ipfc functions by module and name; a rename or
a signature change there would make its traced runs fail.  These tests load
``perfbench/tracer.py`` as it is and check it still fits the package."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"

CONFIG = """
[projection]
d = 1
n = 1
P = identity
B = identity
sizes = 32

[model]
q = 1.4142135623730951 1.7320508075688772
eps = 10.0
alpha = 4.0
c1 = 100.0

[time]
T = 0.05
nt = 8

[initial]
kind = sine

[output]
dir = out
dump_times = 0.05

[render]
window = 0.0 6.283185307179586
resolution = 24
"""


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    tracer = _load_tracer()
    for module_name, functions in tracer.TRACED.items():
        module = importlib.import_module(module_name)
        for attr in functions:
            assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


def test_traced_evolve_run(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CONFIG)
    spans = tmp_path / "spans.json"
    src = str(ROOT / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    proc = subprocess.run(
        [sys.executable, str(TRACER), str(spans), "evolve", str(cfg)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    names = json.loads(spans.read_text())["names"]
    assert "kernels.poly_eval" in names
    assert "kernels.bohr_fourier_sum" in names

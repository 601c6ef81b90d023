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

import numpy as np

from ipfc import dump_field
from ipfc.harness import dodecagonal_projection, parse_config

from conftest import random_field, raster_terms

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"
PROBE = ROOT / "perfbench" / "probe.py"

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


def _run_traced(tmp_path, *cli_args):
    spans = tmp_path / "spans.json"
    src = str(ROOT / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    proc = subprocess.run(
        [sys.executable, str(TRACER), str(spans), *cli_args],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(spans.read_text())


def test_traced_evolve_run(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CONFIG)
    names = _run_traced(tmp_path, "evolve", str(cfg))["names"]
    assert "kernels.poly_eval" in names
    assert "kernels.bohr_fourier_sum" in names


def test_traced_sdc_run(tmp_path):
    # The benchmark counts SDC nodes as the steps inside sdc_solve and
    # divides the correct() byte tally by them.
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CONFIG.replace("nt = 8", "nt = 8\nscheme = sav_cn_sdc\nsweeps = 1"))
    doc = _run_traced(tmp_path, "evolve", str(cfg))
    names, spans = doc["names"], doc["spans"]
    for name in ("sdc.predict", "sdc.correct", "sdc.refreeze"):
        assert name in names

    def inside(i, name):
        while i >= 0:
            if names[spans[i][0]] == name:
                return True
            i = spans[i][3]
        return False

    steps = [i for i, span in enumerate(spans) if names[span[0]] == "sav_cn.cn_step"]
    assert len(steps) == 8
    assert all(inside(i, "sdc.sdc_solve") for i in steps)
    tallies = [span[4] for span in spans if names[span[0]] == "sdc.correct"]
    assert len(tallies) == 1 and tallies[0] > 0


def test_traced_render_raster_size(tmp_path, rng):
    # The benchmark's raster metrics read the kernel span's size as
    # [modes, points]; the raster passes its last axis as the points.
    P = " ; ".join(" ".join(repr(float(v)) for v in row) for row in dodecagonal_projection())
    cfg = tmp_path / "render.cfg"
    cfg.write_text(
        f"[projection]\nd = 2\nn = 4\nP = {P}\nB = identity\nsizes = 6 6 6 6\n"
        "\n[model]\nq = 1.0 1.9318516525781366\neps = -2.0\nalpha = 2.0\n"
        "\n[render]\nwindow = 0.0 20.0 0.0 10.0\nresolution = 12 10\nfloor_rel = 1e-3\n"
    )
    grid = parse_config(cfg.read_text()).build_grid()
    fld = random_field(grid, rng)
    with open(tmp_path / "state.field", "w", encoding="utf-8") as fh:
        dump_field(fld, fh)
    doc = _run_traced(tmp_path, "render", str(cfg), str(tmp_path / "state.field"))
    kernel = doc["names"].index("kernels.bohr_fourier_sum")
    sizes = [span[4] for span in doc["spans"] if span[0] == kernel]
    # one chunk holding every term of the raster's pair-wise sum
    terms = raster_terms(fld, 1e-3 * np.abs(fld.half).max())
    assert sizes == [[terms, 10]]


def test_setup_probe_runs(tmp_path, rng):
    # The benchmark times set-up with this probe, which calls the config,
    # grid, symbol, initial-field and dump-loading API directly.
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CONFIG)
    grid = parse_config(CONFIG).build_grid()
    dump = tmp_path / "state.field"
    with open(dump, "w", encoding="utf-8") as fh:
        dump_field(random_field(grid, rng), fh)
    src = str(ROOT / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    for extra in ([], [str(dump)]):
        proc = subprocess.run(
            [sys.executable, str(PROBE), str(cfg), *extra],
            cwd=tmp_path,
            env=env,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        float(proc.stdout)


def test_traced_step_calls_the_model_names(tmp_path):
    # The benchmark's model.nprime, model.bulk_mean and
    # field.pointwise_poly_mean layers time the calls inside each step:
    # N'(fbar) once, the bulk mean at fbar and at the new field.
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CONFIG)
    doc = _run_traced(tmp_path, "evolve", str(cfg))
    names, spans = doc["names"], doc["spans"]
    step = names.index("sav_cn.cn_step")

    def in_step(i):
        i = spans[i][3]
        while i >= 0:
            if spans[i][0] == step:
                return True
            i = spans[i][3]
        return False

    steps = sum(1 for span in spans if span[0] == step)
    assert steps == 8
    for name, per_step in (("model.nprime", 1), ("model.bulk_mean", 2), ("field.pointwise_poly_mean", 2)):
        calls = sum(1 for i, span in enumerate(spans) if names[span[0]] == name and in_step(i))
        assert calls == per_step * steps, name

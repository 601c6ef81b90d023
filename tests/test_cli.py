import os
import subprocess
import sys

import numpy as np
import pytest

import ipfc
from ipfc.cli import main
from ipfc.field import dump_field
from ipfc.harness import ENERGY_HEADER

from conftest import random_field

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

[convergence]
nt_list = 8 16
reference_nt = 64
schemes = sav_cn
"""


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(CONFIG)
    return str(path)


def test_evolve_command(config_path, tmp_path, capsys):
    assert main(["evolve", config_path]) == 0
    out = capsys.readouterr().out
    assert "energy log:" in out
    assert (tmp_path / "out" / "energy.csv").exists()
    dumps = [p for p in os.listdir(tmp_path / "out") if p.endswith(".field")]
    assert len(dumps) == 1


def test_converge_command(config_path, capsys):
    assert main(["converge", config_path]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "scheme,NT,error,rate"


def test_render_and_spectrum_commands(config_path, tmp_path, capsys):
    main(["evolve", config_path])
    dumps = sorted((tmp_path / "out").glob("*.field"))
    dump = str(dumps[0])

    assert main(["render", config_path, dump]) == 0
    assert main(["spectrum", config_path, dump]) == 0
    out = capsys.readouterr().out
    assert "verdict: 2-fold" in out
    pgms = list((tmp_path / "out").glob("*.pgm"))
    assert pgms and pgms[0].read_bytes().startswith(b"P5\n")


def test_energy_csv_bytes_do_not_depend_on_blas_thread_count(tmp_path):
    # On a 256^2 grid the inner products and the SDC quadrature run over
    # arrays large enough for OpenBLAS to split a dot product across
    # threads (on a machine with at least two cores), which would reorder
    # its sums.
    text = (
        CONFIG.replace("d = 1\nn = 1", "d = 2\nn = 2")
        .replace("sizes = 32", "sizes = 256 256")
        .replace("T = 0.05\nnt = 8", "T = 0.02\nnt = 4\nscheme = sav_cn_sdc\nsweeps = 1")
        .split("[output]")[0]
        + "[output]\ndir = out\n"
    )
    src = os.path.dirname(os.path.dirname(ipfc.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    logs = []
    for threads in ("1", "2"):
        run = tmp_path / f"threads{threads}"
        run.mkdir()
        (run / "run.cfg").write_text(text)
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
        subprocess.run(
            [sys.executable, "-m", "ipfc.cli", "evolve", str(run / "run.cfg")],
            env=env, check=True, capture_output=True,
        )
        logs.append((run / "out" / "energy.csv").read_bytes())
    assert len(logs[0].splitlines()) == 6
    assert logs[0] == logs[1]


def test_config_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[projection]\nd = 1\n")
    assert main(["evolve", str(bad)]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "time", ["nt = 5\nblock = 2", "nt = 1", "nt = 8\nsweeps = -1", "nt = 8\nblock = 1"]
)
def test_sdc_time_settings_rejected_before_output(tmp_path, capsys, time):
    # 5 intervals in blocks of 2 leave a last block of one interval; the run
    # is refused before its output directory exists
    cfg = tmp_path / "sdc.cfg"
    cfg.write_text(CONFIG.replace("nt = 8", f"{time}\nscheme = sav_cn_sdc"))
    assert main(["evolve", str(cfg)]) == 1
    assert "[time]" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_sdc_block_too_large_for_memory_exit_code(tmp_path, capsys, monkeypatch):
    # a block whose node storage exceeds physical memory is a config error
    # that names the block size that would fit
    import ipfc.sdc as sdc_mod

    cfg = tmp_path / "sdc.cfg"
    cfg.write_text(CONFIG.replace("nt = 8", "nt = 8\nscheme = sav_cn_sdc"))
    # room for four nodes: field, samples and sweep row are 272 + 256 + 272
    # bytes on 32 points
    monkeypatch.setattr(sdc_mod, "_physical_memory", lambda: 4 * 800)
    assert main(["evolve", str(cfg)]) == 1
    assert "set block <= 3" in capsys.readouterr().err


def test_convergence_settings_rejected_before_output(tmp_path, capsys):
    # nt = 1 cannot form an SDC block; the study is refused before its
    # reference solve and before its output directory exists
    cfg = tmp_path / "conv.cfg"
    cfg.write_text(CONFIG.replace("nt_list = 8 16", "nt_list = 16 1").replace("schemes = sav_cn\n", ""))
    assert main(["converge", str(cfg)]) == 1
    assert "[convergence]" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_dump_times_past_the_end_rejected(tmp_path, capsys):
    cfg = tmp_path / "late.cfg"
    cfg.write_text(CONFIG.replace("dump_times = 0.05", "dump_times = 0.05 0.5"))
    assert main(["evolve", str(cfg)]) == 1
    assert "dump_times" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_non_finite_time_rejected_before_output(tmp_path, capsys):
    # refused when the config is read, not after the initial energy row
    cfg = tmp_path / "nan.cfg"
    cfg.write_text(CONFIG.replace("T = 0.05", "T = nan").replace("dump_times = 0.05\n", ""))
    assert main(["evolve", str(cfg)]) == 1
    assert "[time] T" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_scales_of_a_3d_projection_rejected_before_output(tmp_path, capsys):
    # spectra are classified for d <= 2 only; the study is refused when the
    # config is read, not after the first m's evolution
    text = CONFIG.replace("d = 1\nn = 1", "d = 3\nn = 3").replace("sizes = 32", "sizes = 8 8 8")
    text = text.split("[initial]")[0] + "[output]\ndir = out\n\n[scales]\nm_list = 1 2\n"
    cfg = tmp_path / "scales3d.cfg"
    cfg.write_text(text)
    assert main(["scales", str(cfg)]) == 1
    assert "[scales] symmetry classification supports d <= 2" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_missing_file_exit_code(capsys):
    assert main(["evolve", "/nonexistent/nowhere.cfg"]) == 1


def test_numerical_failure_exit_code(tmp_path, capsys):
    # c1 too small for this field regime: the shifted bulk energy goes negative
    text = CONFIG.replace("eps = 10.0", "eps = -20.0").replace("c1 = 100.0", "c1 = 0.01")
    text = text.replace("kind = sine", "kind = sine\namplitude = 2.0")
    cfg = tmp_path / "fail.cfg"
    cfg.write_text(text)
    assert main(["evolve", str(cfg)]) == 2
    assert "numerical failure" in capsys.readouterr().err


def test_numerical_failure_keeps_energy_log(tmp_path, capsys):
    # the shifted bulk energy turns negative in step 2: the rows of the
    # initial node and of step 1 stay in the log
    text = (
        CONFIG.replace("eps = 10.0", "eps = -20.0")
        .replace("c1 = 100.0", "c1 = 0.1")
        .replace("kind = sine", "kind = sine\namplitude = 0.1")
        .replace("T = 0.05", "T = 2.0")
        .replace("nt = 8", "nt = 40")
    )
    cfg = tmp_path / "fail.cfg"
    cfg.write_text(text)
    assert main(["evolve", str(cfg)]) == 2
    assert "numerical failure" in capsys.readouterr().err
    lines = (tmp_path / "out" / "energy.csv").read_text().splitlines()
    assert lines[0] == ENERGY_HEADER
    assert [ln.split(",")[0] for ln in lines[1:]] == ["0", "1"]


def test_non_finite_sdc_node_exit_code(tmp_path, capsys, dodecagonal_small):
    # a rough start makes the first block's swept nodes overflow: exit 2,
    # with the initial row kept and no inf or nan row written
    spec, grid = dodecagonal_small
    with open(tmp_path / "rough.field", "w", encoding="utf-8") as fh:
        dump_field(random_field(grid, np.random.default_rng(0), scale=0.1), fh)
    P = " ; ".join(" ".join(repr(float(v)) for v in row) for row in spec.P)
    cfg = tmp_path / "rough.cfg"
    cfg.write_text(
        f"[projection]\nd = 2\nn = 4\nP = {P}\nB = identity\nsizes = 8 8 8 8\n"
        "\n[model]\nq = 1.0 1.9318516525781366\neps = -2.0\nalpha = 2.0\nc1 = 1e16\n"
        "\n[time]\nT = 0.5\nnt = 4\nscheme = sav_cn_sdc\nsweeps = 1\n"
        "\n[initial]\nkind = field_file\nfile = rough.field\n"
        "\n[output]\ndir = out\n"
    )
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["evolve", str(cfg)]) == 2
    assert "numerical failure" in capsys.readouterr().err
    lines = (tmp_path / "out" / "energy.csv").read_text().splitlines()
    assert lines[0] == ENERGY_HEADER
    assert [ln.split(",")[0] for ln in lines[1:]] == ["0"]


def test_scales_command(tmp_path, capsys):
    text = """
[projection]
d = 2
n = 4
P = 1 0.8660254037844387 0.5 0 ; 0 0.5 0.8660254037844386 1
B = identity
sizes = 8 8 8 8

[model]
eps = -2.0
alpha = 2.0
c1 = 1e16

[time]
T = 0.1
nt = 2

[output]
dir = out

[scales]
m_list = 1
amplitude = 0.05
"""
    cfg = tmp_path / "scales.cfg"
    cfg.write_text(text)
    assert main(["scales", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "m=1:" in out

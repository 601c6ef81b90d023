"""The three benchmark workloads: seeded config generation and output checks.

Each workload turns a seed into the config file(s) ``ipfc`` receives, names
the CLI command that runs them, and checks what the command wrote.  The seed
jitters input amplitudes by at most ``JITTER`` (relative), so the work per
step is the same for every seed while the outputs differ.

The module uses only the standard library: the benchmark's parent process
never imports ``ipfc`` or numpy for its checks.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable

JITTER = 0.01
DEFAULT_SEED = 0
HELD_OUT_SEED = 1009

ENERGY_HEADER = "step,t,tau,original_energy,modified_energy,R,w_norm_sq"
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
REFERENCE_RTOL = 1e-12

# Model and step size of configs/ddqc_short.cfg: the dodecagonal
# quasicrystal on the 24^4 embedding grid (331,776 modes).
_DDQC_HEAD = """\
[projection]
d = 2
n = 4
P = 1.0 0.8660254037844387 0.5 0.0 ; 0.0 0.5 0.8660254037844386 1.0
B = identity
sizes = 24 24 24 24

[model]
q = 1.0 1.9318516525781366
eps = -2.0
alpha = 2.0
c1 = 1e16
"""

# The 12 conjugate pairs of seed modes of configs/ddqc_short.cfg, amplitude
# 0.3 before jitter.
_DDQC_PAIRS = (
    (0, 0, 0, 1), (0, 0, 1, 0), (0, 0, 1, 1), (0, 1, 0, 0),
    (0, 1, 0, -1), (0, 1, 1, 0), (1, 0, 0, 0), (1, 0, -1, 0),
    (1, 0, -1, -1), (1, 1, 0, 0), (1, 1, 0, -1), (1, 1, -1, -1),
)
_DDQC_AMPLITUDE = 0.3

CN_STEPS = 8
CN_TAU = 5.0 / 256.0          # configs/ddqc_short.cfg: T = 5, nt = 256
SDC_NODES = 4
SDC_TAU = 0.5 / 32.0          # configs/ddqc_energy_diff.cfg: T = 0.5, nt = 32

RENDER_RESOLUTION = (128, 64)  # 8192 points: one full phase-matrix chunk
RENDER_WINDOW = (0.0, 2.0 * math.pi * 10.0, 0.0, math.pi * 10.0)
# Rasters modes above 1e-6 of the largest amplitude (about 5,100 of the
# dump's 55,000 stored ones), so a window holds several renders.
RENDER_FLOOR_REL = 1e-6

MODIFIED_ENERGY_SLACK = 1e-10  # round-off allowance, as in the acceptance tests


def _jitter(rng: random.Random) -> float:
    return 1.0 + JITTER * rng.uniform(-1.0, 1.0)


def _ddqc_modes(seed: int) -> str:
    """Seed-mode list with one jittered amplitude per conjugate pair, so the
    initial field stays real."""
    rng = random.Random(seed)
    entries = []
    for h in _DDQC_PAIRS:
        amp = repr(_DDQC_AMPLITUDE * _jitter(rng))
        neg = tuple(-v for v in h)
        entries.append(" ".join(map(str, h)) + f" {amp} 0.0")
        entries.append(" ".join(map(str, neg)) + f" {amp} 0.0")
    return " ; ".join(entries)


def cn_config(seed: int) -> str:
    T = repr(CN_STEPS * CN_TAU)
    return (
        _DDQC_HEAD
        + f"\n[time]\nT = {T}\nnt = {CN_STEPS}\n"
        + f"\n[initial]\nkind = mode_list\nmodes = {_ddqc_modes(seed)}\n"
        + f"\n[output]\ndir = out\ndump_times = {T}\n"
    )


def sdc_config(seed: int) -> str:
    T = repr(SDC_NODES * SDC_TAU)
    return (
        _DDQC_HEAD
        + f"\n[time]\nT = {T}\nnt = {SDC_NODES}\nscheme = sav_cn_sdc\nsweeps = 1\n"
        + f"\n[initial]\nkind = mode_list\nmodes = {_ddqc_modes(seed)}\n"
        + "\n[output]\ndir = out\n"
    )


def render_config(seed: int) -> str:
    window = " ".join(repr(v) for v in RENDER_WINDOW)
    res = " ".join(str(v) for v in RENDER_RESOLUTION)
    return cn_config(seed) + (
        f"\n[render]\nwindow = {window}\nresolution = {res}\nfloor_rel = {RENDER_FLOOR_REL!r}\n"
    )


def dump_name() -> str:
    """File name of the final dump the cn_ddqc24 config writes."""
    return f"state_t{CN_STEPS * CN_TAU:.6f}.field"


# -- output checks ----------------------------------------------------------------
# Each check returns a list of problems; an empty list means the output passed.


def _load_reference() -> dict:
    with open(REFERENCE_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _energy_rows(path: str, expected_rows: int, problems: list):
    with open(path, "r", encoding="utf-8", newline="") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != ENERGY_HEADER:
        problems.append(f"{path}: bad header")
        return []
    rows = [dict(zip(ENERGY_HEADER.split(","), map(float, ln.split(",")))) for ln in lines[1:]]
    if len(rows) != expected_rows:
        problems.append(f"{path}: {len(rows)} rows, expected {expected_rows}")
    if not all(math.isfinite(v) for r in rows for v in r.values()):
        problems.append(f"{path}: non-finite value")
    return rows


def _check_reference(workload: str, seed: int, rows, problems: list) -> None:
    ref = _load_reference().get(workload, {}).get(str(seed))
    if ref is None or not rows:
        return
    got = rows[-1]["original_energy"]
    if not abs(got - ref) <= REFERENCE_RTOL * abs(ref):
        problems.append(
            f"final original_energy {got!r} differs from the recorded {ref!r} "
            f"by more than {REFERENCE_RTOL} relative"
        )


def check_cn(run_dir: str, seed: int) -> list:
    problems: list = []
    rows = _energy_rows(os.path.join(run_dir, "out", "energy.csv"), CN_STEPS + 1, problems)
    mods = [r["modified_energy"] for r in rows]
    for i, (a, b) in enumerate(zip(mods, mods[1:]), start=1):
        if b > a + MODIFIED_ENERGY_SLACK * (1.0 + abs(a)):
            problems.append(f"modified_energy rises at step {i}: {a!r} -> {b!r}")
    if not os.path.isfile(os.path.join(run_dir, "out", dump_name())):
        problems.append("final dump missing")
    _check_reference("cn_ddqc24", seed, rows, problems)
    return problems


def check_sdc(run_dir: str, seed: int) -> list:
    problems: list = []
    rows = _energy_rows(os.path.join(run_dir, "out", "energy.csv"), SDC_NODES + 1, problems)
    _check_reference("sdc_ddqc24", seed, rows, problems)
    return problems


def check_render(run_dir: str, seed: int) -> list:
    path = os.path.join(run_dir, "out", dump_name()[: -len(".field")] + ".pgm")
    with open(path, "rb") as fh:
        data = fh.read()
    width, height = RENDER_RESOLUTION
    header = f"P5\n{width} {height}\n255\n".encode("ascii")
    if not data.startswith(header):
        return [f"{path}: header {data[:20]!r} does not match {width}x{height}"]
    pixels = data[len(header):]
    if len(pixels) != width * height:
        return [f"{path}: {len(pixels)} pixels, expected {width * height}"]
    if pixels == bytes([128]) * len(pixels):
        return [f"{path}: uniform-128 fallback image"]
    return []


@dataclass(frozen=True)
class Workload:
    name: str
    command: str                  # ipfc subcommand
    config: Callable[[int], str]  # seed -> config text
    check: Callable[[str, int], list]
    output: str                   # file, relative to the run directory, that must repeat bytewise


WORKLOADS = {
    w.name: w
    for w in (
        Workload("cn_ddqc24", "evolve", cn_config, check_cn, "out/energy.csv"),
        Workload("sdc_ddqc24", "evolve", sdc_config, check_sdc, "out/energy.csv"),
        Workload(
            "render_ddqc24", "render", render_config, check_render,
            "out/" + dump_name()[: -len(".field")] + ".pgm",
        ),
    )
}

"""Show that each workload's output check passes a good output and catches
corrupted ones.

    python3 perfbench/selftest.py

Builds synthetic outputs under ``.perfbench_runs/selftest`` in the source
tree, exits 0 when every case behaves, 1 otherwise.  Needs no ``ipfc``.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import sys

import workloads as w

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _energy_csv(n_rows: int, final_original: float, rising_at=None, nan=False) -> str:
    rows = [w.ENERGY_HEADER]
    for i in range(n_rows):
        mod = -1.0 - 0.01 * i + (0.5 if i == rising_at else 0.0)
        orig = final_original if i == n_rows - 1 else -0.5
        r = "nan" if nan and i == 1 else repr(1e8)
        rows.append(f"{i},{0.01 * i!r},0.01,{orig!r},{mod!r},{r},0.1")
    return "\n".join(rows) + "\n"


def _pgm(width: int, height: int, uniform: bool) -> bytes:
    pixels = bytes([128]) * (width * height) if uniform else bytes(range(256)) * (width * height // 256)
    return f"P5\n{width} {height}\n255\n".encode("ascii") + pixels


def _write(path: str, data) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(data.encode("utf-8") if isinstance(data, str) else data)


def main() -> int:
    with open(w.REFERENCE_PATH, "r", encoding="utf-8") as fh:
        ref = json.load(fh)
    seed = w.DEFAULT_SEED
    cn_ref = ref["cn_ddqc24"][str(seed)]
    sdc_ref = ref["sdc_ddqc24"][str(seed)]
    off = 1.0 + 1e-10
    width, height = w.RENDER_RESOLUTION
    pgm = "out/" + w.dump_name()[: -len(".field")] + ".pgm"
    dump = "out/" + w.dump_name()

    # (name, check, files, should pass)
    cases = [
        ("cn good", w.check_cn, {"out/energy.csv": _energy_csv(w.CN_STEPS + 1, cn_ref), dump: "x"}, True),
        ("cn energy drift", w.check_cn, {"out/energy.csv": _energy_csv(w.CN_STEPS + 1, cn_ref * off), dump: "x"}, False),
        ("cn modified rises", w.check_cn, {"out/energy.csv": _energy_csv(w.CN_STEPS + 1, cn_ref, rising_at=3), dump: "x"}, False),
        ("cn non-finite", w.check_cn, {"out/energy.csv": _energy_csv(w.CN_STEPS + 1, cn_ref, nan=True), dump: "x"}, False),
        ("cn no dump", w.check_cn, {"out/energy.csv": _energy_csv(w.CN_STEPS + 1, cn_ref)}, False),
        ("cn short log", w.check_cn, {"out/energy.csv": _energy_csv(w.CN_STEPS, cn_ref), dump: "x"}, False),
        ("sdc good", w.check_sdc, {"out/energy.csv": _energy_csv(w.SDC_NODES + 1, sdc_ref)}, True),
        ("sdc energy drift", w.check_sdc, {"out/energy.csv": _energy_csv(w.SDC_NODES + 1, sdc_ref * off)}, False),
        ("render good", w.check_render, {pgm: _pgm(width, height, uniform=False)}, True),
        ("render uniform", w.check_render, {pgm: _pgm(width, height, uniform=True)}, False),
        ("render size", w.check_render, {pgm: _pgm(height, width, uniform=False)}, False),
    ]
    base = os.path.join(ROOT, ".perfbench_runs", "selftest")
    bad = 0
    for name, check, files, should_pass in cases:
        shutil.rmtree(base, ignore_errors=True)
        for rel, data in files.items():
            _write(os.path.join(base, rel), data)
        problems = check(base, seed)
        ok = (not problems) == should_pass
        bad += not ok
        print(f"{'ok ' if ok else 'BAD'} {name}: {problems or 'passed'}")
    shutil.rmtree(base, ignore_errors=True)
    with contextlib.suppress(OSError):  # kept while a benchmark run uses it
        os.rmdir(os.path.dirname(base))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

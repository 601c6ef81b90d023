import io
import os

import numpy as np
import pytest

from ipfc import (
    ConfigError,
    build_grid,
    build_symbol,
    dump_field,
    field_from_coeffs,
    parse_config,
    serialize_config,
    spectrum_report,
    zeros_field,
)
from ipfc.harness import (
    ENERGY_HEADER,
    build_initial,
    classify_fold,
    dodecagonal_projection,
    field_from_modes,
    render_field,
    ring_star_modes,
    run_convergence,
    run_evolution,
    run_scales_study,
    write_pgm,
)

from conftest import cosine_field, grid_1d

BASE_1D = """
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
nt = 10

[initial]
kind = sine

[output]
dir = out
energy_csv = energy.csv
"""

DDQC_HEAD = """
[projection]
d = 2
n = 4
P = 1 0.8660254037844387 0.5 0 ; 0 0.5 0.8660254037844386 1
B = identity
sizes = 8 8 8 8

[model]
q = 1.0 1.9318516525781366
eps = -2.0
alpha = 2.0
c1 = 1e16
"""


def test_parse_round_trip_identity():
    cfg = parse_config(BASE_1D)
    text = serialize_config(cfg)
    cfg2 = parse_config(text)
    assert serialize_config(cfg2) == text


def test_parse_rejects_unknown_section():
    with pytest.raises(ConfigError, match="unknown sections"):
        parse_config(BASE_1D + "\n[mystery]\nx = 1\n")


def test_parse_rejects_unknown_key():
    with pytest.raises(ConfigError, match="unknown keys"):
        parse_config(BASE_1D + "\n[render]\nwindow = 0 1\nresolution = 4\nwat = 1\n")


def test_parse_rejects_missing_required():
    with pytest.raises(ConfigError):
        parse_config("[projection]\nd = 1\nn = 1\nP = identity\nB = identity\n")


def test_parse_rejects_bad_scheme():
    with pytest.raises(ConfigError, match="scheme"):
        parse_config(BASE_1D.replace("nt = 10", "nt = 10\nscheme = rk4"))


def test_parse_rejects_reference_not_larger():
    text = BASE_1D + "\n[convergence]\nnt_list = 8 16\nreference_nt = 16\n"
    with pytest.raises(ConfigError, match="reference_nt"):
        parse_config(text)


def test_parse_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config("[projection]\nd = 1\nd = 2\n")


def test_ring_star_dodecagonal_two_circles():
    spec_cfg = parse_config(DDQC_HEAD)
    grid = spec_cfg.build_grid()
    q2 = 2 * np.cos(np.pi / 12)
    modes = ring_star_modes(grid, (1.0, q2), 0.3)
    assert len(modes) == 24
    # hermitian closure and the two radii
    spec = spec_cfg.build_spec()
    radii = sorted({round(float(np.linalg.norm(spec.wavevector(h))), 6) for h, _, _ in modes})
    assert radii == [1.0, round(q2, 6)]
    hs = {h for h, _, _ in modes}
    assert all(tuple(-v for v in h) in hs for h in hs)


def test_ring_star_jitter_pairs_consistent():
    spec_cfg = parse_config(DDQC_HEAD)
    grid = spec_cfg.build_grid()
    modes = ring_star_modes(grid, (1.0,), 0.3, jitter=0.3, seed=5)
    amp = {h: a for h, a, _ in modes}
    for h, a, _ in modes:
        assert amp[tuple(-v for v in h)] == a
    # deterministic
    again = ring_star_modes(grid, (1.0,), 0.3, jitter=0.3, seed=5)
    assert again == modes


def test_field_from_modes_sets_amplitudes():
    spec_cfg = parse_config(DDQC_HEAD)
    grid = spec_cfg.build_grid()
    modes = ring_star_modes(grid, (1.0,), 0.25)
    f = field_from_modes(grid, modes)
    for h, a, ph in modes:
        assert f.coeffs.ravel()[grid.flat_index(h)] == pytest.approx(0.25)
    assert abs(f.coeffs.ravel()[grid.zero_index]) == 0.0


def test_build_initial_sine():
    cfg = parse_config(BASE_1D)
    grid = cfg.build_grid()
    f = build_initial(cfg, grid)
    assert f.coeffs.ravel()[grid.flat_index([1])] == pytest.approx(-0.5j)
    assert f.coeffs.ravel()[grid.flat_index([-1])] == pytest.approx(0.5j)


def test_build_initial_mode_list_symmetrized():
    text = BASE_1D.replace("kind = sine", "kind = mode_list\nmodes = 2 0.4 0.0")
    cfg = parse_config(text)
    grid = cfg.build_grid()
    f = build_initial(cfg, grid)
    # a lone entry is split with its mirror by the symmetrization
    assert f.coeffs.ravel()[grid.flat_index([2])] == pytest.approx(0.2)
    assert f.coeffs.ravel()[grid.flat_index([-2])] == pytest.approx(0.2)


def test_build_initial_field_file(tmp_path):
    cfg = parse_config(BASE_1D)
    grid = cfg.build_grid()
    f = cosine_field(grid, 0.7)
    path = tmp_path / "start.field"
    with open(path, "w") as fh:
        dump_field(f, fh)
    text = BASE_1D.replace("kind = sine", f"kind = field_file\nfile = start.field")
    cfg2 = parse_config(text)
    g = build_initial(cfg2, cfg2.build_grid(), base_dir=str(tmp_path))
    assert g.coeffs.ravel()[grid.flat_index([1])] == pytest.approx(0.35)


# -- spectra -----------------------------------------------------------------


def test_spectrum_ddqc_star_twelve_fold():
    spec_cfg = parse_config(DDQC_HEAD)
    grid = spec_cfg.build_grid()
    q2 = 2 * np.cos(np.pi / 12)
    f = field_from_modes(grid, ring_star_modes(grid, (1.0, q2), 0.3))
    kxy, amps, verdict = spectrum_report(f, grid, 0.1)
    assert verdict == "12-fold"
    assert len(amps) == 24


def test_spectrum_cosine_two_fold():
    spec, grid = grid_1d(16)
    f = cosine_field(grid)
    kxy, amps, verdict = spectrum_report(f, grid, 0.1)
    assert verdict == "2-fold"
    assert len(amps) == 2


def test_spectrum_zero_field_errors():
    spec, grid = grid_1d(16)
    with pytest.raises(ValueError, match="zero"):
        spectrum_report(zeros_field(grid), grid, 0.1)


def test_spectrum_hexagonal_star_six_fold():
    spec_cfg = parse_config(DDQC_HEAD)
    grid = spec_cfg.build_grid()
    ang = np.degrees(np.arctan2(grid.kvec[:, 1], grid.kvec[:, 0]))
    kabs = np.sqrt((grid.kvec**2).sum(axis=1))
    on = (np.abs(kabs - 1.0) < 1e-8) & (
        np.isclose(ang % 60.0, 0.0, atol=1e-6) | np.isclose(ang % 60.0, 60.0, atol=1e-6)
    )
    modes = [(tuple(int(v) for v in grid.h_matrix[i]), 0.3, 0.0) for i in np.flatnonzero(on)]
    assert len(modes) == 6
    f = field_from_modes(grid, modes)
    _, amps, verdict = spectrum_report(f, grid, 0.1)
    assert verdict == "6-fold"


def test_spectrum_invariant_under_translation():
    # translating the field multiplies each coefficient by a unit phase
    spec_cfg = parse_config(DDQC_HEAD)
    spec = spec_cfg.build_spec()
    grid = spec_cfg.build_grid()
    q2 = 2 * np.cos(np.pi / 12)
    f = field_from_modes(grid, ring_star_modes(grid, (1.0, q2), 0.3))
    shift = np.array([0.37, -1.21])
    phases = np.exp(-1j * grid.kvec @ shift)
    g = field_from_coeffs(grid, f.coeffs.ravel() * phases)
    _, _, v1 = spectrum_report(f, grid, 0.1)
    _, _, v2 = spectrum_report(g, grid, 0.1)
    assert v1 == v2 == "12-fold"


def test_classify_fold_rotated_set_invariance():
    rng = np.random.default_rng(0)
    base = np.array([[np.cos(a), np.sin(a)] for a in np.arange(12) * np.pi / 6])
    amps = np.ones(12)
    assert classify_fold(base, amps) == 12
    theta = np.pi / 6
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    assert classify_fold(base @ rot.T, amps) == 12
    # unequal partner amplitudes break the invariance
    amps2 = amps.copy()
    amps2[::2] = 2.0
    assert classify_fold(base, amps2) == 6


# -- rasters --------------------------------------------------------------------


def test_render_constant_field_midgray():
    spec, grid = grid_1d(8)
    f = zeros_field(grid)
    img = render_field(f, spec, grid, [(0.0, 1.0)], (5,))
    np.testing.assert_array_equal(img, np.full(5, 128, dtype=np.uint8))


def test_render_cosine_stripes(tmp_path):
    spec_cfg = parse_config(DDQC_HEAD)
    spec = spec_cfg.build_spec()
    grid = spec_cfg.build_grid()
    f = field_from_modes(grid, [((1, 0, 0, 0), 0.5, 0.0), ((-1, 0, 0, 0), 0.5, 0.0)])
    img = render_field(f, spec, grid, [0.0, 4 * np.pi, 0.0, 4 * np.pi], (32, 8))
    # varies along the first (x) axis, constant along the second
    assert np.ptp(img, axis=0).max() == 255
    assert np.ptp(img, axis=1).max() == 0

    path = tmp_path / "stripes.pgm"
    write_pgm(str(path), img)
    blob = path.read_bytes()
    assert blob.startswith(b"P5\n32 8\n255\n")
    assert len(blob) == len(b"P5\n32 8\n255\n") + 32 * 8


# -- drivers ----------------------------------------------------------------------


def test_run_evolution_outputs(tmp_path):
    text = BASE_1D + "\n[render]\nwindow = 0.0 6.283185307179586\nresolution = 16\n"
    text = text.replace("energy_csv = energy.csv", "energy_csv = energy.csv\ndump_times = 0.05")
    cfg = parse_config(text)
    result = run_evolution(cfg, str(tmp_path))
    csv = open(result["csv"]).read().splitlines()
    assert csv[0] == ENERGY_HEADER
    assert len(csv) == 12  # header + initial row + 10 steps
    mods = [float(r.split(",")[4]) for r in csv[1:]]
    assert all(b <= a + 1e-10 * (1 + abs(a)) for a, b in zip(mods, mods[1:]))
    assert len(result["dumps"]) == 1
    assert os.path.exists(result["dumps"][0])
    assert os.path.exists(result["dumps"][0][: -len(".field")] + ".pgm")


def test_run_evolution_deterministic(tmp_path):
    cfg = parse_config(BASE_1D)
    r1 = run_evolution(cfg, str(tmp_path / "a"))
    r2 = run_evolution(cfg, str(tmp_path / "b"))
    assert open(r1["csv"], "rb").read() == open(r2["csv"], "rb").read()


def test_run_evolution_sdc_scheme(tmp_path):
    text = BASE_1D.replace("nt = 10", "nt = 8\nscheme = sav_cn_sdc\nsweeps = 1")
    cfg = parse_config(text)
    result = run_evolution(cfg, str(tmp_path))
    rows = open(result["csv"]).read().splitlines()
    assert len(rows) == 10  # header + 9 nodes
    taus = [float(r.split(",")[2]) for r in rows[2:]]
    assert all(t > 0 for t in taus)


def test_run_convergence_rates(tmp_path):
    text = BASE_1D + "\n[convergence]\nnt_list = 8 16 32\nreference_nt = 256\nschemes = sav_cn\n"
    text = text.replace("T = 0.05", "T = 0.1")
    cfg = parse_config(text)
    rows = run_convergence(cfg, str(tmp_path))
    errs = [r["error"] for r in rows]
    assert errs[0] > errs[1] > errs[2]
    assert rows[1]["rate"] > 1.5 and rows[2]["rate"] > 1.5
    csv = open(os.path.join(str(tmp_path), "out", "rates.csv")).read().splitlines()
    assert csv[0] == "scheme,NT,error,rate"
    assert csv[1].endswith(",")  # no rate on the first row


def test_identical_runs_zero_error(bench_1d, rng):
    # determinism of the error computation itself
    from conftest import random_field
    from ipfc import evolve, init_state, norm_ap

    spec, grid, symbol, params = bench_1d
    phi0 = random_field(grid, rng, scale=0.2)
    a = evolve(init_state(phi0, symbol, params), np.linspace(0, 0.05, 9), symbol, params)[0].phi
    b = evolve(init_state(phi0, symbol, params), np.linspace(0, 0.05, 9), symbol, params)[0].phi
    assert norm_ap(a - b) == 0.0


def test_run_scales_study_synthetic(tmp_path):
    # tiny grid, tiny horizon: checks plumbing, outputs and verdict columns
    text = DDQC_HEAD + """
[time]
T = 0.2
nt = 4

[output]
dir = scales_out

[scales]
m_list = 1
amplitude = 0.05
"""
    cfg = parse_config(text)
    results = run_scales_study(cfg, str(tmp_path))
    assert len(results) == 1
    assert results[0]["verdict"].endswith("-fold")
    out = tmp_path / "scales_out"
    assert (out / "energy_m1.csv").exists()
    assert (out / "spectrum_m1.csv").exists()
    verdicts = (out / "verdicts.csv").read_text().splitlines()
    assert verdicts[0] == "m,verdict,n_peaks,n_seed_modes"

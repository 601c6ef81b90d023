import io
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ipfc import (
    ConfigError,
    ProjectionSpec,
    build_grid,
    cheb_nodes,
    build_symbol,
    dump_field,
    field_from_coeffs,
    parse_config,
    project_mean,
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

from conftest import cosine_field, grid_1d, random_field

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


@pytest.mark.parametrize(
    "render, match",
    [
        ("resolution = 0", "resolution"),
        ("resolution = -4", "resolution"),
        ("resolution = 4\nfloor_rel = -1", "floor_rel"),
        ("resolution = 4\nfloor_rel = nan", "floor_rel"),
        ("resolution = 4\nfloor_rel = 1.0", "floor_rel"),
        ("resolution = 4\nfloor_rel = inf", "floor_rel"),
    ],
    ids=["zero-resolution", "negative-resolution", "negative-floor", "nan-floor", "unit-floor", "inf-floor"],
)
def test_parse_rejects_bad_render_values(render, match):
    # rejected when the config is read, before a run writes anything
    text = BASE_1D + f"\n[render]\nwindow = 0 1\n{render}\n"
    with pytest.raises(ConfigError, match=match):
        parse_config(text)


def test_parse_rejects_render_of_a_3d_projection():
    # a graymap has two axes: a d = 3 config is refused before any run
    text = BASE_1D.replace("d = 1\nn = 1", "d = 3\nn = 3").replace("sizes = 32", "sizes = 8 8 8")
    with pytest.raises(ConfigError, match=r"\[render\] graymaps need d <= 2"):
        parse_config(text + "\n[render]\nwindow = 0 1 0 1 0 1\nresolution = 4 5 6\n")


@pytest.mark.parametrize(
    "old, new, match",
    [
        ("T = 0.05", "T = nan", r"\[time\] T:"),
        ("T = 0.05", "T = inf", r"\[time\] T:"),
        ("eps = 10.0", "eps = nan", r"\[model\] eps:"),
        ("c1 = 100.0", "c1 = inf", r"\[model\] c1:"),
        ("P = identity", "P = nan", r"\[projection\] P:"),
        ("kind = sine", "kind = mode_list\nmodes = 1 inf 0.0 ; -1 inf 0.0", r"\[initial\] modes:"),
    ],
    ids=["T-nan", "T-inf", "eps-nan", "c1-inf", "P-nan", "mode-amplitude-inf"],
)
def test_parse_rejects_non_finite_numbers(old, new, match):
    # every number is checked as it is parsed: T = nan would otherwise pass
    # TimeCfg's T > 0 check and fail only after the first energy row
    with pytest.raises(ConfigError, match=match):
        parse_config(BASE_1D.replace(old, new))


@pytest.mark.parametrize("threshold", ["0", "1.0", "2.5", "inf", "nan"])
def test_parse_rejects_bad_spectrum_threshold(threshold):
    # at 1 or more no mode lies above the threshold, and an empty peak set
    # would read as 12-fold
    with pytest.raises(ConfigError, match="threshold_rel"):
        parse_config(BASE_1D + f"\n[spectrum]\nthreshold_rel = {threshold}\n")


@pytest.mark.parametrize(
    "time, convergence, match",
    [
        ("", "nt_list = 16 0\nreference_nt = 64", "nt_list"),
        ("", "nt_list = 16 1\nreference_nt = 64", "leaves a block of 1"),
        ("block = 2", "nt_list = 4 8\nreference_nt = 65\nschemes = sav_cn", "leaves a block of 1"),
        ("sweeps = -1", "nt_list = 4 8\nreference_nt = 64", "sweeps"),
    ],
    ids=["zero-nt", "sdc-nt-1", "odd-reference", "negative-sweeps"],
)
def test_parse_rejects_convergence_runs_that_cannot_step(time, convergence, match):
    # checked against [time]'s sweeps and block when the config is read, not
    # after the reference solve
    text = BASE_1D.replace("nt = 10", f"nt = 10\n{time}") + f"\n[convergence]\n{convergence}\n"
    with pytest.raises(ConfigError, match=match):
        parse_config(text)


def test_parse_accepts_convergence_runs_that_can_step():
    # sav_cn steps any nt, and the SDC reference takes at least one sweep
    text = BASE_1D.replace("nt = 10", "nt = 10\nsweeps = -1") + (
        "\n[convergence]\nnt_list = 1 2\nreference_nt = 64\nschemes = sav_cn\n"
    )
    assert parse_config(text).convergence.nt_list == (1, 2)


@pytest.mark.parametrize("dump_times", ["0.05 0.5", "0.0500001", "nan"])
def test_parse_rejects_dump_times_past_the_end(dump_times):
    # a run to T = 0.05 has no node at or past these times
    text = BASE_1D.replace("dir = out", f"dir = out\ndump_times = {dump_times}")
    with pytest.raises(ConfigError, match="dump_times"):
        parse_config(text)


def test_parse_accepts_dump_times_within_tolerance_of_the_end():
    # run_evolution writes a dump at a node up to 1e-9 max(1, T) short of its time
    text = BASE_1D.replace("dir = out", "dir = out\ndump_times = 0 0.05 0.0500000005")
    assert len(parse_config(text).output.dump_times) == 3


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
    norms = [np.linalg.norm(grid.wavevectors(grid.flat_index(h))) for h, _, _ in modes]
    radii = sorted({round(float(k), 6) for k in norms})
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


def _field_from_modes_full_layout(grid, modes):
    """`field_from_modes` by its full-layout route: accumulate every mode
    into a full-layout array, fold it by `field_from_coeffs`, then remove
    the mean."""
    c = np.zeros(grid.sizes, dtype=complex)
    for h, amp, phase in modes:
        c.ravel()[grid.flat_index(h)] += amp * np.exp(1j * phase)
    return project_mean(field_from_coeffs(grid, c))


@settings(deadline=None)
@given(st.sampled_from(["1d", "2d", "ddqc"]), st.data())
def test_field_from_modes_matches_full_layout_route_bitwise(which, data):
    # duplicates, modes on -N/2 planes (the last entry is -N/2 on every
    # axis), the zero mode, modes that are not live (dodecagonal) and signed
    # zeros among amplitudes and phases
    spec, sizes = {
        "1d": (ProjectionSpec.identity(1), (8,)),
        "2d": (ProjectionSpec.identity(2), (6, 8)),
        "ddqc": (ProjectionSpec(d=2, n=4, P=dodecagonal_projection(), B=np.eye(4)), (4, 4, 4, 4)),
    }[which]
    grid = build_grid(spec, sizes)
    mode = st.tuples(*(st.integers(-(nj // 2), nj // 2 - 1) for nj in sizes))
    entry = st.tuples(mode, st.floats(-2.0, 2.0), st.floats(-4.0, 4.0))
    modes = data.draw(st.lists(entry, max_size=12))
    if modes:
        modes += data.draw(st.lists(st.sampled_from(modes), max_size=4))
    modes.append((tuple(-(nj // 2) for nj in sizes), *data.draw(entry)[1:]))
    got, want = field_from_modes(grid, modes), _field_from_modes_full_layout(grid, modes)
    assert np.array_equal(got.half.view(np.uint64), want.half.view(np.uint64))


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
    kxy, amps, verdict = spectrum_report(f, 0.1)
    assert verdict == "12-fold"
    assert len(amps) == 24


def test_spectrum_cosine_two_fold():
    spec, grid = grid_1d(16)
    f = cosine_field(grid)
    kxy, amps, verdict = spectrum_report(f, 0.1)
    assert verdict == "2-fold"
    assert len(amps) == 2


def test_spectrum_zero_field_errors():
    spec, grid = grid_1d(16)
    with pytest.raises(ValueError, match="zero"):
        spectrum_report(zeros_field(grid), 0.1)


@pytest.mark.parametrize("threshold", [0.0, 1.0, 2.5, np.inf])
def test_spectrum_rejects_threshold_that_drops_every_mode(threshold):
    spec, grid = grid_1d(16)
    with pytest.raises(ValueError, match="threshold"):
        spectrum_report(cosine_field(grid), threshold)


def test_spectrum_hexagonal_star_six_fold():
    spec_cfg = parse_config(DDQC_HEAD)
    grid = spec_cfg.build_grid()
    kvec = grid.wavevectors(np.arange(grid.total))
    ang = np.degrees(np.arctan2(kvec[:, 1], kvec[:, 0]))
    kabs = np.sqrt((kvec**2).sum(axis=1))
    on = (np.abs(kabs - 1.0) < 1e-8) & (
        np.isclose(ang % 60.0, 0.0, atol=1e-6) | np.isclose(ang % 60.0, 60.0, atol=1e-6)
    )
    modes = [(tuple(grid.modes(i).tolist()), 0.3, 0.0) for i in np.flatnonzero(on)]
    assert len(modes) == 6
    f = field_from_modes(grid, modes)
    _, amps, verdict = spectrum_report(f, 0.1)
    assert verdict == "6-fold"


def test_spectrum_invariant_under_translation():
    # translating the field multiplies each coefficient by a unit phase
    spec_cfg = parse_config(DDQC_HEAD)
    spec = spec_cfg.build_spec()
    grid = spec_cfg.build_grid()
    q2 = 2 * np.cos(np.pi / 12)
    f = field_from_modes(grid, ring_star_modes(grid, (1.0, q2), 0.3))
    shift = np.array([0.37, -1.21])
    phases = np.exp(-1j * grid.wavevectors(np.arange(grid.total)) @ shift)
    g = field_from_coeffs(grid, f.coeffs.ravel() * phases)
    _, _, v1 = spectrum_report(f, 0.1)
    _, _, v2 = spectrum_report(g, 0.1)
    assert v1 == v2 == "12-fold"


def _spectrum_oracle(fld, threshold_rel):
    """`spectrum_report` computed from the full layout, mode by mode."""
    flat = np.abs(fld.coeffs.ravel())
    keep = np.flatnonzero(flat > threshold_rel * float(flat.max()))
    kv = fld.grid.wavevectors(keep)
    amps = flat[keep]
    kxy = kv if kv.shape[1] == 2 else np.column_stack([kv[:, 0], np.zeros(kv.shape[0])])
    order = np.lexsort((kxy[:, 1], kxy[:, 0]))
    kxy, amps = kxy[order], amps[order]
    return kxy, amps, f"{classify_fold(kxy, amps)}-fold"


def _spectrum_grids():
    """Random projected grids with d <= 2, the periodic (6, 8) grid whose
    lead-axis -N/2 plane is live, and the dodecagonal 6^4 grid."""
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(1, 4))
        d = int(rng.integers(1, min(n, 2) + 1))
        spec = ProjectionSpec(d=d, n=n, P=rng.standard_normal((d, n)), B=np.eye(n))
        yield build_grid(spec, tuple(int(s) for s in rng.choice([2, 4, 6], size=n)))
    yield build_grid(ProjectionSpec.identity(2), (6, 8))
    yield build_grid(ProjectionSpec(d=2, n=4, P=dodecagonal_projection(), B=np.eye(4)), (6,) * 4)


@pytest.mark.parametrize("threshold", [0.1, 1e-3, 1e-6])
def test_spectrum_matches_full_layout_oracle(threshold):
    # the half-layout spectrum emits each interior mode's mirror row from its
    # own mode row, so peaks, amplitudes and verdict are bitwise the full
    # layout's
    rng = np.random.default_rng(12)
    for grid in _spectrum_grids():
        fld = random_field(grid, rng, zero_mean=False)
        kxy, amps, verdict = spectrum_report(fld, threshold)
        want_kxy, want_amps, want_verdict = _spectrum_oracle(fld, threshold)
        assert kxy.tobytes() == want_kxy.tobytes()
        assert amps.tobytes() == want_amps.tobytes()
        assert verdict == want_verdict


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
    img = render_field(f, [(0.0, 1.0)], (5,))
    np.testing.assert_array_equal(img, np.full(5, 128, dtype=np.uint8))


@pytest.mark.parametrize("floor_rel", [-1.0, 1.0, np.inf, np.nan])
def test_render_rejects_floor_that_drops_every_mode(floor_rel):
    spec, grid = grid_1d(8)
    with pytest.raises(ValueError, match="floor_rel"):
        render_field(cosine_field(grid), [(0.0, 1.0)], (5,), floor_rel)


def test_render_cosine_stripes(tmp_path):
    spec_cfg = parse_config(DDQC_HEAD)
    spec = spec_cfg.build_spec()
    grid = spec_cfg.build_grid()
    f = field_from_modes(grid, [((1, 0, 0, 0), 0.5, 0.0), ((-1, 0, 0, 0), 0.5, 0.0)])
    img = render_field(f, [0.0, 4 * np.pi, 0.0, 4 * np.pi], (32, 8))
    # varies along the first (x) axis, constant along the second
    assert np.ptp(img, axis=0).max() == 255
    assert np.ptp(img, axis=1).max() == 0

    path = tmp_path / "stripes.pgm"
    write_pgm(str(path), img)
    blob = path.read_bytes()
    assert blob.startswith(b"P5\n32 8\n255\n")
    assert len(blob) == len(b"P5\n32 8\n255\n") + 32 * 8


def test_write_pgm_rejects_rasters_of_more_than_two_axes(tmp_path):
    path = tmp_path / "cube.pgm"
    with pytest.raises(ValueError, match="at most 2 axes"):
        write_pgm(str(path), np.zeros((4, 5, 6), dtype=np.uint8))
    assert not path.exists()


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


@pytest.mark.parametrize(
    "time",
    ["nt = 12", *(f"nt = 12\nscheme = sav_cn_sdc\nsweeps = {s}\nblock = 4" for s in (0, 2))],
    ids=["sav_cn", "sdc-sweeps-0", "sdc-sweeps-2"],
)
def test_energy_csv_node_columns_are_the_node_grid(tmp_path, time):
    # step, t and tau are the scheme's node grid exactly: uniform nodes for
    # sav_cn; for SDC, each block's Chebyshev nodes past the block's offset
    cfg = parse_config(BASE_1D.replace("nt = 10", time))
    result = run_evolution(cfg, str(tmp_path))
    rows = [r.split(",") for r in open(result["csv"]).read().splitlines()[1:]]
    T, nt = cfg.time.T, cfg.time.nt
    ts, taus = [0.0], [0.0]
    if cfg.time.scheme == "sav_cn":
        times = np.linspace(0.0, T, nt + 1)
        ts += [float(t) for t in times[1:]]
        taus += [float(times[i] - times[i - 1]) for i in range(1, nt + 1)]
    else:
        offset, count = 0.0, 4
        t_b = T * count / float(nt)
        for _ in range(nt // count):
            g = cheb_nodes(t_b, count)
            ts += [offset + float(g.nodes[n]) for n in range(1, count + 1)]
            taus += [float(g.taus[n - 1]) for n in range(1, count + 1)]
            offset += t_b
    assert [int(r[0]) for r in rows] == list(range(nt + 1))
    assert [float(r[1]) for r in rows] == ts
    assert [float(r[2]) for r in rows] == taus


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

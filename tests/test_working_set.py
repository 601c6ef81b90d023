"""What the SDC sweep, the stepper, `run_evolution` and the render path
hold, and what they leave alone: traced peaks, the initial field freed
by a run, inputs left bitwise unchanged by the in-place arithmetic, and the
block-size memory guard."""

import hashlib
import io
import tracemalloc
import weakref

import numpy as np
import pytest

import ipfc._kernels as kernels
import ipfc.cli as cli
import ipfc.harness as harness
import ipfc.sdc as sdc_mod
from ipfc import (
    ProjectionSpec,
    block_bytes,
    build_grid,
    build_symbol,
    cheb_nodes,
    cn_step,
    correct,
    dump_field,
    field_from_coeffs,
    init_state,
    integration_matrix,
    lattice,
    load_field,
    predict,
    sample_real_space,
    sdc_solve,
)
from ipfc.errors import ConfigError
from ipfc.harness import dodecagonal_projection, parse_config, render_field, run_evolution
from ipfc.sdc import _quadratures_in_place, _refreeze

from test_cli import CONFIG

from conftest import (
    Q_BENCH,
    cosine_field,
    grid_1d,
    params_bench,
    random_field,
    raster_terms,
    sine_field,
)

# Field-size arrays correct() may hold beside its nodes x modes array, the
# quadrature's column block and the blocked passes' scratch blocks: the
# correction, the error samples, the bracket's samples (formed in spent
# arrays) and its transform, and the last node's own field.  Measured: 2.9
# on the 1-d grid below; the bound is that count, three, plus one.
CORRECT_SCRATCH_FIELDS = 4
# Field-size arrays one cn_step may hold beside the state it steps from and
# the state it returns, and beside its scratch blocks: the frozen ratio
# field u and the solve's diagonal and scratch, or the inverse transform's
# working array once u is dropped.  Measured: 2.3 with and without
# dealiasing.
STEP_SCRATCH_FIELDS = 3
# Field-size arrays sample_real_space may hold beside one chunk's count
# (`lattice._raster_term_bytes` per term): the terms' coefficients and
# wavevectors, the kernel's column of them and its output.  Measured: 2.0
# on the 12^4 grid below, whose raster keeps two thirds of the half-layout
# positions as terms, and 0.10 and 0.76 on the 24^4 renders of the
# benchmark and of configs/ddqc_short.cfg; the bound is that count, two,
# plus one.
RASTER_SCRATCH_FIELDS = 3
# Parsed tables (48 B per line at n = 4) load_field may hold beside the
# field it returns: the table, which its positions and values view, and the
# fold's index arrays, gathered values and position masks, most of which
# grow with the lines.  Measured: 1.77 on the dump below, which lists a
# sixth of the modes, and 1.62 and 1.73 on the 24^4 dumps of the benchmark
# and of configs/ddqc_short.cfg (a sixth and over half of the modes); the
# bound is that count, one, plus one.
LOAD_SCRATCH_TABLES = 2


@pytest.mark.parametrize("n_t", [16, 32])
def test_correct_peak_is_ws_plus_fixed_scratch(monkeypatch, n_t):
    # the corrected fields live in the rows of ws, so the sweep's peak does
    # not grow by a field per node beside it; the quadrature's column
    # blocks and the blocked passes' scratch blocks are made narrow, as they
    # are next to a large grid's rows
    monkeypatch.setattr(sdc_mod, "QUAD_BLOCK", 256)
    monkeypatch.setattr(kernels, "BLOCK", 256)
    spec, grid = grid_1d(2048)
    symbol = build_symbol(spec, grid, Q_BENCH)
    params = params_bench()
    state0 = init_state(sine_field(grid, 0.5) + cosine_field(grid, 0.3), symbol, params)
    g = cheb_nodes(0.01, n_t)
    S = integration_matrix(g)
    traj = predict(state0, g, symbol, params)
    unit = max(state0.phi.half.nbytes, state0.samples.values.nbytes)

    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = correct(traj, S, symbol, params)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(out) == n_t + 1
    assert traj.ws.shape == (n_t + 1, state0.phi.half.size)
    quad_scratch = n_t * sdc_mod.QUAD_BLOCK * 8
    assert peak <= traj.ws.nbytes + quad_scratch + CORRECT_SCRATCH_FIELDS * unit
    # every inner node's corrected field is a row of ws
    for n, fld in enumerate(out[1:-1]):
        assert np.shares_memory(fld.half, traj.ws[n])
    assert not np.shares_memory(out[-1].half, traj.ws)


@pytest.mark.parametrize("dealias", [False, True])
def test_cn_step_peak_is_its_states_plus_fixed_scratch(monkeypatch, dealias):
    # u is dropped before the new field's inverse transform, whose passes
    # run in one working array; a dodecagonal grid has leading axes to pass.
    # The solve's scratch blocks are made narrow, as they are next to a
    # large grid's fields.
    monkeypatch.setattr(kernels, "BLOCK", 256)
    spec = ProjectionSpec(d=2, n=4, P=dodecagonal_projection(), B=np.eye(4))
    grid = build_grid(spec, (12, 12, 12, 12))
    symbol = build_symbol(spec, grid, Q_BENCH)
    params = params_bench()
    phi0 = random_field(grid, np.random.default_rng(3), scale=0.05)
    state0 = init_state(phi0, symbol, params, dealias=dealias)
    state1, _ = cn_step(state0, 1e-3, symbol, params)
    unit = max(state0.phi.half.nbytes, state0.samples.values.nbytes)

    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        state2, _ = cn_step(state1, 1e-3, symbol, params)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    held = state2.phi.half.nbytes + state2.samples.values.nbytes
    assert peak <= held + STEP_SCRATCH_FIELDS * unit


def _dodecagonal_12():
    spec = ProjectionSpec(d=2, n=4, P=dodecagonal_projection(), B=np.eye(4))
    return build_grid(spec, (12, 12, 12, 12))


def _traced_peak(fn, *args):
    """fn(*args) and its traced peak above the memory traced at entry."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = fn(*args)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return out, peak


@pytest.mark.parametrize("chunks", [1, 4])
def test_raster_peak_is_one_chunk_plus_fixed_scratch(monkeypatch, chunks):
    # the factor takes the fold's product and the sines overwrite the
    # kernel's spent cosines, so a chunk holds what _raster_term_bytes
    # counts; a chunk's arrays are dropped before the next is folded
    grid = _dodecagonal_12()
    fld = random_field(grid, np.random.default_rng(5))
    resolution = (32, 16)
    term_bytes = lattice._raster_term_bytes(resolution)
    terms = raster_terms(fld, 0.0)
    chunk = -(-terms // chunks)
    monkeypatch.setattr(lattice, "RASTER_CHUNK_BYTES", chunk * term_bytes)
    _, peak = _traced_peak(sample_real_space, fld, [(0.0, 30.0), (0.0, 20.0)], resolution)
    assert peak <= chunk * term_bytes + RASTER_SCRATCH_FIELDS * fld.half.nbytes


def test_load_peak_is_the_field_plus_its_table_and_scratch():
    # the positions and values view the parsed table, a dump without a
    # repeated mode is not copied, and the fold drops its mirror positions
    # before the field is allocated
    grid = _dodecagonal_12()
    rng = np.random.default_rng(5)
    c = rng.standard_normal(grid.sizes) + 1j * rng.standard_normal(grid.sizes)
    c *= rng.random(grid.sizes) < 1 / 6
    buf = io.StringIO()
    dump_field(field_from_coeffs(grid, c), buf)
    text = buf.getvalue()
    lines = text.count("\n") - 1
    fld, peak = _traced_peak(load_field, io.StringIO(text), grid)
    table = lines * (8 * len(grid.sizes) + 16)
    assert peak - fld.half.nbytes <= LOAD_SCRATCH_TABLES * table


def _render_files(tmp_path, fraction):
    """A render config on the 12^4 dodecagonal grid and the dump of a field
    with random coefficients on about `fraction` of its modes."""
    P = " ; ".join(" ".join(repr(float(v)) for v in row) for row in dodecagonal_projection())
    text = (
        f"[projection]\nd = 2\nn = 4\nP = {P}\nB = identity\nsizes = 12 12 12 12\n"
        "\n[model]\nq = 1.0 1.9318516525781366\neps = -2.0\nalpha = 2.0\n"
        "\n[render]\nwindow = 0.0 20.0 0.0 10.0\nresolution = 96 64\nfloor_rel = 0.0\n"
    )
    cfg = tmp_path / "render.cfg"
    cfg.write_text(text)
    grid = parse_config(text).build_grid()
    rng = np.random.default_rng(8)
    c = rng.standard_normal(grid.sizes) + 1j * rng.standard_normal(grid.sizes)
    c *= rng.random(grid.sizes) < fraction
    dump = tmp_path / "state.field"
    with open(dump, "w", encoding="utf-8") as fh:
        dump_field(field_from_coeffs(grid, c), fh)
    return str(cfg), str(dump), parse_config(text)


def test_render_frees_the_loaded_field_before_the_raster(tmp_path, monkeypatch):
    # the CLI keeps no reference to the loaded field, and render_field lets
    # it go once the raster's terms are taken: no chunk sees it alive
    cfg, dump, _ = _render_files(tmp_path, 0.05)
    loaded = []
    real_load = cli.load_field

    def load(fh, grid):
        fld = real_load(fh, grid)
        loaded.extend([weakref.ref(fld), weakref.ref(fld.half)])
        return fld

    alive = []
    real_kernel = lattice.bohr_fourier_sum

    def kernel(*args):
        alive.append(any(ref() is not None for ref in loaded))
        return real_kernel(*args)

    monkeypatch.setattr(cli, "load_field", load)
    monkeypatch.setattr(lattice, "bohr_fourier_sum", kernel)
    monkeypatch.setattr(lattice, "RASTER_CHUNK_BYTES", 200 * lattice._raster_term_bytes((96, 64)))
    assert cli.main(["render", cfg, dump]) == 0
    assert len(loaded) == 2 and len(alive) > 1 and not any(alive)


def test_render_peak_is_its_larger_phase(tmp_path):
    # loading the dump and rastering it do not overlap: the CLI's render
    # peaks at the larger of the two, not at the raster plus the field
    # (half the field's bytes allows for the config and the arguments, which
    # take 38 kB of it; the raster holding the field takes 1.7 field sizes)
    cfg, dump, config = _render_files(tmp_path, 0.01)
    fld, load_peak = _traced_peak(cli._load_dump, config, dump)
    render = config.render
    _, raster_peak = _traced_peak(render_field, fld, render.window, render.resolution, render.floor_rel)
    field_bytes = fld.half.nbytes
    del fld
    code, peak = _traced_peak(cli.main, ["render", cfg, dump])
    assert code == 0
    assert raster_peak > load_peak
    assert peak <= max(load_peak, raster_peak) + field_bytes // 2


def test_evolution_frees_the_initial_field_after_step_one(tmp_path, monkeypatch):
    # no harness frame keeps the initial field or its state: sav_cn reads it
    # in step 1, then frees it; the run dumps at each of its 9 nodes
    times = " ".join(repr(0.05 * i / 8) for i in range(9))
    text = CONFIG.replace("dump_times = 0.05", f"dump_times = {times}")
    initial = []
    real_build = harness.build_initial

    def build(*args):
        fld = real_build(*args)
        initial.append(weakref.ref(fld))
        return fld

    alive = []
    real_dump = harness.dump_field

    def dump(fld, fh):
        alive.append(initial[0]() is not None)
        real_dump(fld, fh)

    monkeypatch.setattr(harness, "build_initial", build)
    monkeypatch.setattr(harness, "dump_field", dump)
    run_evolution(parse_config(text), str(tmp_path))
    assert alive == [True] + [False] * 8


@pytest.mark.parametrize("n_t, width", [(4, 5000), (12, 3000), (65, 700)])
@pytest.mark.parametrize("block", [1, 7, 256, 8192])
def test_quadratures_in_place_match_full_width_sums(rng, monkeypatch, n_t, width, block):
    # column blocks sum each column in the order a full-width row sum does,
    # so the sweep's outputs do not depend on QUAD_BLOCK
    monkeypatch.setattr(sdc_mod, "QUAD_BLOCK", block)
    S = integration_matrix(cheb_nodes(0.3, n_t))
    ws = rng.standard_normal((n_t + 1, width)) + 1j * rng.standard_normal((n_t + 1, width))
    expect = [np.einsum("m,mk->k", S[n], ws.view(np.float64)) for n in range(n_t)]
    last = ws[n_t].copy()
    _quadratures_in_place(ws, S)
    for n in range(n_t):
        np.testing.assert_array_equal(ws[n].view(np.float64), expect[n])
    np.testing.assert_array_equal(ws[n_t], last)


def _state_arrays(state):
    arrays = [state.phi.half, state.samples.values]
    if state.prev_samples is not None:
        arrays.append(state.prev_samples.values)
    return arrays


def _digest(arrays):
    return [hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest() for a in arrays]


def _symbol_arrays(symbol):
    return [symbol.g_half, symbol.g2_half]


@pytest.mark.parametrize("dealias", [False, True])
def test_calls_leave_their_inputs_unchanged(bench_1d, rng, dealias):
    spec, grid, symbol, params = bench_1d
    state0 = init_state(random_field(grid, rng, scale=0.2), symbol, params, dealias=dealias)
    shared = _symbol_arrays(symbol)

    # cn_step, from a state with a previous field (the extrapolating path)
    state1, _ = cn_step(state0, 1e-3, symbol, params)
    arrays = _state_arrays(state1) + shared
    before = _digest(arrays)
    cn_step(state1, 1e-3, symbol, params)
    assert _digest(arrays) == before

    g = cheb_nodes(0.05, 8)
    S = integration_matrix(g)
    traj = predict(state0, g, symbol, params)

    # correct, on the predictor's trajectory
    arrays = [a for st in traj.states for a in _state_arrays(st)] + shared
    before = _digest(arrays)
    phis = correct(traj, S, symbol, params)
    assert _digest(arrays) == before

    # _refreeze, along fields that are views of the sweep's array
    arrays = _state_arrays(state0) + [p.half for p in phis] + shared
    before = _digest(arrays)
    swept = _refreeze(state0, phis, g, symbol, params)
    assert _digest(arrays) == before

    # a sweep that rebuilds the older trajectory's array leaves the fields
    # that view its previous one alone, and so does one on the new trajectory
    arrays = [a for st in swept.states for a in _state_arrays(st)]
    before = _digest(arrays)
    correct(traj, S, symbol, params)
    correct(swept, S, symbol, params)
    assert _digest(arrays) == before

    # sdc_solve, over two chained blocks
    arrays = _state_arrays(state0) + shared
    before = _digest(arrays)
    sdc_solve(state0, 0.05, 8, symbol, params, sweeps=2, block=4)
    assert _digest(arrays) == before


def test_block_bytes_counts_field_samples_and_ws_row(bench_1d, rng):
    spec, grid, symbol, params = bench_1d
    for dealias, factor in ((False, 1), (True, 2)):
        state = init_state(random_field(grid, rng, scale=0.2), symbol, params, dealias=dealias)
        field, samples = 16 * (grid.sizes[0] // 2 + 1), 8 * factor * grid.sizes[0]
        assert block_bytes(state, 4, 1) == 5 * (2 * field + samples)
        assert block_bytes(state, 4, 0) == 5 * (field + samples)


def test_memory_guard_names_the_largest_block_that_fits(bench_1d, rng, monkeypatch):
    # the guard raises before any block is predicted, and does not re-block
    spec, grid, symbol, params = bench_1d
    state0 = init_state(random_field(grid, rng, scale=0.2), symbol, params)
    calls = []
    real_predict = sdc_mod.predict

    def counting_predict(*args, **kwargs):
        calls.append(None)
        return real_predict(*args, **kwargs)

    monkeypatch.setattr(sdc_mod, "predict", counting_predict)
    monkeypatch.setattr(sdc_mod, "_physical_memory", lambda: block_bytes(state0, 5, 1) + 1)
    with pytest.raises(ConfigError, match=r"block of 8 intervals .*set block <= 5"):
        sdc_solve(state0, 0.05, 8, symbol, params, sweeps=1)
    assert calls == []

    # a predictor-only block stores no sweep row, so more of it fits
    sdc_solve(state0, 0.05, 8, symbol, params, sweeps=0)
    # blocks of at most five intervals fit
    _, reports = sdc_solve(state0, 0.05, 8, symbol, params, sweeps=1, block=5)
    assert len(reports) == 8 and len(calls) == 3

    monkeypatch.setattr(sdc_mod, "_physical_memory", lambda: block_bytes(state0, 1, 1))
    with pytest.raises(ConfigError, match="no block of two intervals fits"):
        sdc_solve(state0, 0.05, 8, symbol, params, sweeps=1, block=2)

    # a platform that does not report its memory is not checked
    monkeypatch.setattr(sdc_mod, "_physical_memory", lambda: None)
    sdc_solve(state0, 0.05, 8, symbol, params, sweeps=1)

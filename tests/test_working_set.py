"""What the SDC sweep and the stepper hold, and what they leave alone: the
sweep's traced peak, inputs left bitwise unchanged by the in-place
arithmetic, and the block-size memory guard."""

import hashlib
import tracemalloc

import numpy as np
import pytest

import ipfc.sdc as sdc_mod
from ipfc import (
    ProjectionSpec,
    block_bytes,
    build_grid,
    build_symbol,
    cheb_nodes,
    cn_step,
    correct,
    init_state,
    integration_matrix,
    predict,
    sdc_solve,
)
from ipfc.errors import ConfigError
from ipfc.harness import dodecagonal_projection
from ipfc.sdc import _quadratures_in_place, _refreeze

from conftest import Q_BENCH, cosine_field, grid_1d, params_bench, random_field, sine_field

# Field-size arrays correct() may hold beside its nodes x modes array and
# the quadrature's column block: the correction, the error samples, the
# bracket's samples (formed in spent arrays) and its transform, and the last
# node's own field.  Measured: 3.2 on the 1-d grid below; the bound is that
# count, three, plus one.
CORRECT_SCRATCH_FIELDS = 4
# Field-size arrays one cn_step may hold beside the state it steps from and
# the state it returns: the frozen ratio field u and the solve's diagonals
# and scratch, or the inverse transform's working array once u is dropped.
# Measured: 2.3 with and without dealiasing.
STEP_SCRATCH_FIELDS = 3


@pytest.mark.parametrize("n_t", [16, 32])
def test_correct_peak_is_ws_plus_fixed_scratch(monkeypatch, n_t):
    # the corrected fields live in the rows of ws, so the sweep's peak does
    # not grow by a field per node beside it; the quadrature's column
    # blocks are made narrow, as they are next to a large grid's rows
    monkeypatch.setattr(sdc_mod, "QUAD_BLOCK", 256)
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
def test_cn_step_peak_is_its_states_plus_fixed_scratch(dealias):
    # u is dropped before the new field's inverse transform, whose passes
    # run in one working array; a dodecagonal grid has leading axes to pass
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


@pytest.mark.parametrize("n_t, width", [(4, 5000), (12, 3000), (65, 700)])
@pytest.mark.parametrize("block", [1, 7, 256, 8192])
def test_quadratures_in_place_match_full_width_sums(rng, monkeypatch, n_t, width, block):
    # column blocks sum each column in the order a full-width row sum does,
    # so the sweep's outputs do not depend on QUAD_BLOCK
    monkeypatch.setattr(sdc_mod, "QUAD_BLOCK", block)
    S = integration_matrix(cheb_nodes(0.3, n_t)).S
    ws = rng.standard_normal((n_t + 1, width)) + 1j * rng.standard_normal((n_t + 1, width))
    expect = [np.einsum("m,mk->k", S[n], ws.view(np.float64)) for n in range(n_t)]
    last = ws[n_t].copy()
    _quadratures_in_place(ws, S)
    for n in range(n_t):
        np.testing.assert_array_equal(ws[n].view(np.float64), expect[n])
    np.testing.assert_array_equal(ws[n_t], last)


def _state_arrays(state):
    arrays = [state.phi.half, state.samples.values]
    if state.phi_prev is not None:
        arrays += [state.phi_prev.half, state.prev_samples.values]
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

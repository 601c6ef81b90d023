"""Carried collocation samples: the transforms they save and their agreement
with the fields they stand for."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ipfc.field as field_mod
from ipfc import (
    build_symbol,
    cheb_nodes,
    cn_step,
    evolve,
    init_state,
    integration_matrix,
    sdc_solve,
)
from ipfc.field import to_physical
from ipfc.sdc import _refreeze, correct, predict

from conftest import Q_BENCH, grid_1d, params_bench, random_field


class _Count:
    calls = 0


@pytest.fixture
def fft_count(monkeypatch):
    """Counts the forward and inverse transforms ``ipfc.field`` makes,
    complex and real-data alike."""
    count = _Count()

    def counted(fn):
        def call(*args, **kwargs):
            count.calls += 1
            return fn(*args, **kwargs)
        return call

    for name in ("fftn", "ifftn", "rfftn", "irfftn"):
        monkeypatch.setattr(field_mod.np.fft, name, counted(getattr(np.fft, name)))
    return count


@pytest.mark.parametrize("dealias", [False, True])
def test_step_makes_two_transforms(bench_1d, rng, fft_count, dealias):
    # one forward transform of N'(fbar), one inverse transform of the new field
    spec, grid, symbol, params = bench_1d
    st_ = init_state(random_field(grid, rng, scale=0.2), symbol, params, dealias=dealias)
    assert fft_count.calls == 1
    for k in range(4):
        before = fft_count.calls
        st_, _ = cn_step(st_, 0.01, symbol, params, dealias=dealias)
        assert fft_count.calls - before == 2


@pytest.mark.parametrize("dealias", [False, True])
def test_sdc_node_makes_at_most_seven_transforms(bench_1d, rng, fft_count, dealias):
    # predictor 3M + 1, sweep 2(M - 1), and the last refreeze 2M, with no
    # right-hand sides after the last sweep: 27 for M = 4
    spec, grid, symbol, params = bench_1d
    state0 = init_state(random_field(grid, rng, scale=0.2), symbol, params, dealias=dealias)
    before = fft_count.calls
    sdc_solve(state0, 0.05, 4, symbol, params, sweeps=1, dealias=dealias)
    assert fft_count.calls - before <= 7 * 4


def _assert_samples_match(fld, samples, dealias):
    assert samples is not None
    exact = to_physical(fld, dealias).values
    scale = np.abs(exact).max()
    assert np.abs(samples.values - exact).max() <= 1e-13 * scale


@settings(deadline=None, max_examples=30)
@given(
    taus=st.lists(st.floats(1e-4, 1.0), min_size=1, max_size=5),
    c1=st.sampled_from([1e2, 1e16]),
    dealias=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_carried_samples_match_fields(taus, c1, dealias, seed):
    spec, grid = grid_1d(16)
    symbol = build_symbol(spec, grid, Q_BENCH)
    params = params_bench(c1=c1)
    phi0 = random_field(grid, np.random.default_rng(seed), scale=0.3)
    state = init_state(phi0, symbol, params, dealias=dealias)
    _assert_samples_match(state.phi, state.samples, dealias)
    times = np.concatenate([[0.0], np.cumsum(taus)])
    state, _ = evolve(state, times, symbol, params, dealias=dealias)
    _assert_samples_match(state.phi, state.samples, dealias)
    _assert_samples_match(state.phi_prev, state.prev_samples, dealias)


@settings(deadline=None, max_examples=15)
@given(
    T=st.floats(1e-3, 0.1),
    c1=st.sampled_from([1e2, 1e16]),
    dealias=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_corrected_trajectory_samples_match_fields(T, c1, dealias, seed):
    spec, grid = grid_1d(16)
    symbol = build_symbol(spec, grid, Q_BENCH)
    params = params_bench(c1=c1)
    phi0 = random_field(grid, np.random.default_rng(seed), scale=0.2)
    state = init_state(phi0, symbol, params, dealias=dealias)
    g = cheb_nodes(T, 4)
    traj = predict(state, g, symbol, params, dealias=dealias)
    phis = correct(traj, g, integration_matrix(g), symbol, params, dealias=dealias)
    corrected = _refreeze(state, phis, g, symbol, params, dealias)
    for fld, samples in zip(corrected.phis, corrected.samples):
        _assert_samples_match(fld, samples, dealias)

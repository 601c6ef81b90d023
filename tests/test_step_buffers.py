"""The stepper's two work buffers: a step is bitwise the step its parent
took with a new array for every temporary, and what a step returns shares
no memory with any other state."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ipfc import (
    PhysicalField,
    ProjectionSpec,
    SpectralField,
    build_grid,
    build_symbol,
    cheb_nodes,
    cn_step,
    correct,
    init_state,
    integration_matrix,
    predict,
    to_physical,
)
from ipfc._kernels import extrapolate
from ipfc.field import _coeff_inner
from ipfc.harness import dodecagonal_projection
from ipfc.model import bulk_mean, sav_ingredients
from ipfc.sdc import _refreeze

from conftest import Q_BENCH, grid_1d, params_bench, random_field


def _dodecagonal_12():
    spec = ProjectionSpec(d=2, n=4, P=dodecagonal_projection(), B=np.eye(4))
    return spec, build_grid(spec, (12, 12, 12, 12))


# (grid, symbol) pairs: two 1-d grids and the 12^4 dodecagonal grid, whose
# leading axes the inverse transform passes in its working array
SETUPS = [
    (grid, build_symbol(spec, grid, Q_BENCH))
    for spec, grid in (grid_1d(16), grid_1d(64), _dodecagonal_12())
]


def _parent_cn_step(state, tau, symbol, params):
    """`cn_step` as its parent took it, on whole arrays, each temporary new:
    the extrapolant's samples, u from `sav_ingredients`, the resolvent's
    diagonal inv, c, u * inv, c * inv, the difference of the fields and
    g phi^{n+1}.  Returns the new field, its samples, r_dev, sqrt_f1 and
    the report's values."""
    grid = state.phi.grid
    v = state.samples
    vbar = v
    if state.prev_samples is not None:
        vbar = PhysicalField(grid, extrapolate(v.values, state.prev_samples.values), v.factor)
    u, sqrt_f1 = sav_ingredients(vbar, params)
    u_c = u.half
    u_c.ravel()[grid.zero_index] = 0.0
    phi_c = state.phi.half
    k = 0.25 * tau * _coeff_inner(u_c, phi_c) - tau * (math.sqrt(params.c1) + state.r_dev)
    half_g2 = (0.5 * tau) * symbol.g2_half
    inv = np.reciprocal(np.add(1.0, half_g2))
    c = phi_c * (1.0 - half_g2)
    c += k * u_c
    gamma = _coeff_inner(u_c * inv, u_c)
    s = _coeff_inner(c * inv, u_c) / (1.0 + 0.25 * tau * gamma)
    c -= (0.25 * tau * s) * u_c
    c *= inv
    c.ravel()[grid.zero_index] = 0.0
    diff = c - phi_c
    r_dev = state.r_dev + 0.5 * _coeff_inner(diff, u_c)
    w_norm_sq = _coeff_inner(diff, diff) / (tau * tau)
    phi_new = SpectralField(grid, c)
    samples = to_physical(phi_new, v.factor > 1)
    nu = bulk_mean(samples, params)
    gc = symbol.g_half * c
    grad = 0.5 * _coeff_inner(gc, gc)
    sqrt_c1 = math.sqrt(params.c1)
    report = (grad + r_dev * (2.0 * sqrt_c1 + r_dev), grad + nu, sqrt_c1 + r_dev, w_norm_sq, tau)
    return c, samples.values, r_dev, sqrt_f1, report


def _check_step(state, tau, symbol, params):
    """cn_step from `state` against the parent's route, bit for bit;
    returns the new state."""
    new, report = cn_step(state, tau, symbol, params)
    phi, samples, r_dev, sqrt_f1, values = _parent_cn_step(state, tau, symbol, params)
    assert new.phi.half.tobytes() == phi.tobytes()
    assert new.samples.values.tobytes() == samples.tobytes()
    assert new.samples.factor == state.samples.factor
    assert new.prev_samples is state.samples
    got = (new.r_dev, new.sqrt_f1, report.modified_energy, report.original_energy,
           report.r_value, report.w_norm_sq, report.tau)
    assert [x.hex() for x in got] == [x.hex() for x in (r_dev, sqrt_f1) + values]
    return new


steps = st.tuples(
    st.sampled_from(range(len(SETUPS))),
    st.booleans(),
    st.integers(0, 2**32 - 1),
    st.floats(0.01, 0.3),
    st.floats(1e-4, 1.0),
)


@settings(deadline=None, max_examples=200)
@given(steps)
def test_cn_step_matches_the_parent_route_bitwise(case):
    # the first step (the extrapolant is the state's own samples) and the
    # second (the extrapolant is combined into buffer A)
    which, dealias, seed, scale, tau = case
    grid, symbol = SETUPS[which]
    params = params_bench()
    phi0 = random_field(grid, np.random.default_rng(seed), scale=scale)
    state = init_state(phi0, symbol, params, dealias=dealias)
    state = _check_step(state, tau, symbol, params)
    _check_step(state, tau, symbol, params)


def _own_arrays(state):
    return [state.phi.half, state.samples.values]


def _digest(states):
    return [hashlib.sha256(a.tobytes()).hexdigest() for s in states for a in _own_arrays(s)]


@pytest.mark.parametrize("dealias", [False, True])
def test_step_states_share_no_memory(bench_1d, rng, dealias):
    spec, grid, symbol, params = bench_1d
    states = [init_state(random_field(grid, rng, scale=0.2), symbol, params, dealias=dealias)]
    for _ in range(4):
        states.append(cn_step(states[-1], 1e-3, symbol, params)[0])
    arrays = [a for s in states for a in _own_arrays(s)]
    for i, a in enumerate(arrays):
        for b in arrays[i + 1 :]:
            assert not np.shares_memory(a, b)
    for before, after in zip(states, states[1:]):
        assert after.prev_samples is before.samples


@pytest.mark.parametrize("dealias", [False, True])
def test_predicted_states_stay_put(bench_1d, rng, dealias):
    # later steps and a sweep's refreeze work in buffers of their own, never
    # in a node state's arrays
    spec, grid, symbol, params = bench_1d
    state0 = init_state(random_field(grid, rng, scale=0.2), symbol, params, dealias=dealias)
    g = cheb_nodes(0.05, 6)
    traj = predict(state0, g, symbol, params)
    before = _digest(traj.states)
    state = traj.states[-1]
    for _ in range(3):
        state, _ = cn_step(state, 1e-2, symbol, params)
    phis = correct(traj, integration_matrix(g), symbol, params)
    swept = _refreeze(state0, phis, g, symbol, params)
    assert _digest(traj.states) == before
    for a in _own_arrays(swept.states[-1]):
        for s in traj.states:
            assert all(not np.shares_memory(a, b) for b in _own_arrays(s))

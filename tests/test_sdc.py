import numpy as np
import pytest

from ipfc import (
    build_symbol,
    cheb_nodes,
    correct,
    evolve,
    init_state,
    inner_ap,
    integration_matrix,
    norm_ap,
    predict,
    sdc_solve,
    zeros_field,
)
from ipfc.errors import NumericalError
from ipfc.model import ModelParams, bulk_mean, energy

from conftest import Q_BENCH, grid_1d, params_bench, random_field, sine_field


def test_cheb_nodes_small_cases():
    g = cheb_nodes(1.0, 2)
    np.testing.assert_allclose(g.nodes, [0.0, 0.5, 1.0], atol=1e-15)
    assert g.nodes[0] == 0.0 and g.nodes[-1] == 1.0

    g = cheb_nodes(0.2, 4)
    assert g.nodes[2] == pytest.approx(0.1, abs=1e-16)


def test_cheb_nodes_monotone_and_symmetric():
    for nt in (2, 5, 16, 64):
        g = cheb_nodes(0.7, nt)
        assert np.all(np.diff(g.nodes) > 0)
        np.testing.assert_allclose(g.nodes + g.nodes[::-1], 0.7, atol=1e-14 * 0.7)
        assert g.nodes[0] == 0.0 and g.nodes[-1] == 0.7


def test_cheb_nodes_validation():
    with pytest.raises(ValueError):
        cheb_nodes(0.0, 4)
    with pytest.raises(ValueError):
        cheb_nodes(1.0, 1)


def test_integration_matrix_row_sums():
    g = cheb_nodes(0.3, 12)
    S = integration_matrix(g)
    np.testing.assert_allclose(S.S.sum(axis=1), g.taus, atol=1e-13 * 0.3)


def test_integration_matrix_linear_exact():
    g = cheb_nodes(1.0, 2)
    S = integration_matrix(g)
    # integral of t over [0, 1/2] is 1/8
    assert S.S[0] @ g.nodes == pytest.approx(0.125, abs=1e-15)


@pytest.mark.parametrize("nt", [2, 4, 8, 16, 32])
def test_integration_matrix_monomial_exactness(nt):
    g = cheb_nodes(1.0, nt)
    S = integration_matrix(g)
    for k in range(nt + 1):
        vals = g.nodes**k
        exact = (g.nodes[1:] ** (k + 1) - g.nodes[:-1] ** (k + 1)) / (k + 1)
        err = np.abs(S.S @ vals - exact)
        assert err.max() <= 1e-12 * max(np.abs(exact).max(), 1e-300)


@pytest.mark.parametrize("nt", [65, 2048])
def test_integration_matrix_many_nodes(nt):
    # the cosine-transform construction needs no node-count guard
    g = cheb_nodes(1.0, nt)
    S = integration_matrix(g)
    exact = np.exp(g.nodes[1:]) - np.exp(g.nodes[:-1])
    assert np.abs(S.S @ np.exp(g.nodes) - exact).max() <= 1e-12


def test_predict_zero_data(bench_1d):
    spec, grid, symbol, params = bench_1d
    g = cheb_nodes(0.1, 6)
    traj = predict(zeros_field(grid), g, symbol, params)
    assert all(norm_ap(p) == 0.0 for p in traj.phis)
    np.testing.assert_allclose(
        traj.r_devs * (2 * np.sqrt(params.c1) + traj.r_devs), 0.0, atol=1e-12
    )


def test_predict_matches_evolve_bitwise(bench_1d, rng):
    # the predictor shares the stepping code path, node for node
    spec, grid, symbol, params = bench_1d
    phi0 = random_field(grid, rng, scale=0.2)
    g = cheb_nodes(0.05, 8)
    traj = predict(phi0, g, symbol, params)

    states = [init_state(phi0, symbol, params)]
    _, reports = evolve(
        states[0], g.nodes, symbol, params, on_step=lambda i, st, rep: states.append(st)
    )
    for phi, st in zip(traj.phis, states):
        np.testing.assert_array_equal(phi.coeffs, st.phi.coeffs)
    assert list(traj.r_devs) == [st.r_dev for st in states]
    assert traj.reports[1:] == reports


def test_restep_reproduces_predictor_bitwise(bench_1d, rng):
    # re-running the stepper's update on the predictor's own fields rebuilds
    # the trajectory the predictor took from the stepper, bit for bit
    from ipfc.sdc import _refreeze

    spec, grid, symbol, params = bench_1d
    phi0 = random_field(grid, rng, scale=0.2)
    g = cheb_nodes(0.05, 8)
    traj = predict(phi0, g, symbol, params)
    rebuilt = _refreeze(init_state(phi0, symbol, params), traj.phis, g, symbol, params)
    np.testing.assert_array_equal(rebuilt.ws, traj.ws)
    np.testing.assert_array_equal(rebuilt.r_devs, traj.r_devs)
    np.testing.assert_array_equal(rebuilt.kappas, traj.kappas)
    for a, b in zip(rebuilt.samples, traj.samples):
        np.testing.assert_array_equal(a.values, b.values)
    assert rebuilt.reports == traj.reports


def test_correct_zero_predictor_stays_zero(bench_1d):
    spec, grid, symbol, params = bench_1d
    g = cheb_nodes(0.1, 6)
    S = integration_matrix(g)
    traj = predict(zeros_field(grid), g, symbol, params)
    out = correct(traj, g, S, symbol, params)
    assert all(norm_ap(p) == 0.0 for p in out)


def test_correct_linear_diagonal_oracle():
    # vanishing-amplitude limit with no quadratic term: each mode decays as
    # exp(-(g^2 + eps) t).  One sweep improves the predictor by O(tau^2);
    # iterating sweeps converges to the collocation solution, which matches
    # the exponential to quadrature accuracy.
    spec, grid = grid_1d(8)
    symbol = build_symbol(spec, grid, Q_BENCH)
    params = ModelParams(q=Q_BENCH, eps=10.0, alpha=0.0, c1=10.0)
    amp = 1e-6
    phi0 = sine_field(grid, amp)
    T = 0.4
    g = cheb_nodes(T, 16)
    S = integration_matrix(g)
    traj = predict(phi0, g, symbol, params)
    out = correct(traj, g, S, symbol, params)

    rate = symbol.g2.ravel() + params.eps
    exact = phi0.coeffs.ravel() * np.exp(-rate * T)
    exact_scale = np.abs(exact).max()
    err_one = np.abs(out[-1].coeffs.ravel() - exact).max()
    pred_err = np.abs(traj.phis[-1].coeffs.ravel() - exact).max()
    assert err_one < 0.02 * pred_err

    # the sweep limit is floor-limited by round-off of the tiny working
    # amplitude (~1e-16 absolute), well below the one-sweep error
    final, _ = sdc_solve(phi0, T, 16, symbol, params, sweeps=6)
    err_limit = np.abs(final.coeffs.ravel() - exact).max()
    assert err_limit < 1e-6 * exact_scale


def test_correction_keeps_zero_mode(bench_1d, rng):
    spec, grid, symbol, params = bench_1d
    phi0 = random_field(grid, rng, scale=0.2)
    g = cheb_nodes(0.05, 8)
    S = integration_matrix(g)
    traj = predict(phi0, g, symbol, params)
    for p in correct(traj, g, S, symbol, params):
        assert abs(p.coeffs.ravel()[grid.zero_index]) <= 1e-13


def test_correct_non_finite_raises_numerical_error(bench_1d, rng):
    # the zero-mode invariant is a raise, not an assert, so it also holds
    # under python -O
    spec, grid, symbol, params = bench_1d
    phi0 = random_field(grid, rng, scale=0.2)
    g = cheb_nodes(0.05, 8)
    S = integration_matrix(g)
    traj = predict(phi0, g, symbol, params)
    traj.kappas[3] = np.nan
    with pytest.raises(NumericalError, match="zero mode"):
        correct(traj, g, S, symbol, params)


def test_sdc_solve_zero_sweeps_is_predictor(bench_1d, rng):
    spec, grid, symbol, params = bench_1d
    phi0 = random_field(grid, rng, scale=0.2)
    g = cheb_nodes(0.05, 8)
    traj = predict(phi0, g, symbol, params)
    final, records = sdc_solve(phi0, 0.05, 8, symbol, params, sweeps=0)
    np.testing.assert_array_equal(final.coeffs, traj.phis[-1].coeffs)
    assert len(records) == 9


def test_sdc_order_lift_quick():
    # corrected endpoint error decays roughly fourth order on the benchmark
    spec, grid = grid_1d(32)
    symbol = build_symbol(spec, grid, Q_BENCH)
    params = params_bench()
    phi0 = sine_field(grid)
    T = 0.2
    ref, _ = sdc_solve(phi0, T, 512, symbol, params, sweeps=1)
    errs = []
    for nt in (16, 32, 64):
        fin, _ = sdc_solve(phi0, T, nt, symbol, params, sweeps=1)
        errs.append(norm_ap(fin - ref))
    r1 = np.log2(errs[0] / errs[1])
    r2 = np.log2(errs[1] / errs[2])
    assert r1 > 3.3 and r2 > 3.3


def test_sdc_blocked_accuracy_scale(bench_1d):
    # chained blocks re-bootstrap the extrapolant at each block start, which
    # caps their accuracy near the sum of the squared first intervals; still
    # far better than the uncorrected predictor
    spec, grid, symbol, params = bench_1d
    phi0 = sine_field(grid, 0.5)
    T = 0.1
    ref, _ = sdc_solve(phi0, T, 256, symbol, params, sweeps=1)
    blocked, _ = sdc_solve(phi0, T, 32, symbol, params, sweeps=1, block=8)
    pred, _ = sdc_solve(phi0, T, 32, symbol, params, sweeps=0)
    e_blocked = norm_ap(blocked - ref)
    e_pred = norm_ap(pred - ref)
    assert e_blocked < 1e-5
    assert e_blocked < 0.2 * e_pred


def test_sdc_multi_sweep_not_worse(bench_1d):
    spec, grid, symbol, params = bench_1d
    phi0 = sine_field(grid, 0.5)
    T = 0.1
    ref, _ = sdc_solve(phi0, T, 512, symbol, params, sweeps=1)
    one, _ = sdc_solve(phi0, T, 16, symbol, params, sweeps=1)
    two, _ = sdc_solve(phi0, T, 16, symbol, params, sweeps=2)
    assert norm_ap(two - ref) <= 2.0 * norm_ap(one - ref)


def test_sdc_records_shape(bench_1d, rng):
    spec, grid, symbol, params = bench_1d
    phi0 = random_field(grid, rng, scale=0.2)
    final, records = sdc_solve(phi0, 0.05, 12, symbol, params, sweeps=1, block=4)
    ts = [t for t, _, _ in records]
    assert len(records) == 13  # 12 intervals + initial node, blocks deduped
    assert ts[0] == 0.0
    assert ts[-1] == pytest.approx(0.05)
    assert all(np.diff(ts) > 0)


def test_sdc_node_hook_streams_per_block(bench_1d, rng, monkeypatch):
    # each block's nodes reach the hook before the next block is predicted,
    # so a caller need not hold more than one block of fields
    import ipfc.sdc as sdc_mod

    spec, grid, symbol, params = bench_1d
    phi0 = random_field(grid, rng, scale=0.2)
    blocks_started = []
    real_predict = sdc_mod.predict

    def counting_predict(*args, **kwargs):
        blocks_started.append(None)
        return real_predict(*args, **kwargs)

    monkeypatch.setattr(sdc_mod, "predict", counting_predict)
    seen = []
    final, records = sdc_solve(
        phi0, 0.05, 12, symbol, params, sweeps=1, block=4,
        node_hook=lambda step, t, tau, rep, phi: seen.append((step, t, tau, rep, phi, len(blocks_started))),
    )
    assert [s[0] for s in seen] == list(range(1, 13))
    assert [s[1:4] for s in seen] == records[1:]
    assert [s[5] for s in seen] == [1] * 4 + [2] * 4 + [3] * 4
    assert seen[-1][4] is final


def _block_trajectories(monkeypatch):
    """Record every trajectory sdc_solve builds, in order."""
    import ipfc.sdc as sdc_mod

    built = []
    real_refreeze = sdc_mod._refreeze

    def recording_refreeze(*args, **kwargs):
        built.append(real_refreeze(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(sdc_mod, "_refreeze", recording_refreeze)
    return built


@pytest.mark.parametrize("sweeps", [0, 1, 2])
@pytest.mark.parametrize("n_t, block", [(8, 4096), (12, 4)])
def test_sdc_records_match_node_fields(bench_1d, rng, monkeypatch, sweeps, n_t, block):
    # every record is the energy row of the node field it is emitted with,
    # read off the block's final trajectory
    spec, grid, symbol, params = bench_1d
    phi0 = random_field(grid, rng, scale=0.2)
    built = _block_trajectories(monkeypatch)
    phis = [phi0]
    _, records = sdc_solve(
        phi0, 0.05, n_t, symbol, params, sweeps=sweeps, block=block,
        node_hook=lambda step, t, tau, rep, phi: phis.append(phi),
    )
    n_blocks = -(-n_t // block)
    assert len(built) == n_blocks * (sweeps + 1)
    finals = built[sweeps :: sweeps + 1]
    per_block = n_t // n_blocks
    sqrt_c1 = np.sqrt(params.c1)
    for i, ((t, tau, rep), phi) in enumerate(zip(records, phis)):
        b, n = (0, 0) if i == 0 else divmod(i - 1, per_block)
        n = n + 1 if i else 0
        traj = finals[b]
        assert traj.phis[n] is phi
        assert rep.original_energy == energy(phi, symbol, params)
        if i == 0:
            assert rep.w_norm_sq == 0.0
        else:
            diff = phi - phis[i - 1]
            assert rep.w_norm_sq == inner_ap(diff, diff) / (tau * tau)
        r_dev = float(traj.r_devs[n])
        assert rep.r_value == sqrt_c1 + r_dev
        grad = energy(phi, symbol, params) - bulk_mean(phi, params)
        assert rep.modified_energy == pytest.approx(grad + r_dev * (2 * sqrt_c1 + r_dev), rel=1e-13)


def test_sdc_validation(bench_1d, rng, monkeypatch):
    # every setting is checked before the first block is predicted; 5
    # intervals in blocks of 2 would otherwise fail only at the last block
    import ipfc.sdc as sdc_mod

    spec, grid, symbol, params = bench_1d
    phi0 = random_field(grid, rng, scale=0.2)
    calls = []
    monkeypatch.setattr(sdc_mod, "predict", lambda *a, **k: calls.append(None))
    with pytest.raises(ValueError):
        sdc_solve(phi0, 0.1, 8, symbol, params, sweeps=-1)
    with pytest.raises(ValueError):
        sdc_solve(phi0, 0.1, 8, symbol, params, block=1)
    with pytest.raises(ValueError, match="at least two intervals"):
        sdc_solve(phi0, 0.1, 5, symbol, params, block=2)
    with pytest.raises(ValueError, match="at least two intervals"):
        sdc_solve(phi0, 0.1, 1, symbol, params)
    assert calls == []

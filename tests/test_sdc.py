import numpy as np
import pytest
from hypothesis import given, settings, strategies

from ipfc import (
    build_symbol,
    cheb_nodes,
    cn_step,
    correct,
    evolve,
    init_state,
    inner_ap,
    integration_matrix,
    norm_ap,
    predict,
    sdc_solve,
    to_physical,
    zeros_field,
)
from ipfc.errors import NumericalError
from ipfc.field import hermitian_violation
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
    np.testing.assert_allclose(S.sum(axis=1), g.taus, atol=1e-13 * 0.3)


def test_integration_matrix_linear_exact():
    g = cheb_nodes(1.0, 2)
    S = integration_matrix(g)
    # integral of t over [0, 1/2] is 1/8
    assert S[0] @ g.nodes == pytest.approx(0.125, abs=1e-15)


@pytest.mark.parametrize("nt", [2, 4, 8, 16, 32])
def test_integration_matrix_monomial_exactness(nt):
    g = cheb_nodes(1.0, nt)
    S = integration_matrix(g)
    for k in range(nt + 1):
        vals = g.nodes**k
        exact = (g.nodes[1:] ** (k + 1) - g.nodes[:-1] ** (k + 1)) / (k + 1)
        err = np.abs(S @ vals - exact)
        assert err.max() <= 1e-12 * max(np.abs(exact).max(), 1e-300)


@pytest.mark.parametrize("nt", [65, 2048])
def test_integration_matrix_many_nodes(nt):
    # the cosine-transform construction needs no node-count guard
    g = cheb_nodes(1.0, nt)
    S = integration_matrix(g)
    exact = np.exp(g.nodes[1:]) - np.exp(g.nodes[:-1])
    assert np.abs(S @ np.exp(g.nodes) - exact).max() <= 1e-12


def test_predict_zero_data(bench_1d):
    spec, grid, symbol, params = bench_1d
    g = cheb_nodes(0.1, 6)
    traj = predict(init_state(zeros_field(grid), symbol, params), g, symbol, params)
    assert all(norm_ap(p) == 0.0 for p in traj.phis)
    r_devs = np.array([st.r_dev for st in traj.states])
    np.testing.assert_allclose(r_devs * (2 * np.sqrt(params.c1) + r_devs), 0.0, atol=1e-12)


def test_predict_matches_evolve_bitwise(bench_1d, rng):
    # the predictor shares the stepping code path, node for node
    spec, grid, symbol, params = bench_1d
    phi0 = random_field(grid, rng, scale=0.2)
    g = cheb_nodes(0.05, 8)
    traj = predict(init_state(phi0, symbol, params), g, symbol, params)

    states = [init_state(phi0, symbol, params)]
    _, reports = evolve(
        states[0], g.nodes, symbol, params, on_step=lambda i, st, rep: states.append(st)
    )
    for phi, st in zip(traj.phis, states):
        np.testing.assert_array_equal(phi.coeffs, st.phi.coeffs)
    assert [st.r_dev for st in traj.states] == [st.r_dev for st in states]
    assert traj.reports == reports


def test_refreeze_reproduces_predictor_bitwise(bench_1d, rng):
    # re-running the stepper's update on the predictor's own fields rebuilds
    # the trajectory the predictor took from the stepper, bit for bit
    from ipfc.sdc import _refreeze

    spec, grid, symbol, params = bench_1d
    phi0 = random_field(grid, rng, scale=0.2)
    g = cheb_nodes(0.05, 8)
    traj = predict(init_state(phi0, symbol, params), g, symbol, params)
    rebuilt = _refreeze(init_state(phi0, symbol, params), traj.phis, g, symbol, params)
    S = integration_matrix(g)
    for t in (traj, rebuilt):
        correct(t, S, symbol, params)
    np.testing.assert_array_equal(rebuilt.ws, traj.ws)
    assert [st.r_dev for st in rebuilt.states] == [st.r_dev for st in traj.states]
    assert [st.sqrt_f1 for st in rebuilt.states] == [st.sqrt_f1 for st in traj.states]
    for a, b in zip(rebuilt.states, traj.states):
        np.testing.assert_array_equal(a.samples.values, b.samples.values)
    assert rebuilt.reports == traj.reports


def test_correct_zero_predictor_stays_zero(bench_1d):
    spec, grid, symbol, params = bench_1d
    g = cheb_nodes(0.1, 6)
    S = integration_matrix(g)
    traj = predict(init_state(zeros_field(grid), symbol, params), g, symbol, params)
    out = correct(traj, S, symbol, params)
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
    state0 = init_state(phi0, symbol, params)
    traj = predict(state0, g, symbol, params)
    out = correct(traj, S, symbol, params)

    rate = grid.unfold(symbol.g2_half).ravel() + params.eps
    exact = phi0.coeffs.ravel() * np.exp(-rate * T)
    exact_scale = np.abs(exact).max()
    err_one = np.abs(out[-1].coeffs.ravel() - exact).max()
    pred_err = np.abs(traj.phis[-1].coeffs.ravel() - exact).max()
    assert err_one < 0.02 * pred_err

    # the sweep limit is floor-limited by round-off of the tiny working
    # amplitude (~1e-16 absolute), well below the one-sweep error
    final, _ = sdc_solve(state0, T, 16, symbol, params, sweeps=6)
    err_limit = np.abs(final.phi.coeffs.ravel() - exact).max()
    assert err_limit < 1e-6 * exact_scale


def test_correction_keeps_zero_mode(bench_1d, rng):
    spec, grid, symbol, params = bench_1d
    phi0 = random_field(grid, rng, scale=0.2)
    g = cheb_nodes(0.05, 8)
    S = integration_matrix(g)
    traj = predict(init_state(phi0, symbol, params), g, symbol, params)
    for p in correct(traj, S, symbol, params):
        assert abs(p.coeffs.ravel()[grid.zero_index]) <= 1e-13


def test_correct_non_finite_raises_numerical_error(bench_1d, rng):
    # the zero-mode invariant is a raise, not an assert, so it also holds
    # under python -O
    spec, grid, symbol, params = bench_1d
    phi0 = random_field(grid, rng, scale=0.2)
    g = cheb_nodes(0.05, 8)
    S = integration_matrix(g)
    traj = predict(init_state(phi0, symbol, params), g, symbol, params)
    traj.states[4].sqrt_f1 = np.nan  # kappa of interval 3
    with pytest.raises(NumericalError, match="zero mode"):
        correct(traj, S, symbol, params)


def _ddqc_small(dodecagonal_small):
    """The 8^4 dodecagonal grid with the dodecagonal configs' model; not
    every mode of this grid is live."""
    spec, grid = dodecagonal_small
    params = ModelParams(q=(1.0, 1.9318516525781366), eps=-2.0, alpha=2.0, c1=1e16)
    return grid, build_symbol(spec, grid, params.q), params


def test_sdc_non_finite_node_raises(dodecagonal_small):
    # a rough start makes the swept nodes overflow; the refreeze runs the
    # stepper's finiteness check on every node instead of returning inf
    # and nan energy rows
    grid, symbol, params = _ddqc_small(dodecagonal_small)
    phi0 = random_field(grid, np.random.default_rng(0), scale=0.1)
    rows = []
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericalError, match="non-finite"):
        sdc_solve(
            init_state(phi0, symbol, params), 0.5, 4, symbol, params, sweeps=1,
            on_step=lambda i, st, rep: rows.append(rep),
        )
    assert rows == []


def test_diverging_sweeps_raise_at_the_node(bench_1d):
    # three sweeps diverge on this rough start; the first non-finite node
    # is caught where it is built, not later as a NaN shifted bulk energy
    # with the advice to increase c1
    spec, grid, symbol, params = bench_1d
    phi0 = random_field(grid, np.random.default_rng(7), scale=0.2)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericalError) as err:
        sdc_solve(init_state(phi0, symbol, params), 0.05, 16, symbol, params, sweeps=3, block=16)
    assert err.traceback[-1].name == "_advance"
    # the message names the node time and what is not finite, and gives no
    # advice about c1, which plays no part in a swept node
    message = str(err.value)
    head, named = message.split(": ", 1)
    assert head.startswith("non-finite values at the node t = ")
    t = float(head.rsplit(" ", 1)[1])
    assert np.abs(cheb_nodes(0.05, 16).nodes - t).min() <= 1e-15
    for item in named.split(", "):
        assert not np.isfinite(float(item.split(" = ")[1]))
    assert "c1" not in message


@settings(deadline=None, max_examples=30)
@given(
    strategies.booleans(),
    strategies.integers(0, 2**32 - 1),
    strategies.sampled_from([1, 2]),
    strategies.booleans(),
)
def test_corrections_symmetric_by_construction(
    bench_1d, dodecagonal_small, projected, seed, sweeps, dealias
):
    # every field a sweep returns is exactly conjugate-symmetric and zero
    # on the modes that are not live, with no projection in the sweep
    from ipfc.sdc import _refreeze

    if projected:
        grid, symbol, params = _ddqc_small(dodecagonal_small)
        scale, T = 0.01, 0.01
    else:
        _, grid, symbol, params = bench_1d
        scale, T = 0.2, 0.05
    phi0 = random_field(grid, np.random.default_rng(seed), scale=scale)
    g = cheb_nodes(T, 8)
    S = integration_matrix(g)
    start = init_state(phi0, symbol, params, dealias=dealias)
    traj = predict(start, g, symbol, params)
    for _ in range(sweeps):
        phis = correct(traj, S, symbol, params)
        for f in phis:
            assert hermitian_violation(f) == 0.0
            assert not f.half[~grid.live_mask].any()
        traj = _refreeze(start, phis, g, symbol, params)


def test_sdc_solve_zero_sweeps_is_predictor(bench_1d, rng):
    spec, grid, symbol, params = bench_1d
    phi0 = random_field(grid, rng, scale=0.2)
    g = cheb_nodes(0.05, 8)
    state0 = init_state(phi0, symbol, params)
    traj = predict(state0, g, symbol, params)
    final, reports = sdc_solve(state0, 0.05, 8, symbol, params, sweeps=0)
    np.testing.assert_array_equal(final.phi.coeffs, traj.phis[-1].coeffs)
    assert len(reports) == 8


def test_sdc_order_lift_quick():
    # corrected endpoint error decays roughly fourth order on the benchmark
    spec, grid = grid_1d(32)
    symbol = build_symbol(spec, grid, Q_BENCH)
    params = params_bench()
    state0 = init_state(sine_field(grid), symbol, params)
    T = 0.2
    ref = sdc_solve(state0, T, 512, symbol, params, sweeps=1)[0].phi
    errs = []
    for nt in (16, 32, 64):
        fin = sdc_solve(state0, T, nt, symbol, params, sweeps=1)[0].phi
        errs.append(norm_ap(fin - ref))
    r1 = np.log2(errs[0] / errs[1])
    r2 = np.log2(errs[1] / errs[2])
    assert r1 > 3.3 and r2 > 3.3


def test_sdc_blocked_accuracy_scale(bench_1d):
    # chained blocks re-bootstrap the extrapolant at each block start, which
    # caps their accuracy near the sum of the squared first intervals; still
    # far better than the uncorrected predictor
    spec, grid, symbol, params = bench_1d
    state0 = init_state(sine_field(grid, 0.5), symbol, params)
    T = 0.1
    ref = sdc_solve(state0, T, 256, symbol, params, sweeps=1)[0].phi
    blocked = sdc_solve(state0, T, 32, symbol, params, sweeps=1, block=8)[0].phi
    pred = sdc_solve(state0, T, 32, symbol, params, sweeps=0)[0].phi
    e_blocked = norm_ap(blocked - ref)
    e_pred = norm_ap(pred - ref)
    assert e_blocked < 1e-5
    assert e_blocked < 0.2 * e_pred


def test_sdc_multi_sweep_not_worse(bench_1d):
    spec, grid, symbol, params = bench_1d
    state0 = init_state(sine_field(grid, 0.5), symbol, params)
    T = 0.1
    ref = sdc_solve(state0, T, 512, symbol, params, sweeps=1)[0].phi
    one = sdc_solve(state0, T, 16, symbol, params, sweeps=1)[0].phi
    two = sdc_solve(state0, T, 16, symbol, params, sweeps=2)[0].phi
    assert norm_ap(two - ref) <= 2.0 * norm_ap(one - ref)


def test_sdc_records_shape(bench_1d, rng):
    spec, grid, symbol, params = bench_1d
    state0 = init_state(random_field(grid, rng, scale=0.2), symbol, params)
    ts = [state0.t]
    final, reports = sdc_solve(
        state0, 0.05, 12, symbol, params, sweeps=1, block=4,
        on_step=lambda i, st, rep: ts.append(st.t),
    )
    assert len(reports) == 12  # one per interval, blocks deduped
    assert ts[0] == 0.0
    assert ts[-1] == pytest.approx(0.05)
    assert all(np.diff(ts) > 0)


def test_sdc_on_step_streams_per_block(bench_1d, rng, monkeypatch):
    # each block's nodes reach the callback before the next block is
    # predicted, so a caller need not hold more than one block of fields
    import ipfc.sdc as sdc_mod

    spec, grid, symbol, params = bench_1d
    state0 = init_state(random_field(grid, rng, scale=0.2), symbol, params)
    blocks_started = []
    real_predict = sdc_mod.predict

    def counting_predict(*args, **kwargs):
        blocks_started.append(None)
        return real_predict(*args, **kwargs)

    monkeypatch.setattr(sdc_mod, "predict", counting_predict)
    seen = []
    final, reports = sdc_solve(
        state0, 0.05, 12, symbol, params, sweeps=1, block=4,
        on_step=lambda i, st, rep: seen.append((i, st, rep, len(blocks_started))),
    )
    assert [s[0] for s in seen] == list(range(1, 13))
    assert [s[2] for s in seen] == reports
    assert [s[3] for s in seen] == [1] * 4 + [2] * 4 + [3] * 4
    assert seen[-1][1] is final


@pytest.mark.parametrize("sweeps", [0, 2])
@pytest.mark.parametrize("dealias", [False, True])
def test_sdc_on_step_states_continue_the_run(bench_1d, rng, sweeps, dealias):
    # each reported state is a full stepper state on the corrected
    # trajectory, at its node time: stepping can go on from it
    spec, grid, symbol, params = bench_1d
    state0 = init_state(random_field(grid, rng, scale=0.2), symbol, params, dealias=dealias)
    seen = []
    final, _ = sdc_solve(
        state0, 0.05, 12, symbol, params, sweeps=sweeps, block=4,
        on_step=lambda i, st, rep: seen.append(st),
    )
    assert len(seen) == 12 and seen[-1] is final
    prev = state0
    for st in seen:
        for fld, samples in ((st.phi, st.samples), (prev.phi, st.prev_samples)):
            exact = to_physical(fld, dealias).values
            assert np.abs(samples.values - exact).max() <= 1e-13 * np.abs(exact).max()
        # a later block starts from the last state's samples as they are
        assert st.prev_samples is prev.samples
        assert st.t > prev.t
        prev = st
    assert final.t == pytest.approx(0.05, rel=1e-14)
    _, report = cn_step(final, 1e-3, symbol, params)
    assert np.isfinite(
        [report.modified_energy, report.original_energy, report.r_value, report.w_norm_sq]
    ).all()


def _block_trajectories(monkeypatch):
    """Record every trajectory sdc_solve builds, in order: each block's
    `predict`, then one `_refreeze` per sweep."""
    import ipfc.sdc as sdc_mod

    built = []

    def recording(real):
        def record(*args, **kwargs):
            built.append(real(*args, **kwargs))
            return built[-1]

        return record

    for name in ("predict", "_refreeze"):
        monkeypatch.setattr(sdc_mod, name, recording(getattr(sdc_mod, name)))
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
    _, reports = sdc_solve(
        init_state(phi0, symbol, params), 0.05, n_t, symbol, params, sweeps=sweeps, block=block,
        on_step=lambda i, st, rep: phis.append(st.phi),
    )
    assert len(reports) == len(phis) - 1 == n_t
    n_blocks = -(-n_t // block)
    assert len(built) == n_blocks * (sweeps + 1)
    finals = built[sweeps :: sweeps + 1]
    per_block = n_t // n_blocks
    sqrt_c1 = np.sqrt(params.c1)
    for i, (rep, phi) in enumerate(zip(reports, phis[1:]), 1):
        b, n = divmod(i - 1, per_block)
        traj = finals[b]
        n += 1
        assert traj.phis[n] is phi
        assert rep.original_energy == energy(phi, symbol, params)
        diff = phi - phis[i - 1]
        assert rep.w_norm_sq == inner_ap(diff, diff) / (rep.tau * rep.tau)
        r_dev = traj.states[n].r_dev
        assert rep.r_value == sqrt_c1 + r_dev
        grad = energy(phi, symbol, params) - bulk_mean(to_physical(phi), params)
        assert rep.modified_energy == pytest.approx(grad + r_dev * (2 * sqrt_c1 + r_dev), rel=1e-13)


@pytest.mark.parametrize("sweeps", [0, 1, 2])
def test_later_blocks_keep_the_refined_grid(bench_1d, rng, monkeypatch, sweeps):
    # a later block's initial state is re-sampled from its field; it must
    # stay on the grid the run's initial state was built with
    from ipfc.field import to_physical

    spec, grid, symbol, params = bench_1d
    state0 = init_state(random_field(grid, rng, scale=0.2), symbol, params, dealias=True)
    built = _block_trajectories(monkeypatch)
    sdc_solve(state0, 0.05, 6, symbol, params, sweeps=sweeps, block=2)
    assert len(built) == 3 * (sweeps + 1)
    for traj in built:
        for st in traj.states:
            samples = st.samples
            assert samples.factor == 2
            exact = to_physical(st.phi, True).values
            assert np.abs(samples.values - exact).max() <= 1e-13 * np.abs(samples.values).max()


def test_sdc_validation(bench_1d, rng, monkeypatch):
    # every setting is checked before the first block is predicted; 5
    # intervals in blocks of 2 would otherwise fail only at the last block
    import ipfc.sdc as sdc_mod

    spec, grid, symbol, params = bench_1d
    phi0 = init_state(random_field(grid, rng, scale=0.2), symbol, params)
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

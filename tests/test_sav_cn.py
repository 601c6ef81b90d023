import numpy as np
import pytest

from ipfc import (
    ModelParams,
    StepperState,
    cn_step,
    energy,
    evolve,
    init_state,
    inner_ap,
    modified_energy,
    norm_ap,
    nprime,
    project_mean,
    variational_derivative,
    zeros_field,
)
from ipfc.errors import NumericalError
from ipfc.model import sav_ingredients
from ipfc.sdc import cheb_nodes

from conftest import grid_1d, params_bench, random_field, sine_field


def rk4_reference(phi0, t_end, nsub, symbol, params):
    """Classical four-stage one-step integrator of the mean-constrained flow,
    at fixed substep; the independent reference for local-order checks."""
    def rhs(f):
        w = project_mean(variational_derivative(f, symbol, params))
        return -1.0 * w

    f = phi0
    h = t_end / nsub
    for _ in range(nsub):
        k1 = rhs(f)
        k2 = rhs(f + (h / 2) * k1)
        k3 = rhs(f + (h / 2) * k2)
        k4 = rhs(f + h * k3)
        f = f + (h / 6) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return f


def reconstructed_w(state_before, state_after, symbol, params):
    """Half-point force rebuilt from its defining form (stiff part at the
    midpoint plus the frozen-ratio nonlinearity)."""
    fbar = (
        state_before.phi
        if state_before.phi_prev is None
        else 1.5 * state_before.phi - 0.5 * state_before.phi_prev
    )
    u, _ = sav_ingredients(fbar, params)
    u_c = u.coeffs.copy()
    u_c.ravel()[state_before.phi.grid.zero_index] = 0.0
    r_half = state_before.sqrt_c1 + 0.5 * (state_before.r_dev + state_after.r_dev)
    return symbol.g2 * 0.5 * (state_after.phi.coeffs + state_before.phi.coeffs) + r_half * u_c


def test_init_zero_field(bench_1d):
    spec, grid, symbol, params = bench_1d
    st = init_state(zeros_field(grid), symbol, params)
    assert st.r == pytest.approx(np.sqrt(params.c1), rel=1e-14)
    assert st.phi_prev is None


def test_init_sine_frozen_value():
    # <N(sin)> = 10/2 * 1/2 + 1/4 * 3/8 = 2.59375 (cosine moments oracle)
    from ipfc import build_symbol

    spec, grid = grid_1d(128)
    symbol = build_symbol(spec, grid, (np.sqrt(2.0), np.sqrt(3.0)))
    params = params_bench(c1=100.0)
    st = init_state(sine_field(grid), symbol, params)
    assert st.r == pytest.approx(np.sqrt(2.59375 + 100.0), rel=1e-13)


def test_init_rejects_nonzero_mean(bench_1d):
    spec, grid, symbol, params = bench_1d
    f = zeros_field(grid)
    f.half.ravel()[grid.zero_index] = 0.1
    with pytest.raises(ValueError):
        init_state(f, symbol, params)


def test_zero_state_is_fixed_point(bench_1d):
    spec, grid, symbol, params = bench_1d
    st = init_state(zeros_field(grid), symbol, params)
    st2, rep = cn_step(st, 0.3, symbol, params)
    assert norm_ap(st2.phi) == 0.0
    assert st2.r == pytest.approx(st.r, rel=1e-15)


def test_scheme_residual_substitution(bench_1d, rng):
    # after a step, the three defining relations hold under re-evaluation;
    # the residual scale carries the stiff term g^2 |phi|, whose round-off
    # the reconstruction cannot beat
    spec, grid, symbol, params = bench_1d
    for _ in range(5):
        st = init_state(random_field(grid, rng, scale=0.3), symbol, params)
        st = StepperState(
            phi=st.phi,
            phi_prev=random_field(grid, rng, scale=0.3),
            r_dev=st.r_dev,
            sqrt_c1=st.sqrt_c1,
            t=0.0,
        )
        tau = 10 ** rng.uniform(-3, -0.5)
        st2, rep = cn_step(st, tau, symbol, params)

        w_b = reconstructed_w(st, st2, symbol, params)
        w_a = -(st2.phi.coeffs - st.phi.coeffs) / tau
        scale = max(
            np.abs(w_b).max(), (symbol.g2 * np.abs(st.phi.coeffs)).max(), 1e-30
        )
        assert np.abs(w_b - w_a).max() / scale < 1e-10

        fbar = 1.5 * st.phi - 0.5 * st.phi_prev
        u, _ = sav_ingredients(fbar, params)
        u_c = u.coeffs.copy()
        u_c.ravel()[grid.zero_index] = 0.0
        r_inc = 0.5 * float(np.vdot(u_c, st2.phi.coeffs - st.phi.coeffs).real)
        assert st2.r_dev - st.r_dev == pytest.approx(r_inc, rel=1e-10, abs=1e-14)


def test_local_order_ratio():
    # two-mode truncation keeps the stiff part mild enough for the classical
    # four-stage reference; local error contracts ~8x per step halving
    from ipfc import build_symbol

    spec, grid = grid_1d(4)
    symbol = build_symbol(spec, grid, (np.sqrt(2.0), np.sqrt(3.0)))
    params = params_bench()
    tau = 2e-3
    phi_start = sine_field(grid, 0.4)

    def local_error(step):
        phi_prev = rk4_reference(phi_start, 2 * tau - step, 400, symbol, params)
        phi_n = rk4_reference(phi_start, 2 * tau, 800, symbol, params)
        st = init_state(phi_n, symbol, params)
        st = StepperState(
            phi=phi_n, phi_prev=phi_prev, r_dev=st.r_dev, sqrt_c1=st.sqrt_c1, t=0.0
        )
        st2, _ = cn_step(st, step, symbol, params)
        ref = rk4_reference(phi_n, step, 400, symbol, params)
        return norm_ap(st2.phi - ref)

    ratio = local_error(tau) / local_error(tau / 2)
    assert 6.8 <= ratio <= 9.2


def test_modified_energy_zero_state(bench_1d):
    spec, grid, symbol, params = bench_1d
    st = init_state(zeros_field(grid), symbol, params)
    assert modified_energy(st, symbol, params) == pytest.approx(0.0, abs=1e-12)


def test_modified_energy_equals_original_at_init(bench_1d, rng):
    spec, grid, symbol, params = bench_1d
    f = random_field(grid, rng, scale=0.3)
    st = init_state(f, symbol, params)
    assert modified_energy(st, symbol, params) == pytest.approx(
        energy(f, symbol, params), rel=1e-12
    )


@pytest.mark.parametrize(
    "c1,taus",
    [
        # with a small shift the auxiliary ratio self-limits runaway fields,
        # so the decay stays verifiable even at absurd step sizes
        (1e2, (1e-3, 0.05, 0.5, 2.0, 10.0, 0.01, 1.0)),
        # a huge shift pins the ratio near one; the trajectory stays at sane
        # magnitudes (where round-off can be budgeted) only at resolved steps
        (1e16, (1e-3, 5e-3, 0.02, 0.05, 0.01)),
    ],
)
def test_unconditional_decay(bench_1d, rng, c1, taus):
    spec, grid, symbol, _ = bench_1d
    params = params_bench(c1=c1)
    st = init_state(random_field(grid, rng, scale=0.3), symbol, params)
    prev = modified_energy(st, symbol, params)
    for tau in taus:
        st, rep = cn_step(st, tau, symbol, params)
        assert rep.modified_energy <= prev + 1e-10 * (1.0 + abs(prev))
        prev = rep.modified_energy


@pytest.mark.parametrize("c1", [1e2, 1e16])
def test_discrete_energy_identity(rng, c1):
    # 1/2 d||G phi||^2 + d(R^2) = -tau ||W||^2, with W rebuilt independently.
    # Random fields put order-one content on the stiffest modes, so the
    # verifiable regime needs tau * g2_max within the double-precision budget.
    from ipfc import build_symbol

    spec, grid = grid_1d(16)
    symbol = build_symbol(spec, grid, (np.sqrt(2.0), np.sqrt(3.0)))
    params = params_bench(c1=c1)
    st = init_state(random_field(grid, rng, scale=0.3), symbol, params)
    for k in range(10):
        tau = (0.7 + 0.3 * np.sin(k)) * 0.05
        st2, rep = cn_step(st, tau, symbol, params)
        w_b = reconstructed_w(st, st2, symbol, params)
        wn2 = float(np.vdot(w_b, w_b).real)

        def grad(c):
            return 0.5 * float(np.vdot(symbol.g * c, symbol.g * c).real)

        lhs = (
            grad(st2.phi.coeffs)
            - grad(st.phi.coeffs)
            + (st2.r_dev - st.r_dev) * (st2.r_dev + st.r_dev + 2 * st.sqrt_c1)
        )
        rhs = -tau * wn2
        assert abs(lhs - rhs) <= 1e-9 * (abs(lhs) + tau * wn2 + 1e-30)
        st = st2


def test_mass_conservation(bench_1d, rng):
    spec, grid, symbol, params = bench_1d
    st = init_state(random_field(grid, rng, scale=0.3), symbol, params)
    for _ in range(20):
        st, _ = cn_step(st, 0.05, symbol, params)
        assert abs(st.phi.coeffs.ravel()[grid.zero_index]) <= 1e-13


def test_scalar_solve_consistency(bench_1d, rng):
    # the rank-one solve's scalar equals <u, phi_new> recomputed
    from ipfc.sav_cn import _cn_step_full

    spec, grid, symbol, params = bench_1d
    st = init_state(random_field(grid, rng, scale=0.3), symbol, params)
    st2, rep, internals = _cn_step_full(st, 0.07, symbol, params)
    recomputed = inner_ap(st2.phi, internals.u)
    assert internals.s_value == pytest.approx(recomputed, rel=1e-11)


def test_evolve_empty_tail(bench_1d, rng):
    spec, grid, symbol, params = bench_1d
    st = init_state(random_field(grid, rng), symbol, params)
    st2, reports = evolve(st, [0.0], symbol, params)
    assert reports == []
    assert st2 is st


def test_evolve_validates_times(bench_1d, rng):
    spec, grid, symbol, params = bench_1d
    st = init_state(random_field(grid, rng), symbol, params)
    with pytest.raises(ValueError):
        evolve(st, [0.0, 0.1, 0.1], symbol, params)
    with pytest.raises(ValueError):
        evolve(st, [0.5, 1.0], symbol, params)


def test_evolve_accepts_chebyshev_nodes(bench_1d, rng):
    spec, grid, symbol, params = bench_1d
    st = init_state(random_field(grid, rng, scale=0.2), symbol, params)
    grid_t = cheb_nodes(0.2, 8)
    st2, reports = evolve(st, grid_t.nodes, symbol, params)
    assert len(reports) == 8
    assert st2.t == pytest.approx(0.2)


def test_evolve_second_order():
    # halved uniform steps cut the endpoint error about fourfold; the small
    # truncation keeps the classical reference integrator inside its own
    # stability limit
    from ipfc import build_symbol

    spec, grid = grid_1d(8)
    symbol = build_symbol(spec, grid, (np.sqrt(2.0), np.sqrt(3.0)))
    params = params_bench()
    phi0 = sine_field(grid, 0.5)
    ref = rk4_reference(phi0, 0.1, 4000, symbol, params)

    errs = []
    for nt in (20, 40, 80):
        st = init_state(phi0, symbol, params)
        st, _ = evolve(st, np.linspace(0, 0.1, nt + 1), symbol, params)
        errs.append(norm_ap(st.phi - ref))
    r1 = np.log2(errs[0] / errs[1])
    r2 = np.log2(errs[1] / errs[2])
    assert 1.7 <= r1 <= 2.3
    assert 1.7 <= r2 <= 2.3


def test_non_finite_detection(bench_1d):
    spec, grid, symbol, params = bench_1d
    f = sine_field(grid, 1e200)  # quartic mean overflows
    with pytest.raises((NumericalError, ValueError)):
        st = init_state(f, symbol, params)
        cn_step(st, 1.0, symbol, params)


def test_report_fields(bench_1d, rng):
    spec, grid, symbol, params = bench_1d
    st = init_state(random_field(grid, rng, scale=0.2), symbol, params)
    st2, rep = cn_step(st, 0.02, symbol, params)
    assert np.isfinite(rep.modified_energy)
    assert np.isfinite(rep.original_energy)
    assert rep.r_value == pytest.approx(st2.r)
    # w_norm_sq equals the squared step displacement over tau^2
    d = st2.phi - st.phi
    assert rep.w_norm_sq == pytest.approx(inner_ap(d, d) / 0.02**2, rel=1e-12)

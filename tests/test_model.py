import numpy as np
import pytest

from ipfc import (
    ModelParams,
    PhysicalField,
    bulk_density,
    bulk_energy_f1,
    energy,
    inner_ap,
    nprime,
    sav_ratio_u,
    to_physical,
    variational_derivative,
    zeros_field,
)
from ipfc.errors import BulkPositivityError
from ipfc.field import norm_ap
from ipfc.model import bulk_mean, sav_ingredients, sqrt_f1_deviation

from conftest import Q_BENCH, cosine_field, grid_1d, params_bench, random_field, sine_field
from ipfc import build_symbol


def quadrature_energy(spec, grid, f, params, npts=4096):
    """Real-space oracle: periodic trapezoid mean of the energy density.

    Only valid for 1-d grids with B = 1 (period 2 pi); the mean of a trig
    polynomial over its period is computed exactly by the uniform rule.
    """
    from ipfc import sample_real_space

    xs_window = [(0.0, 2 * np.pi * (1 - 1.0 / npts))]
    phi = sample_real_space(spec, grid, f, xs_window, (npts,))
    gsym = build_symbol(spec, grid, params.q)
    from ipfc import apply_symbol

    gphi = sample_real_space(spec, grid, apply_symbol(f, gsym), xs_window, (npts,))
    dens = (
        0.5 * gphi**2
        + 0.5 * params.eps * phi**2
        - params.alpha / 3.0 * phi**3
        + 0.25 * phi**4
    )
    return float(dens.mean())


def test_bulk_density_values(rng):
    spec, grid = grid_1d(8)
    params = params_bench()
    zero = PhysicalField(grid, np.zeros(8))
    np.testing.assert_array_equal(bulk_density(zero, params).values, np.zeros(8))

    one = PhysicalField(grid, np.ones(8))
    np.testing.assert_allclose(bulk_density(one, params).values, 47.0 / 12.0, rtol=1e-15)

    v = rng.standard_normal(8)
    got = bulk_density(PhysicalField(grid, v), params).values
    want = 5.0 * v**2 - (4.0 / 3.0) * v**3 + 0.25 * v**4
    np.testing.assert_allclose(got, want, rtol=1e-14)


def test_nprime_zero_and_constant():
    spec, grid = grid_1d(8)
    params = params_bench()
    assert norm_ap(nprime(zeros_field(grid), params)) == 0.0

    const = zeros_field(grid)
    const.half.ravel()[grid.zero_index] = 1.0
    out = nprime(const, params)
    # eps - alpha + 1 = 10 - 4 + 1
    assert out.coeffs.ravel()[grid.zero_index] == pytest.approx(7.0)


def test_nprime_is_bulk_gradient(rng):
    # central-difference variational oracle
    spec, grid = grid_1d(16)
    params = params_bench()
    f = random_field(grid, rng, scale=0.2)
    delta = random_field(grid, rng, scale=0.2, zero_mean=False)
    s = 1e-5
    lhs = inner_ap(nprime(f, params), delta)
    plus = bulk_mean(f + s * delta, params)
    minus = bulk_mean(f + (-s) * delta, params)
    rhs = (plus - minus) / (2 * s)
    assert lhs == pytest.approx(rhs, rel=1e-6)


def test_bulk_energy_f1_zero_field():
    spec, grid = grid_1d(8)
    params = params_bench(c1=7.5)
    assert bulk_energy_f1(zeros_field(grid), params) == pytest.approx(7.5)


def test_bulk_energy_f1_cosine():
    # analytic moments of the cosine: <phi^2> = 1/2, <phi^3> = 0, <phi^4> = 3/8
    spec, grid = grid_1d(16)
    params = params_bench(c1=100.0)
    f = cosine_field(grid)
    expected = 10.0 / 2.0 * 0.5 + 0.25 * 3.0 / 8.0  # 2.59375
    assert bulk_energy_f1(f, params) == pytest.approx(expected + 100.0, rel=1e-13)
    # quadrature cross-check of the bulk part
    vals = to_physical(f).values
    oracle = float(np.mean(5.0 * vals**2 - (4.0 / 3.0) * vals**3 + 0.25 * vals**4))
    assert bulk_energy_f1(f, params) - 100.0 == pytest.approx(oracle, rel=1e-13)


def test_bulk_energy_f1_huge_shift():
    spec, grid = grid_1d(16)
    params = params_bench(c1=1e16)
    f = cosine_field(grid)
    val = bulk_energy_f1(f, params)
    assert np.isfinite(val) and val > 1e16 * 0.999


def test_bulk_energy_f1_positivity_guard():
    spec, grid = grid_1d(16)
    params = ModelParams(q=Q_BENCH, eps=-2.0, alpha=2.0, c1=0.1)
    f = cosine_field(grid)  # <N> = -0.5 + 0.09375 < -c1
    with pytest.raises(BulkPositivityError):
        bulk_energy_f1(f, params)


def test_f1_minus_shift_is_shift_independent(rng):
    spec, grid = grid_1d(16)
    f = random_field(grid, rng)
    a = bulk_energy_f1(f, params_bench(c1=10.0)) - 10.0
    b = bulk_energy_f1(f, params_bench(c1=1e6)) - 1e6
    assert a == pytest.approx(b, rel=1e-9, abs=1e-9)


def test_energy_zero_field(bench_1d):
    spec, grid, symbol, params = bench_1d
    assert energy(zeros_field(grid), symbol, params) == 0.0


def test_energy_symbol_root_is_bulk_only():
    # with B = sqrt(2), the single pair sits where the first factor vanishes
    spec, grid = grid_1d(8, b=np.sqrt(2.0))
    symbol = build_symbol(spec, grid, Q_BENCH)
    params = params_bench()
    f = cosine_field(grid)
    expected = 10.0 / 2.0 * 0.5 + 0.25 * 3.0 / 8.0
    assert energy(f, symbol, params) == pytest.approx(expected, rel=1e-12)


def test_energy_sine_quadrature_oracle():
    spec, grid = grid_1d(128)
    symbol = build_symbol(spec, grid, Q_BENCH)
    params = params_bench()
    f = sine_field(grid)
    # frozen value: gradient part 1/2 * (2 sin)^2-mean = 1, bulk 2.59375
    assert energy(f, symbol, params) == pytest.approx(3.59375, rel=1e-12)
    oracle = quadrature_energy(spec, grid, f, params)
    assert energy(f, symbol, params) == pytest.approx(oracle, rel=1e-10)


def test_energy_conjugation_gauge(rng):
    spec, grid = grid_1d(16)
    symbol = build_symbol(spec, grid, Q_BENCH)
    params = params_bench()
    f = random_field(grid, rng)
    mirrored = f.coeffs.ravel()[grid.neg_flat].conj().reshape(grid.sizes)
    from ipfc import field_from_coeffs

    g = field_from_coeffs(grid, mirrored)
    assert energy(f, symbol, params) == pytest.approx(energy(g, symbol, params), rel=1e-12)


def test_variational_derivative_zero(bench_1d):
    spec, grid, symbol, params = bench_1d
    assert norm_ap(variational_derivative(zeros_field(grid), symbol, params)) == 0.0


def test_variational_derivative_fd_oracle(bench_1d, rng):
    spec, grid, symbol, params = bench_1d
    for _ in range(5):
        f = random_field(grid, rng, scale=0.3)
        delta = random_field(grid, rng, scale=0.3)
        s = 1e-5
        lhs = inner_ap(variational_derivative(f, symbol, params), delta)
        rhs = (
            energy(f + s * delta, symbol, params) - energy(f + (-s) * delta, symbol, params)
        ) / (2 * s)
        assert lhs == pytest.approx(rhs, rel=1e-6)


def test_variational_derivative_linearization(bench_1d):
    spec, grid, symbol, params = bench_1d
    a = 1e-8
    f = cosine_field(grid, amplitude=a)
    w = variational_derivative(f, symbol, params)
    # at vanishing amplitude the response per mode is (g^2 + eps)
    g1 = symbol.g.ravel()[grid.flat_index([1])]
    expect = (g1**2 + params.eps) * f.coeffs.ravel()[grid.flat_index([1])]
    assert w.coeffs.ravel()[grid.flat_index([1])] == pytest.approx(expect, rel=1e-6)


def test_sav_ratio_zero_field(bench_1d):
    spec, grid, symbol, params = bench_1d
    assert norm_ap(sav_ratio_u(zeros_field(grid), params)) == 0.0


def test_sav_ratio_scaling_consistency(bench_1d, rng):
    spec, grid, symbol, params = bench_1d
    f = random_field(grid, rng, scale=0.3)
    u = sav_ratio_u(f, params)
    sqrt_f1 = np.sqrt(bulk_energy_f1(f, params))
    np.testing.assert_allclose(
        u.coeffs * sqrt_f1, nprime(f, params).coeffs, rtol=1e-13, atol=1e-16
    )


def test_sav_ratio_magnitude_with_huge_shift(bench_1d, rng):
    spec, grid, symbol, _ = bench_1d
    params = params_bench(c1=1e16)
    f = random_field(grid, rng, scale=0.3)
    u = sav_ratio_u(f, params)
    ratio = norm_ap(u) / norm_ap(nprime(f, params))
    assert ratio == pytest.approx(1e-8, rel=1e-3)


@pytest.mark.parametrize("dealias", [False, True])
def test_sav_ingredients_share_transform(bench_1d, rng, dealias):
    spec, grid, symbol, params = bench_1d
    f = random_field(grid, rng, scale=0.3)
    u, sqrt_f1 = sav_ingredients(f, params, dealias=dealias)
    assert sqrt_f1 == np.sqrt(bulk_energy_f1(f, params, dealias=dealias))
    np.testing.assert_array_equal(u.coeffs, (nprime(f, params, dealias=dealias) / sqrt_f1).coeffs)


def test_sqrt_f1_deviation_accuracy():
    # (sqrt(c1 + nu) - sqrt(c1)) * (sqrt(c1 + nu) + sqrt(c1)) == nu, exactly
    for c1 in (1.0, 1e4, 1e16):
        for nu in (-0.5, 0.3, 2.59375):
            d = sqrt_f1_deviation(nu, c1)
            assert d * (2 * np.sqrt(c1) + d) == pytest.approx(nu, rel=1e-12)


def test_model_params_validation():
    with pytest.raises(ValueError):
        ModelParams(q=(), eps=1.0, alpha=1.0, c1=1.0)
    with pytest.raises(ValueError):
        ModelParams(q=(1.0, -1.0), eps=1.0, alpha=1.0, c1=1.0)
    with pytest.raises(ValueError):
        ModelParams(q=(1.0,), eps=1.0, alpha=1.0, c1=0.0)

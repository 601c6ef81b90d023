import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ipfc import (
    ProjectionSpec,
    build_grid,
    build_symbol,
    field_from_coeffs,
    lattice,
    sample_real_space,
    wavevector,
    zeros_field,
)
from ipfc._kernels import bohr_fourier_sum
from ipfc.harness import dodecagonal_projection

from conftest import cosine_field, grid_1d, random_field


def test_grid_indices_small():
    spec, grid = grid_1d(4)
    assert set(int(h) for h in grid.h_matrix[:, 0]) == {-2, -1, 0, 1}
    assert grid.total == 4
    # zero mode sits at flat index 0
    assert grid.zero_index == 0
    assert tuple(grid.h_matrix[0]) == (0,)


def test_flat_index_round_trip():
    spec, grid = grid_1d(8)
    for flat in range(grid.total):
        h = grid.multi_index(flat)
        assert grid.flat_index(h) == flat
    with pytest.raises(ValueError):
        grid.flat_index([4])  # +N/2 is not retained
    assert grid.flat_index([-4]) == 4


def test_rejects_odd_sizes():
    spec = ProjectionSpec.identity(1)
    with pytest.raises(ValueError):
        build_grid(spec, (5,))
    with pytest.raises(ValueError):
        build_grid(spec, (0,))


def test_rejects_singular_b():
    with pytest.raises(ValueError):
        ProjectionSpec(d=1, n=2, P=np.array([[1.0, 0.0]]), B=np.zeros((2, 2)))


def test_rejects_noninjective_projection():
    # columns of P * B coincide: h = (1, 0) and (0, 1) project identically
    spec = ProjectionSpec(d=1, n=2, P=np.array([[1.0, 1.0]]), B=np.eye(2))
    with pytest.raises(ValueError, match="not injective"):
        build_grid(spec, (4, 4))


def _brute_min_distance(spec, sizes):
    """Smallest |P B (h1 - h2)| over every pair of distinct modes of the grid."""
    axes = [np.arange(-(nj // 2), nj // 2) for nj in sizes]
    modes = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)
    k = modes @ spec.projected_basis.T
    dist = np.sqrt(((k[:, None, :] - k[None, :, :]) ** 2).sum(axis=2))
    np.fill_diagonal(dist, np.inf)
    return float(dist.min())


_SQRT2 = float(np.sqrt(2.0))


@pytest.mark.parametrize(
    "P, sizes",
    [
        ([[1.0, _SQRT2]], (6, 4)),                     # injective
        ([[1.0, 1.0]], (4, 4)),                        # exact collision
        ([[1.0, 0.5]], (4, 6)),                        # collision at delta = (1, -2)
        ([[1.0, 0.5 + 1e-12]], (4, 6)),                # near collision, inside the tolerance
        ([[1.0, 0.5 + 1e-9]], (4, 6)),                 # near collision, outside it
        ([[1.0, 0.0, _SQRT2], [0.0, 1.0, np.pi]], (4, 4, 6)),
        ([[1.0, 0.0, 0.5], [0.0, 1.0, 0.25]], (4, 6, 4)),  # a collision needs delta_2 = 4
        ([[1.0, 0.0, 0.5], [0.0, 1.0, 0.5]], (4, 4, 4)),   # collision at delta = (1, 1, -2)
        (dodecagonal_projection(), (4, 4, 4, 4)),
    ],
)
def test_injectivity_scan_matches_brute_force(P, sizes):
    # the half-lattice slab scan finds a violation exactly when the pairwise
    # scan does, and reports an in-range pair that far apart
    P = np.array(P, dtype=float)
    spec = ProjectionSpec(d=P.shape[0], n=P.shape[1], P=P, B=np.eye(P.shape[1]))
    tol = lattice.INJECTIVITY_TOL
    brute = _brute_min_distance(spec, sizes)
    hit = lattice._injectivity_violation(spec, sizes, tol)
    assert (hit is not None) == (brute < tol)
    if hit is None:
        build_grid(spec, sizes)
        return
    h1, h2, dist = hit
    half = np.array(sizes) // 2
    for h in (h1, h2):
        assert np.all(-half <= h) and np.all(h <= half - 1)
    assert np.any(h1 != h2)
    assert dist == pytest.approx(np.linalg.norm(spec.projected_basis @ (h1 - h2)), abs=1e-15)
    assert dist == pytest.approx(brute, abs=1e-15)
    with pytest.raises(ValueError, match="not injective"):
        build_grid(spec, sizes)


def test_dodecagonal_grid_mode_count():
    spec = ProjectionSpec(d=2, n=4, P=dodecagonal_projection(), B=np.eye(4))
    grid = build_grid(spec, (24, 24, 24, 24))
    assert grid.total == 331776  # 24**4


def test_wavevector_identity_and_projection():
    spec, grid = grid_1d(8)
    assert wavevector(spec, [3]) == pytest.approx(3.0)

    spec4 = ProjectionSpec(d=2, n=4, P=dodecagonal_projection(), B=np.eye(4))
    np.testing.assert_allclose(wavevector(spec4, [1, 0, 0, 0]), [1.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(
        wavevector(spec4, [0, 1, 0, 0]),
        [np.cos(np.pi / 6), np.sin(np.pi / 6)],
        atol=1e-15,
    )


def test_wavevector_negation_exact(dodecagonal_small):
    spec, grid = dodecagonal_small
    rng = np.random.default_rng(3)
    for _ in range(50):
        h = rng.integers(-3, 4, size=4)
        assert np.array_equal(wavevector(spec, -h), -wavevector(spec, h))


def test_symbol_values_1d():
    spec, grid = grid_1d(8)
    sym = build_symbol(spec, grid, (np.sqrt(2.0), np.sqrt(3.0)))
    flat_g = sym.g.ravel()
    assert flat_g[grid.flat_index([1])] == pytest.approx((2 - 1) * (3 - 1))
    assert flat_g[grid.flat_index([0])] == pytest.approx(6.0)
    np.testing.assert_array_equal(sym.g2, sym.g * sym.g)


def test_symbol_root_mode():
    # B = sqrt(2) puts mode h=1 exactly on the first ring
    spec, grid = grid_1d(8, b=np.sqrt(2.0))
    sym = build_symbol(spec, grid, (np.sqrt(2.0), np.sqrt(3.0)))
    assert abs(sym.g.ravel()[grid.flat_index([1])]) < 1e-14


def test_symbol_even_on_live_modes(dodecagonal_small):
    spec, grid = dodecagonal_small
    sym = build_symbol(spec, grid, (1.0, 2 * np.cos(np.pi / 12)))
    # the full view agrees with the symbol of every live mode's own |k|^2
    ksq = (grid.kvec**2).sum(axis=1)
    want = (1.0 - ksq) * ((2 * np.cos(np.pi / 12)) ** 2 - ksq)
    live = grid.unfold(grid.live_mask).ravel()
    assert np.array_equal(sym.g.ravel()[live], want[live])
    assert np.array_equal(sym.g.ravel()[grid.neg_flat][live], want[live])


def test_symbol_rejects_bad_scales():
    spec, grid = grid_1d(8)
    with pytest.raises(ValueError):
        build_symbol(spec, grid, ())
    with pytest.raises(ValueError):
        build_symbol(spec, grid, (1.0, -2.0))


def test_periodic_identity_reduction():
    spec = ProjectionSpec.identity(2)
    grid = build_grid(spec, (6, 6))
    np.testing.assert_array_equal(grid.kvec, grid.h_matrix.astype(float))
    assert grid.all_live


def test_live_mask_flags_asymmetric_extremes(dodecagonal_small):
    spec, grid = dodecagonal_small
    assert not grid.all_live
    # the zero mode and small interior modes are always live
    assert grid.live_mask.ravel()[grid.zero_index]
    assert grid.live_mask[1, 0, 0, 0]


def test_sample_real_space_cosine():
    spec, grid = grid_1d(8)
    f = cosine_field(grid)
    xs = np.linspace(0.0, 2 * np.pi, 33)
    vals = sample_real_space(spec, grid, f, [(0.0, 2 * np.pi)], (33,))
    np.testing.assert_allclose(vals, np.cos(xs), atol=1e-12)


def test_sample_real_space_zero_field():
    spec, grid = grid_1d(8)
    vals = sample_real_space(spec, grid, zeros_field(grid), [(0.0, 1.0)], (7,))
    np.testing.assert_array_equal(vals, np.zeros(7))


def test_sample_real_space_linear(rng):
    spec, grid = grid_1d(16)
    f = random_field(grid, rng)
    g = random_field(grid, rng)
    window = [(0.0, 4.0)]
    res = (21,)
    lhs = sample_real_space(spec, grid, 2.5 * f + (-1.5) * g, window, res)
    rhs = 2.5 * sample_real_space(spec, grid, f, window, res) - 1.5 * sample_real_space(
        spec, grid, g, window, res
    )
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-14)


def test_sample_amplitude_floor():
    spec, grid = grid_1d(8)
    f = cosine_field(grid, amplitude=1.0)
    # floor above the coefficient magnitude prunes everything
    vals = sample_real_space(spec, grid, f, [(0.0, 1.0)], (5,), amplitude_floor=0.6)
    np.testing.assert_array_equal(vals, np.zeros(5))


def _direct_raster(grid, fld, window, resolution, floor):
    """Reference raster: the full Bohr-Fourier sum at every pixel, one kernel
    call on the flattened meshgrid points.  Also returns sum |c_h| over the
    summed modes, the scale of the raster's rounding error."""
    flat = fld.coeffs.ravel()
    mask = np.abs(flat) > floor
    axes = [np.linspace(lo, hi, r) for (lo, hi), r in zip(window, resolution)]
    pts = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)
    vals = bohr_fourier_sum(grid.kvec[mask], flat[mask].real, flat[mask].imag, pts)
    return vals.reshape(resolution), float(np.abs(flat[mask]).sum())


@st.composite
def _raster_cases(draw):
    d = draw(st.integers(1, 3))
    n = draw(st.integers(d, min(d + 1, 3)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spec = ProjectionSpec(d=d, n=n, P=rng.standard_normal((d, n)), B=np.eye(n))
    grid = build_grid(spec, tuple(draw(st.sampled_from((2, 4, 6))) for _ in range(n)))
    fld = field_from_coeffs(
        grid, rng.standard_normal(grid.sizes) + 1j * rng.standard_normal(grid.sizes)
    )
    window = []
    for _ in range(d):
        lo = draw(st.floats(-20.0, 20.0))
        window.append((lo, lo + draw(st.floats(0.0, 20.0))))
    resolution = tuple(draw(st.integers(1, 9)) for _ in range(d))
    floor = draw(st.floats(0.0, 1.0)) * float(np.abs(fld.coeffs).max())
    return spec, grid, fld, window, resolution, floor


@settings(deadline=None)
@given(_raster_cases())
def test_sample_real_space_matches_direct_sum(case):
    spec, grid, fld, window, resolution, floor = case
    got = sample_real_space(spec, grid, fld, window, resolution, amplitude_floor=floor)
    want, scale = _direct_raster(grid, fld, window, resolution, floor)
    assert got.shape == resolution
    assert np.max(np.abs(got - want)) <= 1e-12 * scale


def test_sample_real_space_across_mode_chunks(dodecagonal_small, rng, monkeypatch):
    spec, grid = dodecagonal_small
    fld = random_field(grid, rng)
    window, resolution = [(-3.0, 5.0), (1.0, 9.0)], (9, 7)
    calls = []

    def counted(*args):
        calls.append(args[0].shape[0])
        return bohr_fourier_sum(*args)

    # five modes' folded coefficients and last-axis phases per chunk
    monkeypatch.setattr(lattice, "RASTER_CHUNK_BYTES", 16 * (9 + 7) * 5)
    monkeypatch.setattr(lattice, "bohr_fourier_sum", counted)
    got = sample_real_space(spec, grid, fld, window, resolution, amplitude_floor=1e-3)
    want, scale = _direct_raster(grid, fld, window, resolution, 1e-3)
    modes = int((np.abs(fld.coeffs) > 1e-3).sum())
    assert calls == [5] * (modes // 5) + ([modes % 5] if modes % 5 else [])
    assert np.max(np.abs(got - want)) <= 1e-12 * scale

from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from ipfc import (
    ProjectionSpec,
    build_grid,
    build_symbol,
    field_from_coeffs,
    lattice,
    sample_real_space,
    zeros_field,
)
from ipfc._kernels import bohr_fourier_sum, mirrored
from ipfc.harness import dodecagonal_projection

from conftest import cosine_field, grid_1d, random_field, raster_terms


def test_grid_indices_small():
    spec, grid = grid_1d(4)
    assert set(int(h) for h in grid.modes(np.arange(grid.total))[:, 0]) == {-2, -1, 0, 1}
    assert grid.total == 4
    # zero mode sits at flat index 0
    assert grid.zero_index == 0
    assert tuple(grid.modes(0)) == (0,)


def test_flat_index_round_trip():
    spec, grid = grid_1d(8)
    for flat in range(grid.total):
        h = grid.modes(flat)
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
    # the meet-in-the-middle search of the difference lattice finds a
    # violation exactly when the pairwise scan does, and reports an in-range
    # pair that far apart
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


@st.composite
def _projection_cases(draw):
    """Random P and B (d <= 3, n <= 4, sizes in {2, 4, 6}); most get a
    collision planted at a random in-range delta: exact, or `plant` times
    INJECTIVITY_TOL apart."""
    n = draw(st.integers(1, 4))
    d = draw(st.integers(1, min(n, 3)))
    sizes = tuple(draw(st.sampled_from((2, 4, 6))) for _ in range(n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    P = rng.standard_normal((d, n))
    B = rng.standard_normal((n, n)) + 2.0 * np.eye(n)
    assume(abs(np.linalg.det(B)) > 1e-3)
    plant = draw(st.sampled_from((None, 0.0, 0.45, 0.9, 1.1, 2.2)))
    if plant is not None:
        delta = np.array([draw(st.integers(1 - nj, nj - 1)) for nj in sizes])
        v = B @ delta
        assume(v @ v >= 1.0)
        u = rng.standard_normal(d)
        target = plant * lattice.INJECTIVITY_TOL * u / np.linalg.norm(u)
        P = P - np.outer(P @ v - target, v) / (v @ v)  # now P B delta = target
    return ProjectionSpec(d=d, n=n, P=P, B=B), sizes


@settings(deadline=None)
@given(_projection_cases(), st.sampled_from((1, 3, lattice.INJECTIVITY_CHUNK)))
def test_injectivity_search_matches_brute_force_on_random_projections(case, chunk):
    # the in-range multiples k/m (k, m <= 5) of a planted delta lie k/m
    # times as far apart, and every such distance sits 10% or more from the
    # tolerance, far beyond the rounding of either computation (about 1e-14
    # here); small chunks split the leading deltas and their candidates
    spec, sizes = case
    tol = lattice.INJECTIVITY_TOL
    brute = _brute_min_distance(spec, sizes)
    with mock.patch.object(lattice, "INJECTIVITY_CHUNK", chunk):
        hit = lattice._injectivity_violation(spec, sizes, tol)
    assert (hit is not None) == (brute < tol)
    if hit is None:
        return
    h1, h2, dist = hit
    half = np.array(sizes) // 2
    for h in (h1, h2):
        assert np.all(-half <= h) and np.all(h <= half - 1)
    assert np.any(h1 != h2)
    assert dist == pytest.approx(np.linalg.norm(spec.projected_basis @ (h1 - h2)), abs=1e-12)
    assert dist == pytest.approx(brute, abs=1e-12)


def test_projected_basis_is_computed_once_read_only():
    P = dodecagonal_projection()
    B = np.random.default_rng(2).standard_normal((4, 4)) + 2.0 * np.eye(4)
    spec = ProjectionSpec(d=2, n=4, P=P, B=B)
    assert spec.projected_basis is spec.projected_basis
    assert np.array_equal(spec.projected_basis.view(np.uint64), (spec.P @ spec.B).view(np.uint64))
    with pytest.raises(ValueError, match="read-only"):
        spec.projected_basis[0, 0] = 1.0


def test_dodecagonal_grid_mode_count():
    spec = ProjectionSpec(d=2, n=4, P=dodecagonal_projection(), B=np.eye(4))
    grid = build_grid(spec, (24, 24, 24, 24))
    assert grid.total == 331776  # 24**4


def _full_table_reference(spec, sizes):
    """Integer modes, wavevectors, |k|^2 and the live mask built as full
    flat-order tables, the way the grid was built before it stored only
    the half layout."""
    axis_indices = [np.concatenate([np.arange(0, nj // 2), np.arange(-(nj // 2), 0)]) for nj in sizes]
    mesh = np.meshgrid(*axis_indices, indexing="ij")
    h_matrix = np.stack([m.ravel() for m in mesh], axis=1).astype(np.int64)
    kvec = h_matrix @ spec.projected_basis.T
    ksq = (kvec**2).sum(axis=1).reshape(sizes)
    neg_mesh = np.meshgrid(*[(-np.arange(nj)) % nj for nj in sizes], indexing="ij")
    neg_flat = np.ravel_multi_index(tuple(neg_mesh), sizes).ravel()
    live = (ksq.ravel() == ksq.ravel()[neg_flat]).reshape(sizes)
    return h_matrix, kvec, ksq, live


@pytest.mark.parametrize(
    "dodecagonal, sizes",
    [(False, (8,)), (False, (6, 6)), (True, (8,) * 4), (True, (16,) * 4), (True, (24,) * 4)],
)
def test_half_layout_matches_full_tables(dodecagonal, sizes):
    if dodecagonal:
        spec = ProjectionSpec(d=2, n=4, P=dodecagonal_projection(), B=np.eye(4))
    else:
        spec = ProjectionSpec.identity(len(sizes))
    grid = build_grid(spec, sizes)
    h_matrix, kvec, ksq, live = _full_table_reference(spec, grid.sizes)
    h = grid.half_sizes[-1]
    assert np.array_equal(grid.ksq.view(np.uint64), ksq[..., :h].view(np.uint64))
    assert np.array_equal(grid.live_mask, live[..., :h])
    assert grid.all_live == bool(live.all())
    # wavevectors of any subset of positions are the table's rows, bitwise
    rng = np.random.default_rng(5)
    for _ in range(3):
        sel = np.sort(rng.choice(grid.total, size=int(rng.integers(1, grid.total + 1)), replace=False))
        assert np.array_equal(grid.wavevectors(sel).view(np.uint64), kvec[sel].view(np.uint64))
    if grid.total <= 8**4:
        every = np.arange(grid.total)
        np.testing.assert_array_equal(grid.modes(every), h_matrix)
        assert [grid.flat_index(m) for m in grid.modes(every)] == list(every)


def test_grid_holds_only_half_layout_arrays():
    # full-layout tables (modes, wavevectors, mirror permutations) would
    # take about 18 MiB here; the grid keeps |k|^2 and the live mask
    spec = ProjectionSpec(d=2, n=4, P=dodecagonal_projection(), B=np.eye(4))
    grid = build_grid(spec, (24, 24, 24, 24))
    held = 0
    for value in vars(grid).values():
        for item in value if isinstance(value, tuple) else (value,):
            if isinstance(item, np.ndarray):
                held += item.nbytes
    assert held <= grid.ksq.nbytes + grid.live_mask.nbytes + 4096


def test_grid_build_peak_memory_is_bounded():
    # |k|^2 and the live mask are built one first-axis slab at a time; the
    # full-layout modes and wavevectors of a one-shot build peak near 28 MiB
    import tracemalloc

    spec = ProjectionSpec(d=2, n=4, P=dodecagonal_projection(), B=np.eye(4))
    tracemalloc.start()
    try:
        build_grid(spec, (24, 24, 24, 24))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 << 20


@pytest.mark.parametrize(
    "spec, sizes",
    [
        # the trailing axes' projected differences are 0 in two of the four
        # coordinates and take 47 values in the others, so every leading
        # difference has 47 candidates: 53,016 pairs in all
        (ProjectionSpec.identity(4), (24, 24, 24, 24)),
        # one slab of 65,537 rows, and 131,072 leading differences against
        # the one empty trailing difference
        (ProjectionSpec.identity(1), (1 << 17,)),
    ],
    ids=["identity-24^4", "1d-2^17"],
)
def test_grid_build_peak_memory_is_bounded_on_crowded_and_1d_grids(spec, sizes):
    import tracemalloc

    tracemalloc.start()
    try:
        grid = build_grid(spec, sizes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert grid.all_live
    assert peak <= 8 << 20


def test_wavevector_identity_and_projection(dodecagonal_small):
    spec, grid = grid_1d(8)
    assert grid.wavevectors(grid.flat_index([3])) == pytest.approx(3.0)

    spec4, grid4 = dodecagonal_small
    k = grid4.wavevectors([grid4.flat_index([1, 0, 0, 0]), grid4.flat_index([0, 1, 0, 0])])
    np.testing.assert_allclose(k[0], [1.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(
        k[1],
        [np.cos(np.pi / 6), np.sin(np.pi / 6)],
        atol=1e-15,
    )


def test_wavevector_negation_exact(dodecagonal_small):
    spec, grid = dodecagonal_small
    rng = np.random.default_rng(3)
    for _ in range(50):
        h = rng.integers(-3, 4, size=4)
        k = grid.wavevectors([grid.flat_index(-h), grid.flat_index(h)])
        assert np.array_equal(k[0], -k[1])


def test_symbol_values_1d():
    spec, grid = grid_1d(8)
    sym = build_symbol(spec, grid, (np.sqrt(2.0), np.sqrt(3.0)))
    g = grid.unfold(sym.g_half)
    assert g[grid.flat_index([1])] == pytest.approx((2 - 1) * (3 - 1))
    assert g[grid.flat_index([0])] == pytest.approx(6.0)
    np.testing.assert_array_equal(grid.unfold(sym.g2_half), g * g)


def test_symbol_root_mode():
    # B = sqrt(2) puts mode h=1 exactly on the first ring
    spec, grid = grid_1d(8, b=np.sqrt(2.0))
    sym = build_symbol(spec, grid, (np.sqrt(2.0), np.sqrt(3.0)))
    assert abs(grid.unfold(sym.g_half)[grid.flat_index([1])]) < 1e-14


def test_symbol_even_on_live_modes(dodecagonal_small):
    spec, grid = dodecagonal_small
    sym = build_symbol(spec, grid, (1.0, 2 * np.cos(np.pi / 12)))
    # the full view agrees with the symbol of every live mode's own |k|^2
    ksq = (grid.wavevectors(np.arange(grid.total)) ** 2).sum(axis=1)
    want = (1.0 - ksq) * ((2 * np.cos(np.pi / 12)) ** 2 - ksq)
    live = grid.unfold(grid.live_mask).ravel()
    g = grid.unfold(sym.g_half)
    assert np.array_equal(g.ravel()[live], want[live])
    assert np.array_equal(mirrored(g).ravel()[live], want[live])


def test_symbol_rejects_bad_scales():
    spec, grid = grid_1d(8)
    with pytest.raises(ValueError):
        build_symbol(spec, grid, ())
    with pytest.raises(ValueError):
        build_symbol(spec, grid, (1.0, -2.0))


def test_periodic_identity_reduction():
    spec = ProjectionSpec.identity(2)
    grid = build_grid(spec, (6, 6))
    every = np.arange(grid.total)
    np.testing.assert_array_equal(grid.wavevectors(every), grid.modes(every).astype(float))
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
    vals = sample_real_space(f, [(0.0, 2 * np.pi)], (33,))
    np.testing.assert_allclose(vals, np.cos(xs), atol=1e-12)


def test_sample_real_space_zero_field():
    spec, grid = grid_1d(8)
    vals = sample_real_space(zeros_field(grid), [(0.0, 1.0)], (7,))
    np.testing.assert_array_equal(vals, np.zeros(7))


def test_sample_real_space_linear(rng):
    spec, grid = grid_1d(16)
    f = random_field(grid, rng)
    g = random_field(grid, rng)
    window = [(0.0, 4.0)]
    res = (21,)
    lhs = sample_real_space(2.5 * f + (-1.5) * g, window, res)
    rhs = 2.5 * sample_real_space(f, window, res) - 1.5 * sample_real_space(g, window, res)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-14)


def test_sample_amplitude_floor():
    spec, grid = grid_1d(8)
    f = cosine_field(grid, amplitude=1.0)
    # floor above the coefficient magnitude prunes everything
    vals = sample_real_space(f, [(0.0, 1.0)], (5,), amplitude_floor=0.6)
    np.testing.assert_array_equal(vals, np.zeros(5))


def _direct_raster(grid, fld, window, resolution, floor):
    """Reference raster: the full Bohr-Fourier sum at every pixel, one kernel
    call on the flattened meshgrid points.  Also returns sum |c_h| over the
    summed modes, the scale of the raster's rounding error."""
    flat = fld.coeffs.ravel()
    mask = np.abs(flat) > floor
    axes = [np.linspace(lo, hi, r) for (lo, hi), r in zip(window, resolution)]
    pts = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)
    k = grid.wavevectors(np.flatnonzero(mask))
    vals = bohr_fourier_sum(k, flat[mask].real, flat[mask].imag, pts)
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
    got = sample_real_space(fld, window, resolution, amplitude_floor=floor)
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
    got = sample_real_space(fld, window, resolution, amplitude_floor=1e-3)
    want, scale = _direct_raster(grid, fld, window, resolution, 1e-3)
    # every term of the pair-wise sum passes through exactly one chunk
    terms = raster_terms(fld, 1e-3)
    assert calls == [5] * (terms // 5) + ([terms % 5] if terms % 5 else [])
    assert np.max(np.abs(got - want)) <= 1e-12 * scale


def test_sample_real_space_long_last_axis(rng, monkeypatch):
    # A last axis longer than 8192 points goes to the kernel whole: only the
    # modes are chunked, and the chunk size accounts for every point.
    spec, grid = grid_1d(16)
    fld = random_field(grid, rng)
    window, resolution = [(-40.0, 40.0)], (8192 + 5,)
    calls = []

    def counted(*args):
        calls.append((args[0].shape[0], args[3].shape[0]))
        return bohr_fourier_sum(*args)

    # four modes' last-axis phases per chunk
    monkeypatch.setattr(lattice, "RASTER_CHUNK_BYTES", 16 * (1 + resolution[0]) * 4)
    monkeypatch.setattr(lattice, "bohr_fourier_sum", counted)
    got = sample_real_space(fld, window, resolution)
    want, scale = _direct_raster(grid, fld, window, resolution, 0.0)
    terms = raster_terms(fld, 0.0)
    chunks = [4] * (terms // 4) + ([terms % 4] if terms % 4 else [])
    assert calls == [(m, resolution[0]) for m in chunks]
    assert np.max(np.abs(got - want)) <= 1e-12 * scale


def test_sample_real_space_inexact_mirror(rng):
    # On a periodic grid every mode is live, the lead-axis -N/2 plane
    # included.  Its interior modes have a mod-N mirror other than -h:
    # h = (-3, 1) pairs with (-3, -1), which does not project to -k_h, so
    # the pair is not one doubled term.
    spec = ProjectionSpec.identity(2)
    grid = build_grid(spec, (6, 8))
    window, resolution = [(-1.3, 4.0), (0.2, 5.7)], (7, 9)
    single = np.zeros(grid.sizes, dtype=complex)
    single.ravel()[grid.flat_index([-3, 1])] = 0.8 - 0.6j
    noise = rng.standard_normal(grid.sizes) + 1j * rng.standard_normal(grid.sizes)
    for c in (single, noise):
        fld = field_from_coeffs(grid, c)
        assert raster_terms(fld, 0.0) > np.count_nonzero(fld.half)
        got = sample_real_space(fld, window, resolution)
        want, scale = _direct_raster(grid, fld, window, resolution, 0.0)
        assert np.max(np.abs(got - want)) <= 1e-12 * scale


def _reference_raster(fld, window, resolution, floor, chunk):
    """The pair-wise raster of the same terms with its fold and kernel
    written as plain expressions: each factor np.exp(1j * np.outer(k_j,
    x_j)), each product folded[:, :, None] * factor[:, None, :], and the
    last axis as np.cos(phase) @ re - np.sin(phase) @ im, `chunk` terms at
    a time."""
    window, resolution = lattice.raster_axes(fld.grid.spec.d, window, resolution)
    coeffs, kv = lattice._raster_terms(fld, floor)
    axes = [np.linspace(lo, hi, r) for (lo, hi), r in zip(window, resolution)]
    out = np.zeros((resolution[-1], int(np.prod(resolution[:-1]))))
    for start in range(0, len(coeffs), chunk):
        k = kv[start : start + chunk]
        folded = coeffs[start : start + chunk, None]
        for j, x in enumerate(axes[:-1]):
            factor = np.exp(1j * np.outer(k[:, j], x))
            folded = (folded[:, :, None] * factor[:, None, :]).reshape(len(k), -1)
        phase = axes[-1][:, None] @ k[:, -1:].T
        out += np.cos(phase) @ folded.real - np.sin(phase) @ folded.imag
    return out.T.reshape(resolution)


@pytest.mark.parametrize(
    "case, resolution, chunks",
    [
        ("dodecagonal", (9, 7), 1),
        ("dodecagonal", (12, 4), 5),  # folding axis 0 outweighs the kernel
        ("periodic_3d", (3, 4, 5), 3),  # a second fold, into a new array
        ("line", (50,), 1),  # no fold
        ("line", (50,), 4),
    ],
)
def test_sample_real_space_is_bitwise_the_plain_expressions(
    dodecagonal_small, rng, monkeypatch, case, resolution, chunks
):
    # the in-place fold and kernel keep every operation's operands and order
    if case == "dodecagonal":
        grid = dodecagonal_small[1]
    elif case == "periodic_3d":
        grid = build_grid(ProjectionSpec.identity(3), (4, 4, 6))
    else:
        grid = grid_1d(16)[1]
    fld = random_field(grid, rng)
    window = [(-3.0 + j, 5.0 + 2 * j) for j in range(len(resolution))]
    terms = raster_terms(fld, 1e-3)
    chunk = -(-terms // chunks)
    monkeypatch.setattr(lattice, "RASTER_CHUNK_BYTES", chunk * lattice._raster_term_bytes(resolution))
    got = sample_real_space(fld, window, resolution, amplitude_floor=1e-3)
    want = _reference_raster(fld, window, resolution, 1e-3, chunk)
    assert got.tobytes() == want.tobytes()


def test_raster_term_bytes_counts_the_larger_phase():
    # the kernel's folded row, phases and trig table, 16 x (lead + last), or
    # folding axis 0, 24 N_0, or a later fold's rows, factor and product
    assert lattice._raster_term_bytes((8197,)) == 16 * (1 + 8197)
    assert lattice._raster_term_bytes((9, 7)) == 16 * (9 + 7)
    assert lattice._raster_term_bytes((12, 4)) == 24 * 12
    assert lattice._raster_term_bytes((3, 4, 5)) == 16 * (3 + 4 + 12)
    assert lattice._raster_term_bytes((3, 4, 50)) == 16 * (12 + 50)


def test_grid_build_matches_wavevectors_of_every_position():
    # |k|^2 and the live mask are built slab by slab from positions; they are
    # bitwise those of the wavevectors of every half-layout position and of
    # its mod-N mirror
    rng = np.random.default_rng(6)
    for case in range(100):
        n = int(rng.integers(1, 5))
        d = int(rng.integers(1, min(n, 3) + 1))
        P, B = rng.standard_normal((d, n)), rng.standard_normal((n, n)) + 2.0 * np.eye(n)
        sizes = tuple(int(s) for s in rng.choice([2, 4, 6], size=n))
        grid = lattice.IndexGrid(ProjectionSpec(d=d, n=n, P=P, B=B), sizes)
        pos = np.stack(np.unravel_index(np.arange(grid.ksq.size), grid.half_sizes), axis=-1)
        own, mirror = (np.ravel_multi_index(tuple(p.T), sizes) for p in (pos, -pos % sizes))
        ksq, ksq_mirror = ((grid.wavevectors(f) ** 2).sum(axis=1) for f in (own, mirror))
        assert np.array_equal(grid.ksq.ravel().view(np.uint64), ksq.view(np.uint64)), case
        assert np.array_equal(grid.live_mask.ravel(), ksq == ksq_mirror), case


def test_grid_build_matches_wavevectors_where_mirror_norms_tie():
    # With orthogonal columns of P B, a mode on the last axis's -N/2 plane
    # and its mod-N mirror have the same |k|^2 in exact arithmetic, so the
    # live mask there rests on rounding: it is bitwise that of the
    # wavevectors, whatever the number of rows the build multiplies at once
    rng = np.random.default_rng(1)
    for case in range(50):
        theta = rng.uniform(0.0, 2.0 * np.pi)
        rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        sizes = tuple(int(s) for s in rng.choice([4, 6, 8], size=2))
        P = rot * rng.uniform(0.5, 2.0, size=2)
        grid = lattice.IndexGrid(ProjectionSpec(d=2, n=2, P=P, B=np.eye(2)), sizes)
        pos = np.stack(np.unravel_index(np.arange(grid.ksq.size), grid.half_sizes), axis=-1)
        own, mirror = (np.ravel_multi_index(tuple(p.T), sizes) for p in (pos, -pos % sizes))
        ksq, ksq_mirror = ((grid.wavevectors(f) ** 2).sum(axis=1) for f in (own, mirror))
        assert np.array_equal(grid.live_mask.ravel(), ksq == ksq_mirror), case

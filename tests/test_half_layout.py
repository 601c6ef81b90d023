"""The half-layout storage of fields: folding, unfolding, inner products,
transforms and dumps agree with the full-layout definitions."""

import io

import numpy as np
from hypothesis import given, settings, strategies as st

from ipfc import (
    ProjectionSpec,
    SpectralField,
    build_grid,
    dump_field,
    field_from_coeffs,
    load_field,
    to_physical,
    to_spectral,
)
from ipfc.field import DUMP_THRESHOLD, _coeff_inner
from ipfc.harness import dodecagonal_projection

# 1-d and 2-d periodic grids, and a projected 4-d grid whose extreme planes
# hold modes that are not live.
GRIDS = [
    build_grid(ProjectionSpec.identity(1), (2,)),
    build_grid(ProjectionSpec.identity(1), (8,)),
    build_grid(ProjectionSpec.identity(2), (6, 4)),
    build_grid(ProjectionSpec.identity(2), (4, 10)),
    build_grid(ProjectionSpec(d=2, n=4, P=dodecagonal_projection(), B=np.eye(4)), (4, 4, 4, 6)),
]
assert not GRIDS[-1].all_live


def _random_full(grid, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(grid.sizes) + 1j * rng.standard_normal(grid.sizes)


def _without_extremes(f):
    c = f.coeffs.copy()
    for ax, nj in enumerate(f.grid.sizes):
        sl = [slice(None)] * len(f.grid.sizes)
        sl[ax] = nj // 2
        c[tuple(sl)] = 0.0
    return field_from_coeffs(f.grid, c)


def _dump_per_line(grid, full):
    """The dump text written one `str.format` per kept coefficient."""
    out = io.StringIO()
    out.write(f"ipfc-field v1 n={len(grid.sizes)} sizes={','.join(map(str, grid.sizes))}\n")
    line = "{} " * len(grid.sizes) + "{:.17g} {:.17g}\n"
    flat = full.ravel()
    for i in np.flatnonzero(np.abs(flat) > DUMP_THRESHOLD):
        out.write(line.format(*grid.h_matrix[i].tolist(), flat[i].real, flat[i].imag))
    return out.getvalue()


cases = st.tuples(st.sampled_from(GRIDS), st.integers(0, 2**32 - 1))


@settings(deadline=None, max_examples=40)
@given(cases)
def test_fold_of_full_view_is_identity(case):
    grid, seed = case
    f = field_from_coeffs(grid, _random_full(grid, seed))
    full = f.coeffs
    assert not full.flags.writeable
    np.testing.assert_array_equal(field_from_coeffs(grid, full).half, f.half)
    assert not f.half[~grid.live_mask].any()
    # the full view is conjugate-symmetric
    np.testing.assert_array_equal(full.ravel()[grid.neg_flat], np.conj(full.ravel()))


@settings(deadline=None, max_examples=40)
@given(cases, st.integers(0, 2**32 - 1))
def test_coeff_inner_matches_full_vdot(case, seed2):
    grid, seed = case
    a = field_from_coeffs(grid, _random_full(grid, seed))
    b = field_from_coeffs(grid, _random_full(grid, seed2))
    for x, y in ((a, b), (a, a)):
        full = np.vdot(y.coeffs, x.coeffs)
        scale = np.linalg.norm(x.coeffs) * np.linalg.norm(y.coeffs)
        assert abs(full.imag) <= 1e-14 * scale
        assert abs(_coeff_inner(x.half, y.half) - full.real) <= 1e-14 * scale


@settings(deadline=None, max_examples=40)
@given(cases)
def test_padded_samples_contain_the_grid_samples(case):
    grid, seed = case
    f = field_from_coeffs(grid, _random_full(grid, seed))
    coarse = to_physical(f).values
    fine = to_physical(f, dealias=True).values
    every_other = fine[(slice(None, None, 2),) * fine.ndim]
    assert np.abs(every_other - coarse).max() <= 1e-14 * np.abs(f.half).sum()


@settings(deadline=None, max_examples=40)
@given(cases, st.booleans())
def test_transform_round_trip(case, dealias):
    grid, seed = case
    f = field_from_coeffs(grid, _random_full(grid, seed))
    if dealias:
        # padding splits each extreme plane across +/- N/2, and truncation
        # keeps half of it, so only fields without them come back whole
        f = _without_extremes(f)
    back = to_spectral(to_physical(f, dealias))
    scale = np.abs(f.half).max()
    assert np.abs(back.half - f.half).max() <= 1e-14 * scale


@settings(deadline=None, max_examples=40)
@given(cases, st.booleans())
def test_old_dumps_load_to_the_folded_field(case, symmetric):
    # a dump written from full-layout coefficients, conjugate-symmetric as
    # the full-layout code stored them or not, loads as their fold
    grid, seed = case
    full = _random_full(grid, seed)
    if symmetric:
        full = field_from_coeffs(grid, full).coeffs
    loaded = load_field(io.StringIO(_dump_per_line(grid, full)), grid)
    np.testing.assert_array_equal(loaded.half, field_from_coeffs(grid, full).half)


def test_dump_matches_per_line_format():
    grid = build_grid(ProjectionSpec.identity(4), (4, 4, 6, 6))
    rng = np.random.default_rng(11)
    half = rng.standard_normal(grid.half_sizes) + 1j * rng.standard_normal(grid.half_sizes)
    half *= 10.0 ** rng.uniform(-20, 3, grid.half_sizes)
    # interior last-axis columns, so each entry's mirror is its conjugate
    half[0, 0, 0, 1] = complex(-0.25, 0.0)
    half[1, 0, 0, 1] = complex(0.5, -0.0)
    half[2, 0, 0, 1] = complex(-3.0, 1e-310)
    half[3, 0, 0, 1] = complex(2.0, -5e-324)
    half[0, 1, 0, 2] = complex(1e-15, 1e-15)  # below the drop threshold
    f = SpectralField(grid, half)
    buf = io.StringIO()
    dump_field(f, buf)
    text = buf.getvalue()
    assert text == _dump_per_line(grid, f.coeffs)
    for tail in (" -0.25 0\n", " -0.25 -0\n", " 0.5 -0\n", " 0.5 0\n", "e-311\n", "e-324\n"):
        assert tail in text

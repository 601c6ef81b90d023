"""The half-layout storage of fields: folding, unfolding, inner products,
transforms and dumps agree with the full-layout definitions."""

import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ipfc import (
    PhysicalField,
    ProjectionSpec,
    SpectralField,
    build_grid,
    dump_field,
    field_from_coeffs,
    hermitian_violation,
    load_field,
    to_physical,
    to_spectral,
)
from ipfc._kernels import mirrored
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
        out.write(line.format(*grid.modes(i).tolist(), flat[i].real, flat[i].imag))
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
    np.testing.assert_array_equal(mirrored(full), np.conj(full))


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
@given(cases, st.sampled_from([1, 2]))
def test_to_spectral_output_is_exactly_symmetric(case, factor):
    # any samples, on the grid or the refined one, transform to coefficients
    # that are conjugate-symmetric and empty off the live modes, exactly
    grid, seed = case
    shape = tuple(factor * nj for nj in grid.sizes)
    samples = PhysicalField(grid, np.random.default_rng(seed).standard_normal(shape), factor)
    assert hermitian_violation(to_spectral(samples)) == 0.0


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


def _load_per_line(text, grid):
    """The dump loader the format was first read with: each line split on
    blanks, the last value of each mode kept in a full-layout array, and
    that array folded by `field_from_coeffs`."""
    full = np.zeros(grid.sizes, dtype=np.complex128)
    for line in text.split("\n")[1:]:
        row = line.split()
        if row:
            full[tuple(int(v) for v in row[:-2])] = complex(float(row[-2]), float(row[-1]))
    return field_from_coeffs(grid, full)


# parts that round-trip through the dump text, with the signed zeros and
# subnormals that a fold must keep bit for bit
parts = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.5e-320]),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
)


@st.composite
def dumps(draw):
    """A 1-d, 2-d or 4-d dump whose lines may repeat a mode or lack their
    mirror line, written one `str.format` per line."""
    grid = draw(st.sampled_from([GRIDS[1], GRIDS[2], GRIDS[4]]))
    mode = st.tuples(*(st.integers(-(nj // 2), nj // 2 - 1) for nj in grid.sizes))
    lines = [f"ipfc-field v1 n={len(grid.sizes)} sizes={','.join(map(str, grid.sizes))}"]
    fmt = "{} " * len(grid.sizes) + "{!r} {!r}"
    for h, re, im, with_mirror in draw(st.lists(st.tuples(mode, parts, parts, st.booleans()), max_size=30)):
        lines.append(fmt.format(*h, re, im))
        if with_mirror:
            neg = [(-hj + nj // 2) % nj - nj // 2 for hj, nj in zip(h, grid.sizes)]
            lines.append(fmt.format(*neg, re, -im))
    return grid, "\n".join(lines) + "\n"


@settings(deadline=None, max_examples=200)
@given(dumps())
def test_load_matches_the_per_line_loader_bitwise(dump):
    grid, text = dump
    # parts near the largest double overflow the pair mean alike in both
    with np.errstate(over="ignore", invalid="ignore"):
        loaded = load_field(io.StringIO(text), grid)
        assert loaded.half.tobytes() == _load_per_line(text, grid).half.tobytes()


@settings(deadline=None, max_examples=200)
@given(dumps(), st.data())
def test_load_of_shuffled_distinct_lines_is_bitwise_the_same(dump, data):
    # with no mode listed twice the lines are folded in file order, so the
    # fold must not depend on that order
    grid, text = dump
    header, *lines = text.splitlines()
    distinct = list({tuple(line.split()[:-2]): line for line in lines}.values())
    shuffled = [distinct[i] for i in data.draw(st.permutations(range(len(distinct))))]
    with np.errstate(over="ignore", invalid="ignore"):
        want = _load_per_line("\n".join([header] + distinct) + "\n", grid).half.tobytes()
        for body in (distinct, shuffled):
            text = "\n".join([header] + body) + "\n"
            assert load_field(io.StringIO(text), grid).half.tobytes() == want


@pytest.mark.parametrize("sizes", [(8,), (6, 4)])
def test_load_of_one_halved_subnormal_matches_the_fold(sizes):
    # one listed mode on an interior last-axis column, so one half-layout
    # position: half of the least negative subnormal rounds to a zero whose
    # sign numpy's product of a single complex value can flip
    grid = build_grid(ProjectionSpec.identity(len(sizes)), sizes)
    h = " ".join(["0"] * (len(sizes) - 1) + ["1"])
    text = f"ipfc-field v1 n={len(sizes)} sizes={','.join(map(str, sizes))}\n{h} -5e-324 -0.0\n"
    loaded = load_field(io.StringIO(text), grid)
    assert loaded.half.tobytes() == _load_per_line(text, grid).half.tobytes()


@settings(deadline=None, max_examples=100)
@given(st.sampled_from(GRIDS), st.data())
def test_dump_matches_per_line_writer_for_any_half(grid, data):
    # any half-layout values, conjugate-symmetric or not on the self-paired
    # planes, including signed zeros and subnormals on the mirrored columns
    values = data.draw(st.lists(parts, min_size=2 * grid.ksq.size, max_size=2 * grid.ksq.size))
    half = np.array(values).view(np.complex128).reshape(grid.half_sizes)
    f = SpectralField(grid, half)
    buf = io.StringIO()
    dump_field(f, buf)
    assert buf.getvalue() == _dump_per_line(grid, f.coeffs)

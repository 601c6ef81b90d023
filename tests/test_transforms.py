"""The transforms' in-place passes against the n-d numpy route they replace:
bitwise equal outputs, inputs left alone, and a consuming inverse that
returns the same samples."""

import hashlib

import numpy as np
from hypothesis import given, settings, strategies as st

from ipfc import PhysicalField, ProjectionSpec, SpectralField, build_grid, enforce_hermitian
from ipfc._kernels import hermitian_pair_mean
from ipfc.field import PAD_FACTOR, _embed_padded, _extract_truncated, to_physical, to_spectral
from ipfc.harness import dodecagonal_projection

GRIDS = [
    build_grid(ProjectionSpec.identity(1), (2,)),
    build_grid(ProjectionSpec.identity(1), (10,)),
    build_grid(ProjectionSpec.identity(2), (6, 4)),
    build_grid(ProjectionSpec.identity(3), (4, 2, 6)),
    build_grid(ProjectionSpec.identity(4), (2, 4, 4, 4)),
    build_grid(ProjectionSpec(d=2, n=4, P=dodecagonal_projection(), B=np.eye(4)), (4, 4, 4, 6)),
    build_grid(ProjectionSpec(d=2, n=4, P=dodecagonal_projection(), B=np.eye(4)), (6, 4, 4, 4)),
]
assert not GRIDS[-1].all_live and not GRIDS[-2].all_live


def _parent_to_spectral(p):
    """`to_spectral` by the n-d route: `np.fft.rfftn` into its own arrays,
    scaled by the reciprocal of the sample count as `to_spectral` scales
    (dividing by the count gives the same values, but can sign a zero
    differently; see tests/test_kernels.py), then `enforce_hermitian` as it
    was, on a copy."""
    half = np.fft.rfftn(p.values, axes=tuple(range(p.values.ndim)))
    half *= 1.0 / p.values.size
    if p.factor > 1:
        half = _extract_truncated(half, p.grid.sizes, p.factor)
    return _parent_enforce_hermitian(half, p.grid)


def _parent_enforce_hermitian(half, grid):
    """`enforce_hermitian` as it was: the pair mean on the self-paired
    planes and the live mask, on a copy."""
    out = half.copy()
    for col in (0, -1):
        out[..., col] = hermitian_pair_mean(out[..., col])
    if not grid.all_live:
        out *= grid.live_mask
    return out


def _parent_to_physical(f, dealias):
    """`to_physical` as it was: one `np.fft.irfftn` call."""
    if dealias:
        half, factor = _embed_padded(f.half, f.grid.sizes, PAD_FACTOR), PAD_FACTOR
    else:
        half, factor = f.half, 1
    sizes = tuple(factor * nj for nj in f.grid.sizes)
    vals = np.fft.irfftn(half, s=sizes, axes=tuple(range(len(sizes))))
    vals *= vals.size
    return vals


def _digest(a):
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


def _floats(rng, shape, zeros):
    """Normal floats of a random scale with a fraction `zeros` of signed zeros."""
    v = rng.standard_normal(shape) * 10.0 ** rng.uniform(-3, 3)
    hit = rng.random(shape) < zeros
    v[hit] = np.copysign(0.0, rng.standard_normal(int(hit.sum())))
    return v


def _half(rng, grid, zeros):
    return _floats(rng, grid.half_sizes, zeros) + 1j * _floats(rng, grid.half_sizes, zeros)


cases = st.tuples(
    st.sampled_from(GRIDS), st.booleans(), st.integers(0, 2**32 - 1), st.sampled_from([0.0, 0.2, 1.0])
)


@settings(deadline=None, max_examples=200)
@given(cases)
def test_to_spectral_matches_rfftn_route_bitwise(case):
    grid, dealias, seed, zeros = case
    factor = PAD_FACTOR if dealias else 1
    shape = tuple(factor * nj for nj in grid.sizes)
    p = PhysicalField(grid, _floats(np.random.default_rng(seed), shape, zeros), factor)
    before = _digest(p.values)
    got = to_spectral(p)
    assert _digest(p.values) == before
    assert got.half.tobytes() == _parent_to_spectral(p).tobytes()



@settings(deadline=None, max_examples=200)
@given(cases)
def test_to_physical_matches_irfftn_route_bitwise(case):
    grid, dealias, seed, zeros = case
    half = _half(np.random.default_rng(seed), grid, zeros)
    f = SpectralField(grid, half)
    before = _digest(f.half)
    got = to_physical(f, dealias)
    assert _digest(f.half) == before
    assert got.factor == (PAD_FACTOR if dealias else 1)
    assert got.values.tobytes() == _parent_to_physical(f, dealias).tobytes()

    # the consuming inverse works in the array it is given, to the same samples
    spent = SpectralField(grid, half.copy())
    consumed = to_physical(spent, dealias, consume=True)
    assert consumed.values.tobytes() == got.values.tobytes()


@settings(deadline=None, max_examples=100)
@given(cases)
def test_enforce_hermitian_symmetrizes_a_copy_as_before(case):
    grid, _, seed, zeros = case
    f = SpectralField(grid, _half(np.random.default_rng(seed), grid, zeros))
    before = _digest(f.half)
    got = enforce_hermitian(f)
    assert _digest(f.half) == before
    assert got.half.tobytes() == _parent_enforce_hermitian(f.half, grid).tobytes()

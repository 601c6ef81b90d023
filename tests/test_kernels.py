import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import ipfc._kernels as kernels
from ipfc import SpectralField
from ipfc._kernels import bohr_fourier_sum, extrapolate, poly_eval, poly_increment

from conftest import grid_1d

# constant terms included; Horner's rule needs a largest exponent of 1 or more
_EXPONENT_SETS = [
    s for r in range(1, 6) for s in itertools.combinations((0, 1, 2, 3, 4), r) if max(s) >= 1
]


@given(
    st.sampled_from(_EXPONENT_SETS).flatmap(
        lambda exps: st.tuples(
            st.just(exps),
            st.lists(
                st.floats(-10.0, 10.0, allow_nan=False), min_size=len(exps), max_size=len(exps)
            ),
        )
    ),
    arrays(np.float64, st.integers(1, 64), elements=st.floats(-10.0, 10.0, allow_nan=False)),
)
def test_poly_eval_polynomial_values(terms, vals):
    exps, cfs = terms
    got = poly_eval(vals, list(zip(exps, cfs)))
    parts = [c * vals**p for p, c in zip(exps, cfs)]
    want = sum(parts)
    # Cancellation between terms leaves an error of a few ulps of the largest
    # one; below the smallest normal float both sides lose relative precision.
    atol = 1e-14 * np.max(np.abs(parts), axis=0) + np.finfo(float).tiny
    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want) + atol)


def test_bohr_fourier_sum_across_chunk_boundary(rng):
    # 8197 points in one phase matrix: the kernel leaves chunking to callers.
    kvecs = rng.standard_normal((7, 2))
    cre = rng.standard_normal(7)
    cim = rng.standard_normal(7)
    pts = rng.uniform(-5.0, 5.0, (8192 + 5, 2))
    want = np.array(
        [
            sum(cre[m] * np.cos(kvecs[m] @ x) - cim[m] * np.sin(kvecs[m] @ x) for m in range(7))
            for x in pts
        ]
    )
    np.testing.assert_allclose(bohr_fourier_sum(kvecs, cre, cim, pts), want, rtol=1e-12, atol=1e-12)


# -- the stepper's real reciprocals ---------------------------------------------
# The hot paths multiply by 1.0 / d where they once divided by a positive real
# d.  numpy divides by d + 0j as (re + im * 0) * (1 / d), so each quotient
# equals the product, bitwise unless it is a zero, whose sign may differ.

_PART = st.floats(allow_nan=False, allow_infinity=False)  # subnormals and +-0 included
_COMPLEX = st.builds(complex, _PART, _PART)
_DIVISOR = st.floats(1e-300, 1e300)  # positive, over 600 decades
_GRID = grid_1d(64)[1]


def _same_quotient(quotient, product):
    q, p = (np.asarray(x, dtype=np.complex128).view(np.float64) for x in (quotient, product))
    assert np.array_equal(q, p)
    nonzero = q != 0
    assert np.array_equal(q[nonzero].view(np.int64), p[nonzero].view(np.int64))


@settings(max_examples=300)
@given(
    st.integers(1, 300).flatmap(
        lambda n: st.tuples(
            arrays(np.complex128, n, elements=_COMPLEX), arrays(np.float64, n, elements=_DIVISOR)
        )
    ),
    _DIVISOR,
)
def test_division_by_positive_reals_is_the_reciprocal_product(arrays_, scalar):
    c, d = arrays_
    half = np.resize(c, _GRID.half_sizes)
    with np.errstate(over="ignore"):
        _same_quotient(c / d, c * np.reciprocal(d))
        _same_quotient(c / scalar, c * (1.0 / scalar))
        _same_quotient(half / scalar, (SpectralField(_GRID, half) / scalar).half)


def test_division_by_positive_reals_on_large_arrays(rng):
    # past numpy's buffer size, where the real divisor is cast in chunks
    n = 100_003
    parts = rng.choice([-1.0, 1.0], (n, 2)) * 10.0 ** rng.uniform(-320, 300, (n, 2))
    parts[rng.random((n, 2)) < 0.05] = 0.0
    parts[rng.random((n, 2)) < 0.05] *= -0.0
    c = parts.view(np.complex128)[:, 0]
    d = 10.0 ** rng.uniform(-300, 300, n)
    with np.errstate(over="ignore"):
        _same_quotient(c / d, c * np.reciprocal(d))
        _same_quotient(c / 331776, c * (1.0 / 331776))


# -- blocked sample kernels -------------------------------------------------------

_NPRIME = ((1, -2.0), (2, -2.0), (3, 1.0))
_BULK = ((2, -1.0), (3, -2.0 / 3.0), (4, 0.25))


def _whole_horner(values, terms):
    """Horner's rule in whole-array passes: the kernel before blocking."""
    dense = np.zeros(max(p for p, _ in terms) + 1)
    for p, c in terms:
        dense[p] += c
    out = values * dense[-1]
    for c in dense[-2:0:-1]:
        if c:
            out += c
        out *= values
    if dense[0]:
        out += dense[0]
    return out


def _bitwise(a, b):
    assert a.shape == b.shape
    assert np.array_equal(np.ascontiguousarray(a).view(np.int64), np.ascontiguousarray(b).view(np.int64))


_STRADDLING = [1, 6, 7, 8, 13, 14, 15, 22]  # around multiples of a block of 7


@pytest.mark.parametrize("terms", [_NPRIME, _BULK, ((0, 0.5), (1, 1.0))])
@pytest.mark.parametrize("size", _STRADDLING)
def test_blocked_poly_eval_is_whole_array_horner(monkeypatch, rng, terms, size):
    monkeypatch.setattr(kernels, "BLOCK", 7)
    v = rng.standard_normal((size, 2))
    want = _whole_horner(v, terms)
    _bitwise(poly_eval(v, terms), want)
    out = np.empty_like(v)
    assert poly_eval(v, terms, out=out) is out
    _bitwise(out, want)
    # a strided input, and a strided output, which reshape would only copy
    _bitwise(poly_eval(v[:, 1], terms), want[:, 1])
    strided = np.zeros((size, 2))
    column = strided[:, 0]
    assert poly_eval(v[:, 0], terms, out=column) is column
    _bitwise(strided[:, 0], want[:, 0])
    assert not strided[:, 1].any()


@pytest.mark.parametrize("size", [kernels.BLOCK - 1, kernels.BLOCK, 2 * kernels.BLOCK + 1])
def test_poly_eval_at_the_module_block(rng, size):
    v = rng.standard_normal(size)
    _bitwise(poly_eval(v, _NPRIME), _whole_horner(v, _NPRIME))


@pytest.mark.parametrize("size", _STRADDLING)
def test_blocked_increment_and_extrapolant_are_whole_array_passes(monkeypatch, rng, size):
    monkeypatch.setattr(kernels, "BLOCK", 7)
    x, e, y = rng.standard_normal((3, size))
    total = e + x
    want = _whole_horner(total, _NPRIME)
    want -= _whole_horner(x, _NPRIME)
    base, step = x.copy(), e.copy()
    assert poly_increment(base, step, _NPRIME) is base
    _bitwise(base, want)
    _bitwise(step, total)

    want = x * 1.5
    want -= y * 0.5
    _bitwise(extrapolate(x, y), want)
    # out may be either input
    out = x.copy()
    assert extrapolate(out, y, out=out) is out
    _bitwise(out, want)
    out = y.copy()
    assert extrapolate(x, out, out=out) is out
    _bitwise(out, want)


def test_in_place_kernels_refuse_strided_arrays():
    v = np.zeros((4, 2))
    with pytest.raises(ValueError, match="C-contiguous"):
        poly_increment(v[:, 0], v[:, 1], _NPRIME)
    with pytest.raises(ValueError, match="C-contiguous"):
        extrapolate(v[:, 0], v[:, 0], out=v[:, 1])

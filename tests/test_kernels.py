import itertools

import numpy as np
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from ipfc._kernels import bohr_fourier_sum, poly_eval

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

"""Hot inner-loop kernels, in plain numpy: the bulk polynomial (Horner), the
index mirror and conjugate-pair mean, and the Bohr-Fourier raster sum."""

from __future__ import annotations

import numpy as np

__all__ = ["poly_eval", "mirrored", "hermitian_pair_mean", "bohr_fourier_sum"]


def poly_eval(values: np.ndarray, terms, out=None) -> np.ndarray:
    """sum of c * values**p over the (p, c) terms, by Horner's rule over the
    dense coefficient vector, into `out` (a new array by default; never
    `values` itself).  Exponents are non-negative integers, the largest at
    least 1."""
    dense = np.zeros(max(int(p) for p, _ in terms) + 1)
    for p, c in terms:
        dense[int(p)] += c
    out = np.multiply(values, dense[-1], out=out)  # the top coefficient, times values
    for c in dense[-2:0:-1]:
        if c:
            out += c
        out *= values
    if dense[0]:
        out += dense[0]
    return out


def mirrored(x: np.ndarray, axes=None) -> np.ndarray:
    """Copy of x with position p of each of `axes` (all by default) moved to
    -p mod N: position 0 stays, the rest reverse."""
    axes = tuple(range(x.ndim)) if axes is None else tuple(axes)
    if not axes:
        return x.copy()
    return np.roll(np.flip(x, axes), 1, axes)


def hermitian_pair_mean(x: np.ndarray) -> np.ndarray:
    """(x + conj(x mirrored on every axis)) / 2."""
    return 0.5 * (x + np.conj(mirrored(x)))


def bohr_fourier_sum(
    kvecs: np.ndarray, coeff_re: np.ndarray, coeff_im: np.ndarray, points: np.ndarray
) -> np.ndarray:
    """Re sum_m (coeff_re[m] + i coeff_im[m]) exp(i kvecs[m] . points[p]) at
    every point p.  The coefficient arrays are (modes,) or (modes, columns);
    each column is summed on its own, giving (points,) or (points, columns).
    Holds two (points x modes) float arrays, the phases and one trig table
    (the sines overwrite the spent cosines); callers bound their size."""
    phase = points @ kvecs.T
    trig = np.cos(phase)
    out = trig @ coeff_re
    out -= np.sin(phase, out=trig) @ coeff_im
    return out

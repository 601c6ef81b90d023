"""Hot inner-loop kernels, in plain numpy: the bulk polynomial (Horner) and
the two-point extrapolant over samples, the index mirror and conjugate-pair
mean, and the Bohr-Fourier raster sum.

The sample kernels make all their passes over one block of BLOCK elements
before the next, so each pass reads what the last one left in cache instead
of streaming whole arrays through memory; `blocks` splits the stepper's and
the sweep's coefficient passes the same way.  Every pass is elementwise, so
the values are bitwise those of whole-array passes."""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "blocks",
    "leading",
    "poly_eval",
    "poly_increment",
    "extrapolate",
    "mirrored",
    "hermitian_pair_mean",
    "bohr_fourier_sum",
]

# float64 values per block of the blocked passes (256 KiB), so that a
# block's operands and scratch blocks stay in a core's L2 cache.
BLOCK = 32768


def blocks(size: int, itemsize: int = 8):
    """Slices that split range(size) into blocks of as many elements of
    `itemsize` bytes as BLOCK float64 values take (BLOCK / 2 complex)."""
    step = max(1, BLOCK * 8 // itemsize)
    return (slice(lo, lo + step) for lo in range(0, size, step))


def leading(buf: np.ndarray, shape, dtype=np.float64) -> np.ndarray:
    """The first elements of the C-contiguous buffer `buf`, read as `dtype`
    and viewed in `shape`: how the stepper's work buffers take each of
    their temporaries in turn."""
    return buf.reshape(-1).view(dtype)[: math.prod(shape)].reshape(shape)


def _dense(terms) -> np.ndarray:
    """The dense coefficient vector of the (p, c) terms."""
    dense = np.zeros(max(int(p) for p, _ in terms) + 1)
    for p, c in terms:
        dense[int(p)] += c
    return dense


def _horner(values: np.ndarray, dense: np.ndarray, out: np.ndarray) -> np.ndarray:
    np.multiply(values, dense[-1], out=out)  # the top coefficient, times values
    for c in dense[-2:0:-1]:
        if c:
            out += c
        out *= values
    if dense[0]:
        out += dense[0]
    return out


def poly_eval(values: np.ndarray, terms, out=None) -> np.ndarray:
    """sum of c * values**p over the (p, c) terms, by Horner's rule over the
    dense coefficient vector, block by block, into `out` (a new array by
    default; never `values` itself).  Exponents are non-negative integers,
    the largest at least 1."""
    dense = _dense(terms)
    values = np.asarray(values)
    whole = out if out is not None and out.flags.c_contiguous else np.empty(values.shape)
    v, o = values.reshape(-1), whole.reshape(-1)  # v is a copy if values is strided
    for b in blocks(v.size):
        _horner(v[b], dense, o[b])
    if out is None or whole is out:
        return whole
    out[...] = whole
    return out


def poly_increment(base: np.ndarray, step: np.ndarray, terms) -> np.ndarray:
    """P(base + step) - P(base), with P the polynomial of the (p, c) terms
    as `poly_eval` forms it, block by block.  Consumes both C-contiguous
    arrays: `step` takes base + step and `base` the increment, which is
    returned."""
    if not (base.flags.c_contiguous and step.flags.c_contiguous):
        raise ValueError("poly_increment works in place on C-contiguous arrays")
    dense = _dense(terms)
    x, s = base.reshape(-1), step.reshape(-1)
    for b in blocks(x.size):
        xb, total = x[b], s[b]
        total += xb
        at_base = _horner(xb, dense, np.empty(xb.size))
        _horner(total, dense, out=xb)
        xb -= at_base
    return base


def extrapolate(v: np.ndarray, v_prev: np.ndarray, out=None) -> np.ndarray:
    """1.5 v - 0.5 v_prev, as v * 1.5 less v_prev * 0.5, block by block,
    into the C-contiguous `out` (a new array by default), which may be
    either input."""
    out = np.empty(v.shape) if out is None else out
    if not out.flags.c_contiguous:
        raise ValueError("extrapolate writes into a C-contiguous array")
    o, a, p = out.reshape(-1), v.reshape(-1), v_prev.reshape(-1)
    for b in blocks(o.size):
        half_prev = p[b] * 0.5  # before o[b], which may be p[b], is written
        ob = np.multiply(a[b], 1.5, out=o[b])
        ob -= half_prev
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

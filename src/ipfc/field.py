"""Spectral-field algebra: transforms, pseudospectral products, diagonal ops.

Coefficients are Bohr-Fourier amplitudes: the physical samples are
sum_h c_h exp(i k_h . x_j) on the embedding grid, so the forward transform
divides by the mode count and the coefficient-space dot product equals the
mean spatial inner product with no extra factors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._kernels import hermitian_pair_mean, poly_eval
from .errors import GridMismatchError, NumericalError
from .lattice import IndexGrid, OperatorSymbol

__all__ = [
    "SpectralField",
    "PhysicalField",
    "zeros_field",
    "field_from_coeffs",
    "enforce_hermitian",
    "hermitian_violation",
    "project_mean",
    "mean_coefficient",
    "inner_ap",
    "norm_ap",
    "axpy",
    "to_physical",
    "to_spectral",
    "samples_to_spectral",
    "poly_samples",
    "pointwise_poly",
    "pointwise_poly_mean",
    "apply_symbol",
    "resolvent_apply",
    "dump_field",
    "load_field",
]

_IMAG_TOL = 1e-12
DUMP_THRESHOLD = 1e-14


@dataclass(eq=False)
class SpectralField:
    """Complex coefficients on an index grid.  Treated as an immutable value;
    every operation returns a new field."""

    grid: IndexGrid
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        c = np.asarray(self.coeffs, dtype=np.complex128)
        if c.shape != self.grid.sizes:
            c = c.reshape(self.grid.sizes)
        self.coeffs = c

    def _check(self, other: "SpectralField") -> None:
        if self.grid is not other.grid:
            raise GridMismatchError("fields live on different grids")

    def __add__(self, other: "SpectralField") -> "SpectralField":
        self._check(other)
        return SpectralField(self.grid, self.coeffs + other.coeffs)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        self._check(other)
        return SpectralField(self.grid, self.coeffs - other.coeffs)

    def __neg__(self) -> "SpectralField":
        return SpectralField(self.grid, -self.coeffs)

    def __mul__(self, scalar) -> "SpectralField":
        return SpectralField(self.grid, self.coeffs * float(scalar))

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "SpectralField":
        return SpectralField(self.grid, self.coeffs / float(scalar))

    def copy(self) -> "SpectralField":
        return SpectralField(self.grid, self.coeffs.copy())


@dataclass(eq=False)
class PhysicalField:
    """Real samples on the collocation points of the embedding grid, or of
    that grid refined `factor` times per axis (the dealiasing grid).
    Sampling is linear, so combinations of samples are the samples of the
    same combination of fields.  Treated as an immutable value."""

    grid: IndexGrid
    values: np.ndarray
    factor: int = 1

    def __post_init__(self) -> None:
        shape = tuple(self.factor * nj for nj in self.grid.sizes)
        v = np.asarray(self.values, dtype=float)
        if v.shape != shape:
            v = v.reshape(shape)
        self.values = v

    def _check(self, other: "PhysicalField") -> None:
        if self.grid is not other.grid or self.factor != other.factor:
            raise GridMismatchError("samples live on different grids")

    def __add__(self, other: "PhysicalField") -> "PhysicalField":
        self._check(other)
        return PhysicalField(self.grid, self.values + other.values, self.factor)

    def __sub__(self, other: "PhysicalField") -> "PhysicalField":
        self._check(other)
        return PhysicalField(self.grid, self.values - other.values, self.factor)

    def __mul__(self, scalar) -> "PhysicalField":
        return PhysicalField(self.grid, self.values * float(scalar), self.factor)

    __rmul__ = __mul__


def zeros_field(grid: IndexGrid) -> SpectralField:
    return SpectralField(grid, np.zeros(grid.sizes, dtype=np.complex128))


def field_from_coeffs(grid: IndexGrid, coeffs) -> SpectralField:
    return SpectralField(grid, np.array(coeffs, dtype=np.complex128))


def axpy(alpha: float, x: SpectralField, y: SpectralField) -> SpectralField:
    """alpha * x + y, componentwise."""
    x._check(y)
    return SpectralField(x.grid, alpha * x.coeffs + y.coeffs)


def enforce_hermitian(f: SpectralField) -> SpectralField:
    """Project onto conjugate-symmetric coefficients, (c_h + conj(c_-h)) / 2.

    Negation is taken mod N per axis, so the extreme -N/2 planes pair with
    themselves and are projected onto their real-symmetric part.  Modes whose
    mod-N mirror carries a different wavevector norm (asymmetric extreme
    planes of projected grids) cannot host real content compatibly with the
    diagonal symbols and are zeroed.
    """
    flat = np.ascontiguousarray(f.coeffs.ravel())
    out = hermitian_pair_mean(flat, f.grid.neg_flat).reshape(f.grid.sizes)
    if not f.grid.all_live:
        out = out * f.grid.live_mask
    return SpectralField(f.grid, out)


def hermitian_violation(f: SpectralField) -> float:
    flat = f.coeffs.ravel()
    return float(np.abs(flat - np.conj(flat[f.grid.neg_flat])).max())


def mean_coefficient(f: SpectralField) -> complex:
    """Zero-mode coefficient, i.e. the spatial mean of the field."""
    return complex(f.coeffs.ravel()[f.grid.zero_index])


def project_mean(f: SpectralField) -> SpectralField:
    """Return the field with its zero mode removed."""
    out = f.coeffs.copy()
    out.ravel()[f.grid.zero_index] = 0.0
    return SpectralField(f.grid, out)


def _coeff_inner(a: np.ndarray, b: np.ndarray) -> float:
    """sum_h a_h conj(b_h), asserting the imaginary residue is negligible."""
    s = np.vdot(b, a)  # vdot conjugates its first argument
    scale = np.linalg.norm(a.ravel()) * np.linalg.norm(b.ravel())
    if abs(s.imag) > _IMAG_TOL * (scale + 1e-300):
        raise NumericalError(
            f"inner product has non-negligible imaginary part {s.imag:.3e} "
            "(operands are not conjugate-symmetric)"
        )
    return float(s.real)


def inner_ap(f: SpectralField, g: SpectralField) -> float:
    """Mean spatial inner product of two fields, evaluated in coefficient space."""
    f._check(g)
    return _coeff_inner(f.coeffs, g.coeffs)


def norm_ap(f: SpectralField) -> float:
    return float(np.linalg.norm(f.coeffs.ravel()))


def to_physical(f: SpectralField, dealias: bool = False, pad_factor: int = 2) -> PhysicalField:
    """Inverse transform to collocation values, on the grid refined by
    `pad_factor` when `dealias` is set; imaginary parts are asserted
    negligible and dropped."""
    if dealias:
        big = _embed_padded(f.coeffs, f.grid.sizes, pad_factor)
        vals, factor = np.fft.ifftn(big) * big.size, pad_factor
    else:
        vals, factor = np.fft.ifftn(f.coeffs) * f.grid.total, 1
    _assert_real(vals, f.coeffs)
    return PhysicalField(f.grid, np.ascontiguousarray(vals.real), factor)


def to_spectral(p: PhysicalField) -> SpectralField:
    """Forward transform of collocation values to coefficients; samples on a
    refined grid are truncated back to the grid's modes."""
    if p.factor == 1:
        return SpectralField(p.grid, np.fft.fftn(p.values) / p.grid.total)
    out = _extract_truncated(np.fft.fftn(p.values) / p.values.size, p.grid.sizes, p.factor)
    return SpectralField(p.grid, out)


def _assert_real(vals: np.ndarray, coeffs: np.ndarray) -> None:
    imax = float(np.abs(vals.imag).max()) if vals.size else 0.0
    cmax = float(np.abs(coeffs).max()) if coeffs.size else 0.0
    if imax > max(_IMAG_TOL * cmax, 1e-15):
        raise NumericalError(
            f"physical samples have imaginary part {imax:.3e}; "
            "input coefficients are not conjugate-symmetric"
        )


# -- pseudospectral products -------------------------------------------------

def _embed_padded(coeffs: np.ndarray, sizes, factor: int) -> np.ndarray:
    """Zero-pad each axis by `factor`, splitting the self-paired extreme plane
    across +/- N/2 so the padded array stays conjugate-symmetric."""
    ndim = len(sizes)
    big = np.zeros(tuple(factor * nj for nj in sizes), dtype=np.complex128)
    idx = [
        np.where(np.arange(nj) < nj // 2, np.arange(nj), np.arange(nj) + (factor - 1) * nj)
        for nj in sizes
    ]
    big[np.ix_(*idx)] = coeffs
    for ax, nj in enumerate(sizes):
        lo = [slice(None)] * ndim
        hi = [slice(None)] * ndim
        lo[ax] = factor * nj - nj // 2  # mode -N/2
        hi[ax] = nj // 2                # mode +N/2, empty before the split
        big[tuple(hi)] = 0.5 * big[tuple(lo)]
        big[tuple(lo)] = big[tuple(hi)]
    return big


def _extract_truncated(big: np.ndarray, sizes, factor: int) -> np.ndarray:
    idx = [
        np.where(np.arange(nj) < nj // 2, np.arange(nj), np.arange(nj) + (factor - 1) * nj)
        for nj in sizes
    ]
    return np.ascontiguousarray(big[np.ix_(*idx)])


def _validate_terms(terms):
    terms = tuple((int(p), float(c)) for p, c in terms)
    if not terms:
        raise ValueError("need at least one polynomial term")
    for p, _ in terms:
        if p not in (1, 2, 3, 4):
            raise ValueError(f"exponents must be in 1..4, got {p}")
    return terms


def samples_to_spectral(p: PhysicalField) -> SpectralField:
    """Coefficients of (possibly refined) samples, re-symmetrized."""
    return enforce_hermitian(to_spectral(p))


def poly_samples(p: PhysicalField, terms) -> PhysicalField:
    """Pointwise polynomial of samples; `terms` as in `pointwise_poly`."""
    return PhysicalField(p.grid, poly_eval(p.values, terms), p.factor)


def pointwise_poly(
    f: SpectralField, terms, dealias: bool = False, pad_factor: int = 2
) -> SpectralField:
    """Polynomial of the field, evaluated pseudospectrally.

    `terms` is a sequence of (exponent, coefficient) pairs with exponents in
    1..4.  With `dealias` the product is formed on a grid padded by
    `pad_factor`, which makes results exact truncated convolutions for total
    degree up to pad_factor + 1.  The result is re-symmetrized.
    """
    terms = _validate_terms(terms)
    return samples_to_spectral(poly_samples(to_physical(f, dealias, pad_factor), terms))


def pointwise_poly_mean(
    f: SpectralField, terms, dealias: bool = False, pad_factor: int = 2
) -> float:
    """Spatial mean of a pointwise polynomial of the field (its zero mode)."""
    terms = _validate_terms(terms)
    return float(poly_eval(to_physical(f, dealias, pad_factor).values, terms).mean())


# -- diagonal operators --------------------------------------------------------

def apply_symbol(f: SpectralField, symbol: OperatorSymbol, power: int = 1) -> SpectralField:
    """Multiply coefficients by the operator symbol (power 1) or its square."""
    if symbol.grid is not f.grid:
        raise GridMismatchError("symbol was built for a different grid")
    if power == 1:
        return SpectralField(f.grid, f.coeffs * symbol.g)
    if power == 2:
        return SpectralField(f.grid, f.coeffs * symbol.g2)
    raise ValueError("power must be 1 or 2")


def resolvent_apply(f: SpectralField, symbol: OperatorSymbol, tau: float) -> SpectralField:
    """Apply (I + tau/2 * G^2)^{-1}; the denominator is >= 1 for tau > 0."""
    if symbol.grid is not f.grid:
        raise GridMismatchError("symbol was built for a different grid")
    if tau <= 0:
        raise ValueError("tau must be positive")
    return SpectralField(f.grid, f.coeffs / (1.0 + 0.5 * tau * symbol.g2))


# -- portable dumps -------------------------------------------------------------

def dump_field(f: SpectralField, fileobj) -> None:
    """Write the portable text dump: a header line then one
    "h1 .. hn re im" line per coefficient above the drop threshold."""
    grid = f.grid
    sizes = ",".join(str(s) for s in grid.sizes)
    fileobj.write(f"ipfc-field v1 n={len(grid.sizes)} sizes={sizes}\n")
    flat = f.coeffs.ravel()
    keep = np.flatnonzero(np.abs(flat) > DUMP_THRESHOLD)
    line = "{} " * len(grid.sizes) + "{:.17g} {:.17g}\n"
    rows = zip(grid.h_matrix[keep].tolist(), flat[keep].real.tolist(), flat[keep].imag.tolist())
    fileobj.write("".join(line.format(*h, re, im) for h, re, im in rows))


def load_field(fileobj, grid: IndexGrid) -> SpectralField:
    """Read a portable dump back onto an existing grid (header must match).
    A mode listed twice takes its last value."""
    header = fileobj.readline().strip()
    parts = header.split()
    if len(parts) != 4 or parts[0] != "ipfc-field" or parts[1] != "v1":
        raise ValueError(f"unrecognized field dump header: {header!r}")
    n = int(parts[2].split("=", 1)[1])
    sizes = tuple(int(s) for s in parts[3].split("=", 1)[1].split(","))
    if n != len(grid.sizes) or sizes != grid.sizes:
        raise ValueError(f"dump grid {sizes} does not match target grid {grid.sizes}")
    out = zeros_field(grid)
    lines = fileobj.read().split("\n")
    rows = [line.split() for line in lines]
    for line, row in zip(lines, rows):
        if row and len(row) != n + 2:
            raise ValueError(f"malformed dump line: {line.strip()!r}")
    table = np.array([row for row in rows if row], dtype="S").reshape(-1, n + 2)
    try:
        h = table[:, :n].astype(np.int64)
    except OverflowError as exc:
        raise ValueError("mode index outside the int64 range") from exc
    half = np.array(grid.sizes) // 2
    outside = np.argwhere((h < -half) | (h > half - 1))
    if len(outside):
        i, j = outside[0]
        raise ValueError(f"mode index {h[i, j]} outside -{half[j]} .. {half[j] - 1}")
    pos = np.ravel_multi_index(tuple((h % grid.sizes).T), grid.sizes)
    values = table[:, n:].astype(float).view(np.complex128)[:, 0]
    # keep the last line of each mode
    _, last = np.unique(pos[::-1], return_index=True)
    last = len(pos) - 1 - last
    out.coeffs.ravel()[pos[last]] = values[last]
    return out

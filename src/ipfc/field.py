"""Spectral-field algebra: transforms, pseudospectral products, diagonal ops.

Coefficients are Bohr-Fourier amplitudes: the physical samples are
sum_h c_h exp(i k_h . x_j) on the embedding grid, so the forward transform
divides by the mode count and the coefficient-space dot product equals the
mean spatial inner product with no extra factors.

Fields are real, so a field stores only the half layout of its
coefficients (see `IndexGrid`) and transforms are real-data ones.  Full
layout arrays cross in one place each way: `field_from_coeffs` folds them
in, `SpectralField.coeffs` unfolds a field for reading.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from ._kernels import hermitian_pair_mean, poly_eval
from .errors import GridMismatchError
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

DUMP_THRESHOLD = 1e-14


@dataclass(eq=False)
class SpectralField:
    """Coefficients of a real field on an index grid, stored in the grid's
    half layout (see `IndexGrid`).  Treated as an immutable value; every
    operation returns a new field."""

    grid: IndexGrid
    half: np.ndarray

    def __post_init__(self) -> None:
        c = np.asarray(self.half, dtype=np.complex128)
        if c.shape != self.grid.half_sizes:
            c = c.reshape(self.grid.half_sizes)
        self.half = c

    @property
    def coeffs(self) -> np.ndarray:
        """Read-only full-layout coefficients, built from the half on access."""
        return self.grid.unfold(self.half)

    def _check(self, other: "SpectralField") -> None:
        if self.grid is not other.grid:
            raise GridMismatchError("fields live on different grids")

    def __add__(self, other: "SpectralField") -> "SpectralField":
        self._check(other)
        return SpectralField(self.grid, self.half + other.half)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        self._check(other)
        return SpectralField(self.grid, self.half - other.half)

    def __neg__(self) -> "SpectralField":
        return SpectralField(self.grid, -self.half)

    def __mul__(self, scalar) -> "SpectralField":
        return SpectralField(self.grid, self.half * float(scalar))

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "SpectralField":
        return SpectralField(self.grid, self.half / float(scalar))

    def copy(self) -> "SpectralField":
        return SpectralField(self.grid, self.half.copy())


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
    return SpectralField(grid, np.zeros(grid.half_sizes, dtype=np.complex128))


def field_from_coeffs(grid: IndexGrid, coeffs) -> SpectralField:
    """Field of full-layout coefficients, folded onto the half layout: each
    stored mode takes the pair mean (c_h + conj(c_-h)) / 2 with its mod-N
    mirror, and modes that are not live are zeroed (see
    `enforce_hermitian`).  Allocates one half-layout array."""
    full = np.asarray(coeffs, dtype=np.complex128).reshape(grid.sizes)
    h = grid.half_sizes[-1]
    half = full.ravel()[grid.neg_flat.reshape(grid.sizes)[..., :h]]  # the mirrors
    np.conj(half, out=half)
    half += full[..., :h]
    half *= 0.5
    if not grid.all_live:
        half *= grid.live_mask
    return SpectralField(grid, half)


def axpy(alpha: float, x: SpectralField, y: SpectralField) -> SpectralField:
    """alpha * x + y, componentwise."""
    x._check(y)
    return SpectralField(x.grid, alpha * x.half + y.half)


def enforce_hermitian(f: SpectralField) -> SpectralField:
    """Project onto conjugate-symmetric coefficients.

    In the half layout only the self-paired last-axis planes (positions 0
    and -N/2) hold both members of a pair; they take the pair mean
    (c_h + conj(c_-h)) / 2, with negation mod N per axis, so their own
    extreme planes are projected onto their real-symmetric part.  Modes
    whose mod-N mirror carries a different wavevector norm (asymmetric
    extreme planes of projected grids) cannot host real content compatibly
    with the diagonal symbols and are zeroed.
    """
    grid = f.grid
    out = f.half.copy()
    for col in (0, -1):
        plane = np.ascontiguousarray(out[..., col]).ravel()
        out[..., col] = hermitian_pair_mean(plane, grid.plane_neg).reshape(grid.sizes[:-1])
    if not grid.all_live:
        out *= grid.live_mask
    return SpectralField(grid, out)


def hermitian_violation(f: SpectralField) -> float:
    """Largest distance of a coefficient from the conjugate-symmetric
    projection: asymmetry on the self-paired planes, content on modes that
    are not live."""
    worst = 0.0
    for col in (0, -1):
        plane = f.half[..., col].ravel()
        worst = max(worst, float(np.abs(plane - np.conj(plane[f.grid.plane_neg])).max()))
    if not f.grid.all_live:
        worst = max(worst, float(np.abs(f.half[~f.grid.live_mask]).max()))
    return worst


def mean_coefficient(f: SpectralField) -> complex:
    """Zero-mode coefficient, i.e. the spatial mean of the field."""
    return complex(f.half.ravel()[f.grid.zero_index])


def project_mean(f: SpectralField) -> SpectralField:
    """Return the field with its zero mode removed."""
    out = f.half.copy()
    out.ravel()[f.grid.zero_index] = 0.0
    return SpectralField(f.grid, out)


def _coeff_inner(a: np.ndarray, b: np.ndarray) -> float:
    """Re sum_h a_h conj(b_h) over every mode, from half-layout arrays: an
    interior column stands for itself and its mirror (weight 2), the two
    self-paired last-axis planes for themselves (weight 1)."""
    s = 2.0 * np.vdot(b, a).real  # vdot conjugates its first argument
    s -= np.vdot(b[..., 0], a[..., 0]).real + np.vdot(b[..., -1], a[..., -1]).real
    return float(s)


def inner_ap(f: SpectralField, g: SpectralField) -> float:
    """Mean spatial inner product of two fields, evaluated in coefficient space."""
    f._check(g)
    return _coeff_inner(f.half, g.half)


def norm_ap(f: SpectralField) -> float:
    return float(np.sqrt(max(_coeff_inner(f.half, f.half), 0.0)))


def to_physical(f: SpectralField, dealias: bool = False, pad_factor: int = 2) -> PhysicalField:
    """Inverse real-data transform to collocation values, on the grid
    refined by `pad_factor` when `dealias` is set."""
    if dealias:
        half, factor = _embed_padded(f.half, f.grid.sizes, pad_factor), pad_factor
    else:
        half, factor = f.half, 1
    sizes = tuple(factor * nj for nj in f.grid.sizes)
    vals = np.fft.irfftn(half, s=sizes, axes=tuple(range(len(sizes))))
    vals *= vals.size
    return PhysicalField(f.grid, vals, factor)


def to_spectral(p: PhysicalField) -> SpectralField:
    """Forward real-data transform of collocation values to coefficients;
    samples on a refined grid are truncated back to the grid's modes."""
    half = np.fft.rfftn(p.values, axes=tuple(range(p.values.ndim)))
    half /= p.values.size
    if p.factor == 1:
        return SpectralField(p.grid, half)
    return SpectralField(p.grid, _extract_truncated(half, p.grid.sizes, p.factor))


# -- pseudospectral products -------------------------------------------------

def _padded_positions(nj: int, factor: int) -> np.ndarray:
    """Positions of an axis's modes 0 .. N/2 - 1, -N/2 .. -1 on the axis
    refined by `factor`."""
    ar = np.arange(nj)
    return np.where(ar < nj // 2, ar, ar + (factor - 1) * nj)


def _embed_padded(half: np.ndarray, sizes, factor: int) -> np.ndarray:
    """Zero-pad each axis by `factor`, in the half layout, splitting the
    self-paired extreme planes across +/- N/2 so the padded array stays
    conjugate-symmetric.  On the last axis the -N/2 half of the split is the
    mirror of the +N/2 half, which is all the padded half stores."""
    lead, n = sizes[:-1], sizes[-1]
    shape = tuple(factor * nj for nj in lead) + (factor * n // 2 + 1,)
    big = np.zeros(shape, dtype=np.complex128)
    idx = [_padded_positions(nj, factor) for nj in lead]
    big[np.ix_(*idx, np.arange(n // 2 + 1))] = half
    big[..., n // 2] *= 0.5  # mode -N/2 moves to +N/2
    for ax, nj in enumerate(lead):
        lo = [slice(None)] * len(sizes)
        hi = [slice(None)] * len(sizes)
        lo[ax] = factor * nj - nj // 2  # mode -N/2
        hi[ax] = nj // 2                # mode +N/2, empty before the split
        big[tuple(hi)] = 0.5 * big[tuple(lo)]
        big[tuple(lo)] = big[tuple(hi)]
    return big


def _extract_truncated(big: np.ndarray, sizes, factor: int) -> np.ndarray:
    """The grid's modes from the half layout of the refined grid.

    A stored mode stands for its mod-N mirror too, so a mode with components
    -N/2 takes the pair mean of the refined coefficients with those
    components at -N/2 and at +N/2.  On the last axis the refined -N/2
    column is past the refined half: it is the conjugate of the stored +N/2
    column at mirrored leading positions."""
    lead, n = sizes[:-1], sizes[-1]
    lo = [_padded_positions(nj, factor) for nj in lead]
    hi = [np.where(i == factor * nj - nj // 2, nj // 2, i) for i, nj in zip(lo, lead)]
    mirror = [(-i) % (factor * nj) for i, nj in zip(lo, lead)]
    cols = np.arange(n // 2)
    out = np.empty(tuple(lead) + (n // 2 + 1,), dtype=np.complex128)
    out[..., : n // 2] = 0.5 * (big[np.ix_(*lo, cols)] + big[np.ix_(*hi, cols)])
    edge = big[..., n // 2]
    out[..., n // 2] = 0.5 * (np.conj(edge[np.ix_(*mirror)]) + edge[np.ix_(*hi)])
    return out


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
        return SpectralField(f.grid, f.half * symbol.g_half)
    if power == 2:
        return SpectralField(f.grid, f.half * symbol.g2_half)
    raise ValueError("power must be 1 or 2")


def resolvent_apply(f: SpectralField, symbol: OperatorSymbol, tau: float) -> SpectralField:
    """Apply (I + tau/2 * G^2)^{-1}; the denominator is >= 1 for tau > 0."""
    if symbol.grid is not f.grid:
        raise GridMismatchError("symbol was built for a different grid")
    if tau <= 0:
        raise ValueError("tau must be positive")
    return SpectralField(f.grid, f.half / (1.0 + 0.5 * tau * symbol.g2_half))


# -- portable dumps -------------------------------------------------------------

def dump_field(f: SpectralField, fileobj) -> None:
    """Write the portable text dump: a header line then one
    "h1 .. hn re im" line per full-layout coefficient above the drop
    threshold."""
    grid = f.grid
    n = len(grid.sizes)
    sizes = ",".join(str(s) for s in grid.sizes)
    fileobj.write(f"ipfc-field v1 n={n} sizes={sizes}\n")
    flat = f.coeffs.ravel()
    keep = np.flatnonzero(np.abs(flat) > DUMP_THRESHOLD)
    cols = [c.tolist() for c in grid.h_matrix[keep].T] + [
        flat[keep].real.tolist(),
        flat[keep].imag.tolist(),
    ]
    line = "%d " * n + "%.17g %.17g\n"
    fileobj.write((line * len(keep)) % tuple(itertools.chain.from_iterable(zip(*cols))))


def load_field(fileobj, grid: IndexGrid) -> SpectralField:
    """Read a portable dump back onto an existing grid (header must match).
    A mode listed twice takes its last value; the modes are folded onto the
    half layout as by `field_from_coeffs`."""
    pos, values = _read_dump(fileobj, grid)
    # keep the last line of each mode
    _, last = np.unique(pos[::-1], return_index=True)
    last = len(pos) - 1 - last
    full = np.zeros(grid.sizes, dtype=np.complex128)
    full.ravel()[pos[last]] = values[last]
    return field_from_coeffs(grid, full)


def _read_dump(fileobj, grid: IndexGrid):
    """Flat full-layout positions and values of a dump's lines, in file
    order, after checking them; the text is freed on return."""
    header = fileobj.readline().strip()
    parts = header.split()
    if len(parts) != 4 or parts[0] != "ipfc-field" or parts[1] != "v1":
        raise ValueError(f"unrecognized field dump header: {header!r}")
    n = int(parts[2].split("=", 1)[1])
    sizes = tuple(int(s) for s in parts[3].split("=", 1)[1].split(","))
    if n != len(grid.sizes) or sizes != grid.sizes:
        raise ValueError(f"dump grid {sizes} does not match target grid {grid.sizes}")
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
    return pos, values

"""Spectral-field algebra: transforms, pseudospectral products, diagonal ops.

Coefficients are Bohr-Fourier amplitudes: the physical samples are
sum_h c_h exp(i k_h . x_j) on the embedding grid, so the forward transform
divides by the mode count and the coefficient-space dot product equals the
mean spatial inner product with no extra factors.

Fields are real, so a field stores only the half layout of its
coefficients (see `IndexGrid`) and transforms are real-data ones.  The
library does not read the full layout: full-layout data enters only
through `field_from_coeffs`, which folds it in, and `IndexGrid.unfold`;
listed modes (`field_from_listed`, `load_field`) are scattered straight
into the half layout, and the text dumps, the raster and the spectrum
read the half layout directly.  `SpectralField.coeffs` unfolds a field for
callers outside the library.  Fields are made exactly conjugate-symmetric
by the fold (`field_from_coeffs`, `field_from_listed`) and by
`to_spectral`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from ._kernels import hermitian_pair_mean, leading, mirrored, poly_eval
from .errors import GridMismatchError
from .lattice import IndexGrid, OperatorSymbol

__all__ = [
    "SpectralField",
    "PhysicalField",
    "zeros_field",
    "field_from_coeffs",
    "field_from_listed",
    "enforce_hermitian",
    "hermitian_violation",
    "project_mean",
    "inner_ap",
    "norm_ap",
    "to_physical",
    "to_spectral",
    "poly_samples",
    "pointwise_poly",
    "pointwise_poly_mean",
    "apply_symbol",
    "dump_field",
    "load_field",
]

DUMP_THRESHOLD = 1e-14
# Refinement per axis of the dealiasing grid: products are exact truncated
# convolutions through total degree PAD_FACTOR + 1, the cubic N'.
PAD_FACTOR = 2


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
        return SpectralField(self.grid, self.half * (1.0 / float(scalar)))

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


def zeros_field(grid: IndexGrid) -> SpectralField:
    return SpectralField(grid, np.zeros(grid.half_sizes, dtype=np.complex128))


def field_from_coeffs(grid: IndexGrid, coeffs) -> SpectralField:
    """Field of full-layout coefficients, folded onto the half layout: each
    stored mode takes the pair mean (c_h + conj(c_-h)) / 2 with its mod-N
    mirror, and modes that are not live are zeroed (see
    `enforce_hermitian`).  Allocates a mirrored full-layout copy and one
    half-layout array."""
    full = np.asarray(coeffs, dtype=np.complex128).reshape(grid.sizes)
    h = grid.half_sizes[-1]
    half = np.conj(mirrored(full)[..., :h])
    half += full[..., :h]
    half *= 0.5
    if not grid.all_live:
        half *= grid.live_mask
    return SpectralField(grid, half)


def field_from_listed(grid: IndexGrid, pos: np.ndarray, values) -> SpectralField:
    """Field of the coefficients `values` at distinct mod-N positions `pos`
    (one row each) and zero elsewhere, folded bitwise as by
    `field_from_coeffs`, without a full-layout array.  Each value is c_h at
    its own half-layout position and c_-h at its mirror's, and a position
    takes the pair mean (conj(c_mirror) + c_own) / 2 of what lands there;
    a missing term reads as the 0 that the full fold reads, signed zeros
    included (conj(0) = 0 - 0j), and every other position is exactly 0."""
    values = np.asarray(values, dtype=np.complex128)
    own = pos[:, -1] < grid.half_sizes[-1]
    mirror = np.negative(pos)
    mirror %= grid.sizes
    seen = mirror[:, -1] < grid.half_sizes[-1]
    # rows past the half are clipped onto some position, then left out
    own_at, mirror_at = (
        np.ravel_multi_index(tuple(p.T), grid.half_sizes, mode="clip")[rows]
        for p, rows in ((pos, own), (mirror, seen))
    )
    del mirror
    half = np.zeros(grid.half_sizes, dtype=np.complex128)
    out = half.ravel()
    out[own_at] = np.conj(0j)
    theirs = values[seen]
    out[mirror_at] = np.conjugate(theirs, out=theirs)
    del theirs
    out[own_at] += values[own]
    has_own = np.zeros(out.size, dtype=bool)
    has_own[own_at] = True
    lone = mirror_at[~has_own[mirror_at]]
    out[lone] += 0j
    touched = np.concatenate([own_at, lone])
    # numpy multiplies a single complex value by another route than an
    # array, which can round a halved subnormal's signed zero differently
    # from the fold's whole-array product; a second, zero, position keeps
    # it on the array route (0 * 0.5 is 0).
    scaled = touched if len(touched) != 1 else np.append(touched, (touched[0] + 1) % out.size)
    out[scaled] *= 0.5
    if not grid.all_live:
        out[touched] *= grid.live_mask.ravel()[touched]
    return SpectralField(grid, half)


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
    return SpectralField(f.grid, _symmetrize(f.half.copy(), f.grid))


def _symmetrize(half: np.ndarray, grid: IndexGrid) -> np.ndarray:
    """`enforce_hermitian` in place on a half-layout array; returns it."""
    for col in (0, -1):
        half[..., col] = hermitian_pair_mean(half[..., col])
    if not grid.all_live:
        half *= grid.live_mask
    return half


def hermitian_violation(f: SpectralField) -> float:
    """Largest distance of a coefficient from the conjugate-symmetric
    projection: asymmetry on the self-paired planes, content on modes that
    are not live."""
    worst = 0.0
    for col in (0, -1):
        plane = f.half[..., col]
        worst = max(worst, float(np.abs(plane - np.conj(mirrored(plane))).max()))
    if not f.grid.all_live:
        worst = max(worst, float(np.abs(f.half[~f.grid.live_mask]).max()))
    return worst


def project_mean(f: SpectralField) -> SpectralField:
    """Return the field with its zero mode removed."""
    out = f.half.copy()
    out.ravel()[f.grid.zero_index] = 0.0
    return SpectralField(f.grid, out)


def _coeff_inner(a: np.ndarray, b: np.ndarray) -> float:
    """Re sum_h a_h conj(b_h) over every mode, from half-layout arrays: an
    interior column stands for itself and its mirror (weight 2), the two
    self-paired last-axis planes for themselves (weight 1).  Summed over
    float views (Re a conj(b) = a.re b.re + a.im b.im), column by column,
    by numpy's own loops rather than a threaded BLAS call, so the sum does
    not depend on the thread count."""
    x, y = (np.ascontiguousarray(v).view(np.float64).reshape(-1, 2 * v.shape[-1]) for v in (a, b))
    cols = np.einsum("ij,ij->j", x, y)  # the planes are the first and last two
    return float(2.0 * cols.sum() - cols[:2].sum() - cols[-2:].sum())


def inner_ap(f: SpectralField, g: SpectralField) -> float:
    """Mean spatial inner product of two fields, evaluated in coefficient space."""
    f._check(g)
    return _coeff_inner(f.half, g.half)


def norm_ap(f: SpectralField) -> float:
    return float(np.sqrt(max(_coeff_inner(f.half, f.half), 0.0)))


def to_physical(
    f: SpectralField, dealias: bool = False, consume: bool = False, work=None
) -> PhysicalField:
    """Inverse real-data transform to collocation values, on the grid
    refined by PAD_FACTOR when `dealias` is set.

    The passes of `np.fft.irfftn` run one by one: complex inverse passes
    over the leading axes, in place on one working array, then a real
    inverse pass over the last axis into the samples.  The working array
    is new, or the leading elements of the complex buffer `work`, or with
    `consume` the coefficients themselves, which it may overwrite: for
    callers done with f.  On the refined grid it is the padded array, in
    `work` when given."""
    factor = PAD_FACTOR if dealias else 1
    if dealias:
        src = out = _embed_padded(f.half, f.grid.sizes, factor, work)
    elif consume:
        src = out = f.half
    else:
        src, out = f.half, None if work is None else leading(work, f.half.shape, np.complex128)
    sizes = tuple(factor * nj for nj in f.grid.sizes)
    for ax in range(len(sizes) - 1):
        src = out = np.fft.ifft(src, axis=ax, out=out)
    vals = np.fft.irfft(src, n=sizes[-1], axis=-1)
    vals *= vals.size
    return PhysicalField(f.grid, vals, factor)


def to_spectral(p: PhysicalField, out=None) -> SpectralField:
    """Forward real-data transform of collocation values to coefficients,
    truncated to the grid's modes from a refined grid, then symmetrized.
    The transform's passes all write into one array, new or the leading
    elements of the complex buffer `out`, which is symmetrized in place
    (on a refined grid the truncation copies the grid's modes out of it)."""
    v = p.values
    shape = v.shape[:-1] + (v.shape[-1] // 2 + 1,)
    half = np.empty(shape, dtype=np.complex128) if out is None else leading(out, shape, np.complex128)
    np.fft.rfftn(v, axes=tuple(range(v.ndim)), out=half)
    half *= 1.0 / v.size
    if p.factor > 1:
        half = _extract_truncated(half, p.grid.sizes, p.factor)
    return SpectralField(p.grid, _symmetrize(half, p.grid))


# -- pseudospectral products -------------------------------------------------

def _padded_positions(nj: int, factor: int) -> np.ndarray:
    """Positions of an axis's modes 0 .. N/2 - 1, -N/2 .. -1 on the axis
    refined by `factor`."""
    ar = np.arange(nj)
    return np.where(ar < nj // 2, ar, ar + (factor - 1) * nj)


def _embed_padded(half: np.ndarray, sizes, factor: int, out=None) -> np.ndarray:
    """Zero-pad each axis by `factor`, in the half layout, splitting the
    self-paired extreme planes across +/- N/2 so the padded array stays
    conjugate-symmetric.  On the last axis the -N/2 half of the split is the
    mirror of the +N/2 half, which is all the padded half stores.  The
    padded array is new, or the leading elements of the complex buffer
    `out`."""
    lead, n = sizes[:-1], sizes[-1]
    shape = tuple(factor * nj for nj in lead) + (factor * n // 2 + 1,)
    if out is None:
        big = np.zeros(shape, dtype=np.complex128)
    else:
        big = leading(out, shape, np.complex128)
        big.fill(0)
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


def poly_samples(p: PhysicalField, terms, out=None) -> PhysicalField:
    """Pointwise polynomial of samples, `terms` as in `pointwise_poly`, in
    a new array or the leading elements of the buffer `out`."""
    vals = None if out is None else leading(out, p.values.shape)
    return PhysicalField(p.grid, poly_eval(p.values, terms, vals), p.factor)


def pointwise_poly(f: SpectralField, terms, dealias: bool = False) -> SpectralField:
    """Polynomial of the field, evaluated pseudospectrally.

    `terms` is a sequence of (exponent, coefficient) pairs with exponents in
    1..4.  With `dealias` the product is formed on the grid refined by
    PAD_FACTOR, which makes results exact truncated convolutions for total
    degree up to PAD_FACTOR + 1.
    """
    terms = _validate_terms(terms)
    return to_spectral(poly_samples(to_physical(f, dealias), terms))


def pointwise_poly_mean(p: PhysicalField, terms, out=None) -> float:
    """Spatial mean of a pointwise polynomial of the field sampled by p (on
    either grid); `terms` as in `pointwise_poly`.  The polynomial's samples
    go to a new array or the leading elements of the buffer `out`."""
    return float(poly_samples(p, _validate_terms(terms), out).values.mean())


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


# -- portable dumps -------------------------------------------------------------

def dump_field(f: SpectralField, fileobj) -> None:
    """Write the portable text dump: a header line then one
    "h1 .. hn re im" line per full-layout coefficient above the drop
    threshold, in full-layout order, each part as ``'%.17g' %`` prints it.

    numpy formats the values and assembles the lines (`_dumptext`): each
    kept half-layout value's real part and imaginary magnitude once,
    exactly, from a double-double scaling checked against a rounding tie;
    values that check cannot settle, and non-finite ones, fall back to
    Python's own formatting.  A line's imaginary sign is that of the stored
    value, flipped on lines past the half, which hold its conjugate; a "-"
    before the magnitude's text is exact for every value, +-0 included."""
    from . import _dumptext  # on first use: runs that write no dump skip it

    grid = f.grid
    sizes = ",".join(str(s) for s in grid.sizes)
    fileobj.write(f"ipfc-field v1 n={len(grid.sizes)} sizes={sizes}\n")
    _dumptext.write_lines(fileobj, grid, f.half, np.abs(f.half) > DUMP_THRESHOLD)


def load_field(fileobj, grid: IndexGrid) -> SpectralField:
    """Read a portable dump back onto an existing grid (header must match).
    A mode listed twice takes its last value; the lines are folded by
    `field_from_listed`.  Holds the parsed table, which the positions and
    values view, beside the field; only when a mode repeats are the kept
    lines copied out of it."""
    pos, values = _read_dump(fileobj, grid)
    flat = np.ravel_multi_index(tuple(pos.T), grid.sizes)
    listed = np.zeros(grid.total, dtype=bool)
    listed[flat] = True
    if np.count_nonzero(listed) < len(flat):  # keep the last line of each mode
        _, last = np.unique(flat[::-1], return_index=True)
        last = len(flat) - 1 - last
        pos, values = pos[last], values[last]
    del flat, listed
    return field_from_listed(grid, pos, values)


def _read_dump(fileobj, grid: IndexGrid):
    """Mod-N positions (one row of n per line) and values of a dump's lines,
    in file order, after checking them: views of the one table that a
    single `np.loadtxt` pass over the stream parses, whose mode columns are
    reduced mod N in place.  Blank lines are skipped."""
    header = fileobj.readline().strip()
    parts = header.split()
    keys = [p.partition("=")[::2] for p in parts[2:]]
    if parts[:2] != ["ipfc-field", "v1"] or [k for k, _ in keys] != ["n", "sizes"]:
        raise ValueError(f"unrecognized field dump header: {header!r}")
    n = int(keys[0][1])
    sizes = tuple(int(s) for s in keys[1][1].split(","))
    if n != len(grid.sizes) or sizes != grid.sizes:
        raise ValueError(f"dump grid {sizes} does not match target grid {grid.sizes}")
    row = np.dtype([("h", np.int64, (n,)), ("v", np.float64, (2,))])
    start = fileobj.tell() if fileobj.seekable() else None
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            table = np.loadtxt(fileobj, dtype=row, comments=None, ndmin=1)
    except ValueError as exc:
        raise ValueError(f"malformed dump {_dump_line(fileobj, start, row)}") from exc
    h = table["h"]
    half = np.array(grid.sizes) // 2
    outside = np.argwhere((h < -half) | (h > half - 1))
    if len(outside):
        i, j = outside[0]
        raise ValueError(
            f"mode index {h[i, j]} outside -{half[j]} .. {half[j] - 1}"
            f" on dump {_dump_line(fileobj, start, row, i)}"
        )
    values = table["v"].view(np.complex128)[:, 0]
    bad = np.flatnonzero(~np.isfinite(values))
    if len(bad):
        raise ValueError(f"non-finite value on dump {_dump_line(fileobj, start, row, bad[0])}")
    h %= grid.sizes
    return h, values


def _dump_line(fileobj, start, row: np.dtype, index=None) -> str:
    """Name the body line of a dump that failed a check by its 1-based line
    number and text: the data line `index` (counted from 0, blank lines
    skipped) or, with no index, the first line that does not parse as `row`.
    Re-reads the stream from `start`, so only errors call it; a stream that
    cannot seek is named by its data line alone."""
    if start is not None:
        fileobj.seek(start)
        seen = -1
        for number, text in enumerate(fileobj, start=2):
            if not text.strip():
                continue
            seen += 1
            if seen == index or (index is None and not _parses(text, row)):
                return f"line {number}: {text.strip()!r}"
    return "line" if index is None else f"data line {index + 1} (blank lines not counted)"


def _parses(text: str, row: np.dtype) -> bool:
    try:
        np.loadtxt([text], dtype=row, comments=None, ndmin=1)
    except ValueError:
        return False
    return True

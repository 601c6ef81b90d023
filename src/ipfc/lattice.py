"""Index grids, projected wavevectors, and multi-scale operator symbols.

A d-dimensional quasiperiodic field is represented by Fourier coefficients on
an n-dimensional integer lattice (n >= d); mode h carries the physical
wavevector k_h = P @ B @ h.  With d = n and P = B = I this reduces to a plain
periodic spectral grid, so periodic and quasiperiodic structures share one
code path.

Grids and symbols hold only the half layout in which real fields are stored
(see `IndexGrid`); integer modes and wavevectors are computed for the
positions a caller reads.  Building a grid costs one small BLAS product per
slab of the first axis for |k|^2 (a few ms at 24^4) and a meet-in-the-middle
search of the difference lattice for the injectivity check (under 1 ms at
24^4); see `IndexGrid` and `_injectivity_violation`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._kernels import bohr_fourier_sum, mirrored

__all__ = [
    "ProjectionSpec",
    "IndexGrid",
    "OperatorSymbol",
    "build_grid",
    "build_symbol",
    "sample_real_space",
]

_DET_FLOOR = 1e-12
INJECTIVITY_TOL = 1e-10
# Bytes a raster chunk may hold at its peak, counted per term by
# `_raster_term_bytes`; the rasters of 24^4 dumps trace 1.03 (one chunk) to
# 1.07 (nine chunks) times one chunk's count.
RASTER_CHUNK_BYTES = 32 << 20
# Candidate pairs whose distance the injectivity search computes at once.
INJECTIVITY_CHUNK = 1 << 14


@dataclass(frozen=True, eq=False)
class ProjectionSpec:
    """Embedding of a d-dimensional structure into an n-dimensional lattice.

    P is the d x n projection matrix, B the invertible n x n matrix of the
    embedding lattice, and `projected_basis` the d x n matrix P @ B mapping
    integer modes to wavevectors.  Immutable and shareable.
    """

    d: int
    n: int
    P: np.ndarray
    B: np.ndarray
    projected_basis: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not (1 <= self.d <= self.n):
            raise ValueError(f"need 1 <= d <= n, got d={self.d}, n={self.n}")
        P = np.array(self.P, dtype=float)
        B = np.array(self.B, dtype=float)
        if P.shape != (self.d, self.n):
            raise ValueError(f"P must have shape ({self.d}, {self.n}), got {P.shape}")
        if B.shape != (self.n, self.n):
            raise ValueError(f"B must have shape ({self.n}, {self.n}), got {B.shape}")
        if abs(np.linalg.det(B)) <= _DET_FLOOR:
            raise ValueError("B is singular (|det B| below machine-zero threshold)")
        for name, value in (("P", P), ("B", B), ("projected_basis", P @ B)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    @classmethod
    def identity(cls, d: int) -> "ProjectionSpec":
        """Periodic crystal: d = n and P = B = I."""
        return cls(d=d, n=d, P=np.eye(d), B=np.eye(d))


@dataclass(eq=False)
class IndexGrid:
    """Truncated mode set with FFT-compatible ordering.

    Each axis j runs over h_j in -N_j/2 .. N_j/2 - 1, stored in FFT order
    (0 .. N_j/2 - 1, -N_j/2 .. -1).  The flat layout is row-major over the
    axes, so the zero mode h = 0 sits at flat index 0.  The extreme mode
    -N_j/2 has no positive partner and pairs with itself under negation
    mod N_j.

    Real fields are stored in the half layout of `numpy.fft.rfftn`: the last
    axis keeps its first N/2 + 1 positions, whose last one holds the mode
    -N/2.  Every other mode is the conjugate of its mirror -h (mod N), which
    the half holds.  The last-axis planes 0 and -N/2 pair with themselves.
    The grid stores only half-layout arrays (`ksq`, `live_mask`);
    `modes_at`, `modes` and `wavevectors` compute integer modes and
    wavevectors for the positions a caller asks for, and `unfold` expands
    half-layout values.

    The build takes |k|^2 one slab of the first axis at a time (a 1-d grid
    is one slab), by the BLAS product `wavevectors` uses, so the values are
    bitwise the same.  The slab's integer modes sit in one float matrix
    whose trailing columns are filled once; each slab overwrites only the
    first column.  Only positions on a -N_j/2 plane take their mirror's
    |k|^2 as well.  At 24^4 the build takes a few ms and holds 1.2 MiB
    beside its 1.5 MiB of tables.
    """

    spec: ProjectionSpec
    sizes: tuple
    half_sizes: tuple = field(init=False)
    total: int = field(init=False)
    ksq: np.ndarray = field(init=False)  # |k_h|^2 in the half layout
    live_mask: np.ndarray = field(init=False)  # modes whose mod-N mirror carries the same |k|^2
    all_live: bool = field(init=False)

    #: flat index of the zero mode, in either layout
    zero_index: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        self.half_sizes = self.sizes[:-1] + (self.sizes[-1] // 2 + 1,)
        self.total = int(np.prod(self.sizes))
        # Realness pairs mode h with -h mod N.  On the unmatched -N_j/2
        # planes the mod-N mirror is not the true mirror; when the projection
        # makes their |k|^2 differ, diagonal symbols would break conjugate
        # symmetry, so such modes carry no content.  Everywhere else the
        # mirror is exactly -h, and its wavevector exactly -k_h (rounding to
        # nearest is symmetric under negation), so the mode is live.  (Plain
        # periodic grids keep every mode.)
        n0, multi = self.sizes[0], len(self.sizes) > 1
        slabs = self.half_sizes[0] if multi else 1
        self.ksq = np.empty(self.half_sizes)
        self.live_mask = np.ones(self.half_sizes, dtype=bool)
        ksq, live = self.ksq.reshape(slabs, -1), self.live_mask.reshape(slabs, -1)
        pos = np.stack(np.unravel_index(np.arange(ksq.shape[1]), self.half_sizes), axis=-1)
        own = self.modes_at(pos).astype(float)  # slab 0's modes
        mirror = self.modes_at(-pos % self.sizes).astype(float)
        # rows on a -N_j/2 plane; a lone one is compared with its whole slab,
        # since numpy takes a one-row product by another BLAS routine
        edge = np.flatnonzero((pos == np.array(self.sizes) // 2).any(axis=1))
        edge = edge if len(edge) > 1 else slice(None)
        mirror_edge = mirror[edge]
        basis = self.spec.projected_basis.T
        kv, mirror_ksq = np.empty((len(pos), self.spec.d)), np.empty(len(pos))

        def ksq_of(modes, out):
            # rows summed column by column: the order in which numpy sums a
            # row of fewer than 8 terms, so bitwise (k ** 2).sum(axis=1)
            k = np.matmul(modes, basis, out=kv[: len(modes)])
            np.square(k, out=k)
            np.copyto(out, k[:, 0])
            for col in k.T[1:]:
                out += col
            return out

        def axis0_mode(i):
            return i if i < n0 // 2 else i - n0

        for i0 in range(slabs):
            # every row of the -N_0/2 slab is on a -N_j/2 plane
            rows, m = (slice(None), mirror) if multi and i0 == n0 // 2 else (edge, mirror_edge)
            if multi:
                own[:, 0], m[:, 0] = axis0_mode(i0), axis0_mode(-i0 % n0)
            ksq_of(own, ksq[i0])
            live[i0, rows] = ksq[i0, rows] == ksq_of(m, mirror_ksq[: len(m)])
        self.all_live = bool(self.live_mask.all())

    def modes_at(self, pos) -> np.ndarray:
        """Integer modes h at integer positions, one per row (the half
        layout's positions are full-layout ones)."""
        sizes = np.array(self.sizes)
        return np.where(pos < sizes // 2, pos, pos - sizes)  # FFT order

    def modes(self, flat) -> np.ndarray:
        """Integer modes h (one row per position) at full-layout flat
        positions."""
        return self.modes_at(np.stack(np.unravel_index(flat, self.sizes), axis=-1))

    def wavevectors(self, flat) -> np.ndarray:
        """Projected wavevectors k_h = P B h at full-layout flat positions."""
        return self.modes(flat) @ self.spec.projected_basis.T

    def flat_index(self, h) -> int:
        h = np.asarray(h, dtype=int)
        if h.shape != (len(self.sizes),):
            raise ValueError(f"multi-index must have length {len(self.sizes)}")
        pos = []
        for hj, nj in zip(h, self.sizes):
            if not (-nj // 2 <= hj <= nj // 2 - 1):
                raise ValueError(f"mode index {hj} outside -{nj // 2} .. {nj // 2 - 1}")
            pos.append(hj % nj)
        return int(np.ravel_multi_index(tuple(pos), self.sizes))

    def unfold(self, half: np.ndarray) -> np.ndarray:
        """Read-only full-layout copy of half-layout values: each mode past
        the half takes the conjugate of its mirror's value."""
        full = np.empty(self.sizes, dtype=half.dtype)
        h = self.half_sizes[-1]
        full[..., :h] = half
        # last-axis positions h .. N - 1 mirror to h - 2 .. 1
        full[..., h:] = np.conj(mirrored(half[..., h - 2 : 0 : -1], range(half.ndim - 1)))
        full.setflags(write=False)
        return full


@dataclass(eq=False)
class OperatorSymbol:
    """Diagonal symbol of the multi-length-scale operator and of its square,
    stored in the half layout (`grid.unfold` gives the full layout).

    g[h] = prod_j (q_j^2 - |k_h|^2) is real by construction; g2 = g**2.
    """

    grid: IndexGrid
    g_half: np.ndarray
    g2_half: np.ndarray


def _injectivity_violation(spec: ProjectionSpec, sizes, tol: float):
    """Search the difference lattice for a nonzero delta with P B delta ~ 0.

    Two modes h1, h2 collide iff their difference does, so searching deltas
    covers every pair without the quadratic pairwise sweep.  |P B delta| is
    even in delta, so the half delta_0 >= 0 suffices.

    The search meets in the middle.  delta splits into a leading group of
    axes (with axis 0) and a trailing one, of about equal delta counts, and
    P B delta = a + b with a and b the groups' projected vectors, so a
    collision needs b within tol of -a.  The trailing vectors are sorted
    along the coordinate in which they take the most distinct values; each
    -a finds its candidates there by `searchsorted`, and only candidates get
    the full distance.  Leading deltas and candidate pairs are taken
    INJECTIVITY_CHUNK at a time, so neither a long axis nor a projection
    that crowds every coordinate costs more than a few MiB; crowding costs
    time.  At 24^4 the groups hold 1,128 and 2,209 deltas, and the search
    takes under 1 ms and 0.2 MiB.
    """
    n = len(sizes)
    counts = [nj if j == 0 else 2 * nj - 1 for j, nj in enumerate(sizes)]
    split = min(range(1, n + 1), key=lambda s: abs(np.prod(counts[:s]) - np.prod(counts[s:])))
    lead_shape, trail_shape = counts[:split], counts[split:]
    lowest = np.array([0] + [1 - nj for nj in sizes[1:]], dtype=int)  # per axis
    mat = spec.projected_basis
    trail = np.indices(trail_shape).reshape(n - split, int(np.prod(trail_shape))).T
    trail += lowest[split:]
    b = trail @ mat[:, split:].T

    def lead_deltas(flat):
        return np.stack(np.unravel_index(flat, lead_shape), axis=-1) + lowest[:split]

    # flat indices of delta = 0 in each group
    zero_lead = int(np.ravel_multi_index(tuple(-lowest[:split]), lead_shape))
    zero_trail = int(np.flatnonzero(~trail.any(axis=1))[0])
    # |a + b| < tol puts b_c within tol of -a_c; the window's slack covers
    # the rounding of its ends
    reach = 2.0 * tol
    c = max(range(spec.d), key=lambda c: int((np.diff(np.sort(b[:, c])) > 2 * reach).sum()))
    order = np.argsort(b[:, c], kind="stable")
    bc = b[order, c]
    best, best_pair = np.inf, None
    n_lead = int(np.prod(lead_shape))
    for first in range(0, n_lead, INJECTIVITY_CHUNK):
        lead = np.arange(first, min(first + INJECTIVITY_CHUNK, n_lead))
        a = lead_deltas(lead) @ mat[:, :split].T
        lo = np.searchsorted(bc, -a[:, c] - reach, "left")
        hi = np.searchsorted(bc, -a[:, c] + reach, "right")
        ends = np.cumsum(hi - lo)  # candidates of the lead deltas, back to back
        for start in range(0, int(ends[-1]), INJECTIVITY_CHUNK):
            idx = np.arange(start, min(start + INJECTIVITY_CHUNK, int(ends[-1])))
            rows = np.searchsorted(ends, idx, "right")
            cols = order[hi[rows] - (ends[rows] - idx)]
            diff = a[rows] + b[cols]
            dist_sq = (diff * diff).sum(axis=1)
            dist_sq[(lead[rows] == zero_lead) & (cols == zero_trail)] = np.inf
            k = int(np.argmin(dist_sq))
            if dist_sq[k] < best:
                best, best_pair = float(dist_sq[k]), (lead[rows[k]], cols[k])
    if best >= tol * tol:
        return None
    delta = np.concatenate([lead_deltas(best_pair[0]), trail[best_pair[1]]])
    h2 = np.array(
        [-nj // 2 if dj >= 0 else nj // 2 - 1 for dj, nj in zip(delta, sizes)], dtype=int
    )
    h1 = h2 + delta
    return h1, h2, float(np.sqrt(best))


def build_grid(spec: ProjectionSpec, sizes) -> IndexGrid:
    """Build the truncated index grid and validate the projection on it.

    Rejects odd axis sizes and projection specs under which two distinct
    retained modes project to within INJECTIVITY_TOL of the same wavevector,
    which would silently alias them.
    """
    sizes = tuple(int(s) for s in np.atleast_1d(sizes))
    if len(sizes) != spec.n:
        raise ValueError(f"need {spec.n} axis sizes, got {len(sizes)}")
    for s in sizes:
        if s < 2 or s % 2 != 0:
            raise ValueError(f"axis sizes must be even and >= 2, got {s}")

    hit = _injectivity_violation(spec, sizes, INJECTIVITY_TOL)
    if hit is not None:
        h1, h2, dist = hit
        raise ValueError(
            "projection is not injective on the grid: modes "
            f"{tuple(h1)} and {tuple(h2)} project {dist:.3e} apart"
        )

    return IndexGrid(spec=spec, sizes=sizes)


def length_scales(q) -> tuple:
    """q as a tuple of floats, after checking it holds at least one length
    scale and that all are positive."""
    q = tuple(float(v) for v in np.atleast_1d(q))
    if not q:
        raise ValueError("need at least one length scale")
    if any(v <= 0 for v in q):
        raise ValueError("length scales must be positive")
    return q


def build_symbol(spec: ProjectionSpec, grid: IndexGrid, q) -> OperatorSymbol:
    """Per-mode values of prod_j (q_j^2 - |k_h|^2) and its square, in the
    half layout."""
    q = length_scales(q)
    g = np.ones_like(grid.ksq)
    for qj in q:
        g = g * (qj * qj - grid.ksq)
    return OperatorSymbol(grid=grid, g_half=g, g2_half=g * g)


def raster_axes(d: int, window, resolution):
    """The d (lo, hi) window pairs and d point counts of a raster over a
    d-dimensional projection, after checking their number and the counts."""
    window = np.ravel(np.asarray(window, dtype=float))
    resolution = tuple(int(r) for r in np.atleast_1d(resolution))
    if window.size != 2 * d or len(resolution) != d:
        raise ValueError(f"window needs {2 * d} numbers and resolution {d}")
    if any(r < 1 for r in resolution):
        raise ValueError("resolution entries must be >= 1")
    return [(float(lo), float(hi)) for lo, hi in window.reshape(d, 2)], resolution


def kept_half_modes(fld, floor: float, magnitude=None):
    """The field's half-layout coefficients with |c| > floor: their
    positions (one row each), integer modes and values, and which of them
    sit on an interior last-axis column, whose mirror the half leaves out.
    `magnitude` is |c| of the half layout, for a caller that has it."""
    grid = fld.grid
    flat = fld.half.ravel()
    if magnitude is None:
        magnitude = np.abs(flat)
    keep = np.flatnonzero(magnitude.ravel() > floor)
    pos = np.stack(np.unravel_index(keep, grid.half_sizes), axis=-1)
    interior = (pos[:, -1] > 0) & (pos[:, -1] < grid.half_sizes[-1] - 1)
    return pos, grid.modes_at(pos), flat[keep], interior


def _raster_terms(fld, floor: float, magnitude=None):
    """Coefficients and projected wavevectors of the raster's terms, one
    per conjugate pair of the modes with |c| > floor (see
    `sample_real_space`); the tables they are built from are dropped.
    `magnitude` as in `kept_half_modes`."""
    grid = fld.grid
    pos, modes, coeffs, interior = kept_half_modes(fld, floor, magnitude)
    inexact = interior & (pos[:, :-1] == np.array(grid.sizes[:-1]) // 2).any(axis=1)
    doubled = np.where(interior & ~inexact, 2.0 * coeffs, coeffs)
    coeffs = np.concatenate([doubled, np.conj(coeffs[inexact])])
    modes = np.concatenate([modes, grid.modes_at(-pos[inexact] % grid.sizes)])
    return coeffs, modes @ grid.spec.projected_basis.T


def _raster_term_bytes(resolution) -> int:
    """Bytes `sample_real_space` holds per term of a chunk at its peak: the
    folded row, the kernel's phases and one trig table, 16 x (lead + last)
    for lead = N_0 ... N_{d-2} pixels and last = N_{d-1}; or, while axis 0
    is folded, its float phases and the complex factor that takes the
    product, 24 N_0; or, while axis j > 0 is folded, the rows folded so far,
    the factor and their product."""
    lead = int(np.prod(resolution[:-1]))
    held, done = 16 * (lead + resolution[-1]), 1
    for j, n in enumerate(resolution[:-1]):
        held = max(held, 24 * n if j == 0 else 16 * (done + n + done * n))
        done *= n
    return held


def _chunk_raster(coeffs, k, axes) -> np.ndarray:
    """One chunk's share of the raster, as a last axis x lead pixels array.
    The lead axes are folded into the coefficients, C[h, (i_0 .. i_{d-2})]
    = c_h prod_{j<d-1} exp(i k_hj x_j) in row-major order: each factor is
    formed and exponentiated in one array, and the first product, whose
    rows have the factor's shape, is written into it.  The kernel then sums
    the last axis."""
    folded = coeffs[:, None]
    for j, x in enumerate(axes[:-1]):
        factor = np.multiply(1j, np.outer(k[:, j], x), out=np.empty((len(k), len(x)), complex))
        np.exp(factor, out=factor)
        into = factor[:, None, :] if folded.shape[1] == 1 else None
        folded = np.multiply(folded[:, :, None], factor[:, None, :], out=into).reshape(len(k), -1)
    return bohr_fourier_sum(k[:, -1:], folded.real, folded.imag, axes[-1][:, None])


def sample_real_space(fld, window, resolution, amplitude_floor: float = 0.0) -> np.ndarray:
    """Evaluate the field on a raster in physical space, over the projection
    of its grid, by a separable Bohr-Fourier sum.

    The projected wavevectors are incommensurate with any d-dimensional
    lattice, so an inverse FFT is not applicable; the raster is filled with
    Re sum_h c_h exp(i k_h . r) over modes with |c_h| > amplitude_floor.
    The sum runs over the conjugate pairs of the half layout: an interior
    mode whose mirror is exactly -h is one term 2 c_h at k_h, which has the
    pair's real part; one with a lead-axis component -N/2, whose mod-N
    mirror is not -h, also keeps conj(c_h) at the mirror's wavevector; the
    self-paired last-axis planes are summed as they are.

    On the rectangular raster exp(i k_h . r) = prod_j exp(i k_hj x_j), so
    every axis but the last is folded into the coefficients and one kernel
    call per chunk of terms sums the last axis: trig work is terms x (sum
    of the axis lengths), not terms x pixels.  Terms are taken in chunks of
    at most RASTER_CHUNK_BYTES, counted by `_raster_term_bytes`: a chunk
    holds its folded rows and the kernel's phases and one trig table, or
    the arrays of one fold.  Beside it the raster keeps only its terms'
    coefficients and wavevectors, so its traced peak is 1.03 to 1.07 times
    one chunk's count on the rasters of 24^4 dumps.  Pure in its inputs;
    raster[i0, i1, ...] samples axis j at the inclusive linspace of
    window[j].
    """
    if amplitude_floor < 0:
        raise ValueError("amplitude_floor must be >= 0")
    coeffs, kv = _raster_terms(fld, amplitude_floor)
    return raster_of_terms(coeffs, kv, fld.grid.spec.d, window, resolution)


def raster_of_terms(coeffs, kv, d: int, window, resolution) -> np.ndarray:
    """The raster of `sample_real_space` from its terms (`_raster_terms`)
    alone: a caller that takes the terms itself can free the field before
    the first chunk."""
    window, resolution = raster_axes(d, window, resolution)
    if not len(coeffs):
        return np.zeros(resolution)
    axes = [np.linspace(lo, hi, r) for (lo, hi), r in zip(window, resolution)]
    chunk = max(1, RASTER_CHUNK_BYTES // _raster_term_bytes(resolution))
    out = np.zeros((resolution[-1], int(np.prod(resolution[:-1]))))
    for start in range(0, len(coeffs), chunk):
        out += _chunk_raster(coeffs[start : start + chunk], kv[start : start + chunk], axes)
    return out.T.reshape(resolution)

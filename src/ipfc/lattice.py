"""Index grids, projected wavevectors, and multi-scale operator symbols.

A d-dimensional quasiperiodic field is represented by Fourier coefficients on
an n-dimensional integer lattice (n >= d); mode h carries the physical
wavevector k_h = P @ B @ h.  With d = n and P = B = I this reduces to a plain
periodic spectral grid, so periodic and quasiperiodic structures share one
code path.

Grids and symbols hold only the half layout in which real fields are stored
(see `IndexGrid`); integer modes and wavevectors are computed for the
positions a caller reads.
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
# Bytes of folded coefficients and last-axis phases per chunk of raster modes.
RASTER_CHUNK_BYTES = 32 << 20


@dataclass(frozen=True, eq=False)
class ProjectionSpec:
    """Embedding of a d-dimensional structure into an n-dimensional lattice.

    P is the d x n projection matrix, B the invertible n x n matrix of the
    embedding lattice.  Immutable and shareable.
    """

    d: int
    n: int
    P: np.ndarray
    B: np.ndarray

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
        P.setflags(write=False)
        B.setflags(write=False)
        object.__setattr__(self, "P", P)
        object.__setattr__(self, "B", B)

    @property
    def projected_basis(self) -> np.ndarray:
        """The d x n matrix P @ B mapping integer modes to wavevectors."""
        return self.P @ self.B

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
        # symmetry, so such modes carry no content.  (Interior modes negate
        # exactly; plain periodic grids keep every mode.)  Built one slab of
        # the first axis (the half axis of a 1-d grid) at a time, so that
        # only one slab's wavevectors exist at once.
        rest = self.half_sizes[1:]
        slab = np.indices(rest).reshape(len(rest), -1 if rest else 1).T
        basis = self.spec.projected_basis.T

        def ksq_at(pos):
            return ((self.modes_at(pos) @ basis) ** 2).sum(axis=1).reshape(rest)

        self.ksq = np.empty(self.half_sizes)
        self.live_mask = np.empty(self.half_sizes, dtype=bool)
        for i0 in range(self.half_sizes[0]):
            pos = np.column_stack([np.full(len(slab), i0), slab])
            self.ksq[i0] = ksq_at(pos)
            self.live_mask[i0] = self.ksq[i0] == ksq_at(-pos % self.sizes)
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
    q: tuple
    g_half: np.ndarray
    g2_half: np.ndarray


def _injectivity_violation(spec: ProjectionSpec, sizes, tol: float):
    """Search the difference lattice for a nonzero delta with P B delta ~ 0.

    Two modes h1, h2 collide iff their difference does, so scanning deltas
    covers every pair without the quadratic pairwise sweep.  |P B delta| is
    even in delta, so the half delta_0 >= 0 suffices; it is scanned one
    delta_0 slab at a time, which bounds memory by one slab.
    """
    mat = spec.projected_basis
    axes = [np.arange(-(nj - 1), nj) for nj in sizes[1:]]
    shape = tuple(len(a) for a in axes)
    # Each row of P B applied to the trailing components of every delta.
    rest = []
    for row in mat:
        comp = np.zeros(shape)
        for j, ax in enumerate(axes):
            view = [1] * len(shape)
            view[j] = -1
            comp = comp + row[j + 1] * ax.reshape(view)
        rest.append(comp)
    center = tuple(nj - 1 for nj in sizes[1:])
    best, best_delta = np.inf, None
    for d0 in range(sizes[0]):
        dist_sq = np.zeros(shape)
        for row, comp in zip(mat, rest):
            c = comp + d0 * row[0]
            dist_sq += c * c
        if d0 == 0:
            dist_sq[center] = np.inf  # delta = 0
        k = int(np.argmin(dist_sq))
        if dist_sq.flat[k] < best:
            best = float(dist_sq.flat[k])
            best_delta = (d0,) + tuple(int(p) - c for p, c in zip(np.unravel_index(k, shape), center))
    if best >= tol * tol:
        return None
    delta = np.array(best_delta, dtype=int)
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
    return OperatorSymbol(grid=grid, q=q, g_half=g, g2_half=g * g)


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


def kept_half_modes(fld, floor: float):
    """The field's half-layout coefficients with |c| > floor: their
    positions (one row each), integer modes and values, and which of them
    sit on an interior last-axis column, whose mirror the half leaves out."""
    grid = fld.grid
    flat = fld.half.ravel()
    keep = np.flatnonzero(np.abs(flat) > floor)
    pos = np.stack(np.unravel_index(keep, grid.half_sizes), axis=-1)
    interior = (pos[:, -1] > 0) & (pos[:, -1] < grid.half_sizes[-1] - 1)
    return pos, grid.modes_at(pos), flat[keep], interior


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
    at most RASTER_CHUNK_BYTES of folded coefficients and phases.  Pure in
    its inputs; raster[i0, i1, ...] samples axis j at the inclusive
    linspace of window[j].
    """
    grid = fld.grid
    if amplitude_floor < 0:
        raise ValueError("amplitude_floor must be >= 0")
    window, resolution = raster_axes(grid.spec.d, window, resolution)

    pos, modes, coeffs, interior = kept_half_modes(fld, amplitude_floor)
    if not len(coeffs):
        return np.zeros(resolution)
    inexact = interior & (pos[:, :-1] == np.array(grid.sizes[:-1]) // 2).any(axis=1)
    doubled = np.where(interior & ~inexact, 2.0 * coeffs, coeffs)
    coeffs = np.concatenate([doubled, np.conj(coeffs[inexact])])
    modes = np.concatenate([modes, grid.modes_at(-pos[inexact] % grid.sizes)])
    kv = modes @ grid.spec.projected_basis.T

    axes = [np.linspace(lo, hi, r) for (lo, hi), r in zip(window, resolution)]
    lead = int(np.prod(resolution[:-1]))
    chunk = max(1, RASTER_CHUNK_BYTES // (16 * (lead + resolution[-1])))
    out = np.zeros((resolution[-1], lead))
    for start in range(0, len(coeffs), chunk):
        k = kv[start : start + chunk]
        # C[h, (i_0 .. i_{d-2})] = c_h prod_{j<d-1} exp(i k_hj x_j), row-major
        folded = coeffs[start : start + chunk, None]
        for j, x in enumerate(axes[:-1]):
            factor = np.exp(1j * np.outer(k[:, j], x))
            folded = (folded[:, :, None] * factor[:, None, :]).reshape(len(k), -1)
        out += bohr_fourier_sum(k[:, -1:], folded.real, folded.imag, axes[-1][:, None])
    return out.T.reshape(resolution)

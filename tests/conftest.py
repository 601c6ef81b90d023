import numpy as np
import pytest

from ipfc import (
    ModelParams,
    ProjectionSpec,
    build_grid,
    build_symbol,
    field_from_coeffs,
    project_mean,
)
from ipfc.harness import dodecagonal_projection

Q_BENCH = (np.sqrt(2.0), np.sqrt(3.0))


def params_bench(c1: float = 100.0) -> ModelParams:
    """1-d two-scale benchmark parameters."""
    return ModelParams(q=Q_BENCH, eps=10.0, alpha=4.0, c1=c1)


def grid_1d(n: int = 16, b: float = 1.0):
    spec = ProjectionSpec(d=1, n=1, P=np.array([[1.0]]), B=np.array([[b]]))
    return spec, build_grid(spec, (n,))


def _pair_field(grid, value):
    """Field with `value` at the first axis's mode 1 and its conjugate at -1."""
    c = np.zeros(grid.sizes, dtype=complex)
    e1 = [1] + [0] * (len(grid.sizes) - 1)
    c.ravel()[grid.flat_index(e1)] = value
    c.ravel()[grid.flat_index([-v for v in e1])] = np.conj(value)
    return field_from_coeffs(grid, c)


def sine_field(grid, amplitude: float = 1.0):
    """Single conjugate pair along the first axis: amplitude * sin(k_1 . x)."""
    return _pair_field(grid, -0.5j * amplitude)


def cosine_field(grid, amplitude: float = 1.0):
    return _pair_field(grid, 0.5 * amplitude)


def random_field(grid, rng, scale=0.1, zero_mean=True, zero_extreme=False):
    """Random conjugate-symmetric field, optionally mean-free and with the
    unpaired extreme planes cleared."""
    c = scale * (rng.standard_normal(grid.sizes) + 1j * rng.standard_normal(grid.sizes))
    f = field_from_coeffs(grid, c)
    if zero_extreme:
        c = f.coeffs.copy()
        for ax, nj in enumerate(grid.sizes):
            sl = [slice(None)] * len(grid.sizes)
            sl[ax] = nj // 2
            c[tuple(sl)] = 0.0
        f = field_from_coeffs(grid, c)
    if zero_mean:
        f = project_mean(f)
    return f


def raster_terms(fld, floor):
    """Terms of the raster's pair-wise sum: one per half-layout coefficient
    with |c| > floor, plus one per interior-column mode among them whose
    mod-N mirror is not -h (its mirror keeps its own term)."""
    grid = fld.grid
    pos = np.argwhere(np.abs(fld.half) > floor)
    h, mirror = grid.modes_at(pos), grid.modes_at(-pos % grid.sizes)
    interior = (pos[:, -1] > 0) & (pos[:, -1] < grid.half_sizes[-1] - 1)
    return len(pos) + int((interior & (mirror != -h).any(axis=1)).sum())


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def bench_1d():
    """Shared 1-d benchmark setup (spec, grid, symbol, params)."""
    spec, grid = grid_1d(32)
    symbol = build_symbol(spec, grid, Q_BENCH)
    return spec, grid, symbol, params_bench()


@pytest.fixture(scope="session")
def dodecagonal_small():
    """Small 4-d dodecagonal grid shared across tests."""
    spec = ProjectionSpec(d=2, n=4, P=dodecagonal_projection(), B=np.eye(4))
    grid = build_grid(spec, (8, 8, 8, 8))
    return spec, grid

import io
import os
import tracemalloc
import warnings

import numpy as np
import pytest

from ipfc import (
    GridMismatchError,
    ProjectionSpec,
    SpectralField,
    apply_symbol,
    build_grid,
    build_symbol,
    dump_field,
    enforce_hermitian,
    field_from_coeffs,
    hermitian_violation,
    inner_ap,
    load_field,
    norm_ap,
    pointwise_poly,
    project_mean,
    to_physical,
    to_spectral,
    zeros_field,
)
from ipfc._kernels import mirrored
from ipfc.harness import dodecagonal_projection

from conftest import cosine_field, grid_1d, random_field


def brute_convolution_power(grid, coeffs, power):
    """Exact truncated convolution of `power` copies of the coefficients,
    by direct summation over index tuples (the dealiasing oracle).

    The result is expressed in the real-field truncation: the unpaired
    extreme planes keep only their self-conjugate part, matching how the
    retained mode set represents a real product.
    """
    flat = coeffs.ravel()
    out = np.zeros_like(flat)
    idx = grid.modes(np.arange(grid.total))

    def in_range(h):
        return all(-nj // 2 <= hj <= nj // 2 - 1 for hj, nj in zip(h, grid.sizes))

    from itertools import product

    nz = [i for i in range(grid.total) if abs(flat[i]) > 0]
    for combo in product(nz, repeat=power):
        h = sum(idx[i] for i in combo)
        if in_range(h):
            val = np.prod([flat[i] for i in combo])
            out[grid.flat_index(h)] += val
    out = out.reshape(grid.sizes)
    return 0.5 * (out + np.conj(mirrored(out)))


# -- transforms ---------------------------------------------------------------


def test_delta_transforms_to_constant():
    spec, grid = grid_1d(8)
    f = zeros_field(grid)
    f.half.ravel()[grid.zero_index] = 1.0
    p = to_physical(f)
    np.testing.assert_allclose(p.values, np.ones(8), atol=1e-15)


def test_round_trip(rng):
    spec, grid = grid_1d(16)
    f = random_field(grid, rng, zero_mean=False)
    back = to_spectral(to_physical(f))
    np.testing.assert_allclose(back.coeffs, f.coeffs, rtol=1e-13, atol=1e-16)


def test_cosine_collocation_values():
    spec, grid = grid_1d(8)
    f = cosine_field(grid)
    xs = 2 * np.pi * np.arange(8) / 8
    np.testing.assert_allclose(to_physical(f).values, np.cos(xs), atol=1e-15)


def test_field_from_coeffs_folds_unpaired_mode():
    # a mode without its conjugate partner is split with it: 1 at h = 1
    # becomes cos(x)
    spec, grid = grid_1d(8)
    c = np.zeros(8, dtype=complex)
    c[grid.flat_index([1])] = 1.0
    f = field_from_coeffs(grid, c)
    assert f.coeffs[grid.flat_index([1])] == f.coeffs[grid.flat_index([-1])] == 0.5
    xs = 2 * np.pi * np.arange(8) / 8
    np.testing.assert_allclose(to_physical(f).values, np.cos(xs), atol=1e-15)


# -- inner product -------------------------------------------------------------


def test_inner_cosine_half():
    spec, grid = grid_1d(8)
    f = cosine_field(grid)
    assert inner_ap(f, f) == pytest.approx(0.5)


def test_inner_zero():
    spec, grid = grid_1d(8)
    f = cosine_field(grid)
    assert inner_ap(zeros_field(grid), f) == 0.0


def test_inner_matches_collocation_mean(rng):
    # Parseval oracle: coefficient sum against the collocation average
    spec, grid = grid_1d(16)
    f = random_field(grid, rng, zero_mean=False)
    vals = to_physical(f).values
    collocation = float(np.mean(vals * vals))
    assert inner_ap(f, f) == pytest.approx(collocation, rel=1e-12)


def test_inner_positive_definite(rng):
    spec, grid = grid_1d(16)
    f = random_field(grid, rng)
    assert inner_ap(f, f) > 0
    assert inner_ap(zeros_field(grid), zeros_field(grid)) == 0.0


def test_inner_grid_mismatch():
    _, g1 = grid_1d(8)
    _, g2 = grid_1d(16)
    with pytest.raises(GridMismatchError):
        inner_ap(zeros_field(g1), zeros_field(g2))


# -- linear combinations ---------------------------------------------------------


def test_lincomb_identities(rng):
    spec, grid = grid_1d(16)
    f = random_field(grid, rng)
    g = random_field(grid, rng)
    np.testing.assert_array_equal((1.0 * f + 0.0 * g).coeffs, f.coeffs)
    assert norm_ap(f + (-1.0) * f) == 0.0
    # componentwise oracle
    expected = (3.0 * f.coeffs - g.coeffs) / 2.0
    np.testing.assert_allclose(((3.0 * f - g) / 2.0).coeffs, expected, rtol=1e-15)


def test_hermitian_enforcement(rng):
    # raw half-layout storage: the self-paired planes start asymmetric
    grid = build_grid(ProjectionSpec.identity(2), (6, 8))
    shape = grid.half_sizes
    f = SpectralField(grid, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    assert hermitian_violation(f) > 0.1
    h = enforce_hermitian(f)
    assert hermitian_violation(h) <= 1e-15
    # projection is idempotent
    np.testing.assert_array_equal(enforce_hermitian(h).coeffs, h.coeffs)


def test_project_mean():
    spec, grid = grid_1d(8)
    f = zeros_field(grid)
    f.half.ravel()[grid.zero_index] = 3.0
    assert project_mean(f).coeffs.ravel()[grid.zero_index] == 0.0


# -- pseudospectral products ------------------------------------------------------


def test_square_of_cosine_dealiased():
    spec, grid = grid_1d(8)
    f = cosine_field(grid)
    sq = pointwise_poly(f, [(2, 1.0)], dealias=True)
    flat = sq.coeffs.ravel()
    assert flat[grid.zero_index] == pytest.approx(0.5)
    assert flat[grid.flat_index([2])] == pytest.approx(0.25)
    assert flat[grid.flat_index([-2])] == pytest.approx(0.25)
    others = [i for i in range(8) if i not in (grid.zero_index, grid.flat_index([2]), grid.flat_index([-2]))]
    assert np.abs(flat[others]).max() < 1e-15


def test_linear_term_exact(rng):
    spec, grid = grid_1d(16)
    f = random_field(grid, rng)
    out = pointwise_poly(f, [(1, -2.5)])
    np.testing.assert_allclose(out.coeffs, -2.5 * f.coeffs, rtol=1e-13, atol=1e-16)


def test_cubic_dealiased_matches_brute_force(rng):
    spec, grid = grid_1d(8)
    f = random_field(grid, rng, scale=0.5, zero_mean=False, zero_extreme=True)
    got = pointwise_poly(f, [(3, 1.0)], dealias=True)
    want = brute_convolution_power(grid, f.coeffs, 3)
    assert np.abs(got.coeffs - want).max() < 1e-12


def test_cubic_dealiased_matches_brute_force_2d(rng):
    spec = ProjectionSpec.identity(2)
    grid = build_grid(spec, (6, 6))
    f = random_field(grid, rng, scale=0.5, zero_mean=False, zero_extreme=True)
    got = pointwise_poly(f, [(3, 1.0)], dealias=True)
    want = brute_convolution_power(grid, f.coeffs, 3)
    assert np.abs(got.coeffs - want).max() < 1e-12


def test_poly_rejects_bad_exponent():
    spec, grid = grid_1d(8)
    with pytest.raises(ValueError):
        pointwise_poly(zeros_field(grid), [(5, 1.0)])


# -- diagonal operators -------------------------------------------------------------


def test_apply_symbol_root_mode():
    spec, grid = grid_1d(8, b=np.sqrt(2.0))
    sym = build_symbol(spec, grid, (np.sqrt(2.0), np.sqrt(3.0)))
    f = cosine_field(grid)
    out = apply_symbol(f, sym, power=1)
    assert norm_ap(out) < 1e-14


def test_apply_symbol_power_two():
    spec, grid = grid_1d(8)
    sym = build_symbol(spec, grid, (np.sqrt(2.0), np.sqrt(3.0)))
    f = cosine_field(grid)
    out = apply_symbol(f, sym, power=2)
    # g = 2 at |h| = 1, so g^2 = 4
    np.testing.assert_allclose(out.coeffs, 4.0 * f.coeffs, rtol=1e-15)


def test_symbol_self_adjoint(rng):
    spec, grid = grid_1d(16)
    sym = build_symbol(spec, grid, (np.sqrt(2.0), np.sqrt(3.0)))
    f = random_field(grid, rng)
    g = random_field(grid, rng)
    lhs = inner_ap(apply_symbol(f, sym), g)
    rhs = inner_ap(f, apply_symbol(g, sym))
    assert lhs == pytest.approx(rhs, rel=1e-12)


# -- dumps -----------------------------------------------------------------------


def test_dump_round_trip_bit_exact(rng, dodecagonal_small):
    cases = [
        (grid_1d(16)[1], "ipfc-field v1 n=1 sizes=16\n"),
        (dodecagonal_small[1], "ipfc-field v1 n=4 sizes=8,8,8,8\n"),
    ]
    for grid, header in cases:
        f = random_field(grid, rng, zero_mean=False)
        buf = io.StringIO()
        dump_field(f, buf)
        text = buf.getvalue()
        assert text.startswith(header)
        assert len(text.splitlines()) == 1 + np.count_nonzero(f.coeffs)

        loaded = load_field(io.StringIO(text), grid)
        buf2 = io.StringIO()
        dump_field(loaded, buf2)
        assert buf2.getvalue() == text
        np.testing.assert_array_equal(loaded.coeffs, f.coeffs)


def test_dump_field_peak_memory_is_bounded():
    # a 24^4 dump of 55,000 lines, as cn_ddqc24 writes: each kept value's
    # text is one 44-byte row, and the per-line tables and the lines'
    # records are built one chunk of lines at a time.  Measured: 6.01 MiB
    # with the formatter's first import inside the call, 5.90 MiB without;
    # 7.81 MiB when the texts were Python strings, 11.3 MiB when the line
    # tables were built for every line at once.
    spec = ProjectionSpec(d=2, n=4, P=dodecagonal_projection(), B=np.eye(4))
    grid = build_grid(spec, (24, 24, 24, 24))
    rng = np.random.default_rng(0)
    c = rng.standard_normal(grid.sizes) + 1j * rng.standard_normal(grid.sizes)
    c *= rng.random(grid.sizes) < 0.1
    f = field_from_coeffs(grid, c)
    del c
    with open(os.devnull, "w", encoding="utf-8") as fh:
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            dump_field(f, fh)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
    assert peak <= 25 << 18


def test_dump_drops_tiny_coefficients():
    spec, grid = grid_1d(8)
    c = cosine_field(grid).coeffs.copy()
    c[grid.flat_index([3])] = 1e-16
    c[grid.flat_index([-3])] = 1e-16
    f = field_from_coeffs(grid, c)
    buf = io.StringIO()
    dump_field(f, buf)
    assert len(buf.getvalue().strip().splitlines()) == 3  # header + the pair


def test_load_rejects_wrong_grid():
    spec, grid = grid_1d(8)
    _, other = grid_1d(16)
    buf = io.StringIO()
    dump_field(cosine_field(grid), buf)
    with pytest.raises(ValueError):
        load_field(io.StringIO(buf.getvalue()), other)


@pytest.mark.parametrize(
    "line",
    [
        "1 0.5",
        "1 0 0.5 0.0",
        "0 1 1 1\n1 1 1 1\n2 1 1 1",
        "4 0.5 0.0",
        "-5 0.5 0.0",
        "1.0 0.5 0.0",
        "x 0.5 0.0",
        "9" * 20 + " 0.5 0.0",
        "1 nan 0.0\n-1 nan 0.0",
        "1 0.5 inf\n-1 0.5 -inf",
        "1 1e400 0.0",
        "# a comment",
        "1 0.5 0.0\n# 1 0.5 0.0",
    ],
    ids=[
        "too-few-tokens",
        "too-many-tokens",
        "too-many-tokens-on-every-line",
        "index-above",
        "index-below",
        "float-index",
        "word-index",
        "index-beyond-int64",
        "nan-value",
        "inf-value",
        "overflowing-value",
        "comment-line",
        "commented-out-line",
    ],
)
def test_load_rejects_malformed_line(line):
    spec, grid = grid_1d(8)
    text = "ipfc-field v1 n=1 sizes=8\n" + line + "\n"
    with pytest.raises(ValueError):
        load_field(io.StringIO(text), grid)


@pytest.mark.parametrize("body", ["", "\n", "\n  \n"], ids=["no-body", "blank-line", "blank-lines"])
def test_load_header_only_dump_is_the_zero_field(body):
    spec, grid = grid_1d(8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        loaded = load_field(io.StringIO("ipfc-field v1 n=1 sizes=8\n" + body), grid)
    assert loaded.half.tobytes() == zeros_field(grid).half.tobytes()


@pytest.mark.parametrize(
    "body",
    ["2\t0.25\t0.5\n-2\t0.25\t-0.5\n", "2 0.25 0.5\r\n-2 0.25 -0.5\r\n", " 2  0.25 0.5 \n\n-2 0.25\t-0.5"],
    ids=["tabs", "crlf", "mixed-blanks"],
)
def test_load_accepts_any_blank_separation(body):
    spec, grid = grid_1d(8)
    header = "ipfc-field v1 n=1 sizes=8\n"
    loaded = load_field(io.StringIO(header + body), grid)
    plain = load_field(io.StringIO(header + "2 0.25 0.5\n-2 0.25 -0.5\n"), grid)
    assert loaded.half.tobytes() == plain.half.tobytes()
    assert loaded.coeffs[grid.flat_index([2])] == 0.25 + 0.5j


@pytest.mark.parametrize(
    "body, message",
    [
        ("1 0.5 0.0\n\n-1 0.5\n", "malformed dump line 4: '-1 0.5'"),
        ("1 0.5 0.0\n1.0 0.5 0.0\n", "malformed dump line 3: '1.0 0.5 0.0'"),
        ("1 0.5 0.0\n4 0.5 0.0\n", "mode index 4 outside -4 .. 3 on dump line 3: '4 0.5 0.0'"),
        ("\n\n1 inf 0.0\n", "non-finite value on dump line 4: '1 inf 0.0'"),
    ],
    ids=["malformed", "float-index", "out-of-range", "non-finite"],
)
def test_load_errors_name_the_line_number(body, message):
    spec, grid = grid_1d(8)
    with pytest.raises(ValueError) as err:
        load_field(io.StringIO("ipfc-field v1 n=1 sizes=8\n" + body), grid)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "header",
    [
        "ipfc-field v1 1 8",
        "ipfc-field v1 n=1 8",
        "ipfc-field v1 m=1 sizes=8",
        "ipfc-field v1 sizes=8 n=1",
        "ipfc-field v1 n=1",
        "ipfc-field v2 n=1 sizes=8",
        "",
    ],
    ids=["no-keys", "no-sizes-key", "wrong-key", "swapped-keys", "missing-sizes", "version", "empty"],
)
def test_load_rejects_malformed_header(header):
    spec, grid = grid_1d(8)
    with pytest.raises(ValueError, match="unrecognized field dump header"):
        load_field(io.StringIO(header + "\n1 0.5 0.0\n-1 0.5 0.0\n"), grid)


def test_load_errors_on_a_stream_that_cannot_seek_name_the_data_line():
    class Unseekable(io.StringIO):
        def seekable(self):
            return False

    spec, grid = grid_1d(8)
    text = "ipfc-field v1 n=1 sizes=8\n1 0.5 0.0\n\n-1 nan 0.0\n"
    with pytest.raises(ValueError) as err:
        load_field(Unseekable(text), grid)
    assert str(err.value) == "non-finite value on dump data line 2 (blank lines not counted)"


def test_load_names_the_non_finite_line():
    spec, grid = grid_1d(8)
    text = "ipfc-field v1 n=1 sizes=8\n1 0.5 0.0\n-1 0.5 nan\n"
    with pytest.raises(ValueError, match="'-1 0.5 nan'"):
        load_field(io.StringIO(text), grid)


def test_load_duplicate_line_last_wins():
    spec, grid = grid_1d(8)
    text = "ipfc-field v1 n=1 sizes=8\n2 1.0 0.0\n-2 1.0 0.0\n2 0.25 0.5\n-2 0.25 -0.5\n"
    loaded = load_field(io.StringIO(text), grid)
    assert loaded.coeffs[grid.flat_index([2])] == 0.25 + 0.5j
    assert loaded.coeffs[grid.flat_index([-2])] == 0.25 - 0.5j

"""The dump's value formatter: numpy's text of each value is Python's
``'%.17g' % x``, on random values, on the values where its exponent, its
rounding or its layout changes, and where it falls back to Python."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ipfc._dumptext as dumptext


def texts(x):
    return [bytes(row).replace(b"\0", b"").decode("ascii") for row in dumptext.g17(x)]


def expected(x):
    return ["%.17g" % v for v in np.asarray(x, dtype=np.float64).tolist()]


def neighbours(values, ulps=2):
    """Each value and its `ulps` nearest doubles on either side."""
    out = []
    for v in values:
        out.append(v)
        up = down = v
        for _ in range(ulps):
            up, down = math.nextafter(up, math.inf), math.nextafter(down, -math.inf)
            out += [up, down]
    return np.array(out)


@settings(deadline=None, max_examples=1000)
@given(st.lists(st.floats(), min_size=1, max_size=16))
def test_text_is_percent_17g_of_any_double(values):
    # nan, +-inf, subnormals and +-0 are all drawn
    assert texts(values) == expected(values)


def test_powers_of_ten_and_their_neighbours():
    # the exponent estimate is off by one on either side of a power of ten,
    # 1e-14 and a dozen others round up to 10^17 and carry into the
    # exponent, and the nearest doubles below 10^k for most k < -270 scale
    # to within 8 of 10^17, where s = 1e17 and only e tells the range
    x = neighbours([10.0**e for e in range(-300, 300)])
    x = np.concatenate([x, -x])
    assert texts(x) == expected(x)


def test_scaling_edges():
    # values whose 17 digits are 10000000000000000 or 99999999999999999 and
    # their neighbours, at every exponent class of the layout
    edges = [d * 10.0**k for k in range(-30, 30) for d in (1.0000000000000002, 9.9999999999999982)]
    edges += [1e16, 1e17, 9999999999999998.0, 99999999999999984.0, 1e-4, 1e-5, 0.0001, 1e15]
    x = neighbours(edges, ulps=3)
    assert texts(x) == expected(x)


def test_fast_path_cut_offs():
    x = neighbours([dumptext.FAST_MIN, dumptext.FAST_MAX, 1e-291, 1e289, 1e291], ulps=4)
    assert texts(x) == expected(x)


def test_exact_ties():
    # ties at the 17th digit round to even; 2**50 + j + 0.25 scales exactly,
    # odd / 2**24 and odd / 2**25 through the inexact 10^23 and 10^24
    j = np.arange(2000)
    x = np.concatenate(
        [2.0**50 + j + 0.25, 2.0**50 + j + 0.75, np.arange(1, 64, 2) / 2.0**24, np.arange(1, 64, 2) / 2.0**25]
    )
    assert texts(x) == expected(x)


def test_extremes_and_zeros():
    x = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
         -1.7976931348623157e308, math.inf, -math.inf, math.nan, -math.nan, 0.5, 1.5, 100.0, 1e16]
    assert texts(x) == expected(x)


def test_fallback_runs_and_agrees(monkeypatch):
    # non-finite values, values outside the fast bounds and values within
    # TIE_MARGIN of a tie take Python's formatting, and only they do
    fallen = []
    real = dumptext._fall_back

    def spy(x, rows, out):
        fallen.extend(x[rows].tolist())
        real(x, rows, out)

    monkeypatch.setattr(dumptext, "_fall_back", spy)
    slow = [math.nan, math.inf, -math.inf, 5e-324, 1e-300, 1e300, 3 / 2.0**24, 2.0**50 + 0.25]
    fast = [0.0, -0.0, 1.0, 0.1, 1.2345678901234567e-200, 2.0**50 + 0.5]
    x = np.array(slow + fast)
    assert texts(x) == expected(x)
    assert len(fallen) == len(slow)
    assert all(a == b or (math.isnan(a) and math.isnan(b)) for a, b in zip(fallen, slow))

    # with empty fast bounds every nonzero value takes the fallback
    monkeypatch.setattr(dumptext, "FAST_MAX", 0.0)
    fallen.clear()
    rng = np.random.default_rng(3)
    x = rng.standard_normal(500) * 10.0 ** rng.integers(-30, 30, 500)
    assert texts(x) == expected(x)
    assert len(fallen) == len(x)


@pytest.mark.parametrize("n", [0, 1, dumptext.BLOCK - 1, dumptext.BLOCK + 1])
def test_blocks_and_strided_input(n):
    rng = np.random.default_rng(n)
    values = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    values *= 10.0 ** rng.uniform(-20, 20, n)
    for part in (values.real, values.imag):  # strided views
        assert texts(part) == expected(part)

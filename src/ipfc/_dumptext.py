"""The text of field dumps, formatted and assembled by numpy.

`g17` gives each value the text of Python's ``'%.17g' % x``.  For
1e-290 < |x| < 1e290 it is computed, not looked up:

* The exponent k has 1e16 <= |x| 10^(16-k) < 1e17.  It is estimated by
  ``floor(log10 |x|)`` and corrected once, on the scaled value.
* The scaled value is a double-double (s, e): Dekker's exact product of
  |x| (Veltkamp split) and the double nearest 10^p, plus |x| times the
  rounded remainder of 10^p, renormalized.  Its error is below 1e-13 at
  1e17.  The range is checked on s, then on e, so a scaled value just
  below a bound is not read as on it.
* D = s + rint(e) is the scaled value correctly rounded to an integer
  unless e - rint(e) lies within TIE_MARGIN of one half; those values,
  every exact tie among them, fall back.  D = 10^17 becomes 10^16 at
  k + 1.
* The 17 digits of D are laid out as %g does: fixed notation for
  -4 <= k < 17, exponent notation otherwise, trailing zeros and a bare
  point stripped; zeros print as "0" and "-0".

Everything else (non-finite values, |x| outside those bounds, values near
a tie) falls back to ``'%.17g' %`` one value at a time.  A text sits in a
fixed layout of WIDTH bytes, with NUL bytes where a character is absent;
`write_lines` joins such rows into lines and drops the NULs.

`field.dump_field` imports this module on its first call, so a run that
writes no dump does not compile it or build its tables.
"""

from __future__ import annotations

import math

import numpy as np

# Lines assembled per write: bounds the dump's text temporaries.
DUMP_CHUNK_LINES = 8192
# Values formatted per pass: bounds the formatter's temporaries.
BLOCK = 8192
FAST_MIN, FAST_MAX = 1e-290, 1e290
TIE_MARGIN = 1e-6

# 10^p for p in [P_MIN, P_MAX] as hi + lo, hi split into two halves of at
# most 26 bits; the exponents of 1e-290 < |x| < 1e290 need no other p.
P_MIN, P_MAX = -275, 307
_SPLIT = 134217729.0  # 2^27 + 1


def _split(v: float):
    """Veltkamp's split of v into halves of at most 26 bits each."""
    f, e = math.frexp(v)
    c = _SPLIT * f
    hi = c - (c - f)
    return math.ldexp(hi, e), math.ldexp(f - hi, e)


def _powers() -> np.ndarray:
    """Columns hi_hi, hi_lo and lo of 10^p, from exact integer arithmetic:
    hi is 10^p correctly rounded, lo the remainder 10^p - hi rounded."""
    rows = []
    for p in range(P_MIN, P_MAX + 1):
        if p >= 0:
            hi = float(10**p)
            lo = float(10**p - int(hi))
        else:
            q = 10**-p
            hi = 1 / q
            num, den = hi.as_integer_ratio()
            lo = (den - num * q) / (den * q)
        rows.append(_split(hi) + (lo,))
    return np.array(rows)


_POWERS = _powers()

# A text's layout: sign, "0.000", d0 . d1 . ... . d16, "e+ddd".  Each digit
# has its own point slot, so one layout serves every exponent.
WIDTH = 44
_DIGITS = slice(6, 39, 2)
_K_MIN = 16 - P_MAX


def _layouts() -> np.ndarray:
    """Row k - _K_MIN: the prefix, point and exponent of a text whose first
    digit has exponent k, without its sign and digits."""
    rows = []
    for k in range(_K_MIN, 17 - P_MIN):
        row = bytearray(WIDTH)
        fixed = -4 <= k <= 16
        if fixed and k < 0:
            row[1 : 2 - k] = b"0.000"[: 1 - k]
        elif k != 16:
            row[7 + 2 * k if fixed else 7] = ord(".")
        if not fixed:
            text = b"e%+03d" % k
            row[WIDTH - len(text) :] = text
        rows.append(bytes(row))
    return np.frombuffer(b"".join(rows), np.uint8).reshape(len(rows), WIDTH)


_LAYOUTS = _layouts()
# the four digit characters of 0 .. 9999, one 4-byte item each
_QUADS = (np.arange(10**4)[:, None] // [1000, 100, 10, 1] % 10 + 48).astype(np.uint8).view(np.uint32)[:, 0]
_KEEP = np.tril(np.full((17, 17), 255, np.uint8))  # row i keeps digits 0 .. i


def _scaled(a: np.ndarray, k: np.ndarray):
    """a 10^(16 - k) as a renormalized double-double (s, e)."""
    hh, hl, lo = np.take(_POWERS, 16 - k - P_MIN, axis=0).T
    c = _SPLIT * a
    ah = c - (c - a)
    al = a - ah
    prod = a * (hh + hl)
    err = ((ah * hh - prod) + ah * hl + al * hh) + al * hl
    t = err + a * lo
    s = prod + t
    return s, t - (s - prod)


def _outside(s: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Whether the double-double (s, e) lies outside [1e16, 1e17)."""
    return (s < 1e16) | ((s == 1e16) & (e < 0)) | (s > 1e17) | ((s == 1e17) & (e >= 0))


def g17(x) -> np.ndarray:
    """``'%.17g' % v`` of each value v of x: one row of WIDTH bytes per value,
    its text with the absent characters NUL."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty((len(x), WIDTH), np.uint8)
    for lo in range(0, len(x), BLOCK):
        _g17_block(x[lo : lo + BLOCK], out[lo : lo + BLOCK])
    return out


def _g17_block(x: np.ndarray, out: np.ndarray) -> None:
    """`g17` of one block of values, into its rows of out."""
    a = np.abs(x)
    fast = (a > FAST_MIN) & (a < FAST_MAX)
    zero = a == 0
    a[~fast] = 1.0
    k = np.floor(np.log10(a)).astype(np.int64)
    s, e = _scaled(a, k)
    off = np.flatnonzero(_outside(s, e))
    if len(off):
        low = (s[off] < 1e16) | ((s[off] == 1e16) & (e[off] < 0))
        k[off] += np.where(low, -1, 1)
        s[off], e[off] = _scaled(a[off], k[off])
        fast[off[_outside(s[off], e[off])]] = False
    r = np.rint(e)
    e -= r
    fast &= np.abs(np.abs(e) - 0.5) >= TIE_MARGIN
    d = s.astype(np.int64)
    d += r.astype(np.int64)
    carry = d == 10**17
    d[carry] = 10**16
    k[carry] += 1
    d[zero] = 0
    k[~fast] = 0  # zeros print at k = 0; the fallback rewrites the others

    # the 17 digit characters: d0 alone, then four groups of four from a table
    hi = (d // 10**8).astype(np.int32)  # digits 0 .. 8
    lo = (d - hi * np.int64(10**8)).astype(np.int32)  # digits 9 .. 16
    chars = np.empty((len(x), 20), np.uint8)
    chars[:, 3] = hi // 10**8 + 48
    quads = chars[:, 4:].view(np.uint32)
    hi %= 10**8
    for j, v in enumerate((hi // 10**4, hi % 10**4, lo // 10**4, lo % 10**4)):
        quads[:, j] = np.take(_QUADS, v)
    digits = chars[:, 3:]

    # trailing zeros go, but not the integer digits of fixed notation
    last = 16 - np.argmax(digits[:, ::-1] != 48, axis=1)
    last[zero] = 0
    fixed = (k >= -4) & (k <= 16)
    digits &= np.take(_KEEP, np.where(fixed, np.maximum(last, k), last), axis=0)
    np.take(_LAYOUTS, k - _K_MIN, axis=0, out=out)
    out[:, _DIGITS] = digits
    # a point with no digit after it goes too; fixed notation below 1 has
    # its point in the prefix, and at k = 16 none
    point = np.where(fixed, k, 0)
    bare = np.flatnonzero((last <= point) & ~(fixed & ((k < 0) | (k == 16))))
    out[bare, 7 + 2 * point[bare]] = 0
    out[:, 0] = np.signbit(x) * np.uint8(45)
    _fall_back(x, np.flatnonzero(~fast & ~zero), out)


def _fall_back(x: np.ndarray, rows: np.ndarray, out: np.ndarray) -> None:
    """Python's ``'%.17g' %`` of the values x[rows], into their rows of out."""
    for i in rows:
        text = b"%.17g" % x[i]
        out[i] = 0
        out[i, : len(text)] = np.frombuffer(text, np.uint8)


def _mode_texts(n: int) -> np.ndarray:
    """Item i: the mode at position i of an axis of n points, and a blank."""
    return np.array([b"%d " % (i if i < n // 2 else i - n) for i in range(n)])


def write_lines(fileobj, grid, half: np.ndarray, kept: np.ndarray) -> None:
    """Write the "h1 .. hn re im" line of every full-layout mode whose
    half-layout value is `kept`, in full-layout order.

    The real part and the imaginary magnitude of each kept value are
    formatted once.  A line's imaginary sign is that of the stored value,
    flipped on lines past the half, which hold its conjugate.  Lines are
    records of NUL-padded fields, built DUMP_CHUNK_LINES at a time from
    gathers of the mode texts and value rows, and written with their NULs
    dropped."""
    # the kept value each full-layout mode's line reads: its own, or its
    # mirror's past the half (`unfold` copies the mirror's entry there)
    rank = np.full(kept.shape, -1, np.int32)
    rank[kept] = np.arange(np.count_nonzero(kept), dtype=np.int32)
    reads = grid.unfold(rank).ravel()
    del rank
    keep = np.flatnonzero(reads >= 0)
    reads = reads[keep]
    values = half[kept]
    text = np.dtype((np.void, WIDTH))
    real = g17(values.real).view(text)[:, 0]
    magnitude = g17(np.abs(values.imag)).view(text)[:, 0]
    negative = np.signbit(values.imag)
    del values
    modes = [_mode_texts(n) for n in grid.sizes]
    line = np.dtype(
        [(f"h{j}", t.dtype) for j, t in enumerate(modes)]
        + [("re", text), ("blank", "S1"), ("sign", "u1"), ("im", text), ("end", "S1")]
    )
    lines = np.zeros(min(len(keep), DUMP_CHUNK_LINES), line)
    lines["blank"] = b" "
    lines["end"] = b"\n"
    for lo in range(0, len(keep), DUMP_CHUNK_LINES):
        chunk = lines[: len(keep) - lo]
        pos = np.unravel_index(keep[lo : lo + DUMP_CHUNK_LINES], grid.sizes)
        for j, (p, t) in enumerate(zip(pos, modes)):
            chunk[f"h{j}"] = t[p]
        r = reads[lo : lo + DUMP_CHUNK_LINES]
        chunk["re"] = real[r]
        chunk["sign"] = (negative[r] != (pos[-1] >= grid.half_sizes[-1])) * np.uint8(45)
        chunk["im"] = magnitude[r]
        fileobj.write(chunk.tobytes().translate(None, b"\0").decode("ascii"))

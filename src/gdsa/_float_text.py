"""Float64 arrays to text exactly as ``format(v, ".17g")`` writes each value.

``format_17g`` is the number kernel of ``harness.write_trace_csv``, which
writes hundreds of thousands of numbers per trace.  A finite v with
1e-11 <= |v| < 1e16 is m * 2**-s with m < 2**53.  For E = floor(log10 |v|)
and k = 16 - E <= 27, 5**k < 2**63, so |v| * 10**k = m * 5**k * 2**(k - s)
is formed exactly in two uint64 limbs and shifted right with
round-half-even: those are the 17 digits format prints.  ±0.0 is written
directly, and every other value goes through format itself.
"""

from __future__ import annotations

import numpy as np

__all__ = ["CELL", "format_17g"]

_U64 = np.uint64
_ONE, _32, _LOW32 = _U64(1), _U64(32), _U64(0xFFFFFFFF)
_MANTISSA, _HIDDEN = _U64((1 << 52) - 1), _U64(1 << 52)
_E16, _E17 = _U64(10**16), _U64(10**17)
_POW5_LO = np.array([5**k & 0xFFFFFFFF for k in range(28)], dtype=np.uint64)
_POW5_HI = np.array([5**k >> 32 for k in range(28)], dtype=np.uint64)
# the four ASCII digits of 0..9999 as one 4-byte word each, built without
# temporaries larger than the table
_DIGITS = np.arange(48, 58, dtype=np.uint8)
_QUADS = np.stack(np.meshgrid(_DIGITS, _DIGITS, _DIGITS, _DIGITS, indexing="ij"), axis=-1).view(np.uint32).ravel()
_ZERO_DOT = np.frombuffer(b"0.000", dtype=np.uint8)
CELL = 24  # the longest text of a float64, "-2.2250738585072014e-308"


def _scaled_digits(bits: np.ndarray, exp10: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """floor and round-half-even of |v| * 10**(16 - exp10), for the float64
    bit patterns ``bits`` of normal positive v; 0 <= 16 - exp10 <= 27."""
    k = 16 - exp10
    shift = 1075 - (bits >> _U64(52)).astype(np.int64) - k
    # shift <= 62; it is below 1 only for k = 1 and |v| >= 1e15, where a left
    # shift of m (< 2**56 after it) makes it 1 and leaves a zero remainder
    lift = np.maximum(1 - shift, 0)
    m = ((bits & _MANTISSA) | _HIDDEN) << lift.astype(np.uint64)
    r = (shift + lift).astype(np.uint64)
    m0, m1, c0, c1 = m & _LOW32, m >> _32, _POW5_LO[k], _POW5_HI[k]
    p00, p01, p10 = m0 * c0, m0 * c1, m1 * c0
    mid = (p00 >> _32) + (p01 & _LOW32) + (p10 & _LOW32)
    lo = (p00 & _LOW32) | (mid << _32)
    hi = m1 * c1 + (p01 >> _32) + (p10 >> _32) + (mid >> _32)
    q = (hi << (_U64(64) - r)) | (lo >> r)
    # up when the remainder passes half, or equals it and q is odd
    up = (lo & ((_ONE << r) - _ONE)) + (q & _ONE) > _ONE << (r - _ONE)
    return q, q + up


def format_17g(values: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """Write format(v, ".17g") of each values[i] into cells[i, :n] and return
    the lengths n.  ``cells`` has at least CELL columns."""
    a = np.abs(values)
    neg = np.signbit(values)
    lens = np.zeros(values.size, dtype=np.intp)  # 0 marks a cell not written yet
    zero = np.flatnonzero(a == 0.0)
    cells[zero, 0] = np.where(neg[zero], ord("-"), ord("0"))
    cells[zero, 1] = ord("0")
    lens[zero] = 1 + neg[zero]
    idx = np.flatnonzero((a >= 1e-11) & (a < 1e16))
    exp10 = np.floor(np.log10(a[idx])).astype(np.int64)
    q, digits = _scaled_digits(a[idx].view(np.uint64), exp10)
    # The exponent check: log10 can be one off, and the digits can round up
    # to 10**17, only next to a power of ten.  Such a cell is left to format.
    good = (q >= _E16) & (digits < _E17)
    idx, digits, exp10 = idx[good], digits[good], exp10[good]

    # Python's "g": fixed notation for -4 <= E <= 16, which is all of the
    # domain from -4 up, and d.ddde-XX below.  That body is laid out as for
    # E = 0.  Cells are sorted by layout and sign, so that each layout fills
    # a contiguous run of rows.
    layout = np.where(exp10 >= 0, exp10, np.where(exp10 >= -4, 16 - exp10, 0))
    key = (2 * layout + neg[idx]).astype(np.int8)
    order = np.argsort(key, kind="stable")
    bounds = np.concatenate(([0], np.cumsum(np.bincount(key, minlength=42)))).tolist()
    idx, exp10 = idx[order], exp10[order]
    d = digits[order].astype(np.int64)
    hi = d // 10**8
    words = np.empty((d.size, 5), dtype=np.int64)
    words[:, 0] = hi // 10**8
    mid, low8 = hi - words[:, 0] * 10**8, d - hi * 10**8
    words[:, 1] = mid // 10**4
    words[:, 2] = mid - words[:, 1] * 10**4
    words[:, 3] = low8 // 10**4
    words[:, 4] = low8 - words[:, 3] * 10**4
    text = _QUADS[words].view(np.uint8)[:, 3:]  # the 17 digits, "000" of the leading word dropped
    nd = np.full(d.size, 17)  # digits left once trailing zeros are stripped
    tail = np.flatnonzero(text[:, 16] == ord("0"))
    nd[tail] = 17 - np.argmax(text[tail, ::-1] != ord("0"), axis=1)
    out = np.empty((d.size, cells.shape[1]), dtype=np.uint8)
    n = np.empty(d.size, dtype=np.intp)
    for g in np.flatnonzero(np.diff(bounds)).tolist():
        form, s = divmod(g, 2)  # s: 1 for a minus sign
        run = slice(bounds[g], bounds[g + 1])
        rows, dig, kept = out[run], text[run], nd[run]
        if s:
            rows[:, 0] = ord("-")
        if form <= 16:  # E = form: a point after digit E + 1, dropped when no digit follows it
            rows[:, s:s + form + 1] = dig[:, :form + 1]
            rows[:, s + form + 1] = ord(".")
            rows[:, s + form + 2:s + 18] = dig[:, form + 1:]
            n[run] = s + np.where(kept > form + 1, kept + 1, form + 1)
        else:  # E = 16 - form in -1..-4: "0." and -E - 1 zeros before the digits
            z = form - 15
            rows[:, s:s + z] = _ZERO_DOT[:z]
            rows[:, s + z:s + z + 17] = dig
            n[run] = s + z + kept
    sci = np.flatnonzero(exp10 < -4)
    at, e = sci * out.shape[1] + n[sci], -exp10[sci]  # e is 5..12
    flat = out.reshape(-1)
    flat[at] = ord("e")
    flat[at + 1] = ord("-")
    flat[at + 2] = ord("0") + e // 10
    flat[at + 3] = ord("0") + e % 10
    n[sci] += 4
    cells[idx] = out
    lens[idx] = n
    rest = np.flatnonzero(lens == 0)
    if rest.size:
        texts = [format(v, ".17g").encode() for v in values[rest].tolist()]
        cells[rest, :CELL] = np.array(texts, dtype=f"S{CELL}").view(np.uint8).reshape(-1, CELL)
        lens[rest] = [len(t) for t in texts]
    return lens

"""'%.17g' for a whole table of doubles at once, byte for byte.

Below 10 every digit after a value's leading one is a fraction digit, so
its 17 significant digits fix its text. For 1e-38 <= |v| < 10 they are the
rounded t for the long-double product t = |v| 10^p, p = 16 - floor(log10 |v|).
For p in 16..27 the power of ten is exact and t takes one product, whose
rounding error is at most half an ulp of t; t < 2^57 makes that at most
2^-8. For p in 28..54 (|v| < 1e-11) t takes two, by 10^27 and 10^(p - 27),
both exact, and the error is at most 2^-6. Rounding t gives the correctly
rounded digits whenever t lies in [1e16, 1e17) and its fraction clears 1/2
by more than that bound. A float64 log10 can be off by one near a power of
ten; the range test on the unrounded t catches that. Every other value, and
every value when the long double has fewer than 64 bits of mantissa, is
printed by '%.17g' itself: zero, subnormals, |v| outside [1e-38, 10),
near-ties, inf and nan.

The text is laid out in fixed slots per value: the sign with any '0.000'
lead, the leading digit and the point after it, 16 digits, and any 'e-XX'
exponent. Trailing zero digits and unused slots are zero bytes, and
dropping every zero byte of the table gives the text.
"""

from __future__ import annotations

import numpy as np

__all__ = ["RowFormatter"]

_LOW, _HIGH = -38, 0  # the decimal exponents e of the product; 10^(16 - e) is exact for e >= -11
_CLASSES = _HIGH - _LOW + 1

# The slots of a value's field: the sign and any '0.' lead, the leading
# digit, the point that may follow it, 16 digits as four groups of four,
# the exponent. A value printed by '%.17g' itself puts its text, at most 24
# bytes, in the first 24.
_LEAD, _HEAD, _GROUPS, _EXP, _FIELD = 0, 6, 8, 24, 28
_TEXT = 24


def _words(texts: list[bytes], width: int, dtype) -> np.ndarray:
    """Each text, zero-padded to width bytes, as one unsigned integer."""
    return np.frombuffer(b"".join(t.ljust(width, b"\0") for t in texts), dtype)


def _tables():
    """The slots of each class, and the digit groups of 0..9999.

    A class is a decimal exponent e, or the last, blank class of the values
    printed by '%.17g' itself; the leads of negative values follow those of
    the others. A point follows the leading digit in exponential notation
    (e < -4) and when e = 0, provided a nonzero digit follows it.
    """
    exps = range(_LOW, _HIGH + 1)
    lead = [b"0." + b"0" * (-e - 1) if -4 <= e < 0 else b"" for e in exps]
    leads = _words(lead + [b""] + [b"-" + t for t in lead] + [b""], 8, np.uint64)
    exp = _words([b"e-%02d" % -e if e < -4 else b"" for e in exps] + [b""], 4, np.uint32)
    point = np.array([e < -4 or e == 0 for e in exps] + [False])
    # a group's four digits as one uint32; the second half drops trailing
    # zeros, for the last group that has a nonzero digit and those after it
    digits = np.arange(10_000, dtype=np.uint16)[:, None] // np.array([1000, 100, 10, 1], dtype=np.uint16)
    chars = np.empty((2, 10_000, 4), dtype=np.uint8)
    chars[:] = digits % 10 + ord("0")
    chars[1] *= np.logical_or.accumulate(chars[1, :, ::-1] != ord("0"), axis=1)[:, ::-1]
    return leads, exp, point, chars.view(np.uint32).reshape(-1)


_POWERS = np.cumprod(np.full(28, 10, dtype=np.longdouble)) / 10  # 10^0 .. 10^27
_EXACT = np.finfo(np.longdouble).nmant >= 63 and all(
    p.as_integer_ratio() == (10**i, 1) for i, p in enumerate(_POWERS)
)
# per class, 10^p as two exact factors, p = 16 - e in 16..54, and t's error bound
_P = 16 - np.arange(_LOW, _HIGH + 1)
_FIRST_POWER = _POWERS[np.minimum(_P, 27)]
_SECOND_POWER = _POWERS[np.maximum(_P - 27, 0)]
_MARGINS = np.where(_P > 27, 2.0**-6, 2.0**-8)
_LEADS, _EXPS, _POINTS, _GROUP_WORDS = _tables()
_SCALES = np.array([10**16, 10**12, 10**8, 10**4, 1])[:, None]


def _fallback(values: list[float]) -> list[bytes]:
    """'%.17g' of each value, for the values the product does not print."""
    return [b"%.17g" % x for x in values]


class RowFormatter:
    """Renders tables of `rows` rows of doubles as lines of text.

    Column c of a row prints as prefixes[c] then '%.17g' of the value, and
    each row ends with a newline. The buffers are allocated once; each call
    renders a table of up to `rows` rows.
    """

    def __init__(self, rows: int, prefixes: list[str]):
        prefixes = [p.encode("ascii") for p in prefixes]
        cols, pad = len(prefixes), max(map(len, prefixes), default=0)
        # a row: per value a cell of its prefix, right-aligned after zero
        # bytes, and its field; then the newline
        cell = pad + _FIELD
        buf = np.zeros((rows, cols * cell + 1), dtype=np.uint8)
        buf[:, -1] = ord("\n")
        cells = buf[:, :-1].reshape(rows, cols, cell)
        for c, prefix in enumerate(prefixes):
            cells[:, c, pad - len(prefix) : pad] = np.frombuffer(prefix, np.uint8)
        self._buf, self._fields = buf, cells[:, :, pad:]
        # each field's offset in the flat buffer
        starts = np.arange(rows)[:, None] * buf.shape[1] + pad + np.arange(cols) * cell
        self._starts = starts.reshape(-1)
        self._digits = np.empty((len(_SCALES), rows * cols), dtype=np.int64)

    def __call__(self, values: np.ndarray) -> list[str]:
        """The line of each row of values, an array of shape (count, len(prefixes)), count <= rows."""
        v = values.reshape(-1)
        count = len(values)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            a = np.abs(v)
            e = np.floor(np.log10(a))
            # cls is garbage for 0, subnormals, inf and nan: their e is out of range
            cls = (e - _LOW).astype(np.intp)
            t = a.astype(np.longdouble) * _FIRST_POWER.take(cls, mode="clip") * _SECOND_POWER.take(cls, mode="clip")
            fraction, whole = np.modf(t)
            fraction = fraction.astype(np.float64)
            whole = whole.astype(np.int64)
        digits = whole + (fraction > 0.5)
        ok = (e >= _LOW) & (e <= _HIGH) & (whole >= 10**16) & (digits < 10**17)
        ok &= np.abs(fraction - 0.5) > _MARGINS.take(cls, mode="clip")
        if not _EXACT:
            ok[:] = False
        # the leading digit and four groups of four, as ASCII. A last digit
        # of zero starts trailing zeros: the groups after the last nonzero
        # digit drop them
        d = self._digits[:, : v.size]
        for row, scale in zip(d, _SCALES.ravel().tolist()):
            np.floor_divide(digits, scale, out=row)
        zeros = np.flatnonzero(ok & (digits % 10 == 0))
        nonzero = d[:, zeros] * _SCALES != digits[zeros]  # a nonzero digit follows
        d[1:] -= d[:-1] * 10_000
        groups = _GROUP_WORDS.take(d[1:].T, mode="clip")
        groups[zeros] = _GROUP_WORDS.take(d[1:, zeros].T + 10_000 * ~nonzero[1:].T)
        cls = np.where(ok, cls, _CLASSES)
        point = _POINTS.take(cls)
        point[zeros] &= nonzero[0]
        head = d[0] + ord("0") + point * (ord(".") << 8)
        fields = self._fields[:count]
        shape = fields.shape[:2]
        lead = _LEADS.take(cls + (v < 0.0) * (_CLASSES + 1))
        fields[:, :, _LEAD:_GROUPS].view(np.uint64)[..., 0] = lead.reshape(shape)
        fields[:, :, _HEAD:_GROUPS].view(np.uint16)[..., 0] = head.reshape(shape)
        fields[:, :, _GROUPS:_EXP].view(np.uint32)[...] = groups.reshape(*shape, 4)
        fields[:, :, _EXP:].view(np.uint32)[..., 0] = _EXPS.take(cls).reshape(shape)
        bad = np.flatnonzero(~ok)
        if bad.size:
            texts = np.array(_fallback(v[bad].tolist()), dtype=f"S{_TEXT}")
            at = (self._starts[bad] + _LEAD)[:, None] + np.arange(_TEXT)
            self._buf.reshape(-1)[at] = texts.view(np.uint8).reshape(-1, _TEXT)
        lines = self._buf[:count].tobytes().translate(None, b"\0").decode("ascii").split("\n")
        return [line + "\n" for line in lines[:-1]]

"""'%.17g' for a whole table of doubles at once, byte for byte.

Below 10 every digit after a value's leading one is a fraction digit, so
its 17 significant digits fix its text. For 1e-38 <= |v| < 10 they are the
rounded t = |v| 10^p, p = 16 - floor(log10 |v|) in 16..54. With PH the
double nearest 10^p and PL the double nearest 10^p - PH (zero for p <= 22),
Dekker's product gives |v| PH exactly as a double h plus its error, and
t = h + l, l = error + |v| PL, is exact for p <= 22 and within 2^-47 for
larger p. As t >= 2^53, h is an integer. Rounding t gives the correctly
rounded digits whenever its whole part lies in [1e16, 1e17 - 1) and l's
fraction is more than 2^-40 from 1/2; closer than that is, all but always,
an exact tie. Each step is one correctly rounded operation on doubles, so
the digits are the same on every host. A float64 log10 can be off by one
near a power of ten, and differs between numpy's SIMD targets; the range
test on the whole part catches that. '%.17g' itself prints every other
value: zero, subnormals, |v| outside [1e-38, 10), ties, inf and nan.

A record is laid out in fixed slots: the head, the index, and per value
the separator before it and its field. A field holds the sign with any
'0.000' lead, the leading digit and the point after it, 16 digits, and any
'e-XX' exponent. Leading zeros of the index, trailing zero digits and unused
slots are zero bytes, and dropping every zero byte of the table gives the
text.
"""

from __future__ import annotations

import numpy as np

__all__ = ["RowFormatter"]

_LOW, _HIGH = -38, 0  # the decimal exponents e of the product, p = 16 - e
_CLASSES = _HIGH - _LOW + 1
_TIE = 2.0**-40  # how far l's fraction must be from 1/2; l is off by less than 2^-47

# The slots of a value's field: the sign and any '0.' lead, the leading
# digit, the point that may follow it, 16 digits as four groups of four,
# the exponent. A value printed by '%.17g' itself puts its text, at most 24
# bytes, in the first 24.
_LEAD, _HEAD, _GROUPS, _EXP, _FIELD = 0, 6, 8, 24, 28
_TEXT = 24
_INDEX = 19  # the digits of the largest int64


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
    lead = [b"0." + b"0" * (-e - 1) if -4 <= e < 0 else b"" for e in exps] + [b""]
    point = [b"." if e < -4 or e == 0 else b"" for e in exps] + [b""]
    # per class a word of the lead in bytes 0..5 and the point in byte 7
    leads = [(sign + t).ljust(7, b"\0") + p for sign in (b"", b"-") for t, p in zip(lead, point)]
    leads[-1] = leads[_CLASSES] = b""  # the blank class has no sign
    leads = _words(leads, 8, np.uint64)
    exp = _words([b"e-%02d" % -e if e < -4 else b"" for e in exps] + [b""], 4, np.uint32)
    # a group's four digits as one uint32, each digit along its own axis;
    # the second half drops trailing zeros, for the last group that has a
    # nonzero digit and those after it
    ten = np.arange(10, dtype=np.uint8)
    axes = [ten.reshape([10 if i == k else 1 for i in range(4)]) for k in range(4)]
    chars = np.empty((2, 10, 10, 10, 10, 4), dtype=np.uint8)
    for k, digit in enumerate(axes):
        chars[..., k] = digit + ord("0")
        chars[1, ..., k] *= sum(axes[k:]) > 0
    return leads, exp, chars.view(np.uint32).reshape(-1)


def _split(x, hi, lo):
    """Dekker's split of x into hi + lo, each of at most 26 significant bits."""
    np.multiply(x, 2.0**27 + 1, out=hi)
    np.subtract(hi, x, out=lo)
    np.subtract(hi, lo, out=hi)
    np.subtract(x, hi, out=lo)
    return hi, lo


# per class, p = 16 - e in 16..54 and 10^p = PH + PL: PH split in halves
# for Dekker's product, and PL, zero for p <= 22
_P = [16 - e for e in range(_LOW, _HIGH + 1)]
_PH = np.array([float(10**p) for p in _P])
_PL = np.array([float(10**p - int(h)) for p, h in zip(_P, _PH.tolist())])
_PH_HI, _PH_LO = _split(_PH, np.empty(_CLASSES), np.empty(_CLASSES))
_LEADS, _EXPS, _GROUP_WORDS = _tables()
_SCALES = np.array([10**16, 10**12, 10**8, 10**4, 1])[:, None]
_TENS = 10 ** np.arange(_INDEX - 1, -1, -1, dtype=np.int64)  # 10^18 .. 10^0


def _fallback(values: list[float]) -> list[bytes]:
    """'%.17g' of each value, for the values the product does not print."""
    return [b"%.17g" % x for x in values]


class RowFormatter:
    """Renders records of up to `rows` rows of doubles as one text.

    Row i of a call prints as head, then first + i as '%d' prints it, then
    per group its prefix and `width` values, comma-separated, each as
    '%.17g' prints it, then a newline. The buffers are allocated once; each
    call renders up to `rows` rows.
    """

    def __init__(self, rows: int, head: str, groups: list[str], width: int):
        head, groups = head.encode("ascii"), [p.encode("ascii") for p in groups]
        # a row: the head, then the index right-aligned in _INDEX bytes; per
        # group the prefix but its last byte, right-aligned in `slot` bytes,
        # then `width` cells of a separator byte and a field. The first
        # cell's separator is the prefix's last byte, the others' a comma
        slot = max(max(map(len, groups)) - 1, 0)
        cell, index = 1 + _FIELD, len(head) + _INDEX
        span = slot + width * cell
        line = index + len(groups) * span + 1
        self._text = bytearray(rows * line)  # the table's bytes, rendered in place
        buf = np.frombuffer(self._text, np.uint8).reshape(rows, line)
        buf[:, : len(head)] = np.frombuffer(head, np.uint8)
        buf[:, -1] = ord("\n")
        spans = buf[:, index:-1].reshape(rows, len(groups), span)
        cells = spans[:, :, slot:].reshape(rows, len(groups), width, cell)
        cells[:, :, 1:, 0] = ord(",")
        for g, prefix in enumerate(groups):
            if prefix:
                spans[:, g, slot + 1 - len(prefix) : slot] = np.frombuffer(prefix[:-1], np.uint8)
                cells[:, g, 0, 0] = prefix[-1]
        self._buf, self._index, self._fields = buf, buf[:, len(head) : index], cells[..., 1:]
        # each field's offset in the flat buffer
        starts = np.arange(rows)[:, None, None] * line + index + slot + 1
        starts = starts + np.arange(len(groups))[:, None] * span + np.arange(width) * cell
        self._starts = starts.reshape(-1)
        # the largest work arrays, allocated once: allocated afresh for each
        # table they can leave the heap's top free, for the allocator to hand
        # back and fault in again for the next table
        self._digits = np.empty((len(_SCALES), starts.size), dtype=np.int64)
        self._work = np.empty((7, starts.size))
        self._products = np.empty((len(_SCALES) - 1, starts.size), dtype=np.int64)
        self._groups = np.empty((starts.size, 4), dtype=np.uint32)

    def __call__(self, first: int, values: np.ndarray) -> str:
        """The text of the rows of values, an array of shape (count, len(groups), width), count <= rows."""
        v = values.reshape(-1)
        count = len(values)
        a, power, h, hi, lo, l, product = self._work[:, : v.size]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            np.abs(v, out=a)
            e = np.floor(np.log10(a, out=l), out=l)
            # cls is garbage for 0, subnormals, inf and nan: their e is out of range
            cls = (e - _LOW).astype(np.intp)
            np.multiply(a, _PH.take(cls, mode="clip", out=power), out=h)
            # Dekker's product: l = |v| PH - h exactly, from the halves of |v| and PH
            _split(a, hi, lo)
            np.multiply(hi, _PH_HI.take(cls, mode="clip", out=power), out=l)
            l -= h
            l += np.multiply(lo, power, out=product)
            np.multiply(hi, _PH_LO.take(cls, mode="clip", out=power), out=product)
            l += product
            l += np.multiply(lo, power, out=product)
            l += np.multiply(a, _PL.take(cls, mode="clip", out=power), out=product)
            # t = h + l with h an integer: t's whole part, and l's fraction
            whole = h.astype(np.int64)
            whole += np.floor(l, out=product).astype(np.int64)
            l -= product
        digits = whole + (l > 0.5)
        # the class in range, and the whole part of t in [1e16, 1e17 - 1):
        # the range test catches a log10 that is off by one
        ok = (cls.view(np.uintp) < _CLASSES) & ((whole - 10**16).view(np.uint64) < 9 * 10**16 - 1)
        # and l's fraction clear of 1/2 by more than l's error
        l -= 0.5
        ok &= np.abs(l, out=l) > _TIE
        # the leading digit and four groups of four, as ASCII; the last
        # group drops its trailing zeros
        d = self._digits[:, : v.size]
        for row, scale in zip(d, _SCALES.ravel().tolist()):
            np.floor_divide(digits, scale, out=row)
        d[1:] -= np.multiply(d[:-1], 10_000, out=self._products[:, : v.size])
        d[-1] += 10_000
        groups = _GROUP_WORDS.take(d[1:].T, mode="clip", out=self._groups[: v.size])
        cls = np.where(ok, cls, _CLASSES)
        word = _LEADS.take(cls + (v < 0.0) * (_CLASSES + 1))
        word |= ((d[0] + ord("0")) << 8 * _HEAD).view(np.uint64)
        # behind a zero last group the groups before it drop their trailing
        # zeros too, back to a nonzero one, and the point goes if all are zero
        rare = np.flatnonzero(d[-1] == 10_000)
        if rare.size:
            tail = d[1:, rare]
            zero = np.logical_and.accumulate(tail[::-1] % 10_000 == 0, axis=0)[::-1]
            tail[:-1] += 10_000 * zero[1:]
            groups[rare] = _GROUP_WORDS.take(tail.T, mode="clip")
            word[rare[zero[0]]] &= np.uint64(2 ** (8 * _HEAD + 8) - 1)  # the bytes before the point
        fields = self._fields[:count]
        shape = fields.shape[:3]
        fields[..., _LEAD:_GROUPS].view(np.uint64)[..., 0] = word.reshape(shape)
        fields[..., _GROUPS:_EXP].view(np.uint32)[...] = groups.reshape(*shape, 4)
        fields[..., _EXP:].view(np.uint32)[..., 0] = _EXPS.take(cls).reshape(shape)
        bad = np.flatnonzero(~ok)
        if bad.size:
            texts = np.array(_fallback(v[bad].tolist()), dtype=f"S{_TEXT}")
            at = (self._starts[bad] + _LEAD)[:, None] + np.arange(_TEXT)
            self._buf.reshape(-1)[at] = texts.view(np.uint8).reshape(-1, _TEXT)
        # the index: its digits below the largest index's, leading zeros dropped
        width = len(b"%d" % (first + count - 1))
        tens = (np.arange(count) + first)[:, None] // _TENS[-width:]
        chars = tens % 10 + ord("0")
        chars[:, :-1] *= tens[:, :-1] > 0  # the last digit prints even for 0
        index = self._index[:count]
        index[:, :-width] = 0
        index[:, -width:] = chars
        text = self._text if count == len(self._buf) else self._text[: count * self._buf.shape[1]]
        return text.translate(None, b"\0").decode("ascii")

"""Seeded point samplers and the single draw behind the hypothesis checks.

Each factory returns draw(count), which owns its random stream and gives a
(count, n) array: the stream of count one-row calls, so identical seeds give
identical samples. The stream is numpy's default_rng(seed) stream, PCG64
seeded through SeedSequence, reproduced bit for bit without importing
numpy's random module; a seed is a nonnegative int. The checks evaluate
each map, metric and comparison function once on a drawn stack, so those
accept a Vector or a (count, n) stack.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, fields
from typing import Callable

import numpy as np

from .errors import UsageError
from .ordered_algebra import Vector

__all__ = ["uniform_sampler", "cone_sampler", "interior_sampler"]

Sampler = Callable[[int], np.ndarray]

_M32 = 0xFFFFFFFF
_M128 = (1 << 128) - 1
# PCG64's 128-bit LCG multiplier (O'Neill, HMC-CS-2014-0905, 2014).
_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# A chunk is up to _LANES lanes of _LANE consecutive states, each lane
# started by a jump of _LANE steps, so temporaries stay at 128 KB.
_LANE = 128
_LANES = 128


def _seed_sequence(seed: int) -> tuple[int, int]:
    """PCG64's (initstate, initseq): SeedSequence(seed).generate_state(4, uint64).

    The pool of four 32-bit words hashes the seed's 32-bit words, low word
    first, mixes every pool word into every other, then mixes in the words
    beyond the fourth.
    """
    entropy = [seed & _M32]
    while seed := seed >> 32:
        entropy.append(seed & _M32)
    hash_const = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * 0x931E8875 & _M32
        value = value * hash_const & _M32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        r = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return r ^ r >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_const = 0x8B51F9DD
    words = []
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * 0x58F38DED & _M32
        value = value * hash_const & _M32
        words.append(value ^ value >> 16)
    # uint64 k is words 2k (low) and 2k + 1; a 128-bit int is (uint64 0 << 64) | uint64 1
    return (
        words[1] << 96 | words[0] << 64 | words[3] << 32 | words[2],
        words[5] << 96 | words[4] << 64 | words[7] << 32 | words[6],
    )


def _halves(values: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """The (low, high) uint64 words of 128-bit ints."""
    raw = np.frombuffer(b"".join(v.to_bytes(16, "little") for v in values), dtype="<u8")
    return raw[0::2].astype(np.uint64), raw[1::2].astype(np.uint64)


def _pcg64(seed: int) -> Callable[[np.ndarray, float, float], None]:
    """fill(out, low, width) sets out to low + width * u for the next out.size draws.

    Each draw steps the state s -> MULT s + inc (mod 2**128), then outputs
    XSL-RR: the xor of the state's halves rotated right by its top 6 bits;
    u is that output's top 53 bits times 2**-53, as in numpy's uniform.
    States are made a chunk at a time by jump-ahead on uint64 halves:
    s_{t+i} = A_i s_t + C_i with A_i = MULT**i and C_i = inc (1 + ... + MULT**(i-1)).
    """
    initstate, initseq = _seed_sequence(seed)
    inc = (initseq << 1 | 1) & _M128
    state = ((inc + initstate) * _MULT + inc) & _M128
    a, c = [_MULT], [inc]
    for _ in range(_LANE - 1):
        a.append(a[-1] * _MULT & _M128)
        c.append((c[-1] * _MULT + inc) & _M128)
    jump_a, jump_c = a[-1], c[-1]
    a_lo, a_hi = _halves(a)
    c_lo, c_hi = _halves(c)
    a_lo0, a_lo1 = a_lo & _M32, a_lo >> 32

    def fill(out: np.ndarray, low: float, width: float) -> None:
        nonlocal state
        flat = out.reshape(-1)
        for start in range(0, flat.size, _LANE * _LANES):
            m = min(_LANE * _LANES, flat.size - start)
            starts = [state]
            for _ in range((m - 1) // _LANE):
                starts.append((jump_a * starts[-1] + jump_c) & _M128)
            s_lo, s_hi = (h[:, None] for h in _halves(starts))
            s_lo0, s_lo1 = s_lo & _M32, s_lo >> 32
            # the 128-bit product A_i s: 64x64 -> 128 on 32-bit halves for
            # the low words, the cross terms wrap into the high word
            p00 = a_lo0 * s_lo0
            p01 = a_lo0 * s_lo1
            p10 = a_lo1 * s_lo0
            mid = p00 >> 32
            mid += p01 & _M32
            mid += p10 & _M32
            hi = a_lo1 * s_lo1
            hi += p01 >> 32
            hi += p10 >> 32
            hi += mid >> 32
            hi += a_hi * s_lo
            hi += a_lo * s_hi
            hi += c_hi
            lo = a_lo * s_lo
            lo += c_lo
            hi += lo < c_lo
            hi = hi.reshape(-1)[:m]
            lo = lo.reshape(-1)[:m]
            state = int(hi[-1]) << 64 | int(lo[-1])
            x = hi ^ lo
            rot = hi >> 58
            # a left shift by 64 gives 0 in numpy, so rot = 0 keeps x
            x = (x >> rot) | (x << (64 - rot))
            u = (x >> 11) * 2.0**-53
            u *= width
            np.add(u, low, out=flat[start : start + m])

    return fill


def uniform_sampler(n: int, seed: int = 0, low: float = -10.0, high: float = 10.0) -> Sampler:
    """Points of R^n with independent uniform components in [low, high).

    The seed is a nonnegative int; the points are those of numpy's
    default_rng(seed).uniform(low, high, (count, n)).
    """
    if n < 1:
        raise UsageError("sampler dimension must be at least 1")
    try:
        seed = operator.index(seed)
    except TypeError:
        raise UsageError(f"sampler seed must be an int, got {seed!r}") from None
    if seed < 0:
        raise UsageError("sampler seed must be nonnegative")
    low, high = float(low), float(high)
    if not low < high:
        raise UsageError("sampler bounds must satisfy low < high")
    width = high - low
    if not math.isfinite(width):
        raise UsageError("sampler bounds must have a finite width high - low")
    fill = _pcg64(seed)

    def draw(count: int) -> np.ndarray:
        out = np.empty((count, n))
        fill(out, low, width)
        return out

    return draw


def cone_sampler(n: int, seed: int = 0, high: float = 10.0) -> Sampler:
    """Cone points: componentwise uniform in [0, high)."""
    if high <= 0.0:
        raise UsageError("cone sampler needs high > 0")
    return uniform_sampler(n, seed=seed, low=0.0, high=high)


def interior_sampler(n: int, seed: int = 0, low: float = 1e-3, high: float = 10.0) -> Sampler:
    """Interior cone points: components bounded away from zero."""
    if low <= 0.0:
        raise UsageError("interior sampler needs low > 0")
    return uniform_sampler(n, seed=seed, low=low, high=high)


def _draw(sampler: Sampler, count: int, arity: int) -> tuple[np.ndarray, ...]:
    """arity (count, n) stacks from one call; sample i is row i of each, in order."""
    if count < 1:
        raise UsageError("sample count must be at least 1")
    block = sampler(count * arity).reshape(count, arity, -1)
    return tuple(block.swapaxes(0, 1).copy())


@dataclass
class _Report:
    """A hypothesis check's outcome; it passed when every field named *violations is empty.

    method is "sampled", or a rule of perov.exact, "exact" or "sufficient",
    whose gap is its smallest entry of right side minus left side.
    """

    samples_tested: int
    method: str = field(default="sampled", kw_only=True)
    gap: float | None = field(default=None, kw_only=True)

    @property
    def passed(self) -> bool:
        return not any(getattr(self, f.name) for f in fields(self) if f.name.endswith("violations"))


def _witnesses(mask: np.ndarray, *stacks: np.ndarray) -> list[tuple[Vector, ...]]:
    """One tuple of Vectors per flagged row, from that row of each stack.

    Boolean indexing copies the flagged rows of each stack once, as floats,
    so the Vectors share no memory with the caller's stacks; each copy is
    checked and frozen once, not row by row.
    """
    picked = [Vector._wrap_rows(np.asarray(s, dtype=float)[mask]) for s in stacks]
    return list(zip(*picked))

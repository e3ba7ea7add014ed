"""Seeded point samplers and the single draw behind the hypothesis checks.

Each factory returns draw(count), which owns its random stream and gives a
(count, n) array: the stream of count one-row calls, so identical seeds give
identical samples. The stream is the installed numpy's default_rng(seed)
stream; a seed is a nonnegative int. numpy.random is imported on a
sampler's first draw, not when it is made, so building a sampler imports
nothing. The checks evaluate each map, metric and comparison function once
on a drawn stack, so those accept a Vector or a (count, n) stack.
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
    if not math.isfinite(high - low):
        raise UsageError("sampler bounds must have a finite width high - low")
    rng = None

    def draw(count: int) -> np.ndarray:
        nonlocal rng
        if rng is None:
            from numpy.random import default_rng

            rng = default_rng(seed)
        return rng.uniform(low, high, (count, n))

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

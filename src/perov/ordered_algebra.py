"""Ordered matrix algebra on R^n.

Square matrices under the entrywise order and row-sum norm, vectors, and
the nonnegative-orthant cone with its two order relations. Cone membership
and the order relations are exact sign tests on computed values; tolerances
belong to the convergence checks layered on top, never to the order
semantics themselves.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass

import numpy as np

from .errors import UsageError

__all__ = [
    "SquareMatrix",
    "Vector",
    "OrthantCone",
    "ring_norm",
    "ring_leq",
    "cone_contains",
    "order_leq",
    "order_ll",
    "mat_apply",
    "sup_norm",
]

_SCALARS = (int, float, np.integer, np.floating)


def _freeze(arr: np.ndarray) -> np.ndarray:
    """An immutable copy of arr, a finite float array.

    numpy lets an array that owns its data, or a view of a writeable array,
    be made writeable again. The copy lives in a bytes object instead, and
    numpy refuses to make an array over it, or any view of it, writeable.
    arr itself is left as it was.
    """
    if not np.isfinite(arr).all():
        raise UsageError("entries must be finite")
    return np.frombuffer(arr.tobytes(), dtype=arr.dtype).reshape(arr.shape)


def _frozen_array(values, ndim: int) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != ndim:
        raise UsageError(f"expected a {ndim}-dimensional array, got shape {arr.shape}")
    if arr.size == 0:
        raise UsageError("dimension must be at least 1")
    return _freeze(arr)


def _same_dim(a: int, b: int) -> None:
    if a != b:
        raise UsageError(f"dimension mismatch: {a} vs {b}")


class _Frozen:
    """An immutable value holding one finite float array of ndim _ndim, as its attribute _field.

    Values of the same class add and subtract, scalars scale them, and two
    values are equal when their arrays are; a value of one class never
    meets one of another.
    """

    _field: str
    _ndim: int

    def __init__(self, values):
        object.__setattr__(self, self._field, _frozen_array(values, self._ndim))

    @classmethod
    def _wrap(cls, arr: np.ndarray):
        # internal: arr must be a float array of the class's shape; skips
        # the shape checks, keeps the finiteness guarantee
        value = object.__new__(cls)
        object.__setattr__(value, cls._field, _freeze(arr))
        return value

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):  # copies and pickles are rebuilt, and so frozen, by the constructor
        return type(self), (self._array,)

    @property
    def _array(self) -> np.ndarray:
        return getattr(self, self._field)

    @property
    def n(self) -> int:
        return self._array.shape[0]

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        _same_dim(self.n, other.n)
        return self._wrap(self._array + other._array)

    def __sub__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        _same_dim(self.n, other.n)
        return self._wrap(self._array - other._array)

    def __mul__(self, other):
        if not isinstance(other, _SCALARS):
            return NotImplemented
        return self._wrap(self._array * float(other))

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return bool(np.array_equal(self._array, other._array))

    __hash__ = None

    def __repr__(self):
        return f"{type(self).__name__}({self._array.tolist()!r})"


class SquareMatrix(_Frozen):
    """An n-by-n real matrix with finite entries, used as an immutable value."""

    _field, _ndim = "entries", 2
    entries: np.ndarray

    def __init__(self, entries):
        super().__init__(entries)
        if self.n != self.entries.shape[1]:
            raise UsageError(f"matrix must be square, got shape {self.entries.shape}")

    @classmethod
    def identity(cls, n: int) -> "SquareMatrix":
        return cls(np.eye(n))

    @classmethod
    def zeros(cls, n: int) -> "SquareMatrix":
        return cls(np.zeros((n, n)))

    @classmethod
    def diagonal(cls, values) -> "SquareMatrix":
        return cls(np.diag(np.asarray(values, dtype=float)))

    def __matmul__(self, other):
        if isinstance(other, SquareMatrix):
            _same_dim(self.n, other.n)
            return SquareMatrix._wrap(self.entries @ other.entries)
        if isinstance(other, Vector):
            return mat_apply(self, other)
        return NotImplemented


class Vector(_Frozen):
    """A point of R^n (also a distance value), immutable with finite components."""

    _field, _ndim = "components", 1
    components: np.ndarray

    def __init__(self, components):  # the base's, with the attribute's name as keyword
        super().__init__(components)

    @classmethod
    def zeros(cls, n: int) -> "Vector":
        return cls(np.zeros(n))

    @classmethod
    def ones(cls, n: int) -> "Vector":
        return cls(np.ones(n))

    @classmethod
    def full(cls, n: int, value: float) -> "Vector":
        return cls(np.full(n, float(value)))

    @classmethod
    def _wrap_rows(cls, block: np.ndarray) -> list["Vector"]:
        # internal: block must be a (count, n) float array; one finiteness
        # check and one copy cover all its rows, and each Vector holds a
        # view of its row of the copy
        rows = []
        for row in _freeze(block):
            v = object.__new__(cls)
            object.__setattr__(v, "components", row)
            rows.append(v)
        return rows

    def __neg__(self):
        return Vector._wrap(-self.components)

    def __array__(self, dtype=None, copy=None):
        return np.array(self.components, dtype=dtype)


@dataclass(frozen=True)
class OrthantCone:
    """The cone of componentwise-nonnegative vectors in R^n.

    Its interior is the set of componentwise strictly positive vectors,
    which is what the strong order relation tests against.
    """

    n: int

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 1:
            raise UsageError("cone dimension must be a positive integer")

    def contains(self, v: Vector) -> bool:
        return cone_contains(self, v)

    def interior_contains(self, v: Vector) -> bool:
        _same_dim(self.n, v.n)
        return bool(np.all(v.components > 0.0))


def ring_norm(a: SquareMatrix) -> float:
    """Row-sum norm: the maximum over rows of the sum of absolute entries."""
    return float(np.max(np.sum(np.abs(a.entries), axis=1)))


def ring_leq(a: SquareMatrix, b: SquareMatrix) -> bool:
    """Entrywise order on matrices: a <= b in every entry, exact sign test."""
    _same_dim(a.n, b.n)
    return bool(np.all(a.entries <= b.entries))


def cone_contains(cone: OrthantCone, v: Vector) -> bool:
    """Exact membership test: every component of v is >= 0."""
    _same_dim(cone.n, v.n)
    return bool(np.all(v.components >= 0.0))


def order_leq(cone: OrthantCone, x: Vector, y: Vector) -> bool:
    """x <= y in the cone order, i.e. y - x has no negative component."""
    _same_dim(cone.n, x.n)
    _same_dim(cone.n, y.n)
    return bool(np.all(y.components - x.components >= 0.0))


def order_ll(cone: OrthantCone, x: Vector, y: Vector) -> bool:
    """Strong order: y - x lies in the cone interior (strictly positive)."""
    _same_dim(cone.n, x.n)
    _same_dim(cone.n, y.n)
    return bool(np.all(y.components - x.components > 0.0))


def mat_apply(a: SquareMatrix, v: Vector) -> Vector:
    """The module action: matrix times vector."""
    _same_dim(a.n, v.n)
    return Vector._wrap(a.entries @ v.components)


def _rows(x, n: int) -> np.ndarray:
    """The array behind a Vector or a (count, n) stack, checked to have n columns."""
    a = x.components if isinstance(x, Vector) else x
    _same_dim(n, a.shape[-1])
    return a


def _slack(tol: float, *values: np.ndarray) -> np.ndarray:
    """tol times max(1, largest absolute entry of the values), one row per sample."""
    scale = np.max(np.abs(np.hstack(values)), axis=1, keepdims=True)
    return tol * np.maximum(1.0, scale)


def _shaped(out: np.ndarray):
    """A 1-d result as a Vector, a stack as its array; finite either way."""
    if out.ndim > 1 and not np.isfinite(out).all():
        raise UsageError("entries must be finite")
    return Vector._wrap(out) if out.ndim == 1 else out


def sup_norm(v: Vector) -> float:
    return float(np.max(np.abs(v.components)))

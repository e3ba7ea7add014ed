"""Closed-form decisions of the hypotheses a problem file can state.

A file's maps are affine, x -> M x + b, or componentwise, x -> M u + b with
u_i = tag_i((L x + d)_i), every tag 1-Lipschitz; its metric is W |x - y|
with W > 0. When g is affine with a diagonal matrix D (the identity when
the file has no g), d(f x, f y) <= k d(g x, g y) holds when W |M| <= k W |D|
(times |L| on the left for componentwise f). The test is exact for affine
f, since the pair (e_j, 0) needs column j, and sufficient otherwise; with
the gain for k it proves condition C's first branch. None means the rule
does not apply or a sufficient test failed, and the caller samples.

Both sides are computed exactly, on Python ints: every double is an
integer times a power of two, so each matrix is an integer matrix (numpy
object array) over one power of two, and ties are decided exactly.
"""

from __future__ import annotations

import math

import numpy as np

from .contraction import linear_comparison_axioms as comparison_axioms
from .metric import MetricAxiomReport
from .ordered_algebra import SquareMatrix
from .sampling import _witnesses
from .solver import ConditionCReport, LipschitzReport, MapSpec

__all__ = ["lipschitz", "condition_c", "comparison_axioms", "metric_axioms"]


def _dyadic(a: np.ndarray) -> tuple[np.ndarray, int]:
    """a's entries as integers over one power of two: a = ints / 2**s exactly."""
    ratios = [x.as_integer_ratio() for x in a.ravel().tolist()]
    s = max((q for _, q in ratios), default=1).bit_length() - 1
    ints = [p << s >> (q.bit_length() - 1) for p, q in ratios]
    return np.array(ints, dtype=object).reshape(a.shape), s


def _decide(f: MapSpec, g: MapSpec, gain: SquareMatrix, weight: SquareMatrix):
    """Decide W |M| (|L|) <= gain W |D| entrywise, or None without a rule.

    Returns the mask of columns with a failing entry and the nearest double
    of the smallest entry of right - left.
    """
    dm = g.M.entries
    if g.kind != "affine" or np.count_nonzero(dm - np.diag(np.diagonal(dm))):
        return None
    (w, sw), (m, sm), (k, sk), (d, sd) = map(
        _dyadic, (weight.entries, np.abs(f.M.entries), gain.entries, np.abs(np.diagonal(dm)))
    )
    left, s = w @ m, sw + sm
    if f.kind != "affine":
        inner, si = _dyadic(np.abs(f.L.entries))
        left, s = left @ inner, s + si
    right, t = k @ w * d, sk + sw + sd  # times d scales column j by |D_jj|
    u = max(s, t)
    diff = (right << (u - t)) - (left << (u - s))
    smallest = min(diff.ravel().tolist())
    try:
        gap = smallest / (1 << u)  # int / int rounds to nearest
    except OverflowError:
        gap = math.inf if smallest > 0 else -math.inf
    return (diff < 0).any(axis=0), gap


def lipschitz(f: MapSpec, g: MapSpec, k: SquareMatrix, weight: SquareMatrix):
    """d(f x, f y) <= k d(g x, g y): a LipschitzReport, or None when the caller must sample.

    A refutation holds one witness (e_j, 0, lhs, rhs) per failing column j,
    lhs and rhs the float columns j of W |M| and k W |D|.
    """
    decided = _decide(f, g, k, weight)
    if decided is None:
        return None
    failed, gap = decided
    method = "exact" if f.kind == "affine" else "sufficient"
    if not failed.any():
        return LipschitzReport(0, method=method, gap=gap)
    w = weight.entries
    with np.errstate(over="ignore", invalid="ignore"):
        lo, hi = w @ np.abs(f.M.entries), k.entries @ w * np.abs(np.diagonal(g.M.entries))
    if method == "sufficient" or not np.isfinite(np.hstack((lo, hi))).all():
        return None  # sampling decides, or raises the typed error of an overflow
    found = _witnesses(failed, np.eye(len(lo)), np.zeros_like(lo), lo.T, hi.T)
    return LipschitzReport(0, found, method=method, gap=gap)


def condition_c(f: MapSpec, g: MapSpec, gain: SquareMatrix, weight: SquareMatrix):
    """Condition C's first branch, d(f x, f y) <= G d(g x, g y), for every pair; else None."""
    decided = _decide(f, g, gain, weight)
    if decided is None or decided[0].any():
        return None
    return ConditionCReport(0, method="sufficient", gap=decided[1])


def metric_axioms(weight: SquareMatrix) -> MetricAxiomReport:
    """d(x, y) = W |x - y| is a vector metric, since parsing requires W > 0.

    gap is W's smallest entry.
    """
    return MetricAxiomReport(0, method="exact", gap=float(weight.entries.min()))

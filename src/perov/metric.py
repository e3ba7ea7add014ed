"""Vector-valued metrics on R^n.

The workhorse is the matrix-weighted family d(x, y) = W |x - y| with a
strictly positive weight matrix, which distributes one scalar displacement
into a vector of coupled distance components. A sampling checker probes
user-supplied candidates against the three metric axioms; sampling can only
falsify, so a clean report means "no violation found", not a proof.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import UsageError
from .ordered_algebra import SquareMatrix, Vector, _rows, _same_dim, _shaped, _slack
from .sampling import Sampler, _draw, _Report, _witnesses

__all__ = [
    "WeightedMatrixMetric",
    "MetricAxiomReport",
    "metric_eval",
    "check_metric_axioms",
    "converged",
]

MetricFn = Callable[[Vector, Vector], Vector]


@dataclass(frozen=True, eq=False)
class WeightedMatrixMetric:
    """d(x, y) = W |x - y| componentwise, W strictly positive."""

    weight: SquareMatrix

    def __post_init__(self):
        if not np.all(self.weight.entries > 0.0):
            raise UsageError("metric weight entries must be strictly positive")

    @property
    def n(self) -> int:
        return self.weight.n

    def __call__(self, x, y):
        return metric_eval(self, x, y)

    def _raw(self, a, b):  # unchecked
        return np.abs(a - b).dot(self.weight.entries.T)

    def _steps(self, v):  # unchecked, for the solve loop
        """Row i is _raw(v[i : i + 1], v[i + 1 : i + 2]), bit for bit, for a (count + 1, n) stack v.

        A stacked matmul takes one row product per step, as _raw does on one
        row; a (count, n) product would take another BLAS path and move bits.
        """
        return np.matmul(np.abs(v[:-1] - v[1:])[:, None, :], self.weight.entries.T)[:, 0, :]


def metric_eval(m: WeightedMatrixMetric, x, y):
    """Weighted distance, in the cone, of two Vectors or row by row of two stacks."""
    # overflow becomes a typed error in _shaped, not a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        raw = m._raw(_rows(x, m.n), _rows(y, m.n))
    return _shaped(raw)


@dataclass
class MetricAxiomReport(_Report):
    """Outcome of a sampling run over the three metric axioms: a violation list per axiom.

    Violation entries carry the witnessing points and the offending distance
    vectors, so failures are reproducible by hand; d1 entries come grouped by test.
    """

    d1_violations: list = field(default_factory=list)
    d2_violations: list = field(default_factory=list)
    d3_violations: list = field(default_factory=list)


def check_metric_axioms(
    metric: MetricFn,
    sampler: Sampler,
    count: int,
    slack: float = 1e-12,
) -> MetricAxiomReport:
    """Probe a candidate metric with sampled triples.

    Per triple (x, y, z):
      d1: d(x, y) has no negative component, d(x, x) = 0 exactly, and
          x != y implies d(x, y) != 0;
      d2: d(x, y) = d(y, x) exactly;
      d3: d(x, z) + d(z, y) - d(x, y) >= -slack * max(1, m) componentwise,
          m the largest component of the three distances.

    The slack is relative: it covers only the rounding of the triangle sum,
    which grows with the distances summed, so a weight scaled by 1e6 is
    judged as the unscaled one. The sign tests for d1 and d2 are exact. The
    metric is called on stacks.
    """
    x, y, z = _draw(sampler, count, 3)
    dxy, dxx, dyx = metric(x, y), metric(x, x), metric(y, x)
    dxz, dzy = metric(x, z), metric(z, y)
    return MetricAxiomReport(
        samples_tested=count,
        d1_violations=_witnesses(np.any(dxy < 0.0, axis=1), x, y, dxy)
        + _witnesses(np.any(dxx != 0.0, axis=1), x, x, dxx)
        + _witnesses(~np.any(dxy, axis=1) & np.any(x != y, axis=1), x, y, dxy),
        d2_violations=_witnesses(np.any(dxy != dyx, axis=1), x, y, dxy, dyx),
        d3_violations=_witnesses(
            np.any(dxz + dzy - dxy < -_slack(slack, dxy, dxz, dzy), axis=1),
            x, y, z, dxy, dxz, dzy,
        ),
    )


def converged(dist: Vector, eps: Vector) -> bool:
    """Strong-order convergence test: dist strictly below eps componentwise.

    eps must be interior (all components positive); a non-interior eps can
    never witness convergence and is a usage error.
    """
    _same_dim(dist.n, eps.n)
    if not np.all(eps.components > 0.0):
        raise UsageError("eps must be interior: every component strictly positive")
    return bool(np.all(eps.components - dist.components > 0.0))

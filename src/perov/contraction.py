"""Contraction certificates and comparison functions.

A nonnegative matrix k is usable as a contraction coefficient when its
spectral radius is below one. Then I - k is a nonsingular M-matrix, which
holds exactly when S = (I - k)^-1 exists and is entrywise nonnegative, and
S = I + k + k^2 + ... is what turns per-step distances into componentwise
a-priori error bounds. The certificate computes S with one linear solve,
checks its sign and its residual, and bounds the spectral radius from above
with the Collatz-Wielandt ratio max_i (k x)_i / x_i of a positive vector x.

Comparison functions generalize the linear coefficient: phi maps the cone
into itself, shrinks every nonzero argument in the cone order, and its
iterates fall below any interior threshold. The sampling checker probes
those axioms; like all sampling it can only falsify.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import NotCertifiedError, UsageError
from .ordered_algebra import SquareMatrix, Vector, _rows, _shaped
from .sampling import Sampler, _draw, _witnesses

__all__ = [
    "ContractionCertificate",
    "LinearComparison",
    "ComparisonAxiomReport",
    "spectral_radius",
    "certify_contraction",
    "linear_comparison",
    "comparison_apply",
    "check_comparison_axioms",
    "CERT_RESIDUAL_MAX",
]

# Hard cap on the certificate residual ring_norm((1 - k) S - 1). Entries of S
# within CERT_RESIDUAL_MAX * ring_norm(S) below zero are rounding of a zero.
CERT_RESIDUAL_MAX = 1e-10

# The comparison-axiom check: the rounding its order tests forgive, the phi
# applications its tail test allows a sample, and the failures it records.
_COMPARISON_SLACK = 1e-14
_TAIL_BUDGET = 10_000
_TAIL_WITNESSES = 10

# Most sharpening solves spent on the Collatz-Wielandt vector. The shifted
# step converges quadratically on irreducible matrices; reducible and
# defective ones stop here with a looser, still valid, bound.
_SHARPEN_STEPS = 6


def _row_sum_norm(m: np.ndarray) -> float:
    return float(np.max(np.sum(np.abs(m), axis=1)))


def _require_nonnegative(a: SquareMatrix, what: str) -> None:
    if np.any(a.entries < 0.0):
        raise UsageError(f"{what} must have nonnegative entries")


def spectral_radius(a: SquareMatrix, tol: float) -> float:
    """Estimate the spectral radius of a nonnegative matrix: max |eigenvalue|.

    The estimate is for reporting and certifies nothing; certify_contraction
    supplies the upper bound. tol must be positive; the eigenvalue solver
    is accurate to rounding whatever its value.
    """
    _require_nonnegative(a, "matrix")
    if not tol > 0.0:
        raise UsageError("tol must be positive")
    return float(np.max(np.abs(np.linalg.eigvals(a.entries))))


@dataclass(frozen=True, eq=False)
class ContractionCertificate:
    """Evidence that k has spectral radius below one.

    Holds the spectral radius estimate rho, the certified upper bound
    rho_bound on it, S = (1 - k)^-1, the number of Collatz-Wielandt vectors
    tried, and the verification residual ring_norm((1 - k) S - 1), which
    must not exceed CERT_RESIDUAL_MAX.
    """

    k: SquareMatrix
    rho: float
    rho_bound: float
    S: SquareMatrix
    series_terms: int
    residual: float

    def __post_init__(self):
        _require_nonnegative(self.k, "certified matrix")
        if not self.rho_bound < 1.0:
            raise UsageError("certificate requires a spectral radius bound below 1")
        if self.k.n != self.S.n:
            raise UsageError("certificate matrices must share a dimension")
        if not self.residual <= CERT_RESIDUAL_MAX:
            raise UsageError(
                f"certificate residual {self.residual!r} exceeds {CERT_RESIDUAL_MAX!r}"
            )

    @property
    def n(self) -> int:
        return self.k.n


def _collatz_wielandt(m: np.ndarray, x: np.ndarray) -> float:
    """max_i (m x)_i / x_i: an upper bound on rho(m) for positive x, else inf."""
    if not np.all(x > 0.0):
        return math.inf
    return float(np.max(m @ x / x))


def certify_contraction(a: SquareMatrix, tol: float) -> ContractionCertificate:
    """Certify a nonnegative matrix as a usable contraction coefficient.

    Solves for S = (1 - k)^-1 and requires it to be entrywise nonnegative
    with a residual within CERT_RESIDUAL_MAX. The Collatz-Wielandt bound of
    x = S 1 is then sharpened by shifted solves x <- (b - k)^-1 x, b the
    current bound, until it stops falling; the matrix is certified when the
    bound is below 1 - tol. Raises NotCertifiedError, carrying the spectral
    radius estimate and naming the failed check, otherwise.
    """
    _require_nonnegative(a, "matrix")
    if not tol > 0.0:
        raise UsageError("tol must be positive")
    rho = spectral_radius(a, tol)
    k = a.entries
    eye = np.eye(a.n)
    try:
        s = np.linalg.solve(eye - k, eye)
    except np.linalg.LinAlgError:
        raise NotCertifiedError(rho, "not certified: 1 - k is singular") from None
    residual = _row_sum_norm((eye - k) @ s - eye)
    if not residual <= CERT_RESIDUAL_MAX:
        raise NotCertifiedError(
            rho,
            f"not certified: residual {residual!r} of (1 - k)^-1 "
            f"exceeds {CERT_RESIDUAL_MAX!r}",
        )
    if np.any(s < -CERT_RESIDUAL_MAX * _row_sum_norm(s)):
        raise NotCertifiedError(
            rho, "not certified: (1 - k)^-1 has a negative entry, so rho(k) >= 1"
        )
    x = s.sum(axis=1)
    bound = _collatz_wielandt(k, x)
    terms = 1
    # x = S 1 > 0 gives bound = 1 - 1 / max(x) < 1; a larger bound means x is
    # not positive and there is nothing to sharpen
    while bound < 1.0 and terms <= _SHARPEN_STEPS:
        try:
            y = np.linalg.solve(bound * eye - k, x)
        except np.linalg.LinAlgError:
            break  # the bound is an eigenvalue of k, hence exact
        sharper = _collatz_wielandt(k, y)
        terms += 1
        if not sharper < bound:
            break
        x, bound = y / np.max(y), sharper
    if not bound < 1.0 - tol:
        raise NotCertifiedError(
            rho,
            f"not certified: Collatz-Wielandt bound {bound!r} on the spectral "
            f"radius is not below 1 - tol",
        )
    return ContractionCertificate(
        k=a,
        rho=rho,
        rho_bound=bound,
        S=SquareMatrix(s),
        series_terms=terms,
        residual=residual,
    )


@dataclass(frozen=True, eq=False)
class LinearComparison:
    """The linear comparison family phi(t) = G t for a certified gain matrix.

    The gain is nonnegative with a held contraction certificate, so applying
    it to a cone vector stays in the cone. deficiency_in_cone records whether
    1 - G itself has no negative entry (and is nonzero); only then do all
    four comparison axioms hold, which for this entrywise order pins the gain
    down to a diagonal with entries in [0, 1). The axiom checker is the
    arbiter for everything else.
    """

    gain: SquareMatrix
    certificate: ContractionCertificate
    deficiency_in_cone: bool

    @property
    def n(self) -> int:
        return self.gain.n

    def __call__(self, t):
        return comparison_apply(self, t)

    def _raw(self, a):  # finiteness unchecked, for the solve loop
        if np.logical_or.reduce(a < 0.0, None):
            raise UsageError("comparison functions are defined on the cone only")
        return a.dot(self.gain.entries.T)


def linear_comparison(gain: SquareMatrix, tol: float = 1e-9) -> LinearComparison:
    """Build a LinearComparison, certifying the gain matrix on the way."""
    cert = certify_contraction(gain, tol)
    deficit = np.eye(gain.n) - gain.entries
    in_cone = bool(np.all(deficit >= 0.0)) and bool(np.any(deficit != 0.0))
    return LinearComparison(gain=gain, certificate=cert, deficiency_in_cone=in_cone)


def comparison_apply(phi: LinearComparison, t):
    """Apply a linear comparison function to a cone Vector or a (count, n) stack."""
    return _shaped(phi._raw(_rows(t, phi.n)))


@dataclass
class ComparisonAxiomReport:
    """Outcome of sampling the four comparison-function axioms.

    tail_checked counts the samples the iterate test covers, which stops at
    the _TAIL_WITNESSES-th failure.
    """

    samples_tested: int
    shrink_violations: list = field(default_factory=list)
    monotone_violations: list = field(default_factory=list)
    interior_violations: list = field(default_factory=list)
    tail_violations: list = field(default_factory=list)
    tail_checked: int = 0

    @property
    def passed(self) -> bool:
        return not (
            self.shrink_violations
            or self.monotone_violations
            or self.interior_violations
            or self.tail_violations
        )


def check_comparison_axioms(
    phi: Callable[[Vector], Vector], sampler: Sampler, count: int
) -> ComparisonAxiomReport:
    """Probe a candidate comparison function on sampled cone vectors.

    Checks, per sample t (with a companion sample s):
      shrink:   phi(0) = 0 and, for t != 0, phi(t) <= t with phi(t) != t;
      monotone: phi(t) <= phi(t + s) within slack;
      interior: for interior t, t - phi(t) stays strictly positive;
      tail:     iterates phi^j(t) fall strictly below the interior point s
                within _TAIL_BUDGET applications.

    The slack covers floating arithmetic only; strictness tests are exact.
    phi is called on stacks; every eligible sample runs the tail test at once.
    """
    t, s = _draw(sampler, count, 2)
    if np.any(t < 0.0):
        raise UsageError("comparison sampler must produce cone vectors")
    zero, t2 = np.zeros((1, t.shape[1])), t + s
    phi_zero, phi_t, phi_t2 = phi(zero), phi(t), phi(t2)
    nonzero = np.any(t != 0.0, axis=1)
    shrinks = np.all(t - phi_t >= -_COMPARISON_SLACK, axis=1) & np.any(phi_t != t, axis=1)
    eligible = np.flatnonzero(nonzero & np.all(s > 0.0, axis=1))
    reached, applications = _tail(phi, t[eligible], s[eligible])
    failed = np.flatnonzero(~reached)[:_TAIL_WITNESSES]
    checked = failed[-1] + 1 if len(failed) == _TAIL_WITNESSES else len(eligible)
    return ComparisonAxiomReport(
        samples_tested=count,
        shrink_violations=_witnesses(np.any(phi_zero != 0.0, axis=1), zero, phi_zero)
        + _witnesses(nonzero & ~shrinks, t, phi_t),
        monotone_violations=_witnesses(
            ~np.all(phi_t2 - phi_t >= -_COMPARISON_SLACK, axis=1), t, t2, phi_t, phi_t2
        ),
        interior_violations=_witnesses(
            np.all(t > 0.0, axis=1) & ~np.all(t - phi_t > 0.0, axis=1), t, phi_t
        ),
        tail_violations=[
            (Vector(t[eligible[i]]), Vector(s[eligible[i]]), int(applications[i]))
            for i in failed
        ],
        tail_checked=int(checked),
    )


def _tail(phi, u: np.ndarray, threshold: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row: whether phi^j(u) gets below threshold while finite and moving,
    and j. The rows still going are kept compacted, in order, with their
    thresholds: each application is one phi call on them and one boolean
    index, and a row's j is written when it leaves."""
    reached = np.all(threshold - u > 0.0, axis=1)
    applications = np.zeros(len(u), dtype=int)
    active = np.flatnonzero(~reached)
    u, threshold = u[active], threshold[active]
    for j in range(1, _TAIL_BUDGET + 1):
        if not active.size:
            break
        u_next = phi(u)
        moving = np.logical_and.reduce(np.isfinite(u_next), 1)
        moving &= np.logical_or.reduce(u_next != u, 1)
        below = moving & np.logical_and.reduce(threshold - u_next > 0.0, 1)
        going = moving ^ below
        applications[active[~going]] = j
        reached[active[below]] = True
        active, u, threshold = active[going], u_next[going], threshold[going]
    applications[active] = _TAIL_BUDGET
    return reached, applications

"""Contraction certificates and comparison functions.

A nonnegative matrix k is usable as a contraction coefficient when its
spectral radius is below one. Then I - k is a nonsingular M-matrix, so
S = (I - k)^-1 = I + k + k^2 + ... exists and is entrywise nonnegative, and
S is what turns per-step distances into componentwise a-priori error
bounds. The certificate computes S with one linear solve, checks its
residual, and bounds the spectral radius from above with the
Collatz-Wielandt ratio max_i (k x)_i / x_i of a positive vector x. A bound
below one proves the M-matrix property, and with it the sign of S.

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
from .sampling import Sampler, _draw, _Report, _witnesses

__all__ = [
    "ContractionCertificate",
    "LinearComparison",
    "ComparisonAxiomReport",
    "spectral_radius",
    "certify_contraction",
    "linear_comparison",
    "comparison_apply",
    "check_comparison_axioms",
    "linear_comparison_axioms",
    "CERT_RESIDUAL_MAX",
]

# Hard cap on the certificate residual ring_norm((1 - k) S - 1).
CERT_RESIDUAL_MAX = 1e-10

# The comparison-axiom check: the rounding its order tests forgive, the phi
# applications its tail test allows a sample, and the failures it records.
_COMPARISON_SLACK = 1e-14
_TAIL_BUDGET = 10_000
_TAIL_WITNESSES = 10

# Relative shift above the eigenvalue estimate for the shifted solve.
_SHIFT = 1e-12


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
    tried (1 to 3), and the verification residual ring_norm((1 - k) S - 1),
    which must not exceed CERT_RESIDUAL_MAX.
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
    """max_i (m x)_i / x_i: an upper bound on rho(m) for positive finite x, else inf."""
    if not np.all((x > 0.0) & (x < math.inf)):
        return math.inf
    return float(np.max(m @ x / x))


def _shifted_bound(k: np.ndarray, eye: np.ndarray, b: float) -> float:
    """The Collatz-Wielandt bound of (b - k)^-1 1, inf where the solve fails."""
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            return _collatz_wielandt(k, np.linalg.solve(b * eye - k, np.ones(len(k))))
        except np.linalg.LinAlgError:
            return math.inf


def certify_contraction(a: SquareMatrix, tol: float) -> ContractionCertificate:
    """Certify a nonnegative matrix as a usable contraction coefficient.

    Solves for S = (1 - k)^-1 and requires a residual within
    CERT_RESIDUAL_MAX. The Collatz-Wielandt bound of x = S 1 is replaced
    by that of x = (b - k)^-1 1, b just above the eigenvalue estimate or
    else the midpoint of the estimate and 1 - tol, when smaller; the
    matrix is certified when the bound is below 1 - tol. Raises
    NotCertifiedError, carrying the spectral radius estimate and naming
    the failed check, otherwise.
    """
    rho = spectral_radius(a, tol)  # checks a >= 0 and tol > 0
    k = a.entries
    eye = np.eye(a.n)
    try:
        s = np.linalg.solve(eye - k, eye)
    except np.linalg.LinAlgError:
        raise NotCertifiedError(rho, "not certified: 1 - k is singular") from None
    residual = float(np.max(np.sum(np.abs((eye - k) @ s - eye), axis=1)))
    if not residual <= CERT_RESIDUAL_MAX:
        raise NotCertifiedError(
            rho,
            f"not certified: residual {residual!r} of (1 - k)^-1 "
            f"exceeds {CERT_RESIDUAL_MAX!r}",
        )
    bound = _collatz_wielandt(k, s.sum(axis=1))
    terms = 1
    # For b > rho(k), x = (b - k)^-1 1 is positive and k x = b x - 1 < b x,
    # so one shifted solve bounds the radius by about b; b is at most the
    # midpoint of rho and 1 - tol. Where x overflows (a large Jordan block)
    # or the solve fails (a nilpotent k) and its bound misses 1 - tol, one
    # more solve at that midpoint bounds the radius by about the midpoint.
    gap = 1.0 - tol - rho
    b = rho + min(_SHIFT * max(1.0, rho), abs(gap) / 2.0)
    if b < bound:
        shifted, terms = _shifted_bound(k, eye, b), 2
        if not shifted < 1.0 - tol and b < rho + gap / 2.0:
            shifted, terms = min(shifted, _shifted_bound(k, eye, rho + gap / 2.0)), 3
        bound = min(bound, shifted)
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
    1 - G itself has no negative entry (and is nonzero). All four comparison
    axioms hold exactly when G is diagonal with entries in [0, 1), for this
    entrywise order (t = e_j shows the need); linear_comparison_axioms
    decides that rule, and check_comparison_axioms samples any other phi.
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
class ComparisonAxiomReport(_Report):
    """Outcome of sampling the four comparison-function axioms: a violation list per axiom.

    tail_checked counts the samples the iterate test covers, which stops at
    the _TAIL_WITNESSES-th failure.
    """

    shrink_violations: list = field(default_factory=list)
    monotone_violations: list = field(default_factory=list)
    interior_violations: list = field(default_factory=list)
    tail_violations: list = field(default_factory=list)
    tail_checked: int = 0


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


def linear_comparison_axioms(gain: SquareMatrix) -> ComparisonAxiomReport:
    """The four axioms of phi(t) = G t, exactly, for a LinearComparison's gain.

    That gain is nonnegative with spectral radius below 1, so monotonicity
    and the tail hold, and shrink and interior hold when G is diagonal with
    entries below 1. Each other column j gets one shrink witness (e_j, G e_j)
    and one interior witness (t, G t), t = e_j + c 1 with c the largest
    entry of the column off the diagonal, or 1: row i of that entry, or j,
    has t_i <= (G t)_i, also in floats. gap is min(1 - g_jj) on a pass and
    the worst excess, minus that entry or 1 - g_jj, on a failure.
    """
    g = gain.entries
    n, diagonal = len(g), np.diagonal(g)
    off = (g - np.diag(diagonal)).max(axis=0)
    failed = (off > 0.0) | (diagonal >= 1.0)
    t = np.eye(n) + np.where(off > 0.0, off, 1.0)[:, None]
    gap = min(float((1.0 - diagonal).min()), -float(off.max()) if off.any() else math.inf)
    return ComparisonAxiomReport(
        0, _witnesses(failed, np.eye(n), g.T), interior_violations=_witnesses(failed, t, t @ g.T),
        method="exact", gap=gap,
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

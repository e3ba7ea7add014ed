"""Fixed-point and coincidence-point iteration under vector-valued metrics.

One loop serves three entry points. It runs the coincidence iteration
f(x_j) = g(x_{j+1}), inverting g through a supplied oracle; perov_solve is
the case g = id, which needs no inversion. When f is declarative and the
oracle is g's own affine_preimage, the loop iterates the values v = g x
under h = f g^-1, built once per solve, and solves for a point only where
it needs one; otherwise it takes the literal steps, one checked preimage
solve each. With a certified matrix
coefficient k (perov_solve, jungck_solve) the certificate's S = (I - k)^-1
turns the first step distance into a componentwise a-priori bound
k^j S d_0 on the distance to the limit, which drives the stopping rule.
comparison_solve replaces k by a comparison function phi, which admits no
computable tail bound: phi's axioms are screened first, exactly for a
LinearComparison and on a cone sample otherwise, and the contraction
condition is verified online at every step.

The loop keeps its state as (1, n) arrays and calls f, g, the metric and
phi in their (count, n) stack form: a declarative one as its unchecked _raw
arithmetic; values become Vectors only where they leave the loop. It takes
steps in blocks: each step's arithmetic runs in turn on its (1, n) row,
then the finiteness, stop and online comparison tests are screened once
over the block's rows, and only a block that fails a screen runs the
per-step checks row by row. A block grows to _BLOCK rows when no step
calls user code, and is one row otherwise. A step leaves the loop only
through the caller's on_step, in step order once its block is checked: a
solve holds one block of rows at most, and its memory does not grow with
the budget.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from numpy.linalg import _umath_linalg

from .contraction import (
    ContractionCertificate,
    LinearComparison,
    _require_nonnegative,
    check_comparison_axioms,
    linear_comparison_axioms,
)
from .errors import EvaluationError, PreimageError, UsageError
from .metric import MetricFn, WeightedMatrixMetric
from .ordered_algebra import SquareMatrix, Vector, _rows, _same_dim, _shaped, _slack
from .sampling import Sampler, _draw, _Report, _witnesses, cone_sampler

__all__ = [
    "MapSpec",
    "identity_map",
    "affine_preimage",
    "SolveStatus",
    "IterationTrace",
    "SolveResult",
    "LipschitzReport",
    "ConditionCReport",
    "verify_matrix_lipschitz",
    "verify_condition_c",
    "perov_solve",
    "jungck_solve",
    "comparison_solve",
    "PREIMAGE_TOL",
    "WEAK_COMPAT_TOL",
]

MapFn = Callable[[Vector], Vector]
StepFn = Callable[[int, np.ndarray, np.ndarray, np.ndarray], None]

# Residual allowed for a preimage oracle, in the sup norm, relative to the
# larger sup norm of the preimage and its target (absolute below 1).
PREIMAGE_TOL = 1e-12

# Commutation residual below which two maps count as weakly compatible at a
# coincidence point, relative to the sup norms of the two composed values
# (absolute below 1).
WEAK_COMPAT_TOL = 1e-8

# Excess of a step distance over phi of the previous one that the online
# check of comparison_solve forgives, relative to the values compared.
_STEP_SLACK = 1e-12

# Excess of d(f x, f y) over its sampled bound that the Lipschitz and
# condition-C checks forgive, relative to the sup norms of f x, f y, g x, g y.
_GATE_SLACK = 1e-12

# Most steps the solve loop takes in one block when no step calls user code.
_BLOCK = 64

# Fewest rows a block is screened at as a whole; a shorter one is checked
# row by row, as its screens would cost more than the per-step tests.
_SCREENED = 4

_NON_FINITE_MAP = "map evaluation produced a non-finite value"

_TAG_FUNCS = {
    "identity": lambda z: z,
    "sin": np.sin,
    "cos": np.cos,
    "tanh": np.tanh,
    "atan": np.arctan,
}


@dataclass(frozen=True, eq=False)
class MapSpec:
    """A declaratively specified map on R^n.

    Two kinds are supported:
      affine:                  x -> M x + b
      componentwise-nonlinear: x -> M u + b with u_i = tag_i((L x + d)_i),
    where each tag names a scalar function from the fixed catalog
    (identity, sin, cos, tanh, atan). A call checks dimension and
    finiteness; _raw, for the solve loop, is the same arithmetic unchecked.
    """

    kind: str
    M: SquareMatrix
    b: Vector
    L: SquareMatrix | None = None
    d: Vector | None = None
    tags: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.kind not in ("affine", "componentwise-nonlinear"):
            raise UsageError(f"unknown map kind {self.kind!r}")
        n = self.M.n
        if self.b.n != n:
            raise UsageError("map offset dimension must match the matrix")
        if self.kind == "affine":
            if self.L is not None or self.d is not None or self.tags is not None:
                raise UsageError("affine maps take only M and b")
        else:
            if self.L is None or self.d is None or self.tags is None:
                raise UsageError("componentwise maps need L, d, and tags")
            if self.L.n != n or self.d.n != n:
                raise UsageError("inner affine stage dimension must match the matrix")
            if len(self.tags) != n:
                raise UsageError("one tag per component is required")
            unknown = [t for t in self.tags if t not in _TAG_FUNCS]
            if unknown:
                raise UsageError(
                    f"unknown tags {unknown!r}; catalog: {sorted(_TAG_FUNCS)}"
                )
            object.__setattr__(self, "tags", tuple(self.tags))

    @property
    def n(self) -> int:
        return self.M.n

    @classmethod
    def affine(cls, M: SquareMatrix, b: Vector) -> "MapSpec":
        return cls(kind="affine", M=M, b=b)

    @classmethod
    def componentwise(
        cls,
        M: SquareMatrix,
        b: Vector,
        L: SquareMatrix,
        d: Vector,
        tags: tuple[str, ...],
    ) -> "MapSpec":
        return cls(kind="componentwise-nonlinear", M=M, b=b, L=L, d=d, tags=tags)

    def __call__(self, x):
        """Map a Vector to a Vector, or a (count, n) stack of points row by row."""
        # overflow becomes a typed error below, not a numpy warning
        with np.errstate(over="ignore", invalid="ignore"):
            raw = self._raw(_rows(x, self.n))
        if not np.isfinite(raw).all():
            raise EvaluationError(_NON_FINITE_MAP)
        return raw if raw.ndim > 1 else Vector._wrap(raw)

    def _raw(self, a):  # the caller holds the errstate and checks finiteness
        if self.kind == "affine":
            return a.dot(self.M.entries.T) + self.b.components
        u = a.dot(self.L.entries.T) + self.d.components
        for i, tag in enumerate(self.tags):
            u[..., i] = _TAG_FUNCS[tag](u[..., i])
        return u.dot(self.M.entries.T) + self.b.components


def identity_map(n: int) -> MapSpec:
    return MapSpec.affine(SquareMatrix.identity(n), Vector.zeros(n))


def affine_preimage(g: MapSpec) -> MapFn:
    """Invert an affine map, as an oracle y -> x with g(x) = y.

    The oracle takes a Vector or a (count, n) stack, like a MapSpec, and
    refuses a non-finite answer. The matrix must be invertible; singularity
    is a usage error raised here rather than at the first call. Its _raw
    form, for the solve loop, takes a stack and calls LAPACK's gesv kernel,
    which np.linalg.solve wraps, directly: the same bits without the
    wrapper's checks. The oracle is marked with the g it inverts, so that a
    solve can iterate values under f g^-1 and call it only where it needs a
    point.
    """
    if g.kind != "affine":
        raise UsageError("only affine maps can be auto-inverted")
    m, b, n = g.M.entries, g.b.components, g.n
    try:
        np.linalg.solve(m, np.zeros(n))
    except np.linalg.LinAlgError as exc:
        raise UsageError("map matrix is singular; supply a preimage oracle") from exc

    def solve(y):
        # a 1-d right-hand side and its (n, 1) column give the same bits
        return _shaped(np.linalg.solve(m, (_rows(y, n) - b).T).T)

    solve._raw, solve.n = lambda a: _umath_linalg.solve(m, (a - b).T).T, n
    solve._inverts = g
    return solve


def _value_map(f, g, g_solve) -> MapSpec | None:
    """h = f g^-1 as a MapSpec, for a declarative f and g's own affine_preimage; else None.

    g x_{j+1} = f x_j is then v_{j+1} = h(v_j) on the values v = g x. With
    x = M_g^-1 (v - b_g), an affine f becomes (M_f M_g^-1, b_f - M_f M_g^-1 b_g),
    and a componentwise f takes the same fold in its inner stage (L, d).
    M_g^-1 is applied by one solve; the product is stored C-contiguous,
    like every SquareMatrix, so a step takes the BLAS path of f.M. A zero
    b_g leaves the offset as it is, so for g = id h is f bit for bit. A
    product or offset that is not finite gives None.
    """
    if not isinstance(f, MapSpec) or getattr(g_solve, "_inverts", None) is not g:
        return None
    m, b = (f.M, f.b) if f.kind == "affine" else (f.L, f.d)
    m, b = m.entries, b.components
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            a = np.linalg.solve(g.M.entries.T, m.T).T
        except np.linalg.LinAlgError:  # numpy reports an overflow in the solve as singular
            return None
        c = b - a.dot(g.b.components) if g.b.components.any() else b
    if not (np.isfinite(a).all() and np.isfinite(c).all()):
        return None
    a, c = SquareMatrix._wrap(a), Vector._wrap(c)
    if f.kind == "affine":
        return MapSpec.affine(a, c)
    return MapSpec.componentwise(f.M, f.b, a, c, f.tags)


class SolveStatus(enum.Enum):
    CONVERGED = "converged"
    BUDGET_EXHAUSTED = "budget_exhausted"
    HYPOTHESIS_VIOLATED = "hypothesis_violated"


@dataclass
class IterationTrace:
    """How an iteration ended and how many steps it took; steps go to on_step."""

    status: SolveStatus
    iterations: int


@dataclass
class SolveResult:
    """Outcome of a solve: the point p, its value g(p) and the residual d(f p, g p)."""

    point: Vector
    value: Vector
    trace: IterationTrace
    residual: Vector
    weakly_compatible: bool | None = None
    hypothesis_witness: dict | None = None

    @property
    def common_fixed_point(self) -> Vector | None:
        """The value g(p) when f and g are weakly compatible at p, else None.

        A unique point of coincidence of a weakly compatible pair is their
        unique common fixed point (Abbas & Jungck, J. Math. Anal. Appl. 341,
        2008, Prop. 1.12), so the value needs no further iteration.
        """
        return self.value if self.weakly_compatible else None


@dataclass
class LipschitzReport(_Report):
    """Sampled check of d(f x, f y) <= k d(g x, g y); violations holds (x, y, lhs, rhs)."""

    violations: list = field(default_factory=list)


@dataclass
class ConditionCReport(_Report):
    """Sampled check of the three-branch contraction condition.

    violations holds the pairs that meet no branch. branch_counts[i] counts
    samples whose first satisfied branch was i: 0 compares against
    d(gx, gy), 1 against d(gx, fx), 2 against d(gy, fy).
    """

    violations: list = field(default_factory=list)
    branch_counts: list = field(default_factory=lambda: [0, 0, 0])


def _vec(row: np.ndarray) -> Vector:
    """A (1, n) row of the loop, as a Vector leaving the loop."""
    return Vector._wrap(row[0])


def _sup(a: np.ndarray) -> float:
    return float(np.maximum.reduce(np.abs(a), None))


def _within(value: float, tol: float, *operands: np.ndarray) -> bool:
    """value <= tol * max(1, sup norms of operands); the norms are taken past tol only."""
    return value <= tol or value <= tol * max(_sup(a) for a in operands)


def _lowered(c, n: int, plain=None):
    """c's unchecked _raw stack form, its dimension checked once; else plain, or c itself."""
    if not hasattr(c, "_raw"):
        return c if plain is None else plain
    _same_dim(c.n, n)
    return c._raw


def _checked_preimage(solve, g, g_solve: MapFn, y: np.ndarray) -> np.ndarray:
    """The row x = solve(y) for a (1, n) row y, finite and with its residual |g x - y| checked."""
    x = solve(y)
    gx = g(x)
    residual = _sup(gx - y)
    # x's sum is finite unless x is not, or the sum overflowed: then the exact test decides
    finite = math.isfinite(np.add.reduce(x, None)) or np.isfinite(x).all()
    if finite and _within(residual, PREIMAGE_TOL, x, y):
        return x
    if not finite:
        g_solve(y)  # only a lowered oracle returns a non-finite row; its checked form raises
        raise UsageError("entries must be finite")
    if not np.isfinite(gx).all():
        raise EvaluationError(_NON_FINITE_MAP)
    raise PreimageError(
        f"preimage oracle residual {residual!r} exceeds {PREIMAGE_TOL!r} "
        f"relative to the operands"
    )


def verify_matrix_lipschitz(
    f: MapFn,
    g: MapFn,
    k: SquareMatrix,
    metric: MetricFn,
    sampler: Sampler,
    count: int,
) -> LipschitzReport:
    """Sample pairs and test d(f x, f y) <= k d(g x, g y) within _GATE_SLACK."""
    _require_nonnegative(k, "coefficient matrix")
    x, y = _draw(sampler, count, 2)
    fx, fy, gx, gy = f(x), f(y), g(x), g(y)
    lhs = metric(fx, fy)
    rhs = _rows(metric(gx, gy), k.n) @ k.entries.T
    bad = np.any(rhs - lhs < -_slack(_GATE_SLACK, fx, fy, gx, gy), axis=1)
    return LipschitzReport(count, _witnesses(bad, x, y, lhs, rhs))


def verify_condition_c(
    f: MapFn,
    g: MapFn,
    phi: Callable[[Vector], Vector],
    metric: MetricFn,
    sampler: Sampler,
    count: int,
) -> ConditionCReport:
    """Sample pairs and test the three-branch comparison condition.

    A pair passes when d(f x, f y) <= phi(u) for at least one of
    u = d(g x, g y), d(g x, f x), d(g y, f y), within _GATE_SLACK; the
    first satisfied branch is tallied.
    """
    x, y = _draw(sampler, count, 2)
    fx, fy, gx, gy = f(x), f(y), g(x), g(y)
    lhs = metric(fx, fy)
    slack = _slack(_GATE_SLACK, fx, fy, gx, gy)
    candidates = (metric(gx, gy), metric(gx, fx), metric(gy, fy))
    unmet = np.ones(count, dtype=bool)
    counts = []
    for u in candidates:
        held = unmet & np.all(phi(u) - lhs >= -slack, axis=1)
        counts.append(int(held.sum()))
        unmet &= ~held
    return ConditionCReport(count, _witnesses(unmet, x, y, lhs, *candidates), counts)


def _weakly_compatible(f: MapFn, g: MapFn, p: np.ndarray) -> bool:
    """Whether f(g p) = g(f p), within WEAK_COMPAT_TOL, at a coincidence point (a (1, n) row)."""
    fgp, gfp = f(g(p)), g(f(p))
    return _within(_sup(fgp - gfp), WEAK_COMPAT_TOL, fgp, gfp)


def _next_block(dists: list, eps: np.ndarray) -> int:
    """The rows of the block after one whose step distances are dists[1:].

    Twice as many, up to _BLOCK, but no more than the steps that take the
    last distance below eps / 2 at the block's mean contraction, so that
    few steps are computed past a stop.
    """
    rows = len(dists) - 1
    grown = min(2 * rows, _BLOCK)
    if rows == 1:
        return grown
    first, last = float(np.add.reduce(dists[1], None)), float(np.add.reduce(dists[-1], None))
    ratio = (last / first) ** (1.0 / (rows - 1)) if 0.0 < last < first else 1.0
    if not 0.0 < ratio < 1.0:
        return grown
    reach = float(np.maximum.reduce(dists[-1] / eps, None))
    return max(1, math.ceil(min(grown, math.log(2.0 * reach) / -math.log(ratio))))


def _iterate(
    f: MapFn,
    g: MapFn | None,
    g_solve: MapFn | None,
    metric: MetricFn,
    x0: Vector,
    eps: Vector,
    budget: int,
    cert: ContractionCertificate | None = None,
    phi: Callable[[Vector], Vector] | None = None,
    on_step: StepFn | None = None,
) -> SolveResult:
    """The iteration behind all three solvers; exactly one of cert and phi is given.

    g=None means the identity: no preimage call and no weak-compatibility
    pass. When _value_map gives h = f g^-1, the steps are v_{j+1} = h(v_j)
    from v_0 = g(x0), as for a self-map, and x = g^-1(v) is solved and
    checked only on the first step, where the step test passes, and at
    every exit; otherwise every step solves x_{j+1} = g^-1(f x_j). Bounds
    start at S d_0 under cert and at d_0 under phi, then follow k or phi.
    The run stops once the halved step distance, or under cert the bound,
    falls strictly below eps, provided the step and the residual
    d(f x, g x) at the new point are below eps too. Under phi, phi's axioms
    are first screened, by linear_comparison_axioms for a LinearComparison
    and on 128 cone samples otherwise; every step distance must stay below phi of
    the previous one, and an exactly zero step ends the run at the current
    point. Each step goes to on_step, when given, before its checks, so a
    step that breaks a hypothesis is seen too. A finiteness test covers y
    (else EvaluationError), dist and bound (else UsageError), whatever
    callable made them, and raises before that step reaches on_step; the
    preimage residual test covers x and g(x).

    Steps go in blocks when the step map is a MapSpec, the metric a
    WeightedMatrixMetric and phi, if given, a LinearComparison; otherwise
    every block is one step, so that user code runs once per step and never
    ahead of on_step. A block runs the serial chain y, dist, bound step by
    step on (1, n) rows. One of _SCREENED rows or more is then screened as
    a whole: one finiteness reduction, one reduction that finds whether any
    component of any step is below eps, which the step test needs, and under
    phi one product of the stacked previous distances with G^T. A block
    that passes goes to on_step at once, row by row; any other block runs
    the per-step checks above on each row in turn. Rows past the step the
    run ends at are dropped unseen. Blocks grow from one step as
    _next_block says, up to _BLOCK.
    """
    n = getattr(metric, "n", x0.n)
    if x0.n != n or eps.n != n:
        raise UsageError("start point, eps, and metric must share a dimension")
    if not np.all(eps.components > 0.0):
        raise UsageError("eps must be interior: every component strictly positive")
    if budget < 1:
        raise UsageError("budget must be at least 1")
    if cert is not None and cert.n != n:
        raise UsageError("certificate dimension does not match the start point")
    status = SolveStatus.BUDGET_EXHAUSTED
    witness: dict | None = None
    if phi is not None:
        if isinstance(phi, LinearComparison):
            screen = linear_comparison_axioms(phi.gain)
        else:
            screen = check_comparison_axioms(phi, cone_sampler(n, seed=1), 128)
        if not screen.passed:
            status = SolveStatus.HYPOTHESIS_VIOLATED
            witness = {"stage": "comparison-axioms", "report": screen}
            budget = 0  # no step is taken
    eps = eps.components
    eps_half = 0.5 * eps
    x = x0.components[None]
    prev_val = x if g is None else g(x)
    metric_raw = _lowered(metric, n)
    h = None if g is None else _value_map(f, g, g_solve)
    literal = g is not None and h is None  # x_{j+1} = g^-1(f x_j), solved at every step
    step_map = f if h is None else h
    step_raw = _lowered(step_map, n)
    if g is not None:  # a user oracle gets the row as a frozen Vector
        g_raw = _lowered(g, n)
        solve = _lowered(g_solve, n, lambda row: g_solve(_vec(row)).components[None])

        def lift(v):
            return _checked_preimage(solve, g_raw, g_solve, v)

    phi_raw = None if phi is None else _lowered(phi, n)
    # a block holds more than one step only where no step calls user code
    blocked = (
        not literal
        and isinstance(step_map, MapSpec)
        and isinstance(metric, WeightedMatrixMetric)
        and (phi is None or isinstance(phi, LinearComparison))
    )
    # the bound's coefficient: k, or in a block phi's gain itself, as d and
    # every bound lie in the cone (W > 0 and the screened gain is >= 0)
    k_t = cert.k.entries.T if cert is not None else phi.gain.entries.T if blocked else None
    prev_d: np.ndarray | None = None
    steps = j0 = 0
    rows = 1
    residual: np.ndarray | None = None
    with np.errstate(over="ignore", invalid="ignore"):  # the finiteness tests catch overflow
        while j0 < budget:
            rows = min(rows, budget - j0)
            # the serial chain, one (1, n) row per step
            vals, dists, bounds = [prev_val], [prev_d], []
            for j in range(j0, j0 + rows):
                y = step_raw(x if literal else vals[-1])
                d_j = metric_raw(vals[-1], y)
                # keep M.T a view: a contiguous copy takes another BLAS path and moves bits
                if j == 0:
                    bound = d_j if cert is None else d_j.dot(cert.S.entries.T)
                else:
                    bound = phi_raw(bound) if k_t is None else bound.dot(k_t)
                vals.append(y)
                dists.append(d_j)
                bounds.append(bound)
            if blocked and rows >= _SCREENED and j0 > 0:  # step 0 has no previous distance
                ds, bs = np.concatenate(dists), np.concatenate(bounds)
                d = ds[1:]
                # Each screen that holds of the whole block shows that no row
                # needs the per-step check it stands for: every value is
                # finite (a y that is not makes its d so, as W > 0); no
                # component of a step is below eps (the step test needs every
                # one below, and an exactly zero step has them all); no step
                # exceeds G times the one before it (G is diagonal, so each
                # entry of the product is the row's one rounding).
                clean = (
                    math.isfinite(np.add.reduce(d + bs, None))
                    and not np.maximum.reduce(eps - d, None) > 0.0
                    and (phi is None or np.maximum.reduce(d - ds[:-1].dot(k_t), None) <= _STEP_SLACK)
                )
            else:
                clean = False
            if clean:  # the block goes out at once
                if on_step is not None:
                    for i in range(rows):
                        on_step(j0 + i, vals[i][0], dists[i + 1][0], bounds[i][0])
                prev_val, prev_d = vals[-1], dists[-1]
                x = prev_val if g is None else None
            else:  # the per-step tests, row by row
                for i in range(rows):
                    j, y, d_j, bound = j0 + i, vals[i + 1], dists[i + 1], bounds[i]
                    if not math.isfinite(np.add.reduce(y + d_j + bound, None)):
                        if not np.isfinite(y).all():
                            raise EvaluationError(_NON_FINITE_MAP)
                        _shaped(np.vstack((d_j, bound)))  # raises unless only the sum overflowed
                    if on_step is not None:
                        on_step(j, prev_val[0], d_j[0], bound[0])
                    steps = j + 1
                    if phi is not None:
                        if j >= 1:
                            dominated = phi_raw(prev_d)
                            over = d_j - dominated
                            excess = float(np.maximum.reduce(over, None))
                            # over's sum is finite unless phi's value is not, or the sum overflowed
                            held = excess <= _STEP_SLACK and math.isfinite(np.add.reduce(over, None))
                            if not held and not _within(excess, _STEP_SLACK, prev_val, y, _shaped(dominated)):
                                status = SolveStatus.HYPOTHESIS_VIOLATED
                                witness = {
                                    "stage": "online-step",
                                    "step": j,
                                    "step_dist": _vec(d_j),
                                    "previous_dist": _vec(prev_d),
                                    "comparison_value": _vec(dominated),
                                }
                                break
                        if not np.logical_or.reduce(d_j, None):
                            # The current point is an exact coincidence point.
                            status = SolveStatus.CONVERGED
                            break
                    # in value space a point is solved on step 0, so that an oracle
                    # that misses PREIMAGE_TOL is refused at once, and then only
                    # where the step test passes and at the exit
                    if g is None:
                        x_next = y
                    else:
                        x_next = lift(y) if literal or j == 0 else None
                    # the step test comes first: it fails on all but the last few steps
                    if np.minimum.reduce(eps - d_j, None) > 0.0 and (
                        (cert is not None and np.minimum.reduce(eps - bound, None) > 0.0)
                        or np.minimum.reduce(eps_half - d_j, None) > 0.0
                    ):
                        if x_next is None:
                            x_next = lift(y)
                        gap = metric(f(x_next), x_next if g is None else g(x_next))
                        if (eps - gap > 0.0).all():
                            status = SolveStatus.CONVERGED
                            x, residual = x_next, gap
                            break
                    prev_val, prev_d, x = y, d_j, x_next
                if status is not SolveStatus.BUDGET_EXHAUSTED:
                    break
            j0 = steps = j0 + rows
            if blocked and j0 < budget:
                rows = _next_block(dists, eps)
    if x is None:  # every exit of a value-space run returns the point of its value
        x = lift(prev_val)
    value = x if g is None else g(x)
    if residual is None:
        residual = metric(f(x), value)
    weak: bool | None = None
    if g is not None and status is SolveStatus.CONVERGED:
        weak = _weakly_compatible(f, g, x)
    return SolveResult(
        point=_vec(x),
        value=_vec(value),
        trace=IterationTrace(status, steps),
        residual=_vec(residual),
        weakly_compatible=weak,
        hypothesis_witness=witness,
    )


def perov_solve(
    f: MapFn,
    metric: MetricFn,
    cert: ContractionCertificate,
    x0: Vector,
    eps: Vector,
    budget: int = 100_000,
    *,
    on_step: StepFn | None = None,
) -> SolveResult:
    """Iterate a certified self-map to its fixed point.

    Stops once the a-priori bound k^i S d0 or the halved step distance falls
    strictly below eps; the returned point always satisfies
    d(f(point), point) strictly below eps componentwise.

    f and the metric are called on (1, n) stacks. on_step is the only way
    to see the steps: given, each step j calls on_step(j, y, dist, bound)
    once, in step order, when the block of steps it belongs to is checked,
    with 1-d arrays: y the value the step starts from, dist the distance
    from y to f(y), and bound the a-priori bound k^j S d_0 on the distance
    from y to the limit. A plain-function f or metric makes every block one
    step, so it is never called ahead of on_step. The arrays belong to the
    loop and must not be modified; copy them to keep them. result.trace
    holds only the status and the number of steps.
    """
    return _iterate(f, None, None, metric, x0, eps, budget, cert=cert, on_step=on_step)


def jungck_solve(
    f: MapFn,
    g: MapFn,
    g_solve: MapFn,
    metric: MetricFn,
    cert: ContractionCertificate,
    x0: Vector,
    eps: Vector,
    budget: int = 100_000,
    *,
    on_step: StepFn | None = None,
) -> SolveResult:
    """Drive the coincidence iteration f(x_j) = g(x_{j+1}) to its limit.

    g is inverted through g_solve, a Vector -> Vector oracle whose residual
    is checked wherever the loop solves for a point (a breach raises
    PreimageError): at every step, or, when f is a MapSpec and g_solve is
    affine_preimage(g), only on the first step, where the step test passes
    and at the exit, because the loop then iterates g's values under
    f g^-1. On convergence the result carries the coincidence point p, the
    value g(p) and the weak-compatibility verdict at p; when that verdict
    holds, the value is also the common fixed point. f, g, the metric and
    on_step are used as in perov_solve, with y = g(x_j) (after step 0 the
    common value f(x_{j-1}) = g(x_j), up to rounding) and
    dist = d(g x_j, f x_j).
    """
    return _iterate(f, g, g_solve, metric, x0, eps, budget, cert=cert, on_step=on_step)


def comparison_solve(
    f: MapFn,
    g: MapFn,
    g_solve: MapFn,
    phi: Callable[[Vector], Vector],
    metric: MetricFn,
    x0: Vector,
    eps: Vector,
    budget: int = 100_000,
    *,
    on_step: StepFn | None = None,
) -> SolveResult:
    """Coincidence iteration contracted by a comparison function.

    phi's comparison axioms are screened before iterating: a
    LinearComparison's exactly, by linear_comparison_axioms (its gain must be
    diagonal with entries below 1), any other phi on 128 cone samples
    (seed 1), which can only refute. A failed screen, like a failed online
    step check, ends the run with status
    HYPOTHESIS_VIOLATED and a witness attached. The online check requires
    every step distance to be dominated by phi of the previous one, which is
    exactly the chain the convergence argument rests on.

    An exactly stationary step means the current point is an exact
    coincidence point and ends the run immediately. phi is called on (1, n)
    stacks like f, g and the metric; g_solve and on_step are used as in
    jungck_solve, except that bound is phi^j(d_0), an envelope of the step
    distances and not an error bound. A LinearComparison is applied as its
    gain product and checked a block of steps at a time; any other phi, like
    a plain-function f, g or metric, makes every block one step. A run in value space, as in
    jungck_solve, returns with every status the point g_solve gives for the
    value its last step started from.
    """
    return _iterate(f, g, g_solve, metric, x0, eps, budget, phi=phi, on_step=on_step)

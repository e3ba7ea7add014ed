import dataclasses
import hashlib
import pathlib
import tracemalloc

import numpy as np
import pytest

from perov import (
    EvaluationError,
    IterationTrace,
    MapSpec,
    PreimageError,
    SolveStatus,
    SquareMatrix,
    UsageError,
    Vector,
    WeightedMatrixMetric,
    affine_preimage,
    certify_contraction,
    comparison_solve,
    identity_map,
    jungck_solve,
    linear_comparison,
    perov_solve,
    uniform_sampler,
    verify_condition_c,
    verify_matrix_lipschitz,
)
import perov.solver
from perov.cli import parse_problem, parse_problem_text

ROOT = pathlib.Path(__file__).resolve().parent.parent


def mat(rows):
    return SquareMatrix(np.array(rows, dtype=float))


def vec(*comps):
    return Vector(np.array(comps, dtype=float))


def scalar_metric():
    return WeightedMatrixMetric(mat([[1.0]]))


def scalar_map(m, b):
    return MapSpec.affine(mat([[m]]), vec(b))


EPS1 = Vector.full(1, 1e-10)


class StepLog:
    """An on_step that keeps a copy of every step: points[j] is the y passed
    at step j, step_dists[j] its dist and bounds[j] its bound."""

    def __init__(self):
        self.points, self.step_dists, self.bounds = [], [], []

    def __call__(self, j, y, dist, bound):
        assert j == len(self.points)
        self.points.append(Vector(y))
        self.step_dists.append(Vector(dist))
        self.bounds.append(Vector(bound))


def assert_common_point_is_value(res):
    """The common fixed point is the value, bit for bit, exactly when the pair is weakly compatible."""
    if res.weakly_compatible:
        assert res.common_fixed_point.components.tobytes() == res.value.components.tobytes()
    else:
        assert res.common_fixed_point is None


# -- map grammar ------------------------------------------------------------


def test_affine_evaluation():
    f = MapSpec.affine(mat([[2.0, 0.0], [0.0, 3.0]]), vec(1.0, -1.0))
    assert f(vec(1.0, 1.0)) == vec(3.0, 2.0)
    assert f.n == 2


def test_componentwise_evaluation():
    f = MapSpec.componentwise(
        SquareMatrix.identity(1), Vector.zeros(1),
        SquareMatrix.identity(1), Vector.zeros(1), ("tanh",),
    )
    assert f(vec(0.0)) == vec(0.0)
    assert abs(f(vec(1.0)).components[0] - np.tanh(1.0)) < 1e-15


def test_map_validation():
    with pytest.raises(UsageError):
        MapSpec(kind="mystery", M=SquareMatrix.identity(1), b=Vector.zeros(1))
    with pytest.raises(UsageError):
        MapSpec.affine(SquareMatrix.identity(2), Vector.zeros(1))
    with pytest.raises(UsageError):
        MapSpec.componentwise(
            SquareMatrix.identity(1), Vector.zeros(1),
            SquareMatrix.identity(1), Vector.zeros(1), ("sinh",),
        )
    with pytest.raises(UsageError):
        MapSpec(
            kind="affine", M=SquareMatrix.identity(1), b=Vector.zeros(1),
            L=SquareMatrix.identity(1),
        )
    f = identity_map(2)
    with pytest.raises(UsageError):
        f(vec(1.0))


ONE, ZERO = SquareMatrix.identity(1), Vector.zeros(1)


@pytest.mark.parametrize(
    ("inner", "message"),
    [
        (dict(d=ZERO, tags=("sin",)), "componentwise maps need L, d, and tags"),
        (dict(L=ONE, tags=("sin",)), "componentwise maps need L, d, and tags"),
        (dict(L=ONE, d=ZERO), "componentwise maps need L, d, and tags"),
        (
            dict(L=SquareMatrix.identity(2), d=ZERO, tags=("sin",)),
            "inner affine stage dimension must match the matrix",
        ),
        (dict(L=ONE, d=ZERO, tags=("sin", "cos")), "one tag per component is required"),
    ],
    ids=["no-L", "no-d", "no-tags", "L-size", "two-tags"],
)
def test_componentwise_map_refusals(inner, message):
    with pytest.raises(UsageError) as info:
        MapSpec(kind="componentwise-nonlinear", M=ONE, b=ZERO, **inner)
    assert str(info.value) == message


def test_map_rejects_overflow():
    f = scalar_map(1e308, 0.0)
    with pytest.raises(EvaluationError):
        f(vec(100.0))
    with pytest.raises(EvaluationError):
        f(np.array([[1e-300], [100.0]]))


def test_map_on_a_stack_matches_each_row():
    f = MapSpec.componentwise(
        mat([[0.5, 0.2], [0.1, 0.4]]), vec(0.5, -0.2),
        mat([[3.0, 1.0], [0.0, 2.0]]), vec(0.1, 0.0), ("tanh", "atan"),
    )
    g = MapSpec.affine(mat([[2.0, 1.0], [0.0, 3.0]]), vec(1.0, 2.0))
    points = np.random.default_rng(21).uniform(-10.0, 10.0, (50, 2))
    for m in (f, g):
        stack = m(points)
        assert stack.shape == (50, 2)
        rows = np.array([m(Vector(p)).components for p in points])
        np.testing.assert_allclose(stack, rows, rtol=1e-14, atol=1e-14)
        with pytest.raises(UsageError):
            m(np.zeros((3, 1)))


def test_affine_preimage_round_trip():
    g = MapSpec.affine(mat([[2.0, 1.0], [0.0, 3.0]]), vec(1.0, 2.0))
    solve = affine_preimage(g)
    y = vec(5.0, -4.0)
    x = solve(y)
    assert np.allclose(g(x).components, y.components, atol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 8, 16])
def test_affine_preimage_on_a_row_matches_its_vector_answer(n):
    # the solve loop hands the oracle a (1, n) row, which numpy solves as an
    # (n, 1) right-hand side; the bits must be those of the 1-d solve
    rng = np.random.default_rng(n)
    for _ in range(50):
        m = rng.uniform(-1.0, 1.0, (n, n)) + rng.uniform(0.5, 2.0) * np.eye(n)
        solve = affine_preimage(MapSpec.affine(SquareMatrix(m), Vector(rng.uniform(-5.0, 5.0, n))))
        y = rng.uniform(-10.0, 10.0, n)
        expected = solve(Vector(y)).components.tobytes()
        assert solve(y[None])[0].tobytes() == expected
        assert perov.solver._lowered(solve, n)(y[None])[0].tobytes() == expected


MAGNITUDES = [1e-100, 1e-10, 1.0, 1e10, 1e100]


@pytest.mark.parametrize("n", [1, 2, 8, 16, 50])
def test_row_products_match_matmul_bit_for_bit(n):
    # the loop's lowered callables use ndarray.dot on transposed views; a
    # numpy or BLAS build that routes it apart from @ must fail here
    rng = np.random.default_rng(100 + n)
    m = rng.uniform(-1.0, 1.0, (n, n))
    for scale in MAGNITUDES:
        for count in (1, 7, 300):
            x = rng.uniform(-1.0, 1.0, (count, n)) * scale
            assert x.dot(m.T).tobytes() == (x @ m.T).tobytes()
            assert x[0].dot(m.T).tobytes() == (x[0] @ m.T).tobytes()


@pytest.mark.parametrize("n", [1, 2, 8, 16, 50])
def test_preimage_gesv_matches_np_linalg_solve_bit_for_bit(n):
    # the lowered oracle calls the gufunc np.linalg.solve wraps, unchecked
    rng = np.random.default_rng(200 + n)
    for scale in MAGNITUDES:
        m = rng.uniform(-1.0, 1.0, (n, n)) + rng.uniform(0.5, 2.0) * np.eye(n)
        b = rng.uniform(-1.0, 1.0, n) * scale
        solve = affine_preimage(MapSpec.affine(SquareMatrix(m), Vector(b)))
        lowered = perov.solver._lowered(solve, n)
        for count in (1, 7, 300):
            y = rng.uniform(-1.0, 1.0, (count, n)) * scale
            expected = np.linalg.solve(m, (y - b).T).T
            assert lowered(y).tobytes() == expected.tobytes()
            assert lowered(y).tobytes() == solve(y).tobytes()
            assert lowered(y[:1])[0].tobytes() == np.linalg.solve(m, y[0] - b).tobytes()


def test_lowered_callables_match_their_public_calls():
    rng = np.random.default_rng(5)
    n = 6
    m, l = rng.uniform(-1.0, 1.0, (2, n, n))
    b, d = rng.uniform(-1.0, 1.0, (2, n))
    tags = ("identity", "sin", "cos", "tanh", "atan", "sin")
    callables = [
        MapSpec.affine(SquareMatrix(m), Vector(b)),
        MapSpec.componentwise(SquareMatrix(m), Vector(b), SquareMatrix(l), Vector(d), tags),
        affine_preimage(MapSpec.affine(SquareMatrix(m + 3.0 * np.eye(n)), Vector(b))),
        linear_comparison(SquareMatrix.diagonal(np.full(n, 0.9))),
    ]
    for scale in MAGNITUDES:
        row = rng.uniform(0.0, 1.0, (1, n)) * scale
        for c in callables:
            lowered = perov.solver._lowered(c, n)
            assert lowered(row).tobytes() == c(row).tobytes()
            assert lowered(row)[0].tobytes() == c(Vector(row[0])).components.tobytes()
        metric = WeightedMatrixMetric(SquareMatrix(rng.uniform(0.1, 1.0, (n, n))))
        other = rng.uniform(-1.0, 1.0, (1, n)) * scale
        lowered = perov.solver._lowered(metric, n)
        assert lowered(row, other).tobytes() == metric(row, other).tobytes()
        assert lowered(row, other)[0].tobytes() == metric(
            Vector(row[0]), Vector(other[0])
        ).components.tobytes()


def test_affine_preimage_rejects_singular():
    g = MapSpec.affine(mat([[1.0, 1.0], [1.0, 1.0]]), Vector.zeros(2))
    with pytest.raises(UsageError):
        affine_preimage(g)


def test_affine_preimage_rejects_nonlinear():
    f = MapSpec.componentwise(
        SquareMatrix.identity(1), Vector.zeros(1),
        SquareMatrix.identity(1), Vector.zeros(1), ("sin",),
    )
    with pytest.raises(UsageError):
        affine_preimage(f)


# -- sampled hypothesis checks ----------------------------------------------


def test_lipschitz_passes_for_true_coefficient():
    f = scalar_map(0.5, 1.0)
    report = verify_matrix_lipschitz(
        f, identity_map(1), mat([[0.5]]), scalar_metric(),
        uniform_sampler(1, seed=1), 500,
    )
    assert report.passed


def test_lipschitz_fails_for_expansion():
    f = scalar_map(2.0, 0.0)
    report = verify_matrix_lipschitz(
        f, identity_map(1), mat([[0.5]]), scalar_metric(),
        uniform_sampler(1, seed=2), 500,
    )
    assert not report.passed
    x, y, lhs, rhs = report.violations[0]
    assert np.any(lhs.components > rhs.components)


def test_lipschitz_rejects_coefficient_dimension():
    with pytest.raises(UsageError):
        verify_matrix_lipschitz(
            scalar_map(0.5, 0.0), identity_map(1), mat([[0.5, 0.0], [0.0, 0.5]]),
            scalar_metric(), uniform_sampler(1, seed=1), 10,
        )


def test_lipschitz_relative_to_g():
    # f = x + 1 against g = 2x works with coefficient one half
    f = scalar_map(1.0, 1.0)
    g = scalar_map(2.0, 0.0)
    report = verify_matrix_lipschitz(
        f, g, mat([[0.5]]), scalar_metric(), uniform_sampler(1, seed=3), 500,
    )
    assert report.passed


def test_condition_c_first_branch_dominates_for_half_map():
    f = scalar_map(0.5, 0.0)
    phi = linear_comparison(mat([[0.6]]))
    report = verify_condition_c(
        f, identity_map(1), phi, scalar_metric(), uniform_sampler(1, seed=4), 300,
    )
    assert report.passed
    assert report.branch_counts[0] == 300
    assert report.branch_counts[1] == 0


def test_condition_c_catches_expansion():
    f = scalar_map(2.0, 0.0)
    phi = linear_comparison(mat([[0.6]]))
    report = verify_condition_c(
        f, identity_map(1), phi, scalar_metric(), uniform_sampler(1, seed=5), 300,
    )
    assert not report.passed
    assert report.violations


# -- a-priori bounds ---------------------------------------------------------


def apriori_bounds(cert, d0, count):
    """k^i S d0 for i < count, by the products the solver is documented to use."""
    bound = cert.S.entries @ d0
    out = [bound]
    for _ in range(count - 1):
        bound = cert.k.entries @ bound
        out.append(bound)
    return out


def test_apriori_bound_frozen():
    # d0 = W |f(0) - 0| = (1, 0.5), S = 2 I: bounds[2] = k^2 S d0 = (0.5, 0.25)
    cert = certify_contraction(mat([[0.5, 0.0], [0.0, 0.5]]), 1e-9)
    f = MapSpec.affine(mat([[0.5, 0.0], [0.0, 0.5]]), vec(1.0, 0.0))
    metric = WeightedMatrixMetric(mat([[1.0, 0.5], [0.5, 1.0]]))
    log = StepLog()
    perov_solve(f, metric, cert, Vector.zeros(2), Vector.full(2, 1e-10), 3, on_step=log)
    d0 = log.step_dists[0].components
    assert d0.tolist() == [1.0, 0.5]
    assert log.bounds[2].components.tolist() == [0.5, 0.25]
    for bound, expected in zip(log.bounds, apriori_bounds(cert, d0, 3)):
        assert np.array_equal(bound.components, expected)


def test_apriori_bound_zero_iterations_is_total():
    cert = certify_contraction(mat([[0.5]]), 1e-9)
    log = StepLog()
    perov_solve(scalar_map(0.5, 1.0), scalar_metric(), cert, vec(0.0), EPS1, 1, on_step=log)
    assert log.step_dists[0] == vec(1.0)
    # the full telescoped series sums to 2 for gain one half: the whole way to x* = 2
    assert abs(log.bounds[0].components[0] - 2.0) < 1e-9


def test_apriori_bound_nonincreasing():
    k = mat([[0.5, 0.2], [0.1, 0.6]])
    cert = certify_contraction(k, 1e-9)
    # d0 = W |f(0)| = (1, 2)
    f = MapSpec.affine(k, vec(1.0, 1.0))
    metric = WeightedMatrixMetric(mat([[0.5, 0.5], [1.0, 1.0]]))
    log = StepLog()
    perov_solve(f, metric, cert, Vector.zeros(2), Vector.full(2, 1e-10), 30, on_step=log)
    d0 = log.step_dists[0].components
    assert d0.tolist() == [1.0, 2.0]
    bounds = [b.components for b in log.bounds]
    assert len(bounds) == 30
    for prev, cur in zip(bounds, bounds[1:]):
        assert np.all(cur <= prev + 1e-12)
    for bound, expected in zip(bounds, apriori_bounds(cert, d0, 30)):
        assert np.array_equal(bound, expected)


# -- fixed-point solver -------------------------------------------------------


def test_perov_affine_frozen():
    m = mat([[0.5, 0.25], [0.25, 0.5]])
    f = MapSpec.affine(m, vec(1.0, 1.0))
    metric = WeightedMatrixMetric(mat([[1.0, 0.1], [0.1, 1.0]]))
    cert = certify_contraction(m, 1e-9)
    res = perov_solve(f, metric, cert, Vector.zeros(2), Vector.full(2, 1e-10))
    assert res.trace.status is SolveStatus.CONVERGED
    assert np.allclose(res.point.components, [4.0, 4.0], atol=1e-9)
    assert res.value == res.point


def test_perov_constant_map_converges_immediately():
    f = scalar_map(0.0, 3.0)
    cert = certify_contraction(mat([[0.5]]), 1e-9)
    res = perov_solve(f, scalar_metric(), cert, vec(0.0), EPS1)
    assert res.trace.status is SolveStatus.CONVERGED
    assert res.point == vec(3.0)
    assert res.trace.iterations <= 2


def test_perov_scalar_iteration_count():
    # gain 0.5 from distance 1 needs ceil(log(eps (1-q) / d0) / log q) steps
    f = scalar_map(0.5, 1.0)
    cert = certify_contraction(mat([[0.5]]), 1e-9)
    eps = 1e-12
    res = perov_solve(f, scalar_metric(), cert, vec(0.0), Vector.full(1, eps))
    assert res.trace.status is SolveStatus.CONVERGED
    assert abs(res.point.components[0] - 2.0) < 1e-12
    predicted = int(np.ceil(np.log(eps * 0.5 / 1.0) / np.log(0.5)))
    assert abs(res.trace.iterations - predicted) <= 2


def test_perov_trace_shape():
    f = scalar_map(0.5, 1.0)
    cert = certify_contraction(mat([[0.5]]), 1e-9)
    log = StepLog()
    res = perov_solve(f, scalar_metric(), cert, vec(0.0), EPS1, on_step=log)
    assert len(log.points) == len(log.step_dists) == len(log.bounds)
    assert res.trace.iterations == len(log.step_dists)
    assert log.points[0] == vec(0.0)
    # the value after the last step, once the final entry of points
    assert res.point == f(log.points[-1])


def test_perov_bound_dominates_true_error():
    m = mat([[0.3, 0.2], [0.1, 0.4]])
    b = vec(1.0, -1.0)
    f = MapSpec.affine(m, b)
    metric = WeightedMatrixMetric(mat([[1.0, 0.5], [0.5, 1.0]]))
    cert = certify_contraction(m, 1e-9)
    log = StepLog()
    perov_solve(f, metric, cert, vec(5.0, -5.0), Vector.full(2, 1e-10), on_step=log)
    star = Vector(np.linalg.solve(np.eye(2) - m.entries, b.components))
    for i, bound in enumerate(log.bounds):
        true_err = metric(log.points[i], star)
        assert np.all(true_err.components <= bound.components + 1e-10)


def test_perov_first_bound_telescopes():
    # distance from the start to the limit is at most S d0
    f = scalar_map(0.5, 1.0)
    cert = certify_contraction(mat([[0.5]]), 1e-9)
    log = StepLog()
    perov_solve(f, scalar_metric(), cert, vec(0.0), EPS1, on_step=log)
    d_start_to_limit = abs(2.0 - 0.0)
    assert d_start_to_limit <= log.bounds[0].components[0] + 1e-12


def test_perov_budget_exhaustion():
    f = scalar_map(0.999, 1.0)
    cert = certify_contraction(mat([[0.999]]), 1e-9)
    res = perov_solve(f, scalar_metric(), cert, vec(0.0), Vector.full(1, 1e-12), 5)
    assert res.trace.status is SolveStatus.BUDGET_EXHAUSTED
    assert res.trace.iterations == 5


# -- coincidence solver -------------------------------------------------------


def test_jungck_commuting_pair():
    f = scalar_map(1.0 / 3.0, 0.0)
    g = scalar_map(0.5, 0.0)
    cert = certify_contraction(mat([[2.0 / 3.0]]), 1e-9)
    res = jungck_solve(
        f, g, affine_preimage(g), scalar_metric(), cert, vec(9.0), EPS1,
    )
    assert res.trace.status is SolveStatus.CONVERGED
    assert abs(res.point.components[0]) < 1e-9
    assert abs(res.value.components[0]) < 1e-9
    assert res.weakly_compatible is True
    assert abs(res.common_fixed_point.components[0]) < 1e-10
    assert_common_point_is_value(res)


def test_jungck_non_commuting_pair():
    f = scalar_map(1.0, 1.0)
    g = scalar_map(2.0, 0.0)
    cert = certify_contraction(mat([[0.5]]), 1e-9)
    res = jungck_solve(
        f, g, affine_preimage(g), scalar_metric(), cert, vec(0.0), EPS1,
    )
    assert res.trace.status is SolveStatus.CONVERGED
    assert abs(res.point.components[0] - 1.0) < 1e-10
    assert abs(res.value.components[0] - 2.0) < 1e-10
    assert res.weakly_compatible is False
    assert res.common_fixed_point is None
    assert_common_point_is_value(res)


def test_jungck_identity_pair_converges_in_one_step():
    f = identity_map(1)
    g = identity_map(1)
    cert = certify_contraction(mat([[0.5]]), 1e-9)
    res = jungck_solve(
        f, g, affine_preimage(g), scalar_metric(), cert, vec(7.0), EPS1,
    )
    assert res.trace.status is SolveStatus.CONVERGED
    assert res.point == vec(7.0)
    assert res.weakly_compatible is True
    assert res.common_fixed_point == vec(7.0)


def test_jungck_trace_starts_at_g_of_x0():
    f = scalar_map(1.0 / 3.0, 0.0)
    g = scalar_map(0.5, 0.0)
    cert = certify_contraction(mat([[2.0 / 3.0]]), 1e-9)
    log = StepLog()
    jungck_solve(
        f, g, affine_preimage(g), scalar_metric(), cert, vec(9.0), EPS1, on_step=log,
    )
    assert log.points[0] == vec(4.5)
    assert log.points[1] == vec(3.0)


def test_jungck_bad_preimage_oracle_raises():
    f = scalar_map(1.0 / 3.0, 0.0)
    g = scalar_map(0.5, 0.0)

    def wrong(y):
        return vec(y.components[0])  # not a g-preimage

    cert = certify_contraction(mat([[2.0 / 3.0]]), 1e-9)
    with pytest.raises(PreimageError):
        jungck_solve(f, g, wrong, scalar_metric(), cert, vec(9.0), EPS1)


def test_jungck_budget_exhaustion():
    f = scalar_map(0.999, 1.0)
    g = identity_map(1)
    cert = certify_contraction(mat([[0.999]]), 1e-9)
    res = jungck_solve(
        f, g, affine_preimage(g), scalar_metric(), cert,
        vec(0.0), Vector.full(1, 1e-12), 5,
    )
    assert res.trace.status is SolveStatus.BUDGET_EXHAUSTED
    assert res.weakly_compatible is None
    assert res.common_fixed_point is None


def _plain_oracle(g):
    """g's oracle as a plain function, which keeps a pair on its literal steps."""
    solve = affine_preimage(g)
    return lambda y: solve(y)


def test_value_map_is_f_for_the_identity_and_absent_on_every_fallback():
    f = MapSpec.affine(mat([[0.3, -0.2], [0.1, 0.4]]), vec(1.5, -2.5))
    g = identity_map(2)
    h = perov.solver._value_map(f, g, affine_preimage(g))
    assert h.M.entries.tobytes() == f.M.entries.tobytes()
    assert h.b.components.tobytes() == f.b.components.tobytes()
    tiny = scalar_map(1e-310, 0.0)  # M_f M_g^-1 overflows
    cw = MapSpec.componentwise(mat([[1.0]]), vec(0.0), mat([[1.0]]), vec(0.0), ("sin",))
    for pair in [
        (scalar_map(0.5, 1.0), tiny, affine_preimage(tiny)),
        (scalar_map(0.5, 1.0), scalar_map(2.0, 0.0), _plain_oracle(scalar_map(2.0, 0.0))),
        (lambda x: x, g, affine_preimage(g)),
        (scalar_map(0.5, 1.0), cw, lambda y: y),
    ]:
        assert perov.solver._value_map(*pair) is None


def _overflowing_fold():
    # affine_preimage accepts g, but the fold M_f M_g^-1 overflows inside
    # numpy's solve, which reports it as a singular matrix
    g = MapSpec.affine(
        mat([[1.0, 1e300, 1e300], [-1e308, 1e308, -1e308], [1e-300, 1.0, 0.5]]), Vector.full(3, 0.0)
    )
    f = MapSpec.affine(
        mat([[1.0, 0.5, 1.7e308], [1e-300, 1.7e308, 0.5], [1e-308, 1e-308, 1e308]]), Vector.full(3, 0.0)
    )
    metric = WeightedMatrixMetric(mat(np.ones((3, 3))))
    return f, g, metric, certify_contraction(mat(0.5 * np.eye(3)), 1e-9)


def test_value_map_is_absent_when_the_fold_overflows_in_the_solve():
    f, g, _, _ = _overflowing_fold()
    assert perov.solver._value_map(f, g, affine_preimage(g)) is None


def test_jungck_takes_the_literal_steps_when_the_fold_overflows():
    f, g, metric, cert = _overflowing_fold()
    eps = Vector.full(3, 1e-10)
    # from x0 = 1 the first step's distance overflows and the run is refused
    with pytest.raises(UsageError, match="entries must be finite"):
        jungck_solve(f, g, affine_preimage(g), metric, cert, Vector.full(3, 1.0), eps)
    res = jungck_solve(f, g, affine_preimage(g), metric, cert, Vector.full(3, 0.0), eps)
    assert res.trace == IterationTrace(SolveStatus.CONVERGED, 1)


def _atan_violation():
    # h(v) = 0.9 atan((v - 1) / 1.2) contracts by ~0.75 near its fixed point:
    # step 1 passes the online check against the gain 0.6, and step 2 fails it
    f = MapSpec.componentwise(mat([[0.9]]), vec(0.0), mat([[1.0]]), vec(0.0), ("atan",))
    return f, scalar_map(1.2, 1.0), vec(100.0), EPS1


def _zero_step():
    # h(v) = 0.5 (v - 1) / 3 + 0.7 lands on a float fixed point exactly,
    # long before a step could fall below eps
    return scalar_map(0.5, 0.7), scalar_map(3.0, 1.0), vec(100.0), Vector.full(1, 1e-300)


@pytest.mark.parametrize(
    ("case", "status"),
    [(_atan_violation, SolveStatus.HYPOTHESIS_VIOLATED), (_zero_step, SolveStatus.CONVERGED)],
)
def test_value_space_exits_return_the_point_of_their_value(case, status):
    # a break after step 1 leaves the loop with a value and no point; the
    # point is recovered by g's oracle, like the point the literal steps keep
    f, g, x0, eps = case()
    phi = linear_comparison(mat([[0.6]]))
    for solve in (affine_preimage(g), _plain_oracle(g)):
        log = StepLog()
        res = comparison_solve(f, g, solve, phi, scalar_metric(), x0, eps, on_step=log)
        assert res.trace.status is status
        assert res.trace.iterations >= 3
        assert res.value.components.tobytes() == g(res.point).components.tobytes()
        assert abs(res.value.components[0] - log.points[-1].components[0]) <= 1e-12


def test_ill_conditioned_g_ends_alike_on_both_paths():
    # g.M = U diag(1, 0.3, 1e-8) V^T; f = 0.999 k g + offset, with its
    # coincidence point x_star, satisfies the hypothesis with W = I + k
    rng = np.random.default_rng(0)
    u, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    v, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    gm = u @ np.diag([1.0, 0.3, 1e-8]) @ v.T
    assert 0.9e8 < np.linalg.cond(gm) < 1.1e8
    k = rng.uniform(0.1, 1.0, (3, 3))
    k *= 0.9 / k.sum(axis=1, keepdims=True)
    fm, gb, x_star = 0.999 * k @ gm, rng.uniform(-1.0, 1.0, 3), rng.uniform(-1.0, 1.0, 3)
    f = MapSpec.affine(SquareMatrix(fm), Vector(gb - (fm - gm) @ x_star))
    g = MapSpec.affine(SquareMatrix(gm), Vector(gb))
    metric = WeightedMatrixMetric(SquareMatrix(np.eye(3) + k))
    cert = certify_contraction(SquareMatrix(k), 1e-9)
    value, literal = (
        jungck_solve(f, g, solve, metric, cert, Vector.ones(3), Vector.full(3, 1e-10), 5000)
        for solve in (affine_preimage(g), _plain_oracle(g))
    )
    assert value.trace.status is literal.trace.status is SolveStatus.CONVERGED
    assert np.all(value.residual.components < 1e-10)


# -- comparison solver --------------------------------------------------------


def test_comparison_solve_scalar():
    f = scalar_map(0.5, 0.0)
    g = identity_map(1)
    phi = linear_comparison(mat([[0.6]]))
    log = StepLog()
    res = comparison_solve(
        f, g, affine_preimage(g), phi, scalar_metric(), vec(8.0), EPS1, on_step=log,
    )
    assert res.trace.status is SolveStatus.CONVERGED
    assert abs(res.point.components[0]) < 1e-10
    # every step distance is dominated by phi of the previous one
    dists = log.step_dists
    for j in range(1, len(dists)):
        dominated = phi(dists[j - 1])
        assert np.all(dists[j].components <= dominated.components + 1e-12)


def test_comparison_solve_planar():
    f = MapSpec.affine(mat([[0.5, 0.0], [0.0, 0.5]]), vec(1.0, 1.0))
    g = identity_map(2)
    phi = linear_comparison(mat([[0.5, 0.0], [0.0, 0.5]]))
    metric = WeightedMatrixMetric(mat([[1.0, 0.2], [0.2, 1.0]]))
    res = comparison_solve(
        f, g, affine_preimage(g), phi, metric, Vector.zeros(2), Vector.full(2, 1e-10),
    )
    assert res.trace.status is SolveStatus.CONVERGED
    assert np.allclose(res.point.components, [2.0, 2.0], atol=1e-9)
    assert res.weakly_compatible is True


def test_comparison_solve_stationary_start():
    f = scalar_map(0.5, 1.0)  # fixed point 2
    g = identity_map(1)
    phi = linear_comparison(mat([[0.6]]))
    res = comparison_solve(
        f, g, affine_preimage(g), phi, scalar_metric(), vec(2.0), EPS1,
    )
    assert res.trace.status is SolveStatus.CONVERGED
    assert res.point == vec(2.0)
    assert res.trace.iterations == 1


def test_comparison_solve_online_violation():
    f = scalar_map(2.0, 0.0)
    g = identity_map(1)
    phi = linear_comparison(mat([[0.6]]))
    res = comparison_solve(
        f, g, affine_preimage(g), phi, scalar_metric(), vec(1.0), EPS1,
    )
    assert res.trace.status is SolveStatus.HYPOTHESIS_VIOLATED
    assert res.hypothesis_witness["stage"] == "online-step"
    assert res.hypothesis_witness["step"] >= 1
    assert res.weakly_compatible is None


def test_comparison_solve_precheck_rejects_bad_phi():
    f = scalar_map(0.5, 0.0)
    g = identity_map(1)
    res = comparison_solve(
        f, g, affine_preimage(g), lambda t: t, scalar_metric(), vec(1.0), EPS1,
    )
    assert res.trace.status is SolveStatus.HYPOTHESIS_VIOLATED
    assert res.hypothesis_witness["stage"] == "comparison-axioms"
    assert not res.hypothesis_witness["report"].passed
    assert res.trace.iterations == 0


def test_comparison_solve_budget_exhaustion():
    f = scalar_map(0.999, 1.0)
    g = identity_map(1)
    phi = linear_comparison(mat([[0.9995]]))
    res = comparison_solve(
        f, g, affine_preimage(g), phi, scalar_metric(),
        vec(0.0), Vector.full(1, 1e-12), 5,
    )
    assert res.trace.status is SolveStatus.BUDGET_EXHAUSTED


# -- shared iteration ---------------------------------------------------------


def _solve(kind, metric, x0, eps, budget=100, k=None):
    """Run one of the three wrappers on f(x) = x/2 + 1 with g the identity."""
    f = scalar_map(0.5, 1.0)
    g = identity_map(1)
    k = mat([[0.5]]) if k is None else k
    if kind == "perov":
        return perov_solve(f, metric, certify_contraction(k, 1e-9), x0, eps, budget)
    if kind == "jungck":
        cert = certify_contraction(k, 1e-9)
        return jungck_solve(f, g, affine_preimage(g), metric, cert, x0, eps, budget)
    phi = linear_comparison(k)
    return comparison_solve(f, g, affine_preimage(g), phi, metric, x0, eps, budget)


BAD_INPUTS = {
    "x0-dimension": {"x0": vec(0.0, 0.0)},
    "eps-dimension": {"eps": Vector.full(2, 1e-10)},
    "metric-dimension": {"metric": WeightedMatrixMetric(mat([[1.0, 0.1], [0.1, 1.0]]))},
    "eps-not-interior": {"eps": vec(0.0)},
    "zero-budget": {"budget": 0},
}


@pytest.mark.parametrize("bad", sorted(BAD_INPUTS))
@pytest.mark.parametrize("kind", ["perov", "jungck", "comparison"])
def test_solver_validation(kind, bad):
    args = {"metric": scalar_metric(), "x0": vec(0.0), "eps": EPS1}
    args.update(BAD_INPUTS[bad])
    with pytest.raises(UsageError):
        _solve(kind, **args)


@pytest.mark.parametrize("kind", ["perov", "jungck"])
def test_solver_rejects_certificate_dimension(kind):
    with pytest.raises(UsageError):
        _solve(kind, scalar_metric(), vec(0.0), EPS1, k=SquareMatrix.identity(2) * 0.0)


@pytest.mark.parametrize("seed", range(20))
def test_perov_is_jungck_with_identity(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 4))
    m = rng.uniform(-1.0, 1.0, (n, n))
    m *= rng.uniform(0.1, 0.9) / np.abs(m).sum(axis=1).max()
    f = MapSpec.affine(SquareMatrix(m), Vector(rng.uniform(-10.0, 10.0, n)))
    metric = WeightedMatrixMetric(SquareMatrix(rng.uniform(0.1, 1.0, (n, n))))
    cert = certify_contraction(SquareMatrix(np.abs(m)), 1e-9)
    x0 = Vector(rng.uniform(-10.0, 10.0, n))
    eps = Vector.full(n, 1e-10)
    g = identity_map(n)
    log_a, log_b = StepLog(), StepLog()
    a = perov_solve(f, metric, cert, x0, eps, on_step=log_a)
    b = jungck_solve(f, g, affine_preimage(g), metric, cert, x0, eps, on_step=log_b)
    assert a.trace.status is b.trace.status
    for name in ("points", "step_dists", "bounds"):
        left, right = getattr(log_a, name), getattr(log_b, name)
        assert len(left) == len(right)
        for u, v in zip(left, right):
            assert np.array_equal(u.components, v.components)
    assert np.array_equal(a.point.components, b.point.components)


_CALLABLES = ("f", "g", "metric", "phi", "solve")


def _random_parts(seed):
    """One seeded affine problem: f, g, the metric, phi, g's oracle, k, x0 and eps."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 5))
    m = rng.uniform(0.0, 1.0, (n, n))
    m *= rng.uniform(0.3, 0.9) / m.sum(axis=1).max()
    b = rng.uniform(-10.0, 10.0, n)
    f = MapSpec.affine(SquareMatrix(m), Vector(b))
    # g = s x + c commutes with f when (m - 1) c = (s - 1) b, so the
    # coincidence solvers also report a common fixed point
    s = rng.uniform(0.8, 1.25)
    c = np.linalg.solve(m - np.eye(n), (s - 1.0) * b)
    g = MapSpec.affine(SquareMatrix.diagonal(np.full(n, s)), Vector(c))
    metric = WeightedMatrixMetric(SquareMatrix(rng.uniform(0.1, 1.0, (n, n))))
    x0, eps = Vector(rng.uniform(-10.0, 10.0, n)), Vector.full(n, 1e-10)
    phi = linear_comparison(SquareMatrix.diagonal(np.full(n, 0.95)))
    return {
        "f": f, "g": g, "metric": metric, "phi": phi, "solve": affine_preimage(g),
        "k": SquareMatrix(m), "x0": x0, "eps": eps,
    }


def _plain(parts, *names):
    """parts with the named callables replaced by plain functions that call them.

    The loop calls a plain function as a library callable: unlowered, and a
    pair with a plain oracle takes the literal steps g x_{j+1} = f x_j.
    """
    return {**parts, **{name: (lambda *args, c=parts[name]: c(*args)) for name in names}}


def _in_value_space(parts):
    """Plain functions of h = f g^-1, the identity and its oracle, started from g(x0)."""
    f, g = parts["f"], parts["g"]
    a = np.linalg.solve(g.M.entries.T, f.M.entries.T).T
    h = MapSpec.affine(SquareMatrix(a), Vector(f.b.components - a.dot(g.b.components)))
    identity = identity_map(f.n)
    values = {**parts, "f": h, "g": identity, "solve": affine_preimage(identity), "x0": g(parts["x0"])}
    return _plain(values, *_CALLABLES)


def _random_solve(kind, parts, budget=500, **options):
    """Solve parts with the named wrapper."""
    f, g, solve, metric, x0, eps = (parts[key] for key in ("f", "g", "solve", "metric", "x0", "eps"))
    if kind == "perov":
        cert = certify_contraction(parts["k"], 1e-9)
        return perov_solve(f, metric, cert, x0, eps, budget, **options)
    if kind == "jungck":
        cert = certify_contraction(parts["k"], 1e-9)
        return jungck_solve(f, g, solve, metric, cert, x0, eps, budget, **options)
    return comparison_solve(f, g, solve, parts["phi"], metric, x0, eps, budget, **options)


def _assert_same_result(a, b):
    """Two solves end alike, bit for bit."""
    assert a.trace == b.trace
    for name in ("point", "value", "residual", "common_fixed_point"):
        u, v = getattr(a, name), getattr(b, name)
        assert (u is None and v is None) or u.components.tobytes() == v.components.tobytes()
    assert a.weakly_compatible is b.weakly_compatible


def _assert_same_steps(log_a, log_b):
    for name in ("points", "step_dists", "bounds"):
        left, right = getattr(log_a, name), getattr(log_b, name)
        assert [v.components.tobytes() for v in left] == [v.components.tobytes() for v in right]


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("kind", ["perov", "jungck", "comparison"])
def test_on_step_streams_what_the_trace_records(kind, seed):
    # a solve ends bit for bit the same with and without on_step, after as
    # many steps as on_step was called. Library callables (plain functions)
    # take the literal steps, to the bits of lowered declarative callables
    # whose oracle alone is a plain function.
    parts = _random_parts(seed)
    log = StepLog()
    streamed = _random_solve(kind, parts, on_step=log)
    assert streamed.trace.iterations == len(log.points) > 0
    _assert_same_result(streamed, _random_solve(kind, parts))
    assert_common_point_is_value(streamed)
    library_log, literal_log = StepLog(), StepLog()
    library = _random_solve(kind, _plain(parts, *_CALLABLES), on_step=library_log)
    literal = _random_solve(kind, _plain(parts, "solve"), on_step=literal_log)
    _assert_same_result(library, literal)
    _assert_same_steps(library_log, literal_log)
    if kind == "perov":
        _assert_same_result(streamed, library)
        _assert_same_steps(log, library_log)
        return
    # a declarative pair steps in value space: its steps are those of h = f g^-1
    # from g(x0), and its point is g's oracle at the value of the last step
    value_log = StepLog()
    reference = _random_solve(kind, _in_value_space(parts), on_step=value_log)
    _assert_same_steps(log, value_log)
    assert reference.trace == streamed.trace
    f, g, metric = parts["f"], parts["g"], parts["metric"]
    point = parts["solve"](reference.point)
    assert streamed.point.components.tobytes() == point.components.tobytes()
    assert streamed.value.components.tobytes() == g(point).components.tobytes()
    assert streamed.residual.components.tobytes() == metric(f(point), g(point)).components.tobytes()
    assert abs(streamed.value.components - reference.value.components).max() <= 1e-12 * (
        1.0 + abs(reference.value.components).max()
    )
    # and it ends where the literal steps end, to within the run's eps
    assert literal.trace.status is streamed.trace.status is SolveStatus.CONVERGED
    assert abs(streamed.value.components - literal.value.components).max() < 1e-10


# -- steps in blocks -----------------------------------------------------------


_BUDGETS = (1, 2, 3, perov.solver._BLOCK - 1, perov.solver._BLOCK, perov.solver._BLOCK + 1, 500)


def _block_parts(seed):
    """_random_parts with eps drawn from 1e-14 to 1e-2 and a gain from 0.3 to 0.99,
    which the online check may refute. Every fourth f contracts by 0.999, so
    that a pair runs out of budget in full blocks; every fourth other grows by 1e5
    to 1e7 a step, so that a value overflows inside a block, and every
    eighth, with a weight scaled by 1e100, overflows a distance first."""
    parts = _random_parts(seed)
    rng = np.random.default_rng(10_000 + seed)
    n, f = parts["f"].n, parts["f"]
    parts["eps"] = Vector.full(n, 10.0 ** rng.uniform(-14.0, -2.0))
    parts["phi"] = linear_comparison(SquareMatrix.diagonal(np.full(n, rng.uniform(0.3, 0.99))))
    if seed % 4 == 1:
        m = SquareMatrix(f.M.entries * (0.999 / np.abs(np.linalg.eigvals(f.M.entries)).max()))
        parts["f"], parts["k"] = MapSpec.affine(m, f.b), m
    if seed % 4 == 3:
        parts["f"] = MapSpec.affine(SquareMatrix(f.M.entries * 10.0 ** rng.uniform(5.0, 7.0)), f.b)
    if seed % 8 == 7:
        parts["metric"] = WeightedMatrixMetric(SquareMatrix(parts["metric"].weight.entries * 1e100))
    return parts


def _outcome(kind, parts, budget):
    """The bytes of every on_step call, then the result or the typed error it ended with."""
    stream = []

    def on_step(j, y, dist, bound):
        stream.append(np.int64(j).tobytes() + y.tobytes() + dist.tobytes() + bound.tobytes())

    try:
        end = _random_solve(kind, parts, budget, on_step=on_step)
    except (EvaluationError, PreimageError, UsageError) as exc:
        end = (type(exc), str(exc))
    return stream, end


def _assert_same_witness(a, b):
    assert (a is None) == (b is None)
    if a is not None:
        assert a.keys() == b.keys()
        for key, u in a.items():
            v = b[key]
            if isinstance(u, Vector):
                assert u.components.tobytes() == v.components.tobytes(), key
            else:
                assert u == v, key


def _assert_same_outcome(blocked, reference, lift=None):
    """Two solves stream the same steps and end alike; lift maps the reference's point to the blocked one's."""
    assert blocked[0] == reference[0]
    a, b = blocked[1], reference[1]
    if isinstance(a, tuple) or isinstance(b, tuple):
        assert a == b
        return
    assert a.trace == b.trace
    _assert_same_witness(a.hypothesis_witness, b.hypothesis_witness)
    if lift is None:
        _assert_same_result(a, b)
    else:
        assert a.point.components.tobytes() == lift(b.point).components.tobytes()


@pytest.mark.parametrize("kind", ["perov", "jungck", "comparison"])
def test_blocks_step_as_one_row_at_a_time(kind, monkeypatch):
    # declarative callables step in blocks; plain functions, which the loop
    # calls as user code, one row at a time. Both give the same steps, to the
    # bit, and end at the same step with the same result or typed error, on
    # budgets around the block sizes, eps from 1e-14 to 1e-2 and maps that
    # overflow. A pair steps in value space, as h = f g^-1 from g(x0) does.
    ends = set()
    for seed in range(8):
        parts = _block_parts(seed)
        if kind == "perov":
            reference, lift = _plain(parts, *_CALLABLES), None
        else:
            reference, lift = _in_value_space(parts), parts["solve"]
        for budget in _BUDGETS:
            blocked = _outcome(kind, parts, budget)
            _assert_same_outcome(blocked, _outcome(kind, reference, budget), lift)
            with monkeypatch.context() as one_row:
                one_row.setattr(perov.solver, "_BLOCK", 1)
                _assert_same_outcome(blocked, _outcome(kind, parts, budget))
            end = blocked[1]
            ends.add(end[0].__name__ if isinstance(end, tuple) else end.trace.status.value)
    expected = {"converged", "budget_exhausted"}
    expected |= {"hypothesis_violated"} if kind == "comparison" else {"EvaluationError", "UsageError"}
    assert ends >= expected


def test_a_short_solve_computes_few_steps_past_its_stop():
    # blocks grow no further than the contraction seen so far says the run
    # has to go: linear44's 84 steps and one gap evaluate f 85 times, not
    # the 127 + 1 of blocks that only double
    calls = []

    class Counting(MapSpec):
        def _raw(self, a):
            calls.append(len(a))
            return super()._raw(a)

    pf = parse_problem(str(ROOT / "problems" / "linear44.prob"))
    f = Counting(pf.f.kind, pf.f.M, pf.f.b)
    res = perov_solve(f, WeightedMatrixMetric(pf.weight), certify_contraction(pf.k, 1e-9), pf.x0, pf.eps, pf.budget)
    assert res.trace.iterations == 84
    assert len(calls) <= res.trace.iterations + 2


def _logging(fn, name, events):
    def logged(*args):
        events.append(name)
        return fn(*args)

    return logged


@pytest.mark.parametrize(
    ("kind", "plain"),
    [("perov", "f"), ("perov", "metric"), ("comparison", "f"), ("comparison", "metric"), ("comparison", "phi")],
)
def test_a_library_callable_runs_once_per_step_in_step_order(kind, plain):
    # a plain-function f, metric or phi is user code: the loop calls it for
    # step j only after on_step has seen step j - 1, never ahead of a step
    events = []
    parts = {"f": scalar_map(0.5, 1.0), "metric": scalar_metric(), "phi": linear_comparison(mat([[0.6]]))}
    parts[plain] = _logging(parts[plain], plain, events)
    eps, budget = Vector.full(1, 1e-300), 20

    def on_step(j, y, dist, bound):
        events.append("step")

    if kind == "perov":
        cert = certify_contraction(mat([[0.5]]), 1e-9)
        res = perov_solve(parts["f"], parts["metric"], cert, vec(8.0), eps, budget, on_step=on_step)
        per_step = [["f", "metric", "step"]] * budget
    else:
        g = identity_map(1)
        res = comparison_solve(
            parts["f"], g, affine_preimage(g), parts["phi"], parts["metric"], vec(8.0), eps, budget,
            on_step=on_step,
        )
        first = events.index("step")  # step 0 calls no phi: each phi before it is the axiom screen's
        events[:first] = [name for name in events[:first] if name != "phi"]
        # step j >= 1 applies phi to the bound, then to the last distance for the online check
        per_step = [["f", "metric", "step"]] + [["f", "metric", "phi", "step", "phi"]] * (budget - 1)
    assert res.trace.status is SolveStatus.BUDGET_EXHAUSTED and res.trace.iterations == budget
    expected = [name for step in per_step for name in step] + ["f", "metric"]  # + the residual
    assert events == [name for name in expected if name in (plain, "step")]


def _deep_violation():
    # the slow component, 1e-5 at the start, overtakes the fast one in the
    # first distance component at step 40, where its ratio 0.95 breaks the gain 0.9
    f = MapSpec.affine(mat([[0.95, 0.0], [0.0, 0.8]]), vec(0.0, 0.0))
    metric = WeightedMatrixMetric(mat([[1.0, 1e-3], [1e-3, 1.0]]))
    phi = linear_comparison(mat([[0.9, 0.0], [0.0, 0.9]]))
    return f, identity_map(2), phi, metric, vec(1e-5, 1.0), Vector.full(2, 1e-12)


def _comparison_case(case):
    if case is _deep_violation:
        return case()
    f, g, x0, eps = case()
    return f, g, linear_comparison(mat([[0.6]])), scalar_metric(), x0, eps


@pytest.mark.parametrize(
    ("case", "status", "step", "screened"),
    [
        (_deep_violation, SolveStatus.HYPOTHESIS_VIOLATED, 40, True),
        (_atan_violation, SolveStatus.HYPOTHESIS_VIOLATED, 2, False),
        (_zero_step, SolveStatus.CONVERGED, 24, True),
    ],
)
def test_exits_inside_a_block_match_the_one_row_path(case, status, step, screened, monkeypatch):
    # a breach of the online check and an exactly zero step, neither at the
    # start of a block, end the run at that step with the witness and point
    # of the one-row path, and after the same steps; the block is screened
    # as a whole where it holds _SCREENED rows or more
    f, g, phi, metric, x0, eps = _comparison_case(case)
    parts = {"f": f, "g": g, "solve": affine_preimage(g), "phi": phi, "metric": metric, "x0": x0, "eps": eps}
    sizes = [1]
    with monkeypatch.context() as spy:
        sizing = perov.solver._next_block
        spy.setattr(perov.solver, "_next_block", lambda *args: sizes.append(sizing(*args)) or sizes[-1])
        blocked = _outcome("comparison", parts, 500)
    starts = np.cumsum([0] + sizes)
    block = int(np.searchsorted(starts, step, side="right")) - 1
    assert starts[block] < step and (sizes[block] >= perov.solver._SCREENED) is screened
    assert blocked[1].trace == IterationTrace(status, step + 1)
    if status is SolveStatus.HYPOTHESIS_VIOLATED:
        assert blocked[1].hypothesis_witness["step"] == step
    _assert_same_outcome(blocked, _outcome("comparison", _plain(parts, "phi", "metric"), 500))
    monkeypatch.setattr(perov.solver, "_BLOCK", 1)
    _assert_same_outcome(blocked, _outcome("comparison", parts, 500))


def test_streamed_trace_holds_no_rows():
    # steps leave a solve only through on_step; the trace keeps no rows
    assert [f.name for f in dataclasses.fields(IterationTrace)] == ["status", "iterations"]
    assert IterationTrace(SolveStatus.CONVERGED, 3).iterations == 3


def test_streamed_solve_memory_does_not_grow_with_budget():
    n = 16
    k = SquareMatrix.diagonal(np.full(n, 0.999))
    f = MapSpec.affine(k, Vector(np.linspace(-1.0, 1.0, n)))
    metric = WeightedMatrixMetric(SquareMatrix(np.ones((n, n))))
    cert = certify_contraction(k, 1e-9)

    def peak(budget):
        tracemalloc.start()
        try:
            res = perov_solve(
                f, metric, cert, Vector.zeros(n), Vector.full(n, 1e-12), budget,
                on_step=lambda j, y, dist, bound: None,
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.trace.status is SolveStatus.BUDGET_EXHAUSTED
        assert res.trace.iterations == budget
        return peak

    small, large = peak(2_000), peak(20_000)
    # a recorded trace holds about 1 KB per step here, 20 MB at the larger budget
    assert large <= small + 16_384


def _residual_cases():
    f, g = scalar_map(1.0, 1.0), scalar_map(2.0, 0.0)
    cert = certify_contraction(mat([[0.5]]), 1e-9)
    yield f, g, jungck_solve(
        f, g, affine_preimage(g), scalar_metric(), cert, vec(0.0), EPS1
    )
    f, g = scalar_map(0.999, 1.0), identity_map(1)
    cert = certify_contraction(mat([[0.999]]), 1e-9)
    yield f, g, perov_solve(f, scalar_metric(), cert, vec(0.0), EPS1, 5)
    f = scalar_map(2.0, 0.0)
    phi = linear_comparison(mat([[0.6]]))
    yield f, g, comparison_solve(
        f, g, affine_preimage(g), phi, scalar_metric(), vec(1.0), EPS1
    )
    yield f, g, comparison_solve(
        f, g, affine_preimage(g), lambda t: t, scalar_metric(), vec(1.0), EPS1
    )


def test_residual_is_distance_of_f_and_g_at_point():
    statuses = set()
    for f, g, res in _residual_cases():
        statuses.add(res.trace.status)
        expected = scalar_metric()(f(res.point), g(res.point))
        assert np.array_equal(res.residual.components, expected.components)
    assert statuses == set(SolveStatus)


# -- non-finite values inside the loop ----------------------------------------


def test_map_overflow_mid_solve_raises_before_its_step():
    # y = 1e10^(j+1) at step j; step 30 overflows and is never handed out
    log = StepLog()
    cert = certify_contraction(mat([[0.5]]), 1e-9)
    with pytest.raises(EvaluationError, match="map evaluation produced a non-finite value"):
        perov_solve(scalar_map(1e10, 0.0), scalar_metric(), cert, vec(1.0), EPS1, on_step=log)
    assert len(log.points) == 30


def test_preimage_overflow_mid_solve_raises_after_its_step():
    # the auto-inverse of g = 1e-310 x sends y = 1 to 1e310
    g = scalar_map(1e-310, 0.0)
    log = StepLog()
    cert = certify_contraction(mat([[0.5]]), 1e-9)
    with pytest.raises(UsageError, match="^entries must be finite$"):
        jungck_solve(
            scalar_map(0.5, 1.0), g, affine_preimage(g), scalar_metric(), cert,
            vec(0.0), EPS1, on_step=log,
        )
    assert len(log.points) == 1


def test_residual_overflow_mid_solve_raises_after_its_step():
    # g_solve sends y = 1 to 1e10, where g(x) = 1e300 x overflows
    log = StepLog()
    cert = certify_contraction(mat([[0.5]]), 1e-9)
    with pytest.raises(EvaluationError, match="map evaluation produced a non-finite value"):
        jungck_solve(
            scalar_map(0.5, 1.0), scalar_map(1e300, 0.0), scalar_map(1e10, 0.0),
            scalar_metric(), cert, vec(0.0), EPS1, on_step=log,
        )
    assert len(log.points) == 1


def _third_call_infinite(fn):
    """A plain function that returns fn's value, except inf at its third call."""
    calls = []

    def wrapped(*args):
        calls.append(None)
        value = fn(*args)
        return np.full_like(value, np.inf) if len(calls) == 3 else value

    return wrapped


@pytest.mark.parametrize(
    ("which", "error", "message"),
    [
        ("f", EvaluationError, "map evaluation produced a non-finite value"),
        ("metric", UsageError, "^entries must be finite$"),
    ],
)
def test_non_finite_value_from_a_library_callable_is_refused(which, error, message):
    # every step's y, dist and bound are checked, whatever callable made them
    parts = {"f": scalar_map(0.5, 1.0), "metric": scalar_metric()}
    parts[which] = _third_call_infinite(parts[which])
    dists = []
    cert = certify_contraction(mat([[0.5]]), 1e-9)
    with pytest.raises(error, match=message):
        perov_solve(
            parts["f"], parts["metric"], cert, vec(0.0), EPS1,
            on_step=lambda j, y, dist, bound: dists.append(dist.copy()),
        )
    assert len(dists) == 2


# -- tolerances scale with their operands -------------------------------------


def test_preimage_tolerance_scales_with_offsets():
    f = scalar_map(0.3, -654321.9)
    g = scalar_map(1.7, 777777.7)
    cert = certify_contraction(mat([[0.3 / 1.7]]), 1e-9)
    res = jungck_solve(
        f, g, affine_preimage(g), scalar_metric(), cert, vec(0.0), Vector.full(1, 1e-4)
    )
    assert res.trace.status is SolveStatus.CONVERGED
    assert abs(res.point.components[0] + 1432099.6 / 1.4) < 1e-4


# the digests of the runs with g's own oracle, which step in value space;
# g.M = 0.5 inverts exactly, so for g.b = 0 both paths give the same bits
LOWERED_DIGESTS = {
    "0": "6f020318a20fe9c7dfc3ebb019a9e0e68182e5e5846165c182dac6ba6b1c9fae",
    "1000000.3": "4d615c5787e7169dc37758c828c714d14a6a93a6cc593fd4414ea69d5230fd96",
}


@pytest.mark.parametrize(
    "g_b, budget, steps, digest",
    [
        ("0", 100_000, 61, "6f020318a20fe9c7dfc3ebb019a9e0e68182e5e5846165c182dac6ba6b1c9fae"),
        # the preimage residual passes only relative to the offset, at every step
        ("1000000.3", 500, 500, "d1cd37a8ed781a0276f64051221027e922a7dfe362697991aabd820d537b4ac3"),
    ],
)
def test_plain_preimage_oracle_runs_once_per_step(g_b, budget, steps, digest):
    # a plain oracle takes the literal steps and is called once per step; g's
    # own oracle lets the loop step in value space under f g^-1
    text = (ROOT / "problems" / "jungck-thirds.prob").read_text()
    pf = parse_problem_text(text.replace("g.b = 0", f"g.b = {g_b}"))
    metric, cert = WeightedMatrixMetric(pf.weight), certify_contraction(pf.k, 1e-9)
    solve = affine_preimage(pf.g)
    calls = []

    def oracle(y):
        calls.append(y)
        return solve(y)

    digests = []
    for g_solve in (oracle, solve):
        stream = []

        def on_step(j, y, dist, bound):
            stream.append(np.int64(j).tobytes() + y.tobytes() + dist.tobytes() + bound.tobytes())

        res = jungck_solve(pf.f, pf.g, g_solve, metric, cert, pf.x0, pf.eps, budget, on_step=on_step)
        assert res.trace.iterations == steps
        stream += [v.components.tobytes() for v in (res.point, res.value, res.residual)]
        digests.append(hashlib.sha256(b"".join(stream)).hexdigest())
    assert len(calls) == steps
    # each path gives the steps and the result of the implementation its
    # digest was taken from, bit for bit
    assert digests == [digest, LOWERED_DIGESTS[g_b]]


def test_online_step_slack_scales_with_offsets():
    # the hypothesis holds with equality: every step is exactly half the last
    f = scalar_map(0.5, 1000000.3)
    g = identity_map(1)
    phi = linear_comparison(mat([[0.5]]))
    res = comparison_solve(
        f, g, affine_preimage(g), phi, scalar_metric(), vec(0.0), Vector.full(1, 1e-6)
    )
    assert res.trace.status is SolveStatus.CONVERGED
    assert abs(res.point.components[0] - 2000000.6) < 1e-5


def test_weak_compatibility_tolerance_scales_with_offsets(monkeypatch):
    # f(g x) = g(f x) = 0.51 x - 0.7 * 420000000.1: the pair commutes; the
    # preimage check is disabled so that only the commutation test is probed
    monkeypatch.setattr(perov.solver, "PREIMAGE_TOL", 1.0)
    f = scalar_map(0.3, -420000000.1)
    g = scalar_map(1.7, 420000000.1)
    cert = certify_contraction(mat([[0.3 / 1.7]]), 1e-9)
    res = jungck_solve(
        f, g, affine_preimage(g), scalar_metric(), cert, vec(0.0), Vector.full(1, 1e-4)
    )
    assert res.trace.status is SolveStatus.CONVERGED
    assert res.weakly_compatible is True
    assert abs(res.common_fixed_point.components[0] + 600000000.1428571) < 1e-4


# -- known defect -------------------------------------------------------------


@pytest.mark.xfail(
    strict=True,
    reason="the d < eps/2 stop branch fires at step 83 of linear44 while the "
    "bound is 1.88e-10, leaving a weighted error of 1.41e-10 above eps = 1e-10",
)
def test_linear44_converged_point_is_within_eps():
    pf = parse_problem(str(ROOT / "problems" / "linear44.prob"))
    metric = WeightedMatrixMetric(pf.weight)
    cert = certify_contraction(pf.k, 1e-9)
    res = perov_solve(pf.f, metric, cert, pf.x0, pf.eps, pf.budget)
    assert res.trace.status is SolveStatus.CONVERGED
    error = metric(res.point, vec(4.0, 4.0))
    assert np.all(error.components < pf.eps.components)


@pytest.mark.xfail(
    strict=True,
    reason="_weakly_compatible compares f(g p) with g(f p) within WEAK_COMPAT_TOL, "
    "whose absolute floor of 1e-8 passes a pair that commutes only up to 1e-9",
)
def test_a_pair_without_a_common_fixed_point_reports_none():
    # f x = x/3 and g x = x/2 + 1e-9 coincide only at 0, and g 0 = 1e-9 != 0,
    # so the pair has no common fixed point; it converges in 61 steps
    text = (ROOT / "problems" / "jungck-thirds.prob").read_text()
    pf = parse_problem_text(text.replace("g.b = 0", "g.b = 1e-9"))
    metric, cert = WeightedMatrixMetric(pf.weight), certify_contraction(pf.k, 1e-9)
    res = jungck_solve(pf.f, pf.g, affine_preimage(pf.g), metric, cert, pf.x0, pf.eps, pf.budget)
    assert res.trace.status is SolveStatus.CONVERGED
    assert res.weakly_compatible is False
    assert res.common_fixed_point is None

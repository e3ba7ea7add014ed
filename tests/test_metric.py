import numpy as np
import pytest

from perov import (
    SquareMatrix,
    UsageError,
    Vector,
    WeightedMatrixMetric,
    check_metric_axioms,
    converged,
    metric_eval,
    uniform_sampler,
)


def mat(rows):
    return SquareMatrix(np.array(rows, dtype=float))


def vec(*comps):
    return Vector(np.array(comps, dtype=float))


def metric_oracle(w, x, y):
    # scalar-loop evaluation, independent of the vectorized implementation
    n = x.n
    out = []
    for i in range(n):
        acc = 0.0
        for j in range(n):
            acc += w.entries[i, j] * abs(x.components[j] - y.components[j])
        out.append(acc)
    return np.array(out)


def test_weight_must_be_strictly_positive():
    with pytest.raises(UsageError):
        WeightedMatrixMetric(mat([[1.0, 0.0], [0.5, 1.0]]))
    with pytest.raises(UsageError):
        WeightedMatrixMetric(mat([[1.0, -0.1], [0.5, 1.0]]))


def test_frozen_value():
    m = WeightedMatrixMetric(mat([[1.0, 0.5], [0.5, 1.0]]))
    d = m(vec(1.0, 2.0), vec(3.0, -2.0))
    # |x - y| = (2, 4): rows give 2 + 2 = 4 and 1 + 4 = 5
    assert d == vec(4.0, 5.0)
    assert metric_eval(m, vec(1.0, 2.0), vec(3.0, -2.0)) == vec(4.0, 5.0)


def test_frozen_value_hand_checked():
    # rows of [[2,1],[1,3]] against |x - y| = (1, 1) give (3, 4)
    m = WeightedMatrixMetric(mat([[2.0, 1.0], [1.0, 3.0]]))
    assert m(vec(1.0, 0.0), vec(0.0, 1.0)) == vec(3.0, 4.0)
    assert m(vec(5.0, 7.0), vec(5.0, 7.0)) == vec(0.0, 0.0)


def test_all_ones_weight():
    m = WeightedMatrixMetric(mat([[1.0, 1.0], [1.0, 1.0]]))
    d = m(vec(0.0, 0.0), vec(1.0, 1.0))
    assert d == vec(2.0, 2.0)


def test_matches_scalar_oracle():
    rng = np.random.default_rng(42)
    for _ in range(100):
        n = int(rng.integers(1, 5))
        w = SquareMatrix(rng.uniform(0.1, 3.0, (n, n)))
        m = WeightedMatrixMetric(w)
        x = Vector(rng.uniform(-5.0, 5.0, n))
        y = Vector(rng.uniform(-5.0, 5.0, n))
        assert np.allclose(m(x, y).components, metric_oracle(w, x, y), atol=1e-13)
        # a stack of points gives one distance per row
        xy = np.vstack([x.components, y.components])
        stacked = m(xy, xy[::-1])
        assert stacked.shape == (2, n)
        assert np.allclose(stacked, metric_oracle(w, x, y), atol=1e-13)


def test_stack_keeps_the_vector_checks():
    m = WeightedMatrixMetric(mat([[1.0, 0.5], [0.5, 1.0]]))
    with pytest.raises(UsageError):
        m(np.zeros((3, 3)), np.zeros((3, 3)))
    with np.errstate(over="ignore"), pytest.raises(UsageError):
        m(np.full((2, 2), 1e308), np.full((2, 2), -1e308))
    with np.errstate(over="ignore"), pytest.raises(UsageError):
        m(vec(1e308, 0.0), vec(-1e308, 0.0))


@pytest.mark.parametrize("n", range(1, 33))
def test_block_distances_are_metric_eval_row_by_row(n):
    # the solve loop takes a block's step distances as one stacked product,
    # which must give metric_eval's bits on each (1, n) row, or the iter
    # records would move: seeded blocks of 1 to 16 steps, values of any
    # magnitude from 1e-300 to 1e300 with zeros, and repeated rows
    rng = np.random.default_rng(2700 + n)
    for rows in range(1, 17):
        m = WeightedMatrixMetric(SquareMatrix(rng.uniform(0.1, 1.0, (n, n)) * 10.0 ** rng.uniform(-3.0, 3.0)))
        v = rng.choice([-1.0, 1.0], (rows + 1, n)) * 10.0 ** rng.uniform(-300.0, 300.0, (rows + 1, n))
        v[rng.random((rows + 1, n)) < 0.1] = 0.0
        if rows > 1:
            v[rng.integers(1, rows + 1)] = v[0]
        block = m._steps(v)
        one_by_one = np.vstack([metric_eval(m, v[i : i + 1], v[i + 1 : i + 2]) for i in range(rows)])
        assert block.shape == (rows, n)
        assert block.tobytes() == one_by_one.tobytes()
        vectors = [metric_eval(m, Vector(v[i]), Vector(v[i + 1])).components for i in range(rows)]
        assert block.tobytes() == np.vstack(vectors).tobytes()


def test_axioms_pass_for_valid_weight():
    # the triangle slack is relative: the rounding of the triangle sum grows
    # with the distances, and an absolute 1e-12 refutes the scaled weights
    for scale in (1.0, 1e3, 1e6):
        m = WeightedMatrixMetric(mat([[1.0, 0.25], [0.25, 1.0]]) * scale)
        report = check_metric_axioms(m, uniform_sampler(2, seed=5), 2000)
        assert report.passed, scale
        assert report.samples_tested == 2000


def test_axioms_catch_identity_failure():
    # collapses all points within distance 5, so distinct points get zero
    def broken(x, y):
        gap = np.abs(x - y)
        return np.where(gap < 5.0, 0.0, gap)

    report = check_metric_axioms(broken, uniform_sampler(2, seed=6), 200)
    assert not report.passed
    assert report.d1_violations


def test_axioms_catch_asymmetry():
    def broken(x, y):
        delta = x - y
        return np.abs(delta) + 0.001 * delta

    report = check_metric_axioms(broken, uniform_sampler(2, seed=7), 200)
    assert not report.passed
    assert report.d2_violations


def test_axioms_catch_signed_difference():
    # the raw signed difference leaves the cone whenever x < y somewhere
    def broken(x, y):
        return x - y

    report = check_metric_axioms(broken, uniform_sampler(2, seed=10), 200)
    assert not report.passed
    assert report.d1_violations


def test_axioms_catch_triangle_failure():
    # squaring the coordinate gaps breaks subadditivity at every scale
    for scale in (1.0, 1e3, 1e6):
        def broken(x, y):
            return scale * (x - y) ** 2

        report = check_metric_axioms(broken, uniform_sampler(2, seed=8), 500)
        assert not report.passed, scale
        assert report.d3_violations, scale


def test_scaling_coherence():
    # doubling every weight exactly doubles every distance (power of 2)
    w = mat([[1.0, 0.5], [0.25, 2.0]])
    m1 = WeightedMatrixMetric(w)
    m2 = WeightedMatrixMetric(2.0 * w)
    rng = np.random.default_rng(9)
    for _ in range(100):
        x = Vector(rng.uniform(-8.0, 8.0, 2))
        y = Vector(rng.uniform(-8.0, 8.0, 2))
        assert m2(x, y) == 2.0 * m1(x, y)


def test_converged_requires_interior_eps():
    with pytest.raises(UsageError):
        converged(vec(0.0, 0.0), vec(1e-8, 0.0))


def test_converged_is_strict():
    assert converged(vec(0.0, 0.0), vec(1e-8, 1e-8))
    assert not converged(vec(1e-8, 0.0), vec(1e-8, 1e-8))
    assert converged(vec(9.9e-9, 0.0), vec(1e-8, 1e-8))


def test_limits_are_unique():
    # a sequence cannot shrink its distance to two separate points
    m = WeightedMatrixMetric(mat([[1.0, 0.3], [0.3, 1.0]]))
    target = vec(1.0, -1.0)
    other = vec(1.0, -0.5)
    seq = [Vector(target.components + 0.5**k * np.array([1.0, 1.0])) for k in range(40)]
    d_target = [m(p, target) for p in seq]
    d_other = [m(p, other) for p in seq]
    assert all(
        np.all(d_target[k + 1].components <= d_target[k].components)
        for k in range(len(seq) - 1)
    )
    # distances to the true limit vanish; distances to the other point do not
    assert np.all(d_target[-1].components < 1e-9)
    assert np.all(d_other[-1].components > 0.1)

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perov import (
    MapSpec,
    OrthantCone,
    SquareMatrix,
    UsageError,
    Vector,
    WeightedMatrixMetric,
    affine_preimage,
    certify_contraction,
    cone_contains,
    jungck_solve,
    mat_apply,
    order_leq,
    order_ll,
    perov_solve,
    ring_leq,
    ring_norm,
    sup_norm,
)

P2 = OrthantCone(2)
P3 = OrthantCone(3)


def mat(rows):
    return SquareMatrix(np.array(rows, dtype=float))


def vec(*comps):
    return Vector(np.array(comps, dtype=float))


# -- construction and immutability ----------------------------------------


def test_matrix_rejects_non_square():
    with pytest.raises(UsageError):
        SquareMatrix(np.array([[1.0, 2.0]]))
    with pytest.raises(UsageError):
        SquareMatrix(np.array([1.0, 2.0]))


def test_rejects_non_finite():
    with pytest.raises(UsageError):
        mat([[1.0, np.nan], [0.0, 1.0]])
    with pytest.raises(UsageError):
        vec(1.0, np.inf)


def test_rejects_empty():
    with pytest.raises(UsageError):
        Vector(np.array([]))


def test_entries_are_read_only():
    a = mat([[1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(ValueError):
        a.entries[0, 0] = 9.0
    v = vec(1.0, 2.0)
    with pytest.raises(ValueError):
        v.components[0] = 9.0


def _solved_point():
    k = mat([[0.5]])
    res = perov_solve(
        MapSpec.affine(k, vec(1.0)), WeightedMatrixMetric(mat([[1.0]])),
        certify_contraction(k, 1e-9), vec(0.0), vec(1e-10),
    )
    return res.point.components


def _preimage_oracle_input():
    g = MapSpec.affine(mat([[2.0]]), vec(0.0))
    solve, seen = affine_preimage(g), []

    def oracle(y):
        seen.append(y)
        return solve(y)

    jungck_solve(
        MapSpec.affine(mat([[0.5]]), vec(1.0)), g, oracle, WeightedMatrixMetric(mat([[1.0]])),
        certify_contraction(mat([[0.25]]), 1e-9), vec(0.0), vec(1e-10),
    )
    return seen[0].components


FROZEN = {
    "Vector": lambda: vec(1.0, 2.0).components,
    "Vector .base": lambda: vec(1.0, 2.0).components.base,
    "Vector._wrap": lambda: Vector._wrap(np.array([1.0, 2.0])).components,
    "Vector._wrap_rows": lambda: Vector._wrap_rows(np.ones((2, 2)))[1].components,
    "SquareMatrix": lambda: mat([[1.0, 2.0], [3.0, 4.0]]).entries,
    "vector sum": lambda: (vec(1.0, 2.0) + vec(3.0, 4.0)).components,
    "matrix sum": lambda: (mat([[1.0]]) + mat([[2.0]])).entries,
    "scalar multiple": lambda: (2.0 * vec(1.0, 2.0)).components,
    "map output": lambda: MapSpec.affine(mat([[2.0]]), vec(1.0))(vec(3.0)).components,
    "certificate S": lambda: certify_contraction(mat([[0.5]]), 1e-9).S.entries,
    "solve point": _solved_point,
    "preimage oracle input": _preimage_oracle_input,
}


@pytest.mark.parametrize("case", sorted(FROZEN))
def test_values_cannot_be_made_writeable_again(case):
    arr = FROZEN[case]()
    with pytest.raises(ValueError):
        arr.flags.writeable = True


def test_defensive_copy_of_input():
    raw = np.array([1.0, 2.0])
    v = Vector(raw)
    raw[0] = 99.0
    assert v.components[0] == 1.0


# -- ring arithmetic -------------------------------------------------------


def test_matrix_arithmetic():
    a = mat([[1.0, 2.0], [3.0, 4.0]])
    b = mat([[0.0, 1.0], [1.0, 0.0]])
    assert (a + b) == mat([[1.0, 3.0], [4.0, 4.0]])
    assert (a - b) == mat([[1.0, 1.0], [2.0, 4.0]])
    assert (2.0 * a) == mat([[2.0, 4.0], [6.0, 8.0]])
    assert (a @ b) == mat([[2.0, 1.0], [4.0, 3.0]])


def test_identity_is_neutral():
    a = mat([[1.0, -2.0], [3.0, 4.0]])
    e = SquareMatrix.identity(2)
    assert a @ e == a
    assert e @ a == a


def test_matrix_vector_action():
    a = mat([[1.0, 2.0], [0.0, 1.0]])
    assert a @ vec(1.0, 1.0) == vec(3.0, 1.0)
    assert mat_apply(a, vec(1.0, 1.0)) == vec(3.0, 1.0)
    assert mat_apply(mat([[0.5, 0.0], [0.0, 0.25]]), vec(2.0, 4.0)) == vec(1.0, 1.0)


def test_dimension_mismatch_rejected():
    a = mat([[1.0]])
    with pytest.raises(UsageError):
        a @ mat([[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(UsageError):
        a @ vec(1.0, 2.0)
    with pytest.raises(UsageError):
        order_leq(P2, vec(1.0), vec(1.0, 2.0))


# -- row-sum norm ----------------------------------------------------------


def test_ring_norm_frozen_example():
    assert ring_norm(mat([[1.0, -2.0], [3.0, 4.0]])) == 7.0


def test_ring_norm_identity_and_zero():
    assert ring_norm(SquareMatrix.identity(3)) == 1.0
    assert ring_norm(SquareMatrix.zeros(3)) == 0.0


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_ring_norm_submultiplicative(n, seed):
    rng = np.random.default_rng(seed)
    a = SquareMatrix(rng.uniform(-3.0, 3.0, (n, n)))
    b = SquareMatrix(rng.uniform(-3.0, 3.0, (n, n)))
    assert ring_norm(a @ b) <= ring_norm(a) * ring_norm(b) + 1e-12


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_ring_norm_bounds_action(n, seed):
    # the norm bounds sup-norm amplification of the vector action
    rng = np.random.default_rng(seed)
    a = SquareMatrix(rng.uniform(-3.0, 3.0, (n, n)))
    v = Vector(rng.uniform(-3.0, 3.0, n))
    assert sup_norm(a @ v) <= ring_norm(a) * sup_norm(v) + 1e-12


def test_ring_leq_is_entrywise():
    assert ring_leq(SquareMatrix.zeros(2), SquareMatrix.identity(2))
    assert not ring_leq(mat([[0.0, 1.0], [0.0, 0.0]]), mat([[1.0, 0.0], [1.0, 1.0]]))
    a = mat([[0.0, 1.0], [1.0, 0.0]])
    assert ring_leq(a, a)


# -- cone and order --------------------------------------------------------


def test_cone_membership():
    assert cone_contains(P2, vec(0.0, 0.0))
    assert not cone_contains(P2, vec(1.0, -1e-12))
    assert cone_contains(P3, vec(3.0, 0.0, 2.0))
    assert P2.contains(vec(1.0, 0.0))
    assert P2.interior_contains(vec(1e-12, 1.0))
    assert not P2.interior_contains(vec(0.0, 1.0))


def test_cone_pointed():
    # the only vector in both the cone and its negation is zero
    rng = np.random.default_rng(7)
    for _ in range(200):
        v = Vector(rng.integers(-1, 2, 3).astype(float))
        if cone_contains(P3, v) and cone_contains(P3, -1.0 * v):
            assert np.all(v.components == 0.0)


def test_order_examples():
    assert order_leq(P2, vec(1.0, 2.0), vec(1.0, 3.0))
    assert not order_leq(P2, vec(1.0, 2.0), vec(2.0, 1.0))
    assert order_leq(P2, vec(1.0, 2.0), vec(1.0, 2.0))
    assert order_ll(P2, vec(0.0, 0.0), vec(1.0, 1.0))
    assert not order_ll(P2, vec(0.0, 0.0), vec(1.0, 0.0))
    assert order_ll(P2, vec(-1.0, -1.0), vec(0.0, 0.0))


def test_order_is_exact_no_tolerance():
    one = OrthantCone(1)
    assert not order_leq(one, vec(1e-300), vec(0.0))
    assert order_leq(one, vec(0.0), vec(1e-300))
    assert not order_ll(one, vec(0.0), vec(0.0))


def test_order_antisymmetry():
    rng = np.random.default_rng(3)
    for _ in range(200):
        u = Vector(rng.integers(-2, 3, 3).astype(float))
        v = Vector(rng.integers(-2, 3, 3).astype(float))
        if order_leq(P3, u, v) and order_leq(P3, v, u):
            assert u == v


def test_order_reflexive_transitive():
    rng = np.random.default_rng(4)
    for _ in range(200):
        u = Vector(rng.uniform(-1.0, 1.0, 3))
        assert order_leq(P3, u, u)
        v = u + Vector(rng.uniform(0.0, 1.0, 3))
        w = v + Vector(rng.uniform(0.0, 1.0, 3))
        assert order_leq(P3, u, w)


# -- interior and mixing properties ----------------------------------------


def test_interior_closed_under_addition():
    rng = np.random.default_rng(11)
    zero = Vector.zeros(3)
    for _ in range(500):
        u = Vector(rng.uniform(1e-6, 5.0, 3))
        v = Vector(rng.uniform(1e-6, 5.0, 3))
        assert order_ll(P3, zero, u) and order_ll(P3, zero, v)
        assert order_ll(P3, zero, u + v)


def test_positive_diagonal_scaling_preserves_interior():
    rng = np.random.default_rng(12)
    zero = Vector.zeros(3)
    for _ in range(500):
        v = Vector(rng.uniform(1e-6, 5.0, 3))
        lam = SquareMatrix.diagonal(Vector(rng.uniform(1e-3, 4.0, 3)))
        assert order_ll(P3, zero, lam @ v)


def test_nonnegative_matrix_preserves_order():
    rng = np.random.default_rng(13)
    for _ in range(500):
        x = Vector(rng.uniform(-5.0, 5.0, 3))
        y = x + Vector(rng.uniform(0.0, 5.0, 3))
        alpha = SquareMatrix(rng.uniform(0.0, 3.0, (3, 3)))
        assert order_leq(P3, alpha @ x, alpha @ y)


def test_weak_then_strict_is_strict():
    rng = np.random.default_rng(14)
    for _ in range(500):
        u = Vector(rng.uniform(-5.0, 5.0, 3))
        v = u + Vector(rng.uniform(0.0, 2.0, 3))
        w = v + Vector(rng.uniform(1e-6, 2.0, 3))
        assert order_ll(P3, u, w)


def test_strict_then_weak_is_strict():
    rng = np.random.default_rng(15)
    for _ in range(500):
        u = Vector(rng.uniform(-5.0, 5.0, 3))
        v = u + Vector(rng.uniform(1e-6, 2.0, 3))
        w = v + Vector(rng.uniform(0.0, 2.0, 3))
        assert order_ll(P3, u, w)


def test_strict_then_strict_is_strict():
    rng = np.random.default_rng(16)
    for _ in range(500):
        u = Vector(rng.uniform(-5.0, 5.0, 3))
        v = u + Vector(rng.uniform(1e-6, 2.0, 3))
        w = v + Vector(rng.uniform(1e-6, 2.0, 3))
        assert order_ll(P3, u, w)


def test_halving_sequence_eventually_strictly_below():
    # every interior threshold is eventually passed by 2^-n (1, ..., 1)
    c = vec(1e-6, 2.0, 0.5)
    ones = Vector.ones(3)
    n = 0
    while not order_ll(P3, 0.5**n * ones, c):
        n += 1
        assert n < 60
    for extra in range(n, n + 10):
        assert order_ll(P3, 0.5**extra * ones, c)


def test_sup_norm():
    assert sup_norm(vec(1.0, -3.0, 2.0)) == 3.0
    assert sup_norm(vec(0.0)) == 0.0

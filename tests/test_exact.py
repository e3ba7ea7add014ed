"""Closed-form gates (perov.exact) against an independent Fraction computation.

The Lipschitz rule for affine maps is exact, so on seeded affine problems
with g absent or diagonal it must pass exactly the k that satisfy
W |M| <= k W |D| in rational arithmetic, refute the rest with one witness
per failing column, and report the smallest entry of k W |D| - W |M| as
its nearest double. Each k comes in three forms: the smallest doubles that
hold (tight), one ulp too small in one entry, and 1e-6 too small there.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from perov import MapSpec, SquareMatrix, Vector, identity_map
from perov.exact import comparison_axioms, condition_c, lipschitz, metric_axioms


def mat(rows):
    return SquareMatrix(np.array(rows, dtype=float))


def affine(m):
    m = np.asarray(m, dtype=float)
    return MapSpec.affine(SquareMatrix(m), Vector(np.zeros(len(m))))


def fractions(a):
    return [[Fraction(x) for x in row] for row in np.asarray(a, dtype=float).tolist()]


def product(*mats):
    out = mats[0]
    for b in mats[1:]:
        out = [[sum(r[l] * b[l][j] for l in range(len(b))) for j in range(len(b[0]))] for r in out]
    return out


def exact_diffs(w, m, k, d):
    """k W |D| - W |M|, entry by entry, in rationals."""
    wf, kf = fractions(w), fractions(k)
    left = product(wf, fractions(np.abs(m)))
    right = product(kf, wf, fractions(np.abs(d)))
    return [[r - l for r, l in zip(rr, lr)] for rr, lr in zip(right, left)]


def smallest_double_at_least(q: Fraction) -> float:
    x = float(q)
    return x if Fraction(x) >= q else math.nextafter(x, math.inf)


def tight_problem(rng, n, with_g):
    """W, M, D and the tight k: off-diagonal draws, each diagonal entry as small as holds."""
    w = rng.uniform(0.1, 2.0, (n, n))
    m = rng.uniform(-1.0, 1.0, (n, n))
    d = np.diag(rng.uniform(0.5, 2.0, n) * rng.choice([-1.0, 1.0], n)) if with_g else np.eye(n)
    k = rng.uniform(0.0, 0.01, (n, n))
    np.fill_diagonal(k, 0.0)
    left = product(fractions(w), fractions(np.abs(m)))
    wd = product(fractions(w), fractions(np.abs(d)))
    for i in range(n):
        need = max(
            (left[i][j] - sum(Fraction(k[i, l]) * wd[l][j] for l in range(n) if l != i)) / wd[i][j]
            for j in range(n)
        )
        assert need > 0
        k[i, i] = smallest_double_at_least(need)
    return w, m, d, k


def _cases():
    rng = np.random.default_rng(20261019)
    for n in range(1, 6):
        for with_g in (False, True):
            for rep in range(3):
                w, m, d, k = tight_problem(rng, n, with_g)
                i = int(rng.integers(n))
                ulp, scaled = k.copy(), k.copy()
                ulp[i, i] = math.nextafter(k[i, i], 0.0)
                scaled[i, i] = k[i, i] * (1.0 - 1e-6)
                tag = f"n{n}-{'g' if with_g else 'id'}-{rep}"
                yield pytest.param(w, m, d, k, True, id=f"{tag}-tight")
                yield pytest.param(w, m, d, ulp, False, id=f"{tag}-ulp")
                yield pytest.param(w, m, d, scaled, False, id=f"{tag}-1e-6")


@pytest.mark.parametrize(("w", "m", "d", "k", "holds"), list(_cases()))
def test_lipschitz_gate_is_exact_on_affine_maps(w, m, d, k, holds):
    n = len(w)
    g = affine(d) if (d != np.eye(n)).any() else identity_map(n)
    report = lipschitz(affine(m), g, mat(k), mat(w))
    diffs = exact_diffs(w, m, k, d)
    failing = [j for j in range(n) if any(diffs[i][j] < 0 for i in range(n))]
    assert (report.method, report.samples_tested) == ("exact", 0)
    assert report.passed is holds is (not failing)
    assert report.gap == float(min(min(row) for row in diffs))
    assert [int(np.flatnonzero(x.components)[0]) for x, *_ in report.violations] == failing
    # a witness is the pair (e_j, 0) with the float columns j of both sides,
    # which may round a one-ulp violation away
    for x, y, lhs, rhs in report.violations:
        j = int(np.flatnonzero(x.components)[0])
        assert not y.components.any()
        assert np.allclose(lhs.components, (np.asarray(w) @ np.abs(m))[:, j], rtol=1e-14)
        assert np.allclose(rhs.components, (np.asarray(k) @ np.asarray(w) @ np.abs(d))[:, j], rtol=1e-14)


def test_exact_ties_and_dyadic_equalities():
    # W |M| = k W exactly: every entry is a tie, decided on integers
    w = [[1.0, 0.1], [0.1, 1.0]]
    m = k = [[0.5, 0.25], [0.25, 0.5]]
    report = lipschitz(affine(m), identity_map(2), mat(k), mat(w))
    assert (report.passed, report.method, report.gap) == (True, "exact", 0.0)


@pytest.mark.parametrize(
    ("w", "m", "k", "holds"),
    [
        # entries whose float products overflow or underflow are compared exactly too
        (2.0**400, 2.0**-400, 1.0, True),
        (2.0**-400, 2.0**400, 0.5, False),
        (1e-200, 1e-200, 1e-150, True),
        # the subnormal left side is positive, so k = 0 fails by 5e-324
        (1.0, 5e-324, 0.0, False),
    ],
)
def test_extreme_magnitudes_are_compared_exactly(w, m, k, holds):
    report = lipschitz(affine([[m]]), identity_map(1), mat([[k]]), mat([[w]]))
    diff = Fraction(k) * Fraction(w) - Fraction(w) * Fraction(m)
    assert report.passed is holds
    assert report.gap == float(diff)


def test_a_singular_diagonal_g_needs_a_zero_column_of_f():
    # d(g x, g y) ignores the second coordinate, so f must too
    w, k, g = mat([[1.0, 0.5], [0.5, 1.0]]), mat([[0.5, 0.0], [0.0, 0.5]]), affine([[2.0, 0.0], [0.0, 0.0]])
    report = lipschitz(affine([[1.0, 0.0], [0.0, 0.0]]), g, k, w)
    assert (report.passed, report.gap) == (True, 0.0)
    report = lipschitz(affine([[1.0, 0.0], [0.0, 1e-300]]), g, k, w)
    assert report.passed is False
    assert [int(np.flatnonzero(x.components)[0]) for x, *_ in report.violations] == [1]
    assert report.gap == float(-Fraction(1e-300))


def test_componentwise_f_is_sufficient_or_undecided():
    f = MapSpec.componentwise(
        mat([[0.05, 0.02], [0.01, 0.04]]), Vector(np.array([0.5, -0.2])),
        mat([[0.03, 0.01], [0.0, 0.02]]), Vector(np.zeros(2)), ("tanh", "tanh"),
    )
    w = [[1.0, 1.0], [1.0, 1.0]]
    report = lipschitz(f, identity_map(2), mat([[0.2, 0.0], [0.0, 0.2]]), mat(w))
    # W |M| |L| = [[0.0018, 0.0014], [0.0018, 0.0014]] against k W = 0.2
    left = product(fractions(w), fractions([[0.05, 0.02], [0.01, 0.04]]), fractions([[0.03, 0.01], [0.0, 0.02]]))
    assert (report.passed, report.method) == (True, "sufficient")
    assert report.gap == float(Fraction(0.2) - max(max(row) for row in left))
    assert lipschitz(f, identity_map(2), mat([[1e-4, 0.0], [0.0, 1e-4]]), mat(w)) is None


def test_rules_need_an_affine_diagonal_g():
    f = affine([[0.25, 0.25], [0.25, 0.25]])
    g = affine([[1.0, 0.5], [0.0, 1.0]])
    w, k = mat([[1.0, 0.1], [0.1, 1.0]]), mat([[0.3, 0.3], [0.3, 0.3]])
    assert lipschitz(f, g, k, w) is None
    assert condition_c(f, g, k, w) is None


def test_condition_c_first_branch_is_sufficient():
    f, g, w = affine([[0.5]]), affine([[2.0]]), mat([[1.0]])
    report = condition_c(f, g, mat([[0.25]]), w)
    assert (report.passed, report.method, report.gap, report.branch_counts) == (
        True, "sufficient", 0.0, [0, 0, 0]
    )
    # 0.5 > 0.2 * 2: the first branch fails for every pair, but the others may hold
    assert condition_c(f, g, mat([[0.2]]), w) is None


@pytest.mark.parametrize(
    ("gain", "failing"),
    [
        ([[0.5, 0.0], [0.0, 0.9999]], []),
        ([[0.0, 0.0], [0.0, 0.0]], []),
        ([[0.5, 1e-3], [0.0, 0.5]], [1]),
        ([[0.5, 0.0], [5e-324, 0.5]], [0]),
        ([[0.5, 0.3], [0.3, 0.5]], [0, 1]),
        ([[1.0]], [0]),
    ],
)
def test_comparison_axioms_rule(gain, failing):
    report = comparison_axioms(mat(gain))
    n = len(gain)
    off = [Fraction(gain[i][j]) for i in range(n) for j in range(n) if i != j and gain[i][j]]
    expected_gap = min([1 - Fraction(gain[j][j]) for j in range(n)] + ([-max(off)] if off else []))
    assert (report.method, report.samples_tested, report.tail_checked) == ("exact", 0, 0)
    assert report.passed is (not failing)
    assert report.gap == float(expected_gap)
    assert [int(np.flatnonzero(t.components)[0]) for t, _ in report.shrink_violations] == failing
    # an interior witness is a positive t with some t_i <= (G t)_i, exactly
    assert len(report.interior_violations) == len(failing)
    for t, _ in report.interior_violations:
        ts = [Fraction(x) for x in t.components]
        gt = [sum(Fraction(gain[i][j]) * ts[j] for j in range(n)) for i in range(n)]
        assert min(ts) > 0 and any(x <= y for x, y in zip(ts, gt))
    assert not (report.monotone_violations or report.tail_violations)


def test_metric_axioms_follow_from_a_positive_weight():
    report = metric_axioms(mat([[1.0, 0.2], [0.3, 2.0]]))
    assert (report.passed, report.method, report.gap, report.samples_tested) == (True, "exact", 0.2, 0)

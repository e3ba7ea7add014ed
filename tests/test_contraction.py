import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perov import (
    CERT_RESIDUAL_MAX,
    NotCertifiedError,
    OrthantCone,
    SquareMatrix,
    UsageError,
    Vector,
    certify_contraction,
    check_comparison_axioms,
    comparison_apply,
    cone_sampler,
    linear_comparison,
    ring_norm,
    spectral_radius,
)
import perov.contraction


def mat(rows):
    return SquareMatrix(np.array(rows, dtype=float))


def vec(*comps):
    return Vector(np.array(comps, dtype=float))


def rho_2x2(a):
    # closed-form dominant eigenvalue of a nonnegative 2x2 matrix
    (p, q), (r, s) = a.entries
    return ((p + s) + np.sqrt((p - s) ** 2 + 4.0 * q * r)) / 2.0


def eig_radius(a):
    return float(np.max(np.abs(np.linalg.eigvals(a))))


def positive_at(rng, n, rho):
    # a positive n x n matrix scaled to the requested eigenvalue radius
    a = rng.uniform(0.1, 1.0, (n, n))
    return a * (rho / eig_radius(a))


# -- spectral radius --------------------------------------------------------


def test_spectral_radius_diagonal():
    assert abs(spectral_radius(mat([[0.5, 0.0], [0.0, 0.3]]), 1e-10) - 0.5) < 1e-9


def test_spectral_radius_periodic():
    # the two-cycle has no convergent power iteration; the estimate must
    # still land on 0.5
    a = mat([[0.0, 0.5], [0.5, 0.0]])
    assert abs(spectral_radius(a, 1e-10) - 0.5) < 1e-9


def test_spectral_radius_nilpotent():
    assert spectral_radius(mat([[0.0, 1.0], [0.0, 0.0]]), 1e-10) == 0.0


def test_spectral_radius_frozen_example():
    a = mat([[0.5, 0.6], [0.1, 0.2]])
    expected = (0.7 + np.sqrt(0.33)) / 2.0
    assert abs(spectral_radius(a, 1e-10) - expected) < 1e-8
    # the row-sum norm exceeds 1 even though the matrix is contractive
    assert ring_norm(a) == 1.1


def test_spectral_radius_rejects_bad_input():
    with pytest.raises(UsageError):
        spectral_radius(mat([[-0.1]]), 1e-10)
    with pytest.raises(UsageError):
        spectral_radius(mat([[0.5]]), 0.0)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_spectral_radius_matches_2x2_oracle(seed):
    rng = np.random.default_rng(seed)
    a = SquareMatrix(rng.uniform(0.0, 1.0, (2, 2)))
    assert abs(spectral_radius(a, 1e-10) - rho_2x2(a)) < 1e-8


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_rho_bound_dominates_spectral_radius(seed, positive):
    # the Collatz-Wielandt bound is an upper bound on every nonnegative
    # matrix and tight on positive and sparse (often reducible) ones alike
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.01, 1.0, (3, 3))
    if not positive:
        a = a * (rng.uniform(0.0, 1.0, (3, 3)) < 0.5)
    radius = eig_radius(a)
    if radius > 0.0:
        a = a * (rng.uniform(0.05, 0.99) / radius)
    a = SquareMatrix(a)
    cert = certify_contraction(a, 1e-9)
    rho = spectral_radius(a, 1e-10)
    assert cert.rho_bound >= rho - 1e-12
    assert cert.rho_bound - rho <= 1e-8


def test_rho_bound_frozen():
    a = mat([[0.5, 0.6], [0.1, 0.2]])
    assert abs(certify_contraction(a, 1e-9).rho_bound - rho_2x2(a)) < 1e-9


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_spectral_radius_below_ring_norm(n, seed):
    rng = np.random.default_rng(seed)
    a = SquareMatrix(rng.uniform(0.0, 1.0, (n, n)))
    assert spectral_radius(a, 1e-9) <= ring_norm(a) + 1e-8


# -- geometric series -------------------------------------------------------


def test_neumann_frozen_example():
    a = mat([[0.5, 0.25], [0.0, 0.5]])
    s = certify_contraction(a, 1e-12).S
    assert np.allclose(s.entries, [[2.0, 1.0], [0.0, 2.0]], atol=1e-10)
    assert np.allclose(s.entries, np.linalg.inv(np.eye(2) - a.entries), atol=1e-10)


def test_neumann_matches_inverse_oracle():
    rng = np.random.default_rng(21)
    eye = np.eye(2)
    for _ in range(50):
        a = rng.uniform(0.0, 0.45, (2, 2))
        s = certify_contraction(SquareMatrix(a), 1e-13).S
        assert np.allclose(s.entries, np.linalg.inv(eye - a), atol=1e-10)


def test_neumann_diverges_on_expansion():
    with pytest.raises(NotCertifiedError, match="Collatz-Wielandt bound"):
        certify_contraction(mat([[2.0]]), 1e-12)


def test_certify_refuses_radius_one():
    with pytest.raises(NotCertifiedError, match="singular"):
        certify_contraction(mat([[1.0]]), 1e-12)


# -- certificates -----------------------------------------------------------


def test_certificate_frozen_example():
    cert = certify_contraction(mat([[0.5, 0.25], [0.0, 0.5]]), 1e-9)
    assert abs(cert.rho - 0.5) < 1e-8
    assert np.allclose(cert.S.entries, [[2.0, 1.0], [0.0, 2.0]], atol=1e-9)
    assert cert.residual <= CERT_RESIDUAL_MAX
    # S 1 leaves the bound of this defective matrix above the radius, so
    # the shifted solve is taken
    assert cert.series_terms > 1
    assert 0.5 <= cert.rho_bound < 1.0 - 1e-9


@pytest.mark.parametrize(
    "k",
    [
        [[0.5, 0.25], [0.0, 0.5]],
        [[0.0, 1.0], [0.0, 0.0]],
        [[0.9999, 0.5], [0.0, 0.9999]],
    ],
    ids=["jordan-0.5", "nilpotent", "jordan-0.9999"],
)
def test_defective_bound_is_tight(k):
    # a defective k leaves the bound of S 1 well above the radius; one
    # shifted solve brings it to within the shift
    radius = eig_radius(np.array(k))
    cert = certify_contraction(mat(k), 1e-9)
    assert radius - 1e-12 <= cert.rho_bound <= radius + 1e-9 * max(1.0, radius)
    assert cert.series_terms <= 2


def test_certify_just_below_one_minus_tol():
    # the shift stops at the midpoint of rho and 1 - tol, so a radius
    # 3e-13 under 1 - tol still certifies although the full shift is 1e-12
    rng = np.random.default_rng(23)
    tol = 1e-3
    for _ in range(50):
        cert = certify_contraction(SquareMatrix(positive_at(rng, 3, 1.0 - tol - 3e-13)), tol)
        assert cert.rho_bound < 1.0 - tol


def jordan_blocks(*blocks):
    # the block diagonal of Jordan blocks lam I + c N, one (size, lam, c) each
    n = sum(m for m, _, _ in blocks)
    k = np.zeros((n, n))
    start = 0
    for m, lam, c in blocks:
        k[start : start + m, start : start + m] = lam * np.eye(m) + c * np.eye(m, k=1)
        start += m
    return k


def nilpotent_sparse_9():
    # a nilpotent sparse k whose eigenvalue estimate is exactly 0: the solve
    # at b = 1e-12 rounds entries of the shifted vector negative
    k = np.zeros((9, 9))
    for i, j, v in [
        (0, 6, 0.9865304242958116),
        (2, 3, 0.30108461589255764),
        (2, 4, 0.9348875759513346),
        (4, 5, 0.414180522839774),
        (4, 6, 0.5959263443320789),
        (5, 0, 0.10705717638444845),
        (7, 1, 0.4763254584260045),
        (7, 5, 0.14816967990262797),
        (7, 6, 0.18581335068235139),
        (8, 2, 0.8709079470748049),
    ]:
        k[i, j] = v
    return k


@pytest.mark.parametrize(
    "k, tol",
    [
        *((jordan_blocks((n, 0.5, 0.5)), 1e-9) for n in (27, 28, 30)),
        (
            jordan_blocks(
                (32, 0.4149497469218814, 0.9028183581226521),
                (1, 0.2976334385975298, 0.0),
            ),
            1e-3,
        ),
        (
            jordan_blocks(
                (28, 0.6838647687977526, 0.4073560560255158),
                (3, 0.39212102273261895, 0.21590387025308735),
                (1, 0.4638429393313667, 0.0),
                (1, 0.41977001079668697, 0.0),
            ),
            1e-3,
        ),
        (
            jordan_blocks(
                (29, 0.4646968794412597, 0.5760961014632324),
                (9, 0.32274889819408864, 0.44400504668393986),
                (1, 0.27388750036161646, 0.0),
            ),
            1e-3,
        ),
        (nilpotent_sparse_9(), 1e-3),
    ],
    ids=[
        "jordan-27",
        "jordan-28",
        "jordan-30",
        "blocks-32",
        "blocks-28",
        "blocks-29",
        "nilpotent-sparse-9",
    ],
)
def test_overflowing_shift_certifies_at_midpoint(k, tol):
    # the shifted vector of a large Jordan block overflows (for 0.5 I + 0.5 N
    # to inf at n = 27 and 28, to nan at 30), and the solve fails on the
    # nilpotent k; the bound of S 1 alone would refuse blocks-32 and
    # blocks-28 at tol = 1e-3 and blocks-29 at 1e-2. The solve at the
    # midpoint of rho and 1 - tol bounds each by about that midpoint, and no
    # floating-point warning escapes
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cert = certify_contraction(SquareMatrix(k), tol)
    assert cert.series_terms == 3
    assert eig_radius(k) - 1e-12 <= cert.rho_bound <= (cert.rho + 1.0 - tol) / 2.0


def test_certify_refuses_identity():
    with pytest.raises(NotCertifiedError) as exc:
        certify_contraction(SquareMatrix.identity(2), 1e-9)
    assert abs(exc.value.estimate - 1.0) < 1e-6


def test_certify_refuses_slight_expansion():
    with pytest.raises(NotCertifiedError) as exc:
        certify_contraction(mat([[1.01]]), 1e-9)
    assert abs(exc.value.estimate - 1.01) < 1e-6


def test_certify_refuses_bound_within_tol_of_one():
    # 1 - k is a nonsingular M-matrix, but the margin below 1 is under tol
    with pytest.raises(NotCertifiedError, match="Collatz-Wielandt bound"):
        certify_contraction(mat([[1.0 - 1e-10]]), 1e-9)


def test_hostile_inputs_certify_quickly():
    # reducible, periodic and near-1 matrices took seconds, or failed, while
    # a power bracket or a series ran out of budget
    rng = np.random.default_rng(5)
    cases = [
        np.diag([0.3, 0.6]),
        np.array([[0.0, 0.5], [0.5, 0.0]]),
        np.array([[0.999]]),
        positive_at(rng, 8, 0.9999),
    ]
    start = time.perf_counter()
    certs = [certify_contraction(SquareMatrix(k), 1e-9) for k in cases]
    assert time.perf_counter() - start < 0.5
    for k, cert in zip(cases, certs):
        assert cert.rho_bound >= eig_radius(k) - 1e-12


def test_certify_refuses_ill_conditioned_near_one_quickly():
    k = SquareMatrix(positive_at(np.random.default_rng(6), 8, 1.0 - 1e-7))
    start = time.perf_counter()
    with pytest.raises(NotCertifiedError, match="residual"):
        certify_contraction(k, 1e-9)
    assert time.perf_counter() - start < 0.1


def test_certify_refuses_negative_entries():
    with pytest.raises(UsageError):
        certify_contraction(mat([[-0.5]]), 1e-9)


def test_certificate_fields_are_consistent():
    rng = np.random.default_rng(22)
    for _ in range(20):
        a = SquareMatrix(rng.uniform(0.0, 0.4, (3, 3)))
        cert = certify_contraction(a, 1e-9)
        assert cert.rho < 1.0 - 1e-9
        assert np.all(cert.S.entries >= 0.0)
        lhs = (np.eye(3) - a.entries) @ cert.S.entries - np.eye(3)
        assert np.max(np.sum(np.abs(lhs), axis=1)) <= CERT_RESIDUAL_MAX


# -- linear comparison functions --------------------------------------------


def test_comparison_apply_frozen():
    phi = linear_comparison(mat([[0.25, 0.25], [0.0, 0.5]]))
    assert comparison_apply(phi, vec(1.0, 1.0)) == vec(0.5, 0.5)
    assert phi(vec(1.0, 1.0)) == vec(0.5, 0.5)
    # the deficiency t - phi(t) leaves the cone for some cone t here
    assert not phi.deficiency_in_cone


def test_diagonal_gain_has_cone_deficiency():
    phi = linear_comparison(mat([[0.5, 0.0], [0.0, 0.25]]))
    assert phi.deficiency_in_cone
    scalar = linear_comparison(mat([[0.6]]))
    assert scalar.deficiency_in_cone


def test_comparison_rejects_uncertifiable_gain():
    with pytest.raises(NotCertifiedError):
        linear_comparison(SquareMatrix.identity(2))
    with pytest.raises(UsageError):
        linear_comparison(mat([[-0.5]]))


def test_comparison_apply_rejects_negative_argument():
    phi = linear_comparison(mat([[0.5]]))
    with pytest.raises(UsageError):
        comparison_apply(phi, vec(-1.0))
    with pytest.raises(UsageError):
        comparison_apply(phi, np.array([[1.0], [-1.0]]))
    with pytest.raises(UsageError):
        comparison_apply(phi, np.ones((2, 2)))


def test_comparison_apply_on_a_stack_matches_each_row():
    phi = linear_comparison(mat([[0.5, 0.1], [0.0, 0.4]]))
    t = np.random.default_rng(22).uniform(0.0, 10.0, (30, 2))
    rows = np.array([phi(Vector(r)).components for r in t])
    np.testing.assert_allclose(phi(t), rows, rtol=1e-14, atol=1e-14)


def test_comparison_axioms_pass_for_half_gain():
    phi = linear_comparison(mat([[0.5, 0.0], [0.0, 0.5]]))
    report = check_comparison_axioms(phi, cone_sampler(2, seed=3), 500)
    assert report.passed
    assert report.samples_tested == 500
    assert report.tail_checked > 0


def test_comparison_axioms_fail_for_identity_callable():
    report = check_comparison_axioms(lambda t: t, cone_sampler(2, seed=4), 200)
    assert not report.passed
    assert report.shrink_violations
    assert report.tail_violations


def test_comparison_axioms_catch_non_monotone():
    # order-reversing on the first component
    def broken(t):
        return np.column_stack([0.5 / (1.0 + t[:, 0]), 0.5 * t[:, 1]])

    report = check_comparison_axioms(broken, cone_sampler(2, seed=5), 300)
    assert not report.passed
    assert report.monotone_violations


def test_comparison_axioms_slow_gain_still_clean():
    # a slow contraction must not produce spurious monotone or shrink hits
    phi = linear_comparison(mat([[0.9]]))
    report = check_comparison_axioms(phi, cone_sampler(1, seed=6), 100)
    assert not report.monotone_violations
    assert not report.shrink_violations
    assert report.passed


def test_diagonal_gain_deficit_stays_interior():
    # certified diagonal gains keep t - phi(t) interior for interior t
    rng = np.random.default_rng(77)
    for _ in range(12):
        n = int(rng.integers(1, 5))
        phi = linear_comparison(mat(np.diag(rng.uniform(0.0, 0.9, n))))
        assert phi.deficiency_in_cone
        cone = OrthantCone(n)
        for _ in range(20):
            t = Vector(rng.uniform(0.1, 10.0, n))
            assert cone.interior_contains(t - comparison_apply(phi, t))


def test_skew_gain_deficit_can_leave_cone():
    # a certified but non-diagonal gain can push the deficit out of the cone
    phi = linear_comparison(mat([[0.0, 0.9], [0.0, 0.0]]))
    assert not phi.deficiency_in_cone
    t = vec(1.0, 10.0)
    assert not OrthantCone(2).contains(t - comparison_apply(phi, t))


# -- the tail test against the loop it replaced ---------------------------------


def _reference_tail(phi, u, threshold):
    """The tail loop that kept every row in place and moved the active ones
    through fancy indexing; _tail must give the same reached and counts."""
    u = u.copy()
    reached = np.all(threshold - u > 0.0, axis=1)
    applications = np.zeros(len(u), dtype=int)
    active = np.flatnonzero(~reached)
    for _ in range(perov.contraction._TAIL_BUDGET):
        if not active.size:
            break
        u_next = phi(u[active])
        applications[active] += 1
        moving = np.all(np.isfinite(u_next), axis=1) & np.any(u_next != u[active], axis=1)
        active, u_next = active[moving], u_next[moving]
        u[active] = u_next
        below = np.all(threshold[active] - u_next > 0.0, axis=1)
        reached[active[below]] = True
        active = active[~below]
    return reached, applications


def _tail_inputs(n, count, seed):
    rng = np.random.default_rng(seed)
    u = rng.uniform(0.0, 10.0, (count, n))
    threshold = rng.uniform(0.01, 1.0, (count, n))
    threshold[::7] = 20.0  # some rows start below their threshold
    return u, threshold


def _stalls(t):
    # moves until every component is at 0.3, then stops moving
    return np.maximum(0.5 * t, 0.3)


def _blows_up(t):
    # rows starting above 5 in their first component leave the finite numbers
    return np.where(t[:, :1] > 5.0, np.inf, 0.5 * t)


@pytest.mark.parametrize(
    "phi",
    [
        linear_comparison(mat([[0.5, 0.0], [0.0, 0.5]])),
        linear_comparison(mat([[0.9, 0.0], [0.0, 0.9]])),
        linear_comparison(mat([[0.999, 0.0], [0.0, 0.999]])),
        lambda t: t,
        _stalls,
        _blows_up,
    ],
    ids=["gain-0.5", "gain-0.9", "gain-0.999", "identity", "stalls", "blows-up"],
)
def test_tail_matches_the_reference_loop(phi):
    u, threshold = _tail_inputs(2, 60, 8)
    seen = {"new": [], "reference": []}

    def recording(key):
        def call(t):
            seen[key].append(t.tobytes())
            return phi(t)

        return call

    reached, applications = perov.contraction._tail(recording("new"), u.copy(), threshold)
    expected = _reference_tail(recording("reference"), u, threshold)
    assert np.array_equal(reached, expected[0])
    assert np.array_equal(applications, expected[1])
    # phi saw the same rows, in the same order, in both loops
    assert seen["new"] == seen["reference"]


def test_tail_matches_the_reference_loop_at_its_budget(monkeypatch):
    monkeypatch.setattr(perov.contraction, "_TAIL_BUDGET", 40)
    phi = linear_comparison(mat([[0.99, 0.0], [0.0, 0.9]]))
    u, threshold = _tail_inputs(2, 60, 9)
    reached, applications = perov.contraction._tail(phi, u.copy(), threshold)
    expected = _reference_tail(phi, u, threshold)
    assert np.array_equal(reached, expected[0])
    assert np.array_equal(applications, expected[1])
    assert (applications == 40).any() and (applications < 40).any()
    assert not reached.all()

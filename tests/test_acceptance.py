"""End-to-end acceptance gate.

Each test prints exactly one PASS/FAIL line (with capture suspended) so
the verdicts are visible in any pytest run. Tolerances and sample counts
are pinned; loosening them is not an option.
"""

import contextlib
import subprocess
import sys
import time

import numpy as np
import pytest

from perov import (
    NotCertifiedError,
    OrthantCone,
    SquareMatrix,
    Vector,
    WeightedMatrixMetric,
    certify_contraction,
    check_comparison_axioms,
    check_metric_axioms,
    comparison_solve,
    cone_sampler,
    identity_map,
    affine_preimage,
    jungck_solve,
    linear_comparison,
    order_leq,
    order_ll,
    perov_solve,
    ring_norm,
    spectral_radius,
    uniform_sampler,
    MapSpec,
    SolveStatus,
)
from steps import per_step


@pytest.fixture
def verdict(capsys):
    # capsys.disabled() suspends pytest's fd-level capture, so the line
    # reaches the real stdout even in non -s runs
    @contextlib.contextmanager
    def _verdict(num, label):
        try:
            yield
        except BaseException:
            with capsys.disabled():
                print(f"ACCEPTANCE {num:2d} FAIL  {label}", flush=True)
            raise
        with capsys.disabled():
            print(f"ACCEPTANCE {num:2d} PASS  {label}", flush=True)

    return _verdict


def mat(rows):
    return SquareMatrix(np.array(rows, dtype=float))


def vec(*comps):
    return Vector(np.array(comps, dtype=float))


def rho_2x2(entries):
    (p, q), (r, s) = entries
    return ((p + s) + np.sqrt((p - s) ** 2 + 4.0 * q * r)) / 2.0


def rescaled_contraction(rng, n, target):
    # random nonnegative matrix rescaled to the requested spectral radius,
    # using the eigenvalue oracle (independent of the package estimator)
    while True:
        a = rng.uniform(0.0, 1.0, (n, n))
        rho = np.max(np.abs(np.linalg.eigvals(a)))
        if rho > 1e-9:
            return SquareMatrix(a * (target / rho))


def test_criterion_01_metric_axiom_suite(verdict):
    with verdict(1, "metric axioms hold on sampled triples for positive weights"):
        start = time.monotonic()
        rng = np.random.default_rng(101)
        dims = [1, 2, 3, 5, 2]
        for run, n in enumerate(dims):
            w = SquareMatrix(rng.uniform(0.05, 3.0, (n, n)))
            metric = WeightedMatrixMetric(w)
            report = check_metric_axioms(
                metric, uniform_sampler(n, seed=200 + run), 10_000, slack=1e-12
            )
            assert report.passed, f"axiom violations for weight #{run} (n={n})"
            assert report.samples_tested == 10_000
        assert time.monotonic() - start < 5.0


def test_criterion_02_cone_order_suite(verdict):
    with verdict(2, "cone and order properties hold on constructed instances"):
        start = time.monotonic()
        rng = np.random.default_rng(102)
        count = 10_000
        P = OrthantCone(3)
        zero = Vector.zeros(3)

        # interior points sum to interior points
        for _ in range(count):
            u = Vector(rng.uniform(1e-9, 4.0, 3))
            v = Vector(rng.uniform(1e-9, 4.0, 3))
            assert order_ll(P, zero, u + v)

        # strictly positive diagonals keep interior points interior
        for _ in range(count):
            v = Vector(rng.uniform(1e-9, 4.0, 3))
            lam = SquareMatrix.diagonal(Vector(rng.uniform(1e-6, 4.0, 3)))
            assert order_ll(P, zero, lam @ v)

        # entrywise-nonnegative matrices preserve the weak order
        for _ in range(count):
            x = Vector(rng.uniform(-4.0, 4.0, 3))
            y = x + Vector(rng.uniform(0.0, 4.0, 3))
            alpha = SquareMatrix(rng.uniform(0.0, 2.0, (3, 3)))
            assert order_leq(P, alpha @ x, alpha @ y)

        # transitivity mixes: weak-strict, strict-weak, strict-strict
        for _ in range(count):
            u = Vector(rng.uniform(-4.0, 4.0, 3))
            weak = Vector(rng.uniform(0.0, 2.0, 3))
            strict = Vector(rng.uniform(1e-9, 2.0, 3))
            assert order_ll(P, u, (u + weak) + strict)
            assert order_ll(P, u, (u + strict) + weak)
            assert order_ll(P, u, (u + strict) + strict)

        # halving sequence falls strictly below any interior threshold
        ones = Vector.ones(3)
        for _ in range(count):
            c = Vector(rng.uniform(1e-9, 4.0, 3))
            n0 = 0
            while not order_ll(P, 0.5**n0 * ones, c):
                n0 += 1
                assert n0 < 80
            assert order_ll(P, 0.5 ** (n0 + 7) * ones, c)

        # antisymmetry on lattice points (1e-14 slack applies only after
        # arithmetic; the membership tests themselves are exact)
        for _ in range(count):
            u = Vector(rng.integers(-2, 3, 3).astype(float))
            v = Vector(rng.integers(-2, 3, 3).astype(float))
            if order_leq(P, u, v) and order_leq(P, v, u):
                assert np.all(u.components == v.components)
        assert time.monotonic() - start < 5.0


def test_criterion_03_certificate_soundness(verdict):
    with verdict(3, "random rescaled contractions certify with tight residuals"):
        start = time.monotonic()
        rng = np.random.default_rng(103)
        for trial in range(100):
            n = int(rng.integers(1, 7))
            target = rng.uniform(0.1, 0.9)
            k = rescaled_contraction(rng, n, target)
            cert = certify_contraction(k, 1e-9)
            eye = np.eye(n)
            residual = np.max(
                np.sum(np.abs((eye - k.entries) @ cert.S.entries - eye), axis=1)
            )
            assert residual <= 1e-10, f"trial {trial}: residual {residual}"
            assert cert.rho < 1.0 - 1e-9
        with pytest.raises(NotCertifiedError):
            certify_contraction(SquareMatrix.identity(3), 1e-9)
        with pytest.raises(NotCertifiedError):
            certify_contraction(mat([[1.01]]), 1e-9)
        assert time.monotonic() - start < 10.0


def test_criterion_04_spectral_radius_oracle_agreement(verdict):
    with verdict(4, "power estimate matches the 2x2 eigenvalue formula"):
        a = mat([[0.5, 0.6], [0.1, 0.2]])
        expected = (0.7 + np.sqrt(0.33)) / 2.0
        assert abs(spectral_radius(a, 1e-10) - expected) < 1e-8
        # the row-sum norm cannot certify this matrix; the radius can
        assert ring_norm(a) == 1.1
        assert expected < 1.0
        rng = np.random.default_rng(104)
        for _ in range(200):
            b = rng.uniform(0.0, 1.2, (2, 2))
            est = spectral_radius(SquareMatrix(b), 1e-10)
            assert abs(est - rho_2x2(b)) < 1e-8


def test_criterion_05_perov_solver_vs_closed_form(verdict):
    with verdict(5, "affine solves match the linear oracle under their bounds"):
        start = time.monotonic()
        rng = np.random.default_rng(105)
        for trial in range(50):
            n = int(rng.integers(1, 6))
            m = rescaled_contraction(rng, n, rng.uniform(0.2, 0.8))
            b = Vector(rng.uniform(-3.0, 3.0, n))
            f = MapSpec.affine(m, b)
            # I + M is strictly positive and commutes with M, so M itself
            # is an exact coefficient matrix for this weight
            metric = WeightedMatrixMetric(SquareMatrix.identity(n) + m)
            cert = certify_contraction(m, 1e-9)
            x0 = Vector(rng.uniform(-5.0, 5.0, n))
            steps = []
            res = perov_solve(
                f, metric, cert, x0, Vector.full(n, 1e-11),
                on_step=per_step(lambda j, y, dist, bound: steps.append((y.copy(), bound.copy()))),
            )
            assert res.trace.status is SolveStatus.CONVERGED
            star = np.linalg.solve(np.eye(n) - m.entries, b.components)
            assert np.all(np.abs(res.point.components - star) <= 1e-8)
            star_v = Vector(star)
            for y, bound in steps:
                true_err = metric(Vector(y), star_v)
                assert np.all(true_err.components <= bound + 1e-10)
        assert time.monotonic() - start < 10.0


def test_criterion_06_scalar_reduction(verdict):
    with verdict(6, "scalar halving iteration matches the classical count"):
        f = MapSpec.affine(mat([[0.5]]), vec(1.0))
        metric = WeightedMatrixMetric(mat([[1.0]]))
        cert = certify_contraction(mat([[0.5]]), 1e-9)
        eps = 1e-12
        res = perov_solve(f, metric, cert, vec(0.0), Vector.full(1, eps))
        assert res.trace.status is SolveStatus.CONVERGED
        assert abs(res.point.components[0] - 2.0) <= 1e-12
        # d0 = 1 and q = 1/2 give the classical a-priori step count
        predicted = int(np.ceil(np.log(eps * (1 - 0.5) / 1.0) / np.log(0.5)))
        assert abs(res.trace.iterations - predicted) <= 2


def test_criterion_07_jungck_suite(verdict):
    with verdict(7, "coincidence pairs behave as computed by hand"):
        metric = WeightedMatrixMetric(mat([[1.0]]))
        eps = Vector.full(1, 1e-10)

        f = MapSpec.affine(mat([[1.0 / 3.0]]), vec(0.0))
        g = MapSpec.affine(mat([[0.5]]), vec(0.0))
        cert = certify_contraction(mat([[2.0 / 3.0]]), 1e-9)
        res = jungck_solve(f, g, affine_preimage(g), metric, cert, vec(9.0), eps)
        assert res.trace.status is SolveStatus.CONVERGED
        p = res.point
        assert abs(f(p).components[0] - g(p).components[0]) <= 1e-10
        assert res.weakly_compatible is True
        c = res.common_fixed_point
        assert abs(f(c).components[0] - c.components[0]) <= 1e-10
        assert abs(g(c).components[0] - c.components[0]) <= 1e-10
        assert abs(c.components[0]) <= 1e-10

        f2 = MapSpec.affine(mat([[1.0]]), vec(1.0))
        g2 = MapSpec.affine(mat([[2.0]]), vec(0.0))
        cert2 = certify_contraction(mat([[0.5]]), 1e-9)
        res2 = jungck_solve(f2, g2, affine_preimage(g2), metric, cert2, vec(0.0), eps)
        assert res2.trace.status is SolveStatus.CONVERGED
        assert abs(res2.point.components[0] - 1.0) <= 1e-10
        assert abs(res2.value.components[0] - 2.0) <= 1e-10
        assert res2.weakly_compatible is False
        assert res2.common_fixed_point is None


def test_criterion_08_comparison_function_suite(verdict):
    with verdict(8, "linear gains pass the axiom screen and solve online"):
        phi = linear_comparison(mat([[0.5, 0.0], [0.0, 0.5]]))
        report = check_comparison_axioms(phi, cone_sampler(2, seed=108), 10_000)
        assert report.passed
        assert report.samples_tested == 10_000

        bad = check_comparison_axioms(lambda t: t, cone_sampler(2, seed=109), 500)
        assert bad.shrink_violations
        assert not bad.passed

        f = MapSpec.affine(mat([[0.5]]), vec(0.0))
        g = identity_map(1)
        gain = linear_comparison(mat([[0.6]]))
        metric = WeightedMatrixMetric(mat([[1.0]]))
        dists = []
        res = comparison_solve(
            f, g, affine_preimage(g), gain, metric, vec(8.0), Vector.full(1, 1e-10),
            on_step=per_step(lambda j, y, dist, bound: dists.append(Vector(dist))),
        )
        assert res.trace.status is SolveStatus.CONVERGED
        assert abs(res.point.components[0]) <= 1e-10
        for j in range(1, len(dists)):
            dominated = gain(dists[j - 1])
            assert np.all(dists[j].components <= dominated.components + 1e-12)


def test_criterion_09_uniqueness_probe(verdict):
    with verdict(9, "independent starts land on the same fixed point"):
        rng = np.random.default_rng(110)
        eps = 1e-10
        for _ in range(10):
            n = int(rng.integers(1, 4))
            m = rescaled_contraction(rng, n, rng.uniform(0.2, 0.5))
            b = Vector(rng.uniform(-3.0, 3.0, n))
            f = MapSpec.affine(m, b)
            metric = WeightedMatrixMetric(SquareMatrix.identity(n) + m)
            cert = certify_contraction(m, 1e-9)
            points = []
            for _ in range(10):
                x0 = Vector(rng.uniform(-8.0, 8.0, n))
                res = perov_solve(f, metric, cert, x0, Vector.full(n, eps))
                assert res.trace.status is SolveStatus.CONVERGED
                points.append(res.point.components)
            for i in range(len(points)):
                for j in range(i + 1, len(points)):
                    assert np.max(np.abs(points[i] - points[j])) <= 10 * eps


SHIPPED = [
    ("problems/linear44.prob", "solve-perov", 0),
    ("problems/identity.prob", "certify", 2),
    ("problems/jungck-thirds.prob", "solve-jungck", 0),
    ("problems/jungck-shift.prob", "solve-jungck", 0),
    ("problems/comparison-half.prob", "solve-comparison", 0),
    ("problems/comparison-2d.prob", "solve-comparison", 0),
    ("problems/budget-exhaust.prob", "solve-perov", 3),
    ("problems/broken-lipschitz.prob", "verify-lipschitz", 2),
    ("problems/cw-tanh.prob", "solve-perov", 0),
]


def run_cli(command, path):
    proc = subprocess.run(
        [sys.executable, "-m", "perov", command, path],
        capture_output=True,
        text=True,
    )
    records = [l for l in proc.stdout.splitlines() if l.startswith("#REC ")]
    return proc.returncode, records


def test_criterion_10_cli_determinism(verdict):
    with verdict(10, "shipped problems reproduce their records bit for bit"):
        import pathlib

        root = pathlib.Path(__file__).resolve().parent.parent
        for rel, command, expected_exit in SHIPPED:
            path = str(root / rel)
            code1, rec1 = run_cli(command, path)
            code2, rec2 = run_cli(command, path)
            assert code1 == expected_exit, f"{rel}: exit {code1} != {expected_exit}"
            assert code2 == expected_exit
            assert rec1, f"{rel}: no records emitted"
            assert rec1 == rec2, f"{rel}: records differ between runs"

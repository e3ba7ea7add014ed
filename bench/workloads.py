"""Seeded problem files for the four benchmark workloads.

Every workload is a list of cases; a case is one CLI invocation, a command
plus the text of the problem file it reads. The generators draw every number
from `numpy.random.default_rng([seed, workload index])` and print floats with
`repr`, so one seed always yields byte-identical files. The CLI under test
sees only those files.

Why each workload exists, and which layer it is meant to load, is written in
bench/README.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("shipped", "certify-hard", "long-iterate", "sampled-gates")

SHIPPED_DIR = Path(__file__).resolve().parent / "shipped"

# The nine (problem, command) pairs of tests/test_acceptance.py::SHIPPED, run
# at default flags; the problem files are frozen copies of problems/.
SHIPPED = (
    ("linear44", "solve-perov"),
    ("identity", "certify"),
    ("jungck-thirds", "solve-jungck"),
    ("jungck-shift", "solve-jungck"),
    ("comparison-half", "solve-comparison"),
    ("comparison-2d", "solve-comparison"),
    ("budget-exhaust", "solve-perov"),
    ("broken-lipschitz", "verify-lipschitz"),
    ("cw-tanh", "solve-perov"),
)


# Cases that fail the oracle at the commit that added the benchmark, with the
# ROADMAP item expected to fix each. They count against ok_frac but do not
# make a run incorrect; any other failing case does.
KNOWN_DEFECTS = {
    "certify-hard/primitive-0.9999": (
        "ROADMAP item 2: rho 0.9999 < 1 - tol, yet the Neumann series needs more than "
        "its 200000-term budget, so certify exits 2 instead of certifying"
    ),
    "sampled-gates/jungck-thirds-shift": (
        "ROADMAP item 4: the hypothesis holds with equality, but the absolute 1e-12 slack "
        "is below the rounding of values near 1e6, so about half the samples are "
        "reported as violations and the check exits 2"
    ),
}


@dataclass(frozen=True)
class Case:
    """One CLI invocation: `perov <command> <file> <flags>`."""

    id: str
    command: str
    text: str
    flags: tuple[str, ...] = ()

    def argv(self, path: str) -> list[str]:
        return [self.command, path, *self.flags]


def _num(x: float) -> str:
    return repr(float(x))


def _vec(v) -> str:
    return ", ".join(_num(x) for x in np.atleast_1d(v))


def _mat(m) -> str:
    return "; ".join(_vec(row) for row in np.atleast_2d(m))


def _problem(
    comment: str,
    W,
    f,
    *,
    k=None,
    lam=None,
    g=None,
    x0=None,
    eps: float = 1e-10,
    budget: int | None = None,
    seed: int = 0,
) -> str:
    """Problem-file text for affine maps f = (M, b) and optional g = (M, b)."""
    n = len(W)
    lines = [f"# {comment}", f"n = {n}", f"W = {_mat(W)}"]
    for name, spec in (("f", f), ("g", g)):
        if spec is not None:
            lines += [f"{name}.kind = affine", f"{name}.M = {_mat(spec[0])}", f"{name}.b = {_vec(spec[1])}"]
    if k is not None:
        lines.append(f"k = {_mat(k)}")
    if lam is not None:
        lines.append(f"lambda = {_mat(lam)}")
    lines.append(f"x0 = {_vec(np.zeros(n) if x0 is None else x0)}")
    lines.append(f"eps = {_num(eps)}")
    if budget is not None:
        lines.append(f"budget = {budget}")
    lines.append(f"seed = {seed}")
    return "\n".join(lines) + "\n"


def _positive(rng, n: int, rho: float) -> np.ndarray:
    """A positive (hence primitive) n x n matrix scaled to spectral radius rho."""
    a = rng.uniform(0.1, 1.0, (n, n))
    return a * (rho / np.max(np.abs(np.linalg.eigvals(a))))


def _row_scaled(rng, n: int, rho: float) -> np.ndarray:
    """A positive n x n matrix whose rows all sum to rho.

    Its spectral radius is rho and its Perron vector is the all-ones vector,
    whatever the drawn entries.
    """
    a = rng.uniform(0.1, 1.0, (n, n))
    return a * (rho / a.sum(axis=1, keepdims=True))


def _unit(rng, n: int) -> np.ndarray:
    """A random point of sup norm 1."""
    x = rng.uniform(-1.0, 1.0, n)
    return x / np.max(np.abs(x))


def _file_seed(rng) -> int:
    return int(rng.integers(0, 2**31 - 1))


def _shipped(rng) -> list[Case]:
    return [
        Case(name, command, (SHIPPED_DIR / f"{name}.prob").read_text(encoding="utf-8"))
        for name, command in SHIPPED
    ]


def _certify_hard(rng) -> list[Case]:
    def certify(case_id: str, comment: str, k) -> Case:
        n = len(k)
        W = np.ones((n, n)) + np.eye(n)
        text = _problem(comment, W, (k, rng.uniform(-1.0, 1.0, n)), k=k, seed=_file_seed(rng))
        return Case(case_id, "certify", text)

    # The bracket's cost on a diagonal depends on whether small components of
    # the iterate stick at subnormal values, which hinges on the exact entries;
    # diag(0.3, 0.6) always runs the bracket's whole budget.
    diag = np.diag([0.3, 0.6])
    a, b = rng.uniform(0.5, 0.95, 2)
    periodic = np.array([[0.0, a], [b, 0.0]])
    nilpotent = np.triu(rng.uniform(0.1, 1.0, (5, 5)), 1)
    # Equal radii in both diagonal blocks make the power-iteration bracket stall.
    rho_block = 0.7
    block = np.block(
        [
            [_positive(rng, 3, rho_block), rng.uniform(0.1, 1.0, (3, 3))],
            [np.zeros((3, 3)), _positive(rng, 3, rho_block)],
        ]
    )
    return [
        certify("diag-distinct", "diagonal with distinct entries", diag),
        certify("periodic-2x2", "period-2 irreducible matrix", periodic),
        certify("primitive-0.999", "primitive, rho 0.999", _positive(rng, 4, 0.999)),
        certify("primitive-0.9999", "primitive, rho 0.9999", _positive(rng, 8, 0.9999)),
        certify("nilpotent", "strictly upper triangular", nilpotent),
        certify("block-reducible", "two diagonal blocks of equal radius", block),
        certify("dense-50", "dense 50 x 50, rho 0.9", _positive(rng, 50, 0.9)),
        certify("identity", "rho exactly 1: must be refused", np.eye(int(rng.integers(2, 5)))),
        certify("rho-above-1", "rho above 1: must be refused", _positive(rng, 4, rng.uniform(1.02, 1.2))),
    ]


def _coincidence(rng, n: int, A, gm=None, x_star=None) -> tuple:
    """Affine f, g with f g^-1 = A (as a linear part) and a coincidence point of size O(1).

    g is a positive diagonal scaling gm (drawn unless given) plus an offset;
    f.M = A g.M, and f.b is chosen so that the coincidence point x_star
    (drawn with sup norm 1 unless given) is the solution.
    """
    gm = np.diag(rng.uniform(0.8, 1.25, n)) if gm is None else gm
    gb = rng.uniform(-1.0, 1.0, n)
    fm = A @ gm
    x_star = _unit(rng, n) if x_star is None else x_star
    fb = gb - (fm - gm) @ x_star
    return (fm, fb), (gm, gb)


_ITER_FLAGS = ("--samples", "50")


def _long_iterate(rng) -> list[Case]:
    # Only the entries are drawn; the seed must not change the number of
    # steps, which sets the cost of a run. In the perov and jungck cases k has
    # constant row sums rho and the solution is the all-ones vector, so the
    # error starts on k's Perron vector and shrinks by exactly 0.999 rho a step;
    # with a random k and solution, step counts move by ~10 % between seeds.
    cases = []
    for n, rho in ((8, 0.99), (16, 0.995)):
        # Self-map with f.M = 0.999 k and W = I + k: W|f.M| = 0.999 k W <= k W.
        k = _row_scaled(rng, n, rho)
        x_star = np.ones(n)
        fm = 0.999 * k
        text = _problem(
            f"self-map, n={n}", np.eye(n) + k, (fm, x_star - fm @ x_star),
            k=k, eps=1e-12, seed=_file_seed(rng),
        )
        cases.append(Case(f"perov-n{n}", "solve-perov", text, _ITER_FLAGS))
    for n, rho in ((8, 0.995), (16, 0.99)):
        # g.M = s I keeps g(x0) - g(x*) = -s 1 on the Perron vector too.
        k = _row_scaled(rng, n, rho)
        f, g = _coincidence(rng, n, 0.999 * k, gm=rng.uniform(0.8, 1.25) * np.eye(n), x_star=np.ones(n))
        text = _problem(
            f"coincidence pair, n={n}", np.eye(n) + k, f, g=g,
            k=k, eps=1e-12, seed=_file_seed(rng),
        )
        cases.append(Case(f"jungck-n{n}", "solve-jungck", text, _ITER_FLAGS))
    for n, c in ((4, 0.92), (16, 0.95)):
        # Gain c I; f g^-1 = diag(s) with s_i < c satisfies the first branch.
        # c stays well below 1: the tail test of the comparison axioms applies
        # phi about ln(10)/(1 - c) times per sample, which would otherwise swamp
        # the iteration this workload is about.
        A = np.diag(c * rng.uniform(0.99, 0.999, n))
        f, g = _coincidence(rng, n, A)
        text = _problem(
            f"comparison pair, gain c I, n={n}", np.eye(n) + _positive(rng, n, 0.5), f, g=g,
            lam=c * np.eye(n), eps=1e-12, seed=_file_seed(rng),
        )
        cases.append(Case(f"comparison-n{n}", "solve-comparison", text, _ITER_FLAGS))
    k = _row_scaled(rng, 16, 0.99)
    x_star = np.ones(16)
    fm = 0.999 * k
    text = _problem(
        "self-map whose budget of 1000 steps is short of the 2219 it needs", np.eye(16) + k,
        (fm, x_star - fm @ x_star), k=k, eps=1e-12, budget=1000, seed=_file_seed(rng),
    )
    cases.append(Case("perov-budget", "solve-perov", text, _ITER_FLAGS))
    return cases


def _sampled_gates(rng) -> list[Case]:
    def gate(case_id, command, samples, comment, W, f, **keys) -> Case:
        text = _problem(comment, W, f, seed=_file_seed(rng), **keys)
        return Case(case_id, command, text, ("--samples", str(samples)))

    def doubling(n):
        return (2.0 * np.eye(n), np.zeros(n))

    cases = []
    for n, samples in ((1, 6000), (16, 5000)):
        W = rng.uniform(0.1, 1.0, (n, n))
        cases.append(gate(f"metric-n{n}", "check-metric", samples, "weighted metric", W,
                          (0.5 * np.eye(n), np.zeros(n)), k=0.5 * np.eye(n)))
    n = 4
    c = 0.5
    cases.append(gate("comparison-pass-n4", "check-comparison", 1500, "diagonal gain c I",
                      np.ones((n, n)), (c * np.eye(n), np.zeros(n)), lam=c * np.eye(n)))
    n = 8
    cases.append(gate("comparison-refuted-n8", "check-comparison", 1500,
                      "dense gain: not below the identity", np.ones((n, n)),
                      (0.5 * np.eye(n), np.zeros(n)), lam=_positive(rng, n, 0.5)))
    n = 8
    k = _positive(rng, n, 0.7)
    cases.append(gate("lipschitz-pass-n8", "verify-lipschitz", 3000,
                      "f.M = 0.999 k under W = I + k", np.eye(n) + k,
                      (0.999 * k, rng.uniform(-1.0, 1.0, n)), k=k))
    n = 4
    cases.append(gate("lipschitz-refuted-n4", "verify-lipschitz", 3000,
                      "doubling map against k = 0.5 I", rng.uniform(0.1, 1.0, (n, n)),
                      doubling(n), k=0.5 * np.eye(n)))
    n = 16
    c = 0.5
    f, g = _coincidence(rng, n, np.diag(c * rng.uniform(0.5, 0.999, n)))
    cases.append(gate("condition-c-pass-n16", "verify-condition-c", 3000,
                      "f g^-1 = diag(s), s < c, gain c I", np.eye(n) + _positive(rng, n, 0.5),
                      f, g=g, lam=c * np.eye(n)))
    cases.append(gate("condition-c-refuted-n1", "verify-condition-c", 3000,
                      "doubling map against gain 0.5", np.ones((1, 1)), doubling(1),
                      lam=np.full((1, 1), 0.5)))
    third, half = 0.33333333333333331, 0.5
    cases.append(gate("jungck-thirds-shift", "verify-lipschitz", 3000,
                      "jungck-thirds with g.b = 1000000.3: holds with equality",
                      np.ones((1, 1)), (np.full((1, 1), third), np.zeros(1)),
                      g=(np.full((1, 1), half), np.full(1, 1000000.3)),
                      k=np.full((1, 1), 0.66666666666666663), x0=np.full(1, 9.0)))
    return cases


_GENERATORS = {
    "shipped": _shipped,
    "certify-hard": _certify_hard,
    "long-iterate": _long_iterate,
    "sampled-gates": _sampled_gates,
}


def generate(workload: str, seed: int) -> list[Case]:
    """The cases of one workload for one seed; identical seeds give identical cases."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return _GENERATORS[workload](rng)

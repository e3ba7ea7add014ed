"""Expected outcomes of CLI invocations, computed with numpy alone.

Nothing here imports perov or looks at what perov printed before: each
expectation comes from the problem text and linear algebra. `expect` says
which exit code the invocation must end with and, for a converged solve,
where the answer lies; `judge` compares one invocation's records with that.

Rules:
- certify: certified iff the spectral radius (numpy `eigvals`, taken over
  the irreducible diagonal blocks so that reducible and nilpotent matrices
  get exact radii) is below 1 - tol. A certified rho may not lie below that
  radius by more than tol, the accuracy the CLI promises for the estimate.
- sampled checks: pass iff the hypothesis holds. It is shown to hold by a
  sufficient matrix inequality and to fail by an explicit witness; a case
  where neither decides is a generator error.
- solves: exit 2 when a checked hypothesis fails or the coefficient is not
  certified; exit 3 when the step distance can never drop below eps within
  the budget; otherwise exit 0 with the point within S eps (S = (I - k)^-1,
  the bound the CLI's residual test implies) plus a rounding allowance of
  the np.linalg.solve fixed or coincidence point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

U = np.finfo(float).eps
DEFAULT_TOL = 1e-9
_TAGS = {"identity": lambda z: z, "sin": np.sin, "cos": np.cos, "tanh": np.tanh, "atan": np.arctan}


class Undecided(ValueError):
    """The oracle cannot tell the expected outcome of a generated case."""


@dataclass
class Problem:
    n: int
    W: np.ndarray
    f: dict
    g: dict | None
    k: np.ndarray | None
    lam: np.ndarray | None
    x0: np.ndarray
    eps: np.ndarray
    budget: int


@dataclass
class Expectation:
    exit_code: int
    rho: float | None = None
    rho_tol: float = 0.0
    point: np.ndarray | None = None
    value: np.ndarray | None = None
    tol_point: float = 0.0
    tol_value: float = 0.0


def parse(text: str) -> Problem:
    """Read the problem-file subset the generators write (plus componentwise maps)."""
    values = {}
    for raw in text.splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            key, _, value = line.partition("=")
            values[key.strip()] = value.strip()
    n = int(values["n"])

    def vec(key):
        v = np.array([float(p) for p in values[key].split(",")])
        return np.full(n, v[0]) if v.size == 1 and n > 1 else v

    def mat(key):
        return np.array([[float(p) for p in row.split(",")] for row in values[key].split(";")])

    def amap(prefix):
        if f"{prefix}.kind" not in values:
            return None
        spec = {"kind": values[f"{prefix}.kind"], "M": mat(f"{prefix}.M"), "b": vec(f"{prefix}.b")}
        if spec["kind"] != "affine":
            spec.update(L=mat(f"{prefix}.L"), d=vec(f"{prefix}.d"),
                        tags=[t.strip() for t in values[f"{prefix}.tags"].split(",")])
        return spec

    return Problem(
        n=n,
        W=mat("W"),
        f=amap("f"),
        g=amap("g"),
        k=mat("k") if "k" in values else None,
        lam=mat("lambda") if "lambda" in values else None,
        x0=vec("x0"),
        eps=vec("eps"),
        budget=int(values.get("budget", 100_000)),
    )


def _components(pattern: np.ndarray) -> list[list[int]]:
    """Strongly connected components of the directed graph i -> j for pattern[i, j]."""
    n = len(pattern)
    reach = pattern.astype(bool) | np.eye(n, dtype=bool)
    for m in range(n):  # transitive closure (Warshall)
        reach |= np.outer(reach[:, m], reach[m, :])
    mutual = reach & reach.T
    seen, comps = set(), []
    for i in range(n):
        if i not in seen:
            comp = [int(j) for j in np.flatnonzero(mutual[i])]
            seen.update(comp)
            comps.append(comp)
    return comps


def spectral_radius(k: np.ndarray) -> float:
    """max |eigvals| over the irreducible diagonal blocks of a nonnegative matrix.

    The spectrum of a reducible matrix is the union of its blocks' spectra,
    and taking blocks keeps eigvals away from defective eigenvalues shared
    between blocks, where it loses half the digits.
    """
    return max(
        float(np.max(np.abs(np.linalg.eigvals(k[np.ix_(c, c)])))) for c in _components(k != 0.0)
    )


def _apply(spec: dict, x: np.ndarray) -> np.ndarray:
    if spec["kind"] == "affine":
        return spec["M"] @ x + spec["b"]
    z = spec["L"] @ x + spec["d"]
    return spec["M"] @ np.array([_TAGS[t](v) for t, v in zip(spec["tags"], z)]) + spec["b"]


def _identity(n: int) -> dict:
    return {"kind": "affine", "M": np.eye(n), "b": np.zeros(n)}


def _envelope(p: Problem) -> np.ndarray:
    """A nonnegative A with W|f x - f y| <= W A |g x - g y| for all x, y."""
    g = p.g or _identity(p.n)
    if g["kind"] != "affine":
        raise Undecided("nonlinear g")
    if p.f["kind"] == "affine":
        return np.abs(p.f["M"] @ np.linalg.inv(g["M"]))
    if p.g is not None:
        raise Undecided("componentwise f with a g")
    return np.abs(p.f["M"]) @ np.abs(p.f["L"])  # every catalog tag is 1-Lipschitz


def _witness_pairs(n: int):
    e = np.ones(n)
    yield e, -e
    yield 2 * e, -2 * e
    for j in range(n):
        yield np.eye(n)[j], -np.eye(n)[j]


def _d(W, a, b):
    return W @ np.abs(a - b)


def _lipschitz_holds(p: Problem) -> bool:
    """Does W|f x - f y| <= k W|g x - g y| hold for all x, y?"""
    lhs = p.W @ _envelope(p)
    rhs = p.k @ p.W
    if np.all(lhs <= rhs * (1 + 16 * U)):
        return True
    g = p.g or _identity(p.n)
    for x, y in _witness_pairs(p.n):
        d_f = _d(p.W, _apply(p.f, x), _apply(p.f, y))
        d_g = _d(p.W, _apply(g, x), _apply(g, y))
        if np.any(d_f > (p.k @ d_g) * (1 + 1e-6) + 1e-9):
            return False
    raise Undecided("Lipschitz hypothesis neither shown nor refuted")


def _condition_c_holds(p: Problem) -> bool:
    """Does some branch of d(fx, fy) <= lam u hold for every pair?"""
    if np.all(p.W @ _envelope(p) <= (p.lam @ p.W) * (1 + 16 * U)):
        return True
    g = p.g or _identity(p.n)
    for x, y in _witness_pairs(p.n):
        fx, fy, gx, gy = _apply(p.f, x), _apply(p.f, y), _apply(g, x), _apply(g, y)
        lhs = _d(p.W, fx, fy)
        branches = (_d(p.W, gx, gy), _d(p.W, gx, fx), _d(p.W, gy, fy))
        if all(np.any(p.lam @ u < lhs - 1e-9 - 1e-6 * lhs) for u in branches):
            return False
    raise Undecided("condition C neither shown nor refuted")


def _comparison_axioms_hold(lam: np.ndarray) -> bool:
    """phi(t) = lam t is a comparison function iff lam is diagonal with entries in [0, 1)."""
    off = lam - np.diag(np.diag(lam))
    return not off.any() and bool(np.all((np.diag(lam) >= 0) & (np.diag(lam) < 1)))


def _certified(m: np.ndarray, tol: float) -> bool:
    return spectral_radius(m) < 1.0 - tol


def _fixed_point(p: Problem, g: dict) -> np.ndarray:
    """The coincidence point f(x) = g(x), by np.linalg.solve (Newton for componentwise f)."""
    if p.f["kind"] == "affine":
        return np.linalg.solve(p.f["M"] - g["M"], g["b"] - p.f["b"])
    x = np.zeros(p.n)
    for _ in range(50):
        z = p.f["L"] @ x + p.f["d"]
        slopes = np.array([_slope(t, v) for t, v in zip(p.f["tags"], z)])
        jac = p.f["M"] @ (slopes[:, None] * p.f["L"]) - g["M"]
        x = x - np.linalg.solve(jac, _apply(p.f, x) - _apply(g, x))
    return x


def _slope(tag: str, z: float) -> float:
    return {"identity": 1.0, "sin": np.cos(z), "cos": -np.sin(z),
            "tanh": 1.0 - np.tanh(z) ** 2, "atan": 1.0 / (1.0 + z * z)}[tag]


def _steps_to(p: Problem, g: dict, threshold: np.ndarray, limit: int) -> int | None:
    """First j < limit with d(y_j, y_j+1) < threshold for the value sequence y_j = f(x_j) = g(x_j+1)."""
    ginv = np.linalg.inv(g["M"])
    y = _apply(g, p.x0)
    x = p.x0
    for j in range(limit):
        y_next = _apply(p.f, x)
        if np.all(_d(p.W, y, y_next) < threshold):
            return j
        x = ginv @ (y_next - g["b"])
        y = y_next
    return None


def _solve_expectation(p: Problem, command: str, tol: float) -> Expectation:
    if command == "solve-comparison":
        if not _certified(p.lam, tol) or not _comparison_axioms_hold(p.lam) or not _condition_c_holds(p):
            return Expectation(2)
        gain = p.lam
    else:
        if not _lipschitz_holds(p) or not _certified(p.k, tol):
            return Expectation(2)
        gain = p.k
    g = p.g or _identity(p.n)
    if _steps_to(p, g, 0.5 * p.eps, p.budget // 2) is None:
        if _steps_to(p, g, p.eps, p.budget) is None:
            return Expectation(3)
        raise Undecided("budget too close to the steps needed")
    x_star = _fixed_point(p, g)
    y_star = _apply(g, x_star)
    S = np.linalg.solve(np.eye(p.n) - gain, np.eye(p.n))
    scale = np.max(np.abs(y_star)) + np.max(np.abs(p.f["b"])) + np.max(np.abs(g["b"])) + 1.0
    rounding = 64 * U * np.max(np.abs(S).sum(axis=1)) * np.max(np.abs(p.W).sum(axis=1)) * scale
    tol_value = (2.0 * np.max(S @ p.eps) + rounding) / np.min(p.W)
    ginv_norm = np.max(np.abs(np.linalg.inv(g["M"])).sum(axis=1))
    return Expectation(
        0,
        point=x_star,
        value=y_star,
        tol_value=float(tol_value),
        tol_point=float(ginv_norm * tol_value + 64 * U * np.max(np.abs(x_star))),
    )


def expect(text: str, command: str, flags: tuple[str, ...] = ()) -> Expectation:
    """The outcome `perov <command>` must have on this problem text."""
    p = parse(text)
    tol = float(flags[flags.index("--tol") + 1]) if "--tol" in flags else DEFAULT_TOL
    if command == "certify":
        rho = spectral_radius(p.k)
        if rho < 1.0 - tol:
            return Expectation(0, rho=rho, rho_tol=tol)
        return Expectation(2)
    if command == "check-metric":
        return Expectation(0 if np.all(p.W > 0) else 2)
    if command == "check-comparison":
        ok = _certified(p.lam, tol) and _comparison_axioms_hold(p.lam)
        return Expectation(0 if ok else 2)
    if command == "verify-lipschitz":
        return Expectation(0 if _lipschitz_holds(p) else 2)
    if command == "verify-condition-c":
        ok = _certified(p.lam, tol) and _condition_c_holds(p)
        return Expectation(0 if ok else 2)
    if command.startswith("solve-"):
        return _solve_expectation(p, command, tol)
    raise Undecided(f"unknown command {command!r}")


def _fields(record: str) -> dict:
    return dict(part.split("=", 1) for part in record.split()[1:])


def _floats(text: str) -> np.ndarray:
    return np.array([float(v) for v in text.split(",")])


def judge(exp: Expectation, exit_code: int, records: list[str]) -> str | None:
    """None when the invocation matches the expectation, else the reason it does not."""
    if exit_code != exp.exit_code:
        return f"exit {exit_code}, expected {exp.exit_code}"
    by_kind = {}
    for rec in records:
        fields = _fields(rec)
        by_kind[fields.get("kind")] = fields
    if by_kind.get("exit", {}).get("code") != str(exit_code):
        return "last exit record does not match the exit code"
    if exp.rho is not None:
        cert = by_kind.get("certificate", {})
        if cert.get("status") != "certified":
            return "no certified certificate record"
        if float(cert["rho"]) < exp.rho - exp.rho_tol:
            return f"rho {cert['rho']} below the spectral radius {exp.rho!r}"
    if exp.point is not None:
        result = by_kind.get("result", {})
        if result.get("status") != "converged":
            return f"result status {result.get('status')}, expected converged"
        err_point = np.max(np.abs(_floats(result["point"]) - exp.point))
        err_value = np.max(np.abs(_floats(result["value"]) - exp.value))
        if not err_point <= exp.tol_point:
            return f"point off by {err_point:.3g} > {exp.tol_point:.3g}"
        if not err_value <= exp.tol_value:
            return f"value off by {err_value:.3g} > {exp.tol_value:.3g}"
    if exp.exit_code == 3 and by_kind.get("result", {}).get("status") != "budget_exhausted":
        return "exit 3 without a budget_exhausted result"
    return None

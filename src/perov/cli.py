"""Command-line front end.

Problems are described by line-oriented files of `key = value` pairs
(matrices as semicolon-separated rows, vectors as comma-separated
components) and driven by one of eight commands for axiom checking,
certification, hypothesis verification, and solving; `perov --help` lists
them and the two options. The report is its `#REC ` records: each fact is
printed once, as a record, and identical problem files and seeds reproduce
the records byte for byte. The other stdout lines carry only what no
record holds: the problem path, a `== ... ==` header per section, and the
reasons for a failure.

Exit codes: 0 success or converged, 2 hypothesis violation or failed
certification, 3 iteration budget exhausted, 64 usage or parse errors.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, fields

import numpy as np

from . import exact
# check_comparison_axioms and check_metric_axioms are not called here, but the
# benchmark's tracer wraps them by name
from .contraction import (  # noqa: F401
    LinearComparison,
    certify_contraction,
    check_comparison_axioms,
    linear_comparison,
)
from .errors import (
    EvaluationError,
    NotCertifiedError,
    PreimageError,
    UsageError,
)
from .metric import WeightedMatrixMetric, check_metric_axioms  # noqa: F401
from .ordered_algebra import SquareMatrix, Vector
from .sampling import uniform_sampler
from .solver import (
    MapSpec,
    SolveResult,
    SolveStatus,
    affine_preimage,
    comparison_solve,
    identity_map,
    jungck_solve,
    perov_solve,
    verify_condition_c,
    verify_matrix_lipschitz,
)

__all__ = ["ProblemFile", "parse_problem", "format_problem", "run", "main"]

EXIT_OK = 0
EXIT_HYPOTHESIS = 2
EXIT_BUDGET = 3
EXIT_USAGE = 64

_STATUS_EXIT = {
    SolveStatus.CONVERGED: EXIT_OK,
    SolveStatus.BUDGET_EXHAUSTED: EXIT_BUDGET,
    SolveStatus.HYPOTHESIS_VIOLATED: EXIT_HYPOTHESIS,
}

_MAP_PREFIXES = ("f", "g", "g_solve")
_MAP_SUBKEYS = ("kind", "M", "b", "L", "d", "tags")
_TOP_KEYS = ("n", "W", "k", "lambda", "x0", "eps", "budget", "seed")

_DEFAULT_BUDGET = 100_000
_DEFAULT_SEED = 0


@dataclass
class ProblemFile:
    """Parsed problem description; exactly one of k and lam is present."""

    n: int
    weight: SquareMatrix
    f: MapSpec
    x0: Vector
    eps: Vector
    g: MapSpec | None = None
    g_solve: MapSpec | None = None
    k: SquareMatrix | None = None
    lam: SquareMatrix | None = None
    budget: int = _DEFAULT_BUDGET
    seed: int = _DEFAULT_SEED


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _vec_template(n: int) -> str:
    """A %-template printing n floats as _fmt does, comma-separated."""
    return ",".join(["%.17g"] * n)


def _fmt_vec(v: Vector) -> str:
    return _vec_template(v.n) % tuple(v.components.tolist())


def _fmt_mat(m: SquareMatrix) -> str:
    return "; ".join(", ".join(_fmt(e) for e in row) for row in m.entries)


def _rec(kind: str, **fields) -> None:
    parts = [f"kind={kind}"]
    for key, value in fields.items():
        if isinstance(value, Vector):
            text = _fmt_vec(value)
        elif isinstance(value, bool):
            text = "true" if value else "false"
        elif isinstance(value, float):
            text = _fmt(value)
        elif value is None:
            text = "na"
        else:
            text = str(value)
        parts.append(f"{key}={text}")
    print("#REC " + " ".join(parts))


class _ParseContext:
    def __init__(self, path: str):
        self.path = path
        self.values: dict[str, str] = {}
        self.lines: dict[str, int] = {}

    def error(self, message: str, key: str | None = None) -> UsageError:
        if key is not None and key in self.lines:
            return UsageError(f"{self.path}:{self.lines[key]}: {message}")
        return UsageError(f"{self.path}: {message}")


def _parse_float(ctx: _ParseContext, key: str, text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ctx.error(f"{key}: cannot parse {text!r} as a number", key) from None


def _parse_vector(ctx: _ParseContext, key: str, n: int) -> Vector:
    text = ctx.values[key]
    parts = [p.strip() for p in text.split(",")]
    comps = [_parse_float(ctx, key, p) for p in parts]
    if len(comps) != n:
        raise ctx.error(f"{key}: expected {n} components, got {len(comps)}", key)
    try:
        return Vector(np.array(comps))
    except UsageError as exc:
        raise ctx.error(f"{key}: {exc}", key) from None


def _parse_matrix(ctx: _ParseContext, key: str, n: int) -> SquareMatrix:
    text = ctx.values[key]
    rows = []
    for row_text in text.split(";"):
        parts = [p.strip() for p in row_text.split(",")]
        rows.append([_parse_float(ctx, key, p) for p in parts])
    widths = {len(r) for r in rows}
    if len(rows) != n or widths != {n}:
        raise ctx.error(f"{key}: expected an {n}x{n} matrix", key)
    try:
        return SquareMatrix(np.array(rows))
    except UsageError as exc:
        raise ctx.error(f"{key}: {exc}", key) from None


def _parse_int(ctx: _ParseContext, key: str, minimum: int) -> int:
    text = ctx.values[key]
    try:
        value = int(text)
    except ValueError:
        raise ctx.error(f"{key}: cannot parse {text!r} as an integer", key) from None
    if value < minimum:
        raise ctx.error(f"{key}: must be at least {minimum}", key)
    return value


def _parse_map(ctx: _ParseContext, prefix: str, n: int) -> MapSpec | None:
    keys = {k for k in ctx.values if k.startswith(prefix + ".")}
    if not keys:
        return None
    kind_key = f"{prefix}.kind"
    if kind_key not in ctx.values:
        raise ctx.error(f"{prefix}: missing {kind_key}", sorted(keys)[0])
    kind = ctx.values[kind_key].strip()
    if kind == "affine":
        allowed = {kind_key, f"{prefix}.M", f"{prefix}.b"}
    elif kind == "componentwise-nonlinear":
        allowed = {kind_key} | {f"{prefix}.{s}" for s in ("M", "b", "L", "d", "tags")}
    else:
        raise ctx.error(f"{kind_key}: unknown map kind {kind!r}", kind_key)
    extra = keys - allowed
    if extra:
        raise ctx.error(
            f"{prefix}: keys {sorted(extra)} not allowed for kind {kind!r}",
            sorted(extra)[0],
        )
    missing = sorted(a for a in allowed if a not in ctx.values)
    if missing:
        raise ctx.error(f"{prefix}: missing {missing}", kind_key)
    m = _parse_matrix(ctx, f"{prefix}.M", n)
    b = _parse_vector(ctx, f"{prefix}.b", n)
    if kind == "affine":
        return MapSpec.affine(m, b)
    inner = (_parse_matrix(ctx, f"{prefix}.L", n), _parse_vector(ctx, f"{prefix}.d", n))
    tags = tuple(t.strip() for t in ctx.values[f"{prefix}.tags"].split(","))
    try:
        return MapSpec.componentwise(m, b, *inner, tags)
    except UsageError as exc:
        raise ctx.error(f"{prefix}: {exc}", kind_key) from None


def parse_problem_text(text: str, path: str = "<string>") -> ProblemFile:
    """Parse problem-file content; see parse_problem for the grammar."""
    ctx = _ParseContext(path)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise UsageError(f"{path}:{lineno}: empty key or value")
        known = key in _TOP_KEYS or (
            "." in key
            and key.split(".", 1)[0] in _MAP_PREFIXES
            and key.split(".", 1)[1] in _MAP_SUBKEYS
        )
        if not known:
            raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
        if key in ctx.values:
            raise UsageError(f"{path}:{lineno}: duplicate key {key!r}")
        ctx.values[key] = value
        ctx.lines[key] = lineno

    for required in ("n", "W", "x0", "eps"):
        if required not in ctx.values:
            raise ctx.error(f"missing required key {required!r}")
    n = _parse_int(ctx, "n", 1)
    weight = _parse_matrix(ctx, "W", n)
    if np.any(weight.entries <= 0.0):
        raise ctx.error("W: metric weight entries must be strictly positive", "W")
    f = _parse_map(ctx, "f", n)
    if f is None:
        raise ctx.error("missing map f")
    g = _parse_map(ctx, "g", n)
    g_solve = _parse_map(ctx, "g_solve", n)
    if g_solve is not None and g is None:
        raise ctx.error("g_solve given without g", "g_solve.kind")
    if g is not None and g.kind != "affine" and g_solve is None:
        raise ctx.error("g is not affine, so an explicit g_solve is required", "g.kind")
    has_k = "k" in ctx.values
    has_lam = "lambda" in ctx.values
    if has_k == has_lam:
        raise ctx.error("exactly one of 'k' and 'lambda' must be present")
    gain_key = "k" if has_k else "lambda"
    gain = _parse_matrix(ctx, gain_key, n)
    if np.any(gain.entries < 0.0):
        raise ctx.error(f"{gain_key}: entries must be nonnegative", gain_key)
    k, lam = (gain, None) if has_k else (None, gain)
    x0 = _parse_vector(ctx, "x0", n)
    if "," not in ctx.values["eps"]:  # the scalar shorthand broadcasts
        ctx.values["eps"] = ",".join([ctx.values["eps"]] * n)
    eps = _parse_vector(ctx, "eps", n)
    if np.any(eps.components <= 0.0):
        raise ctx.error("eps: every component must be strictly positive", "eps")
    budget = _parse_int(ctx, "budget", 1) if "budget" in ctx.values else _DEFAULT_BUDGET
    seed = _parse_int(ctx, "seed", 0) if "seed" in ctx.values else _DEFAULT_SEED
    return ProblemFile(
        n=n,
        weight=weight,
        f=f,
        x0=x0,
        eps=eps,
        g=g,
        g_solve=g_solve,
        k=k,
        lam=lam,
        budget=budget,
        seed=seed,
    )


def parse_problem(path: str) -> ProblemFile:
    """Read and parse a problem file.

    Grammar: one `key = value` pair per line; blank lines and lines starting
    with '#' are skipped. Matrices separate rows with ';' and entries with
    ','; vectors are comma-separated; eps admits a scalar shorthand that
    broadcasts to all components. Maps are grouped keys (`f.kind = affine`,
    `f.M = ...`, `f.b = ...`; componentwise maps add `f.L`, `f.d`,
    `f.tags`). Unknown and duplicate keys are rejected, and so is a file
    that is not UTF-8 text; a leading UTF-8 byte-order mark is skipped.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        text = data.decode("utf-8").removeprefix("\ufeff")  # offsets stay file offsets
    except UnicodeDecodeError as exc:
        raise UsageError(f"{path}: not UTF-8 at byte offset {exc.start}: {exc.reason}") from None
    return parse_problem_text(text, path)


def _emit_map(lines: list[str], prefix: str, spec: MapSpec) -> None:
    lines.append(f"{prefix}.kind = {spec.kind}")
    lines.append(f"{prefix}.M = {_fmt_mat(spec.M)}")
    lines.append(f"{prefix}.b = {_fmt_vec(spec.b)}")
    if spec.kind == "componentwise-nonlinear":
        lines.append(f"{prefix}.L = {_fmt_mat(spec.L)}")
        lines.append(f"{prefix}.d = {_fmt_vec(spec.d)}")
        lines.append(f"{prefix}.tags = {', '.join(spec.tags)}")


def format_problem(pf: ProblemFile) -> str:
    """Emit a problem file in canonical form; parsing it back round-trips."""
    lines = [f"n = {pf.n}", f"W = {_fmt_mat(pf.weight)}"]
    _emit_map(lines, "f", pf.f)
    if pf.g is not None:
        _emit_map(lines, "g", pf.g)
    if pf.g_solve is not None:
        _emit_map(lines, "g_solve", pf.g_solve)
    if pf.k is not None:
        lines.append(f"k = {_fmt_mat(pf.k)}")
    if pf.lam is not None:
        lines.append(f"lambda = {_fmt_mat(pf.lam)}")
    lines.append(f"x0 = {_fmt_vec(pf.x0)}")
    lines.append(f"eps = {_fmt_vec(pf.eps)}")
    lines.append(f"budget = {pf.budget}")
    lines.append(f"seed = {pf.seed}")
    return "\n".join(lines) + "\n"


def _need(value, name: str):
    if value is None:
        raise UsageError(f"this command needs {name!r} in the problem file")
    return value


def _resolve_g(pf: ProblemFile) -> tuple[MapSpec, object]:
    g = pf.g or identity_map(pf.n)
    return g, pf.g_solve or affine_preimage(g)


class _Refused(Exception):
    """A failed gate or a refused certificate, whose record is already out; run exits 2."""


def _gate(kind: str, report, **extra) -> None:
    """Write a hypothesis check's record; raise _Refused when the check failed.

    The record holds samples=, the length of each violation list keyed by its
    prefix (d1_violations as d1=, violations as violations=), extra, method=, gap=, verdict=.
    """
    names = [f.name for f in fields(report) if f.name.endswith("violations")]
    counts = {name.removesuffix("_violations"): len(getattr(report, name)) for name in names}
    verdict = "pass" if report.passed else "fail"
    how = {"method": report.method, "gap": report.gap}
    _rec(kind, samples=report.samples_tested, **counts, **extra, **how, verdict=verdict)
    if not report.passed:
        raise _Refused


def _certify_or_report(matrix: SquareMatrix, tol: float):
    print("== certificate (k) ==")
    try:
        cert = certify_contraction(matrix, tol)
    except NotCertifiedError as exc:
        print(exc)
        _rec("certificate", label="k", status="not_certified", rho=exc.estimate)
        raise _Refused from None
    _rec(
        "certificate",
        label="k",
        status="certified",
        rho=cert.rho,
        rho_bound=cert.rho_bound,
        terms=cert.series_terms,
        residual=cert.residual,
    )
    return cert


def _comparison_or_report(pf: ProblemFile, tol: float) -> LinearComparison:
    lam = _need(pf.lam, "lambda")
    print("== comparison function ==")
    try:
        phi = linear_comparison(lam, tol)
    except NotCertifiedError as exc:
        print(f"gain {exc}")
        _rec("comparison", status="not_certified", rho=exc.estimate)
        raise _Refused from None
    _rec(
        "comparison",
        status="certified",
        rho=phi.certificate.rho,
        deficiency_in_cone=phi.deficiency_in_cone,
    )
    return phi


# Values per chunk of iter records, step indices counted; shorter runs are
# never chunked. Measured in fresh processes: for n up to 64 a chunk's
# buffers stay below the allocator's 128 KiB mmap threshold and its one
# write below the 64 KiB pipe buffer; larger chunks fault pages in afresh
# for each chunk in some heap layouts, and smaller ones take more time per
# step.
_CHUNK_VALUES = 2048


def _iter_writer(n: int):
    """A solver's on_step that writes the iter records, and the flush for the last ones.

    Each block of steps is copied into a chunk of about _CHUNK_VALUES
    values. A full chunk is rendered at once by perov._g17, imported
    with the first one, which prints exactly what '%d' and '%.17g' print,
    and its records are one write. flush writes the steps of a partial chunk
    through the same kernel once it is loaded, and through the per-record
    template, one write per record, in a solve that never filled a chunk,
    so that such a solve never imports it. Once flushed, a solve that fails
    part way has printed the records of every step it took.
    """
    head, groups = "#REC kind=iter n=", (" y=", " dist=", " bound=")
    vector = ",".join(["%.17g"] * n)
    line = head + "%d" + "".join(p + vector for p in groups) + "\n"
    write = sys.stdout.write
    chunk = np.empty((-(-_CHUNK_VALUES // (3 * n + 1)), 3, n))
    rows = start = 0  # the chunk's rows in use, and the step index of its first
    render = None

    def on_step(j, ys, dists, bounds):  # steps j .. j + len(ys) - 1, in step order
        nonlocal rows, start, render
        i = 0
        while i < len(ys):  # a block may end one chunk and start the next
            if not rows:
                start = j + i
            take = min(len(ys) - i, len(chunk) - rows)
            part = chunk[rows : rows + take]
            part[:, 0], part[:, 1], part[:, 2] = ys[i : i + take], dists[i : i + take], bounds[i : i + take]
            rows, i = rows + take, i + take
            if rows == len(chunk):
                if render is None:
                    from ._g17 import RowFormatter

                    render = RowFormatter(len(chunk), head, groups, n)
                write(render(start, chunk))
                rows = 0

    def flush():
        nonlocal rows
        if render is None:
            for i, row in enumerate(chunk[:rows].reshape(rows, 3 * n).tolist()):
                write(line % (start + i, *row))
        elif rows:
            write(render(start, chunk[:rows]))
        rows = 0

    return on_step, flush


def _solve(pf: ProblemFile, solver, *args) -> int:
    """solver(*args, x0, eps, budget) with iter records; emit the result, return the exit code.

    The iter records of a partial last chunk are written when the solver
    returns or raises, so they precede the result or the error line.
    """
    print("== iterations ==")
    on_step, flush = _iter_writer(pf.n)
    try:
        result: SolveResult = solver(*args, pf.x0, pf.eps, pf.budget, on_step=on_step)
    finally:
        flush()
    status = result.trace.status
    print("== result ==")
    if result.hypothesis_witness is not None and "step" in result.hypothesis_witness:
        print(f"hypothesis violated at step {result.hypothesis_witness['step']}")
    _rec(
        "result",
        status=status.value,
        point=result.point,
        value=result.value,
        residual=result.residual,
        weak_compat=result.weakly_compatible,
        common=result.common_fixed_point,
    )
    return _STATUS_EXIT[status]


def _sampled(pf: ProblemFile, verifier, g: MapSpec, gain, samples: int):
    """A gate's sampled report, for when perov.exact cannot decide it."""
    metric = WeightedMatrixMetric(pf.weight)
    return verifier(pf.f, g, gain, metric, uniform_sampler(pf.n, seed=pf.seed), samples)


def _lipschitz_gate(pf: ProblemFile, k: SquareMatrix, samples: int) -> None:
    g = pf.g or identity_map(pf.n)
    report = exact.lipschitz(pf.f, g, k, pf.weight)
    report = report or _sampled(pf, verify_matrix_lipschitz, g, k, samples)
    print("== hypothesis check ==")
    _gate("lipschitz", report)


def _condition_c_gate(pf: ProblemFile, phi: LinearComparison, samples: int) -> None:
    g = pf.g or identity_map(pf.n)
    report = exact.condition_c(pf.f, g, phi.gain, pf.weight)
    report = report or _sampled(pf, verify_condition_c, g, phi, samples)
    branches = {f"branch{i}": count for i, count in enumerate(report.branch_counts, 1)}
    _gate("condition_c", report, **branches)


def _cmd_check_metric(pf: ProblemFile, args) -> int:
    print("== metric axioms ==")
    _gate("metric_axioms", exact.metric_axioms(pf.weight))
    return EXIT_OK


def _cmd_check_comparison(pf: ProblemFile, args) -> int:
    phi = _comparison_or_report(pf, args.tol)
    print("== comparison axioms ==")
    _gate("comparison_axioms", exact.comparison_axioms(phi.gain), tail_checked=0)
    return EXIT_OK


def _cmd_certify(pf: ProblemFile, args) -> int:
    _certify_or_report(_need(pf.k, "k"), args.tol)
    return EXIT_OK


def _cmd_verify_lipschitz(pf: ProblemFile, args) -> int:
    _lipschitz_gate(pf, _need(pf.k, "k"), args.samples)
    return EXIT_OK


def _cmd_verify_condition_c(pf: ProblemFile, args) -> int:
    phi = _comparison_or_report(pf, args.tol)
    print("== contraction condition ==")
    _condition_c_gate(pf, phi, args.samples)
    return EXIT_OK


def _cmd_solve_perov(pf: ProblemFile, args) -> int:
    k = _need(pf.k, "k")
    if pf.g is not None:
        raise UsageError("solve-perov is a self-map solve; use solve-jungck for g")
    _lipschitz_gate(pf, k, args.samples)
    cert = _certify_or_report(k, args.tol)
    metric = WeightedMatrixMetric(pf.weight)
    return _solve(pf, perov_solve, pf.f, metric, cert)


def _cmd_solve_jungck(pf: ProblemFile, args) -> int:
    k = _need(pf.k, "k")
    _need(pf.g, "g")
    g, g_solve = _resolve_g(pf)
    _lipschitz_gate(pf, k, args.samples)
    cert = _certify_or_report(k, args.tol)
    metric = WeightedMatrixMetric(pf.weight)
    return _solve(pf, jungck_solve, pf.f, g, g_solve, metric, cert)


def _cmd_solve_comparison(pf: ProblemFile, args) -> int:
    phi = _comparison_or_report(pf, args.tol)
    g, g_solve = _resolve_g(pf)
    print("== hypothesis check ==")
    _gate("comparison_axioms", exact.comparison_axioms(phi.gain), tail_checked=0)
    _condition_c_gate(pf, phi, args.samples)
    metric = WeightedMatrixMetric(pf.weight)
    return _solve(pf, comparison_solve, pf.f, g, g_solve, phi, metric)


_HANDLERS = {
    "check-metric": _cmd_check_metric,
    "check-comparison": _cmd_check_comparison,
    "certify": _cmd_certify,
    "solve-perov": _cmd_solve_perov,
    "solve-jungck": _cmd_solve_jungck,
    "solve-comparison": _cmd_solve_comparison,
    "verify-lipschitz": _cmd_verify_lipschitz,
    "verify-condition-c": _cmd_verify_condition_c,
}


_USAGE = """\
usage: perov COMMAND PROBLEM [--samples N] [--tol T]

Check the hypotheses of one problem file, certify them, or solve it.

commands:
  check-metric        check the three distance axioms for the weight W
  check-comparison    check the four comparison axioms for the gain lambda
  certify             certify the coefficient matrix k
  solve-perov         fixed point of the self-map f
  solve-jungck        coincidence point of (f, g)
  solve-comparison    coincidence point under a comparison-function gain
  verify-lipschitz    check the matrix coefficient inequality for (f, g, k)
  verify-condition-c  check the three-branch comparison inequality

options, before, between or after COMMAND and PROBLEM (the last one given wins):
  --samples N, --samples=N  samples per gate that samples, an integer >= 1
                            (default 1000); a gate that would draw more than
                            2**24 values (2 n per sample) exits 64
  --tol T, --tol=T          certification margin, a number with 0 < T < 1
                            (default 1e-9)
  -h, --help                print this text and exit

exit codes: 0 success, 2 hypothesis failure, 3 budget exhausted, 64 usage error
"""


@dataclass(frozen=True)
class _Args:
    command: str
    problem: str
    samples: int
    tol: float


# each option's text when it is not given; it goes through the same checks
_DEFAULTS = {"--samples": "1000", "--tol": "1e-9"}


def _option(text: str, name: str, convert, valid, rule: str):
    try:
        value = convert(text)
        if valid(value):
            return value
    except ValueError:
        pass
    raise UsageError(f"{name} must be {rule}, got {text!r}")


def _scan(argv: list[str]) -> _Args:
    """COMMAND, PROBLEM and the options of argv, each option checked for range."""
    positionals = []
    options = dict(_DEFAULTS)
    tokens = iter(argv)
    for token in tokens:
        if not token.startswith("-"):
            positionals.append(token)
            continue
        name, eq, value = token.partition("=")
        if name not in options:
            raise UsageError(f"unknown option {name!r}")
        if not eq:
            value = next(tokens, None)
            if value is None:
                raise UsageError(f"{name} needs a value")
        options[name] = value
    if len(positionals) != 2:
        raise UsageError(f"expected COMMAND PROBLEM, got {len(positionals)} positional arguments")
    command, problem = positionals
    if command not in _HANDLERS:
        raise UsageError(f"unknown command {command!r}; perov --help lists the commands")
    samples = _option(options["--samples"], "--samples", int, lambda v: v >= 1, "an integer >= 1")
    tol = _option(options["--tol"], "--tol", float, lambda v: 0.0 < v < 1.0, "a number with 0 < T < 1")
    return _Args(command, problem, samples, tol)


def run(argv=None) -> int:
    """Execute one CLI invocation and return its exit code."""
    if argv is None:
        argv = sys.argv[1:]
    if "-h" in argv or "--help" in argv:
        sys.stdout.write(_USAGE)
        return EXIT_OK
    try:
        args = _scan(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        pf = parse_problem(args.problem)
    except UsageError as exc:
        print(f"problem file error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"cannot read problem file: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(f"problem: {args.problem}")  # the one fact no record holds
    _rec("problem", command=args.command, n=pf.n, seed=pf.seed, budget=pf.budget, eps=pf.eps)
    try:
        code = _HANDLERS[args.command](pf, args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _Refused:
        code = EXIT_HYPOTHESIS
    except PreimageError as exc:
        print(f"hypothesis breach: {exc}")
        code = EXIT_HYPOTHESIS
    except EvaluationError as exc:
        print(f"evaluation failure: {exc}")
        code = EXIT_HYPOTHESIS
    _rec("exit", code=code)
    return code


def main() -> None:
    sys.exit(run())

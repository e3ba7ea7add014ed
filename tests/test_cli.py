import os
import pathlib
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import perov.cli
from perov import UsageError, Vector, WeightedMatrixMetric, uniform_sampler, verify_matrix_lipschitz
from perov.cli import (
    EXIT_BUDGET,
    EXIT_HYPOTHESIS,
    EXIT_OK,
    EXIT_USAGE,
    _HANDLERS,
    _fmt_vec,
    _scan,
    _vec_template,
    format_problem,
    parse_problem,
    parse_problem_text,
    run,
)

from test_acceptance import SHIPPED

ROOT = pathlib.Path(__file__).resolve().parent.parent

MINIMAL = """\
# a one-dimensional halving problem
n = 1
W = 1
f.kind = affine
f.M = 0.5
f.b = 1
k = 0.5
x0 = 0
eps = 1e-10
"""

PLANAR = """\
n = 2
W = 1, 0.1; 0.1, 1
f.kind = affine
f.M = 0.5, 0.25; 0.25, 0.5
f.b = 1, 1
k = 0.5, 0.25; 0.25, 0.5
x0 = 0, 0
eps = 1e-10
budget = 100000
seed = 0
"""


# -- parsing ------------------------------------------------------------------


def test_parse_minimal():
    pf = parse_problem_text(MINIMAL)
    assert pf.n == 1
    assert pf.weight.entries[0, 0] == 1.0
    assert pf.f(pf.x0).components[0] == 1.0
    assert pf.k.entries[0, 0] == 0.5
    assert pf.lam is None
    assert pf.g is None
    assert pf.budget == 100000
    assert pf.seed == 0
    assert pf.eps.components[0] == 1e-10


def test_parse_matrices_and_vectors():
    pf = parse_problem_text(PLANAR)
    assert np.allclose(pf.weight.entries, [[1.0, 0.1], [0.1, 1.0]])
    assert np.allclose(pf.f.M.entries, [[0.5, 0.25], [0.25, 0.5]])
    assert np.all(pf.x0.components == 0.0)


def test_eps_scalar_shorthand_broadcasts():
    pf = parse_problem_text(PLANAR)
    assert pf.eps.n == 2
    assert np.all(pf.eps.components == 1e-10)


def test_eps_must_be_positive():
    bad = MINIMAL.replace("eps = 1e-10", "eps = 0")
    with pytest.raises(UsageError):
        parse_problem_text(bad)


def test_requires_exactly_one_coefficient():
    with pytest.raises(UsageError, match="exactly one"):
        parse_problem_text(MINIMAL + "lambda = 0.5\n")
    with pytest.raises(UsageError, match="exactly one"):
        parse_problem_text(MINIMAL.replace("k = 0.5\n", ""))


def test_weight_must_be_strictly_positive():
    bad = MINIMAL.replace("W = 1", "W = 0")
    with pytest.raises(UsageError, match="strictly positive"):
        parse_problem_text(bad)


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize(
    ("key", "line", "template"),
    [
        ("x0", 7, "x0 = {}, 0"),
        ("eps", 8, "eps = {}, 1e-10"),
        ("eps", 8, "eps = {}"),
        ("f.b", 5, "f.b = {}, 1"),
        ("f.L", 11, "f.L = {}, 0; 0, 1"),
        ("f.d", 12, "f.d = {}, 0"),
    ],
)
def test_non_finite_value_reports_line_and_key(key, line, template, value):
    text = PLANAR.replace("f.kind = affine", "f.kind = componentwise-nonlinear")
    text += "f.L = 1, 0; 0, 1\nf.d = 0, 0\nf.tags = tanh, tanh\n"
    old = next(l for l in text.splitlines() if l.startswith(f"{key} ="))
    bad = text.replace(old, template.format(value))
    with pytest.raises(UsageError) as info:
        parse_problem_text(bad)
    assert str(info.value) == f"<string>:{line}: {key}: entries must be finite"


@pytest.mark.parametrize(
    ("command", "gain"),
    [
        ("certify", "k = -0.5"),
        ("verify-lipschitz", "k = -0.5"),
        ("solve-perov", "k = -0.5"),
        ("solve-comparison", "lambda = -0.5"),
    ],
)
def test_negative_gain_is_refused_before_any_output(tmp_path, capsys, command, gain):
    path = write(tmp_path, MINIMAL.replace("k = 0.5", gain))
    assert run([command, path]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    key = gain.split()[0]
    assert err == f"problem file error: {path}:7: {key}: entries must be nonnegative\n"


def test_unknown_key_reports_line_number():
    bad = MINIMAL + "mystery = 1\n"
    with pytest.raises(UsageError, match=r":10: unknown key"):
        parse_problem_text(bad)


def test_duplicate_key_reports_line_number():
    bad = MINIMAL + "n = 2\n"
    with pytest.raises(UsageError, match=r":10: duplicate key"):
        parse_problem_text(bad)


def test_wrong_matrix_shape_rejected():
    bad = PLANAR.replace("W = 1, 0.1; 0.1, 1", "W = 1, 0.1; 0.1, 1; 1, 1")
    with pytest.raises(UsageError, match="2x2"):
        parse_problem_text(bad)
    bad = PLANAR.replace("x0 = 0, 0", "x0 = 0")
    with pytest.raises(UsageError, match="components"):
        parse_problem_text(bad)


def test_unparseable_number_rejected():
    bad = MINIMAL.replace("f.M = 0.5", "f.M = half")
    with pytest.raises(UsageError, match="cannot parse"):
        parse_problem_text(bad)


def test_missing_required_key_rejected():
    with pytest.raises(UsageError, match="missing required key"):
        parse_problem_text("n = 1\nW = 1\n")


def test_line_without_equals_rejected():
    with pytest.raises(UsageError, match="expected 'key = value'"):
        parse_problem_text(MINIMAL + "stray line\n")


def test_nonlinear_g_requires_explicit_preimage():
    text = MINIMAL + (
        "g.kind = componentwise-nonlinear\n"
        "g.M = 1\ng.b = 0\ng.L = 1\ng.d = 0\ng.tags = atan\n"
    )
    with pytest.raises(UsageError, match="g_solve"):
        parse_problem_text(text)


def test_g_solve_without_g_rejected():
    text = MINIMAL + "g_solve.kind = affine\ng_solve.M = 1\ng_solve.b = 0\n"
    with pytest.raises(UsageError, match="g_solve given without g"):
        parse_problem_text(text)


def test_map_group_key_rules():
    with pytest.raises(UsageError, match="missing f.kind"):
        parse_problem_text(MINIMAL.replace("f.kind = affine\n", ""))
    with pytest.raises(UsageError, match="not allowed for kind"):
        parse_problem_text(MINIMAL + "f.L = 1\n")
    with pytest.raises(UsageError, match="unknown map kind"):
        parse_problem_text(MINIMAL.replace("f.kind = affine", "f.kind = fancy"))


def test_round_trip_is_canonical():
    pf = parse_problem_text(PLANAR)
    emitted = format_problem(pf)
    again = format_problem(parse_problem_text(emitted))
    assert emitted == again


def test_round_trip_preserves_values(tmp_path):
    path = tmp_path / "planar.prob"
    path.write_text(format_problem(parse_problem_text(PLANAR)))
    pf = parse_problem(str(path))
    assert np.allclose(pf.f.M.entries, [[0.5, 0.25], [0.25, 0.5]])
    assert pf.budget == 100000


# -- command execution ---------------------------------------------------------


def write(tmp_path, text, name="case.prob"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_run_solve_perov(tmp_path, capsys):
    code = run(["solve-perov", write(tmp_path, PLANAR)])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "#REC kind=problem command=solve-perov" in out
    assert "#REC kind=certificate" in out
    assert "#REC kind=iter n=0" in out
    assert "#REC kind=result status=converged" in out
    assert "#REC kind=exit code=0" in out
    result_line = [l for l in out.splitlines() if "kind=result" in l][0]
    assert "point=3.9999999998" in result_line


def test_run_is_deterministic(tmp_path, capsys):
    path = write(tmp_path, PLANAR)
    run(["solve-perov", path])
    first = [l for l in capsys.readouterr().out.splitlines() if l.startswith("#REC")]
    run(["solve-perov", path])
    second = [l for l in capsys.readouterr().out.splitlines() if l.startswith("#REC")]
    assert first == second


def test_run_certify_failure_exits_2(tmp_path, capsys):
    text = MINIMAL.replace("f.M = 0.5", "f.M = 1").replace("k = 0.5", "k = 1")
    code = run(["certify", write(tmp_path, text)])
    out = capsys.readouterr().out
    assert code == EXIT_HYPOTHESIS
    assert "status=not_certified" in out
    assert "#REC kind=exit code=2" in out


def test_run_certify_near_one_exits_2(tmp_path, capsys):
    # rho = 1 - 1e-7 leaves (I - k)^-1 too ill-conditioned for the residual cap
    rng = np.random.default_rng(6)
    a = rng.uniform(0.1, 1.0, (8, 8))
    k = a * ((1.0 - 1e-7) / np.max(np.abs(np.linalg.eigvals(a))))

    def rows(m):
        return "; ".join(", ".join(repr(float(e)) for e in row) for row in m)

    text = "\n".join(
        [
            "n = 8",
            f"W = {rows(np.ones((8, 8)) + np.eye(8))}",
            "f.kind = affine",
            f"f.M = {rows(k)}",
            f"f.b = {', '.join(['0'] * 8)}",
            f"k = {rows(k)}",
            f"x0 = {', '.join(['0'] * 8)}",
            "eps = 1e-10",
        ]
    )
    code = run(["certify", write(tmp_path, text)])
    out = capsys.readouterr().out
    assert code == EXIT_HYPOTHESIS
    assert "not certified: residual" in out
    assert "status=not_certified" in out


def test_run_budget_exhaustion_exits_3(tmp_path):
    text = MINIMAL.replace("f.M = 0.5", "f.M = 0.999").replace(
        "k = 0.5", "k = 0.999"
    ).replace("eps = 1e-10", "eps = 1e-12") + "budget = 5\n"
    code = run(["solve-perov", write(tmp_path, text)])
    assert code == EXIT_BUDGET


def test_run_lipschitz_violation_exits_2(tmp_path, capsys):
    text = MINIMAL.replace("f.M = 0.5", "f.M = 2")
    code = run(["verify-lipschitz", write(tmp_path, text)])
    out = capsys.readouterr().out
    assert code == EXIT_HYPOTHESIS
    assert "verdict=fail" in out


def test_run_lipschitz_slack_scales_with_offsets(tmp_path, capsys):
    # f = x/3 against g = x/2 + 1000000.3 holds with equality at k = 2/3. The
    # closed-form gate finds the tie exactly, whatever the offset; the sampled
    # verifier, which other inputs fall back to, passes it too, because an
    # absolute 1e-12 slack would be below the rounding of values near 1e6
    text = (ROOT / "problems" / "jungck-thirds.prob").read_text()
    text = text.replace("g.b = 0", "g.b = 1000000.3")
    path = write(tmp_path, text)
    code = run(["verify-lipschitz", path])
    out = capsys.readouterr().out
    assert "#REC kind=lipschitz samples=0 violations=0 method=exact gap=0 verdict=pass" in out
    assert code == EXIT_OK
    pf = parse_problem(path)
    metric = WeightedMatrixMetric(pf.weight)
    report = verify_matrix_lipschitz(pf.f, pf.g, pf.k, metric, uniform_sampler(1, seed=0), 1000)
    assert (report.passed, report.method, report.gap) == (True, "sampled", None)


SINGULAR_G = """\
n = 2
W = 1, 0.1; 0.1, 1
f.kind = affine
f.M = 0.25, 0.25; 0.25, 0.25
f.b = 0, 0
g.kind = affine
g.M = 1, 1; 1, 1
g.b = 0, 0
k = 0.5, 0; 0, 0.5
x0 = 0, 0
eps = 1e-10
"""


# f g^-1 = 0.25 [[1, 0.5], [1, 0.5]]: the hypothesis holds, but no closed-form
# rule covers a non-diagonal g, so its gates sample
NON_DIAGONAL_G = """\
n = 2
W = 1, 0.1; 0.1, 1
f.kind = affine
f.M = 0.25, 0.25; 0.25, 0.25
f.b = 0, 0
g.kind = affine
g.M = 1, 0.5; 0, 1
g.b = 0, 0
k = 0.3, 0.3; 0.3, 0.3
x0 = 0, 0
eps = 1e-10
"""


@pytest.mark.parametrize(
    ("command", "gain", "record"),
    [("verify-lipschitz", "k", "lipschitz"), ("verify-condition-c", "lambda", "condition_c")],
)
def test_sampled_checks_do_not_invert_g(tmp_path, capsys, command, gain, record):
    # the checks evaluate g only; a singular g matters once a solve inverts it
    code = run([command, write(tmp_path, SINGULAR_G.replace("k =", f"{gain} ="))])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert f"#REC kind={record} samples=1000 violations=0 " in out
    assert "verdict=pass" in out
    code = run(["solve-jungck", write(tmp_path, SINGULAR_G)])
    assert code == EXIT_USAGE
    assert "map matrix is singular; supply a preimage oracle" in capsys.readouterr().err


def test_run_solve_gate_blocks_bad_hypothesis(tmp_path, capsys):
    # solve-perov refuses to iterate when the sampled coefficient check fails
    text = MINIMAL.replace("f.M = 0.5", "f.M = 2")
    code = run(["solve-perov", write(tmp_path, text)])
    out = capsys.readouterr().out
    assert code == EXIT_HYPOTHESIS
    assert "kind=result" not in out


def test_run_malformed_file_exits_64(tmp_path, capsys):
    code = run(["solve-perov", write(tmp_path, "not a problem\n")])
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert "problem file error" in err


def test_run_missing_file_exits_64(tmp_path):
    assert run(["solve-perov", str(tmp_path / "absent.prob")]) == EXIT_USAGE


def test_run_unknown_command_exits_64(tmp_path):
    assert run(["conjure", write(tmp_path, MINIMAL)]) == EXIT_USAGE


@pytest.mark.parametrize(
    "flags",
    [
        ["--bogus"],
        ["--samples", "many"],
        ["--tol"],
        ["extra"],
        ["--samples"],
        ["--samples=abc"],
        ["--samp", "10"],  # no prefix abbreviations
        ["--samples", "0"],
        ["--samples", "-3"],
        ["--tol", "2"],
        ["--tol", "inf"],
        ["--tol", "nan"],
        ["--tol", "-1"],
        ["--tol=0"],
        ["--tol", "1"],
    ],
)
def test_run_bad_flag_exits_64(tmp_path, capsys, flags):
    # a bad value is refused before the prologue or the sampled gate runs
    assert run(["check-metric", write(tmp_path, PLANAR), *flags]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage error: ")


@pytest.mark.parametrize("argv", [[], ["check-metric"], ["check-metric", "PATH", "PATH"]])
def test_run_needs_exactly_command_and_problem(tmp_path, capsys, argv):
    path = write(tmp_path, PLANAR)
    assert run([path if a == "PATH" else a for a in argv]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage error: expected COMMAND PROBLEM")


@pytest.mark.parametrize(
    "argv", [["--help"], ["-h"], ["certify", "-h"], ["conjure", "--help", "--bogus"]]
)
def test_help_lists_every_command_and_exits_0(capsys, argv):
    assert run(argv) == EXIT_OK
    out, err = capsys.readouterr()
    assert err == "" and "#REC" not in out
    assert out.startswith("usage: perov COMMAND PROBLEM")
    assert out in (ROOT / "README.md").read_text()  # the README quotes it whole
    listed = [line.split()[0] for line in out.splitlines() if line.startswith("  ") and line.split()]
    assert set(_HANDLERS) <= set(listed)
    for option, default in (("--samples N", "1000"), ("--tol T", "1e-9")):
        assert option in out and f"(default {default})" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-lipschitz", "PATH", "--samples=150", "--tol", "1e-6"],
        ["verify-lipschitz", "--samples", "150", "PATH", "--tol=1e-6"],
        ["verify-lipschitz", "--tol", "1e-6", "--samples=150", "PATH"],
        ["--samples=7", "verify-lipschitz", "--tol", "0.5", "PATH", "--samples", "150", "--tol=1e-6"],
    ],
)
def test_options_parse_in_either_form_and_position(tmp_path, capsys, argv):
    # the last occurrence of a repeated option wins; a non-diagonal g has no
    # closed-form rule, so the gate samples and shows the count
    path = write(tmp_path, NON_DIAGONAL_G)
    argv = [path if a == "PATH" else a for a in argv]
    args = _scan(argv)
    assert (args.command, args.problem, args.samples, args.tol) == ("verify-lipschitz", path, 150, 1e-6)
    assert run(argv) == EXIT_OK
    assert "kind=lipschitz samples=150 violations=0 method=sampled gap=na " in capsys.readouterr().out


def test_defaults_when_no_options_are_given():
    args = _scan(["certify", "p.prob"])
    assert (args.samples, args.tol) == (1000, 1e-9)


def test_sampled_commands_leave_numpy_random_and_argparse_unimported():
    # numpy.random (~15 ms to import) is not needed, since no shipped
    # command builds a sampler, and argparse's first gettext call imports locale
    # (~2.5 ms per run); the closed-form gates compute on Python ints, not
    # fractions or decimal (~2 ms to import); no shipped solve fills a chunk
    # of iter records, so none loads their renderer, perov._g17; only a fresh
    # interpreter shows it
    unwanted = ("numpy.random", "argparse", "gettext", "locale", "fractions", "decimal", "perov._g17")
    cases = [(command, pathlib.Path(rel).stem, code) for rel, command, code in SHIPPED]
    cases.append(("check-metric", "comparison-2d", 0))
    script = (
        "import contextlib, io, sys\n"
        "from perov.cli import run\n"
        f"unwanted = {unwanted!r}\n"
        "for command, path in zip(sys.argv[1::2], sys.argv[2::2]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = run([command, path])\n"
        "    print(command, code, [m for m in unwanted if m in sys.modules])\n"
    )
    argv = [a for c, stem, _ in cases for a in (c, str(ROOT / "problems" / f"{stem}.prob"))]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [f"{c} {code} []" for c, _, code in cases]


SLOW_TAIL = """\
n = 1
W = 1
f.kind = affine
f.M = 0.5
f.b = 1
lambda = 0.9999
x0 = 0
eps = 1e-10
"""


def test_slow_tail_linear_gain_converges(tmp_path, capsys):
    # the solver screens a linear gain's axioms exactly; a 128-sample screen
    # refuted this valid gain, whose tail takes ~10^5 applications
    assert run(["solve-comparison", write(tmp_path, SLOW_TAIL)]) == EXIT_OK
    assert "#REC kind=result status=converged point=1.9999999999" in capsys.readouterr().out


def test_run_check_metric(tmp_path, capsys):
    # W > 0 decides the metric axioms, so --samples sizes nothing here
    code = run(["check-metric", write(tmp_path, PLANAR), "--samples", "200"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "#REC kind=metric_axioms samples=0 d1=0 d2=0 d3=0 method=exact gap=0.10000000000000001 " in out


def test_byte_order_mark_is_skipped(tmp_path, capsys):
    plain = ROOT / "problems" / "linear44.prob"
    marked = tmp_path / "bom.prob"
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    records = []
    for path in (plain, marked):
        assert run(["solve-perov", str(path)]) == EXIT_OK
        out = capsys.readouterr().out
        records.append([line for line in out.splitlines() if line.startswith("#REC ")])
    assert records[0] == records[1]


def test_shipped_gates_are_decided_without_a_sampler(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("a shipped gate built a sampler")

    monkeypatch.setattr(perov.cli, "uniform_sampler", refuse)
    assert not hasattr(perov.cli, "cone_sampler")
    for rel, command, code in SHIPPED:
        assert run([command, str(ROOT / rel)]) == code
        gates = [
            line
            for line in capsys.readouterr().out.splitlines()
            if line.split()[1] in {f"kind={k}" for k in ("lipschitz", "comparison_axioms", "condition_c")}
        ]
        assert all(" samples=0 " in line for line in gates), rel
        assert all(" method=exact " in line or " method=sufficient " in line for line in gates), rel


_DIAGONAL_LINE = MINIMAL.replace("k = 0.5", "lambda = 0.9999")
_COUPLED_SMALL = _DIAGONAL_LINE.replace("n = 1", "n = 2").replace("W = 1", "W = 1, 1; 1, 1").replace(
    "f.M = 0.5", "f.M = 0.5, 0; 0, 0.5"
).replace("f.b = 1", "f.b = 1, 1").replace("lambda = 0.9999", "lambda = 0.5, 1e-3; 0, 0.5").replace(
    "x0 = 0", "x0 = 0, 0"
)


def test_check_comparison_refutes_a_small_coupling(tmp_path, capsys):
    # phi(t) = G t shrinks e_2 only if G's second column is zero off the
    # diagonal: G e_2 = (1e-3, 0.5) is not below e_2 = (0, 1), and the
    # interior t = (1e-3, 1.001) has t - G t = (-5.01e-4, 0.5005)
    code = run(["check-comparison", write(tmp_path, _COUPLED_SMALL)])
    out = capsys.readouterr().out
    assert code == EXIT_HYPOTHESIS
    assert (
        "#REC kind=comparison_axioms samples=0 shrink=1 monotone=0 interior=1 tail=0 "
        "tail_checked=0 method=exact gap=-0.001 verdict=fail" in out
    )


def test_check_comparison_passes_a_slow_diagonal_gain_quickly(tmp_path, capsys):
    # the sampled tail test refuted lambda = 0.9999 after ~0.5 s, since some
    # samples need more than its 10^4 applications of phi
    path = write(tmp_path, _DIAGONAL_LINE)
    start = time.perf_counter()
    code = run(["check-comparison", path])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert elapsed < 0.1
    assert (
        "#REC kind=comparison_axioms samples=0 shrink=0 monotone=0 interior=0 tail=0 "
        "tail_checked=0 method=exact gap=9.9999999999988987e-05 verdict=pass" in out
    )


def test_run_check_comparison(tmp_path, capsys):
    text = MINIMAL.replace("k = 0.5", "lambda = 0.5")
    code = run(["check-comparison", write(tmp_path, text), "--samples", "200"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "kind=comparison_axioms" in out
    assert "verdict=pass" in out


def test_run_solve_comparison_violation(tmp_path, capsys):
    text = MINIMAL.replace("f.M = 0.5", "f.M = 2").replace("k = 0.5", "lambda = 0.6")
    code = run(["solve-comparison", write(tmp_path, text)])
    out = capsys.readouterr().out
    assert code == EXIT_HYPOTHESIS
    assert "kind=condition_c" in out
    assert "verdict=fail" in out


_COUPLED = (ROOT / "problems" / "comparison-2d.prob").read_text().replace(
    "lambda = 0.5, 0; 0, 0.5", "lambda = 0.5, 0.3; 0.3, 0.5"
)
_PLANAR_HEAD = "#REC kind=problem command={} n=2 seed=0 budget=100000 eps=1e-10,1e-10"
_LINE_HEAD = "#REC kind=problem command={} n=1 seed=0 budget=100000 eps=1e-10"
_COUPLED_GAIN = (
    "== comparison function ==",
    "#REC kind=comparison status=certified rho=0.79999999999999993 deficiency_in_cone=false",
)
_COUPLED_FAIL = (
    "#REC kind=comparison_axioms samples=0 shrink=2 monotone=0 interior=2 "
    "tail=0 tail_checked=0 method=exact gap=-0.29999999999999999 verdict=fail"
)
_SINGULAR_GAIN = (
    "== comparison function ==",
    "gain not certified: 1 - k is singular",
    "#REC kind=comparison status=not_certified rho=1",
)
_EXPANDING_GAIN = (
    "== comparison function ==",
    "#REC kind=comparison status=certified rho=0.59999999999999998 deficiency_in_cone=true",
)
# the sufficient test fails, so condition C is sampled
_CONDITION_C_FAIL = (
    "#REC kind=condition_c samples=200 violations=174 branch1=0 branch2=20 branch3=6 "
    "method=sampled gap=na verdict=fail"
)
_SINGULAR_K = (
    "== certificate (k) ==",
    "not certified: 1 - k is singular",
    "#REC kind=certificate label=k status=not_certified rho=1",
)
_LIPSCHITZ_FAIL = (
    "== hypothesis check ==",
    "#REC kind=lipschitz samples=0 violations=1 method=exact gap=-1.5 verdict=fail",
)
_EXPANDING_LAM = MINIMAL.replace("f.M = 0.5", "f.M = 2").replace("k = 0.5", "lambda = 0.6")


@pytest.mark.parametrize(
    "command, text, lines",
    [
        ("check-comparison", _COUPLED, [*_COUPLED_GAIN, "== comparison axioms ==", _COUPLED_FAIL]),
        ("solve-comparison", _COUPLED, [*_COUPLED_GAIN, "== hypothesis check ==", _COUPLED_FAIL]),
        ("check-comparison", MINIMAL.replace("k = 0.5", "lambda = 1"), _SINGULAR_GAIN),
        ("solve-comparison", MINIMAL.replace("k = 0.5", "lambda = 1"), _SINGULAR_GAIN),
        (
            "solve-comparison",
            _EXPANDING_LAM,
            [
                *_EXPANDING_GAIN,
                "== hypothesis check ==",
                "#REC kind=comparison_axioms samples=0 shrink=0 monotone=0 interior=0 "
                "tail=0 tail_checked=0 method=exact gap=0.40000000000000002 verdict=pass",
                _CONDITION_C_FAIL,
            ],
        ),
        (
            "verify-condition-c",
            _EXPANDING_LAM,
            [*_EXPANDING_GAIN, "== contraction condition ==", _CONDITION_C_FAIL],
        ),
        ("certify", MINIMAL.replace("k = 0.5", "k = 1"), _SINGULAR_K),
        (
            "solve-jungck",
            MINIMAL.replace("k = 0.5", "k = 1") + "g.kind = affine\ng.M = 1\ng.b = 0\n",
            [
                "== hypothesis check ==",
                "#REC kind=lipschitz samples=0 violations=0 method=exact gap=0.5 verdict=pass",
                *_SINGULAR_K,
            ],
        ),
        ("solve-perov", MINIMAL.replace("f.M = 0.5", "f.M = 2"), _LIPSCHITZ_FAIL),
        ("verify-lipschitz", MINIMAL.replace("f.M = 0.5", "f.M = 2"), _LIPSCHITZ_FAIL),
    ],
)
def test_refusal_prints_its_record_then_exit_2_and_nothing_more(
    tmp_path, capsys, command, text, lines
):
    path = write(tmp_path, text)
    code = run([command, path, "--samples", "200"])
    out, err = capsys.readouterr()
    head = (_PLANAR_HEAD if text is _COUPLED else _LINE_HEAD).format(command)
    expected = [f"problem: {path}", head, *lines, "#REC kind=exit code=2"]
    assert (code, err) == (EXIT_HYPOTHESIS, "")
    assert out == "".join(line + "\n" for line in expected)


def test_non_utf8_problem_file_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "bad.prob"
    path.write_bytes(b"n = 1\nW = 1\xff\n")
    code = run(["certify", str(path)])
    out, err = capsys.readouterr()
    assert (code, out) == (EXIT_USAGE, "")
    assert err == f"problem file error: {path}: not UTF-8 at byte offset 11: invalid start byte\n"


def test_run_rejects_mismatched_solver(tmp_path):
    text = MINIMAL + "g.kind = affine\ng.M = 0.5\ng.b = 0\n"
    assert run(["solve-perov", write(tmp_path, text)]) == EXIT_USAGE
    assert run(["solve-jungck", write(tmp_path, MINIMAL)]) == EXIT_USAGE


def test_records_use_full_precision(tmp_path, capsys):
    text = MINIMAL.replace("f.b = 1", "f.b = 0.1")
    run(["solve-perov", write(tmp_path, text)])
    out = capsys.readouterr().out
    # every numeric field reproduces its double exactly when re-formatted
    result_line = [l for l in out.splitlines() if "kind=result" in l][0]
    point_text = result_line.split("point=")[1].split(" ")[0]
    assert abs(float(point_text) - 0.2) < 1e-9
    assert format(float(point_text), ".17g") == point_text


BREACH = """\
# g_solve inverts g only while the first component is exactly 0
n = 3
W = 1, 1, 1; 1, 1, 1; 1, 1, 1
f.kind = affine
f.M = 0, 0.5, 0; 0, 0, 0.5; 0, 0, 0
f.b = 0, 0, 1
g.kind = affine
g.M = 1, 0, 0; 0, 1, 0; 0, 0, 1
g.b = 0, 0, 0
g_solve.kind = affine
g_solve.M = 1, 0, 0; 0, 1, 0; 1, 0, 1
g_solve.b = 0, 0, 0
k = 0.5, 0, 0; 0, 0.5, 0; 0, 0, 0.5
x0 = 0, 0, 0
eps = 1e-10
"""


def test_iter_records_stream_before_a_mid_solve_breach(tmp_path, capsys):
    # steps 0 and 1 keep the first component at exactly 0; step 2 leaves it
    # and the preimage check fails, after that step's record is out
    code = run(["solve-jungck", write(tmp_path, BREACH)])
    out = capsys.readouterr().out
    assert code == EXIT_HYPOTHESIS
    tail = out.split("== iterations ==\n")[1]
    assert tail == (
        "#REC kind=iter n=0 y=0,0,0 dist=1,1,1 bound=2,2,2\n"
        "#REC kind=iter n=1 y=0,0,1 dist=0.5,0.5,0.5 bound=1,1,1\n"
        "#REC kind=iter n=2 y=0,0.5,1 dist=0.25,0.25,0.25 bound=0.5,0.5,0.5\n"
        "hypothesis breach: preimage oracle residual 0.25 exceeds 1e-12 "
        "relative to the operands\n"
        "#REC kind=exit code=2\n"
    )


# g.M has determinant -1 and entries near 1e6, so no solve of it meets PREIMAGE_TOL
ILL_CONDITIONED_G = """\
n = 2
W = 1, 0.5; 0.5, 1
f.kind = affine
f.M = 500000, 499999.5; 499999.5, 499999
f.b = 1, 1
g.kind = affine
g.M = 1000000, 999999; 999999, 999998
g.b = 0, 0
k = 0.5, 0; 0, 0.5
x0 = 0, 0
eps = 1e-10
"""


def test_auto_oracle_breach_ends_at_its_first_step(tmp_path, capsys):
    # a run in value space solves the preimage of its first step, so an
    # oracle that misses PREIMAGE_TOL is refused there, not after the budget
    start = time.perf_counter()
    code = run(["solve-jungck", write(tmp_path, ILL_CONDITIONED_G)])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert code == EXIT_HYPOTHESIS
    tail = out.split("== iterations ==\n")[1].splitlines()
    assert tail[0].startswith("#REC kind=iter n=0 ")
    assert tail[1].startswith("hypothesis breach: preimage oracle residual ")
    assert tail[2:] == ["#REC kind=exit code=2"]
    assert elapsed < 1.0


_EDGE_DOUBLES = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e-310,
    1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1.0 / 3.0,
]


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(_EDGE_DOUBLES)
        ),
        min_size=1,
        max_size=20,
    )
)
def test_vector_template_matches_format(values):
    expected = ",".join(format(float(c), ".17g") for c in values)
    assert _vec_template(len(values)) % tuple(values) == expected
    assert _fmt_vec(Vector(np.array(values))) == expected

"""The traced benchmark run still finds every perov entry point it wraps.

bench/tracer.py patches perov.cli, perov.solver, perov.contraction and
perov.metric by name and reads certificate fields. A refactor that renames
or removes one of them breaks the traced benchmark silently; this test
makes it fail here instead.
"""

import importlib.util
import pathlib

import pytest
from test_cli import NON_DIAGONAL_G

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _load_tracer():
    spec = importlib.util.spec_from_file_location(
        "bench_tracer", ROOT / "bench" / "tracer.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced_run(command: str, problem: str):
    import perov.cli

    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        code = perov.cli.run([command, str(ROOT / "problems" / problem)])
    finally:
        tracer.uninstall()
    return code, tracer


def test_tracer_hooks_still_bind():
    code, tracer = _traced_run("solve-perov", "budget-exhaust.prob")
    assert code == 3
    assert tracer.missing == []
    assert tracer.counters["certify.calls"] == 1
    assert tracer.counters["certify.series_terms"] >= 1


# gate calls count the sampled checks the tracer wraps. The CLI decides these
# files' gates in closed form (perov.exact), which the tracer does not see, so
# only solve-comparison's axiom screen inside the solver still samples
@pytest.mark.parametrize(
    ("command", "stem", "gate_calls"),
    [
        ("solve-jungck", "jungck-shift", 0),
        ("solve-comparison", "comparison-half", 1),
        ("check-metric", "comparison-2d", 0),
        ("check-comparison", "comparison-2d", 0),
        ("verify-condition-c", "comparison-2d", 0),
    ],
)
def test_tracer_counts_every_solve_layer(command, stem, gate_calls):
    code, tracer = _traced_run(command, f"{stem}.prob")
    golden = (ROOT / "tests" / "golden" / f"{stem}.{command}.rec").read_text()
    assert code == 0
    assert tracer.missing == []
    assert tracer.counters["iterate.steps"] == golden.count("#REC kind=iter ")
    # streamed iter records must each be one write for this count to hold
    assert tracer.counters["cli.emit.records"] == golden.count("#REC ")
    assert tracer.counters["gate.calls"] == gate_calls


def test_tracer_sees_a_gate_that_still_samples(tmp_path):
    # no closed-form rule covers a non-diagonal g, so the CLI samples through
    # the verifier the tracer wraps
    path = tmp_path / "non-diagonal-g.prob"
    path.write_text(NON_DIAGONAL_G, encoding="utf-8")
    code, tracer = _traced_run("verify-lipschitz", str(path))  # an absolute path joins as itself
    assert code == 0
    assert tracer.missing == []
    assert tracer.counters["gate.calls"] == 1
    assert tracer.counters["gate.samples"] == 1000

"""The traced benchmark run still finds every perov entry point it wraps.

bench/tracer.py patches perov.cli, perov.solver, perov.contraction and
perov.metric by name and reads certificate fields. A refactor that renames
or removes one of them breaks the traced benchmark silently; this test
makes it fail here instead.
"""

import importlib.util
import pathlib

import pytest

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


# gate calls: solve-jungck runs the Lipschitz gate; solve-comparison runs the
# CLI's axiom check, the solver's axiom screen and condition C; each sampled
# check command runs its one check and iterates nothing
@pytest.mark.parametrize(
    ("command", "stem", "gate_calls"),
    [
        ("solve-jungck", "jungck-shift", 1),
        ("solve-comparison", "comparison-half", 3),
        ("check-metric", "comparison-2d", 1),
        ("check-comparison", "comparison-2d", 1),
        ("verify-condition-c", "comparison-2d", 1),
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

"""The traced benchmark run still finds every perov entry point it wraps.

bench/tracer.py patches perov.cli, perov.solver, perov.contraction and
perov.metric by name and reads certificate fields. A refactor that renames
or removes one of them breaks the traced benchmark silently; this test
makes it fail here instead.
"""

import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _load_tracer():
    spec = importlib.util.spec_from_file_location(
        "bench_tracer", ROOT / "bench" / "tracer.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_hooks_still_bind():
    import perov.cli

    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        code = perov.cli.run(
            ["solve-perov", str(ROOT / "problems" / "budget-exhaust.prob")]
        )
    finally:
        tracer.uninstall()
    assert code == 3
    assert tracer.missing == []
    assert tracer.counters["certify.calls"] == 1
    assert tracer.counters["certify.series_terms"] >= 1

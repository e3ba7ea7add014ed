"""Spans and counters around the perov layers, recorded from outside perov.

The Tracer replaces the layer entry points where perov.cli, perov.solver,
perov.contraction and perov.metric bind them, so the CLI calls the wrappers
without any change to perov itself. Each span is `[layer, start, end,
parent index]`, held in memory and handed out by `report` once the run is
over. Layers:

    cli        perov.cli.run (the root; its self time is argument handling
               and the glue between layers)
    cli.parse  parse_problem
    cli.emit   record emission (perov.cli._rec) and any other stdout write
    gate       the four sampled checks, including the comparison-axiom
               precheck inside comparison_solve
    certify    certify_contraction and linear_comparison
    iterate    perov_solve, jungck_solve, comparison_solve

Map and metric evaluations are counted, not spanned: a span per evaluation
would cost more than the evaluation. Their per-call times come from a
micro-loop over the case's own map and metric after the run.
"""

from __future__ import annotations

import statistics
import sys
import time
from collections import Counter

import perov.cli
import perov.contraction
import perov.metric
import perov.solver

_GATES = ("check_metric_axioms", "check_comparison_axioms", "verify_matrix_lipschitz", "verify_condition_c")
_SOLVERS = ("perov_solve", "jungck_solve", "comparison_solve")


def _violations(report) -> int:
    return sum(
        len(value)
        for name, value in vars(report).items()
        if name.endswith("violations") and isinstance(value, list)
    )


class _CountingStdout:
    """Stdout stand-in that counts bytes and records and spans writes made outside emit."""

    def __init__(self, tracer: "Tracer", stream):
        self._tracer = tracer
        self._stream = stream

    def write(self, text: str) -> int:
        counters = self._tracer.counters
        counters["cli.emit.bytes"] += len(text.encode())
        if text.startswith("#REC "):
            counters["cli.emit.records"] += 1
        if self._tracer.inside("cli.emit"):
            return self._stream.write(text)
        return self._tracer.call("cli.emit", self._stream.write, (text,), {})

    def __getattr__(self, name):
        return getattr(self._stream, name)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self._origin = time.perf_counter()

    def inside(self, layer: str) -> bool:
        return bool(self._stack) and self.spans[self._stack[-1]][0] == layer

    def call(self, layer: str, fn, args, kwargs, after=None):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = [layer, time.perf_counter() - self._origin, None, parent]
        self.spans.append(span)
        self._stack.append(index)
        failed = True
        try:
            result = fn(*args, **kwargs)
            failed = False
            return result
        finally:
            span[2] = time.perf_counter() - self._origin
            self._stack.pop()
            if after is not None:
                after(None if failed else result)

    def _patch(self, owner, name: str, replacement_for) -> None:
        original = getattr(owner, name, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{name}")
            return
        self._restore.append((owner, name, original))
        setattr(owner, name, replacement_for(original))

    def _span(self, owner, name: str, layer: str, after=None) -> None:
        def replacement_for(original):
            def wrapper(*args, **kwargs):
                return self.call(layer, original, args, kwargs, after)

            return wrapper

        self._patch(owner, name, replacement_for)

    def _count(self, owner, name: str, counter: str) -> None:
        def replacement_for(original):
            def wrapper(*args, **kwargs):
                self.counters[counter] += 1
                return original(*args, **kwargs)

            return wrapper

        self._patch(owner, name, replacement_for)

    def _after_gate(self, report) -> None:
        self.counters["gate.calls"] += 1
        if report is not None:
            self.counters["gate.samples"] += report.samples_tested
            self.counters["gate.violations"] += _violations(report)

    def _after_certify(self, cert) -> None:
        self.counters["certify.calls"] += 1
        if cert is None:
            self.counters["certify.refused"] += 1
        else:
            self.counters["certify.series_terms"] += cert.series_terms

    def _after_solve(self, result) -> None:
        if result is not None:
            self.counters["iterate.steps"] += result.trace.iterations

    def _after_parse(self, _) -> None:
        self.counters["cli.parse.calls"] += 1

    def install(self) -> None:
        cli = perov.cli
        self._span(cli, "run", "cli")
        self._span(cli, "parse_problem", "cli.parse", self._after_parse)
        self._span(cli, "_rec", "cli.emit")
        for name in _GATES:
            self._span(cli, name, "gate", self._after_gate)
        self._span(perov.solver, "check_comparison_axioms", "gate", self._after_gate)
        self._span(cli, "certify_contraction", "certify", self._after_certify)
        self._span(perov.contraction, "certify_contraction", "certify", self._after_certify)
        self._span(cli, "linear_comparison", "certify")
        for name in _SOLVERS:
            self._span(cli, name, "iterate", self._after_solve)
        self._count(perov.solver.MapSpec, "__call__", "map.evals")
        self._count(perov.metric, "metric_eval", "metric.evals")
        self._restore.append((sys, "stdout", sys.stdout))
        sys.stdout = _CountingStdout(self, sys.stdout)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def report(self, problem_path: str) -> dict:
        return {
            "spans": self.spans,
            "counters": dict(self.counters),
            "missing": self.missing,
            **_kernel_times(problem_path),
        }


def _per_call_us(fn, calls: int = 200, batches: int = 7) -> float:
    times = []
    for _ in range(batches):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        times.append((time.perf_counter() - start) / calls)
    return statistics.median(times) * 1e6


def _kernel_times(problem_path: str) -> dict:
    """Median per-call time of the case's own map f and metric at its start point."""
    try:
        pf = perov.cli.parse_problem(problem_path)
    except (perov.errors.UsageError, OSError):
        return {}
    metric = perov.metric.WeightedMatrixMetric(pf.weight)
    x = pf.x0
    y = pf.f(x)
    return {
        "map_us_per_eval": _per_call_us(lambda: pf.f(x)),
        "metric_us_per_eval": _per_call_us(lambda: metric(x, y)),
    }

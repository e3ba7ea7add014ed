"""Benchmark of the perov CLI as users run it.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; perov is imported from src/ without
installing it. Each sample is a fresh interpreter running the CLI on one
generated problem file, one process at a time (a closed loop with one
client). The cases of the workload are interleaved round-robin until
--seconds have passed, stopping at the round boundary nearest to it. Every invocation is
checked against the numpy oracle (oracle.py) and its #REC stream against
the case's other samples.

With --trace 0 the last line carries the end-to-end metrics; with --trace 1
every case also runs once per round under the tracer (tracer.py) and the last
line carries the per-layer metrics. Earlier lines are a readable report, and
the full report goes to .bench_build/perov-bench/. See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import aggregate
import oracle
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perov-bench"

SETUP_EVERY = 3  # one fresh `import perov.cli` before every third case of a round
SAMPLE_TIMEOUT_S = 60.0
RUN_LIMIT_S = 150.0  # no new round starts that could not end before this
TYPED_EXITS = (0, 2, 3, 64)
LAYERS = ("cli", "cli.parse", "cli.emit", "gate", "certify", "iterate")
PREDICTED_DOMINANT = {
    "shipped": {"gate"},
    "sampled-gates": {"gate"},
    "certify-hard": {"certify"},
    "long-iterate": {"iterate", "cli.emit"},
}


@dataclass
class CaseRun:
    case: workloads.Case
    path: Path
    expectation: oracle.Expectation
    samples: list[dict] = field(default_factory=list)
    traced: list[dict] = field(default_factory=list)
    hashes: set[str] = field(default_factory=set)
    verdicts: dict[str, str | None] = field(default_factory=dict)
    last_spans: list | None = None

    def ok_invocations(self) -> int:
        if len(self.hashes) > 1:
            return 0
        return sum(1 for s in self.samples if s["verdict"] is None)


# Interpreter switches that change how the CLI runs; the children run without
# them whatever the caller's environment. PYTHONUNBUFFERED would make every
# record its own write, PYTHONDONTWRITEBYTECODE would recompile perov on every
# start, and PYTHONPYCACHEPREFIX would write outside the checkout.
_CLEARED_ENV = (
    "PYTHONUNBUFFERED", "PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX", "PYTHONOPTIMIZE",
    "PYTHONDEVMODE", "PYTHONMALLOC", "PYTHONTRACEMALLOC", "PYTHONPROFILEIMPORTTIME", "PYTHONWARNINGS",
)


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in _CLEARED_ENV}
    # One BLAS thread. With OpenBLAS's default of one per CPU, `import numpy`
    # starts a worker thread that competes with the CLI whenever a shared
    # 2-vCPU host leaves the VM short of its second CPU; that swung numpy's
    # import between ~90 and ~165 ms in phases of minutes.
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _spawn(argv: list[str], env: dict, timeout: float) -> dict:
    """Run one child to completion, draining its stdout through a pipe."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=ROOT)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
    return {"wall_s": time.perf_counter() - start, "exit": proc.returncode, "stdout": out, "stderr": err}


def _calibration_ms(reps: int = 9) -> float:
    """Median time of a fixed pure-Python loop, to recognise a drifting host."""
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i
        times.append(time.perf_counter() - start)
    return aggregate.median(times) * 1e3


def _environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
        "calibration_ms": _calibration_ms(),
    }


def _prepare(workload: str, seed: int, run_dir: Path) -> tuple[list[CaseRun], str]:
    """Generate, regenerate and parse-check the workload's files; compute expectations."""
    cases = workloads.generate(workload, seed)
    again = workloads.generate(workload, seed)
    if [c.text for c in cases] != [c.text for c in again]:
        raise SystemExit("generator error: the same seed gave different problem files")
    import perov.cli  # only to check that every generated file parses

    digest = hashlib.sha256()
    runs = []
    for case in cases:
        path = run_dir / f"{case.id}.prob"
        path.write_text(case.text, encoding="utf-8")
        digest.update(case.text.encode())
        perov.cli.parse_problem(str(path))
        runs.append(CaseRun(case, path, oracle.expect(case.text, case.command, case.flags)))
    return runs, digest.hexdigest()


def _records(stdout: bytes) -> tuple[str, list[str]]:
    """Hash of the whole #REC stream, and its records other than iter lines."""
    recs = [line for line in stdout.split(b"\n") if line.startswith(b"#REC ")]
    digest = hashlib.sha256(b"\n".join(recs)).hexdigest()
    kept = [r.decode() for r in recs if not r.startswith(b"#REC kind=iter ")]
    return digest, kept


def _sample(run: CaseRun, traced: bool, env: dict, out_path: Path, timeout: float) -> dict:
    argv = [sys.executable, str(BENCH / "probe.py"), str(out_path), "1" if traced else "0", "--"]
    result = _spawn(argv + run.case.argv(str(run.path)), env, timeout)
    stdout, stderr = result.pop("stdout"), result.pop("stderr")
    probe = {}
    if out_path.exists():
        probe = json.loads(out_path.read_text(encoding="utf-8"))
        out_path.unlink()
    if result["exit"] not in TYPED_EXITS or "run_s" not in probe:
        tail = stderr.decode(errors="replace").strip().splitlines()[-1:] or ["(no stderr)"]
        result.update(failed=True, verdict=f"crashed: exit {result['exit']}: {tail[0]}")
        return result
    digest, records = _records(stdout)
    run.hashes.add(digest)
    if digest not in run.verdicts:
        run.verdicts[digest] = oracle.judge(run.expectation, result["exit"], records)
    result.update(failed=False, verdict=run.verdicts[digest], **probe)
    if traced:
        run.last_spans = result.pop("spans")
        result["self_s"] = aggregate.self_times(run.last_spans)
    return result


def _setup_sample(env: dict) -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import perov.cli"], env=env, cwd=ROOT, check=True)
    return time.perf_counter() - start


def _case_medians(samples: list[dict], key: str) -> float:
    return aggregate.median([s[key] for s in samples if key in s])


def _end_to_end(runs: list[CaseRun], setup: list[float]) -> dict:
    walls = [_case_medians(r.samples, "wall_s") for r in runs]
    times = [_case_medians(r.samples, "run_s") for r in runs]
    worst = [aggregate.interquartile_mean([s["run_s"] for s in r.samples if "run_s" in s]) for r in runs]
    rss = [_case_medians(r.samples, "peak_rss_mb") for r in runs]
    invocations = sum(len(r.samples) for r in runs)
    return {
        "setup_s": (aggregate.median(setup), "s"),
        "cli_wall_s": (aggregate.geomean(walls), "s"),
        "run_s": (aggregate.geomean(times), "s"),
        "worst_run_s": (max(worst), "s"),
        "peak_rss_mb": (max(rss), "MB"),
        "ok_frac": (sum(r.ok_invocations() for r in runs) / invocations, "ratio"),
    }


def _per_layer(runs: list[CaseRun]) -> dict:
    def case_median(r, pick):
        return aggregate.median([pick(s) for s in r.traced])

    def total(pick):
        return sum(case_median(r, pick) for r in runs)

    layer = {name: total(lambda s, n=name: s["self_s"].get(n, 0.0)) for name in LAYERS}
    count = {
        name: total(lambda s, n=name: s["counters"].get(n, 0))
        for name in (
            "cli.parse.calls", "cli.emit.records", "cli.emit.bytes", "gate.calls", "gate.samples",
            "gate.violations", "certify.calls", "certify.series_terms", "certify.refused",
            "iterate.steps", "map.evals", "metric.evals",
        )
    }
    traced_run = aggregate.geomean(case_median(r, lambda s: s["run_s"]) for r in runs)
    plain_run = aggregate.geomean(_case_medians(r.samples, "run_s") for r in runs)

    def per(numerator, denominator):
        return numerator / denominator * 1e6 if denominator else 0.0

    metrics = {
        "import.numpy_s": (aggregate.median([_case_medians(r.samples, "import_numpy_s") for r in runs]), "s"),
        "import.perov_s": (aggregate.median([_case_medians(r.samples, "import_perov_s") for r in runs]), "s"),
        "cli.self_s": (layer["cli"], "s"),
        "cli.parse.self_s": (layer["cli.parse"], "s"),
        "cli.parse.calls": (count["cli.parse.calls"], "count"),
        "cli.emit.self_s": (layer["cli.emit"], "s"),
        "cli.emit.records": (count["cli.emit.records"], "count"),
        "cli.emit.bytes": (count["cli.emit.bytes"], "bytes"),
        "gate.self_s": (layer["gate"], "s"),
        "gate.calls": (count["gate.calls"], "count"),
        "gate.samples": (count["gate.samples"], "count"),
        "gate.violations": (count["gate.violations"], "count"),
        "gate.us_per_sample": (per(layer["gate"], count["gate.samples"]), "us"),
        "certify.self_s": (layer["certify"], "s"),
        "certify.calls": (count["certify.calls"], "count"),
        "certify.series_terms": (count["certify.series_terms"], "count"),
        "certify.refused": (count["certify.refused"], "count"),
        "iterate.self_s": (layer["iterate"], "s"),
        "iterate.steps": (count["iterate.steps"], "count"),
        "iterate.us_per_step": (per(layer["iterate"], count["iterate.steps"]), "us"),
        "map.evals": (count["map.evals"], "count"),
        "map.us_per_eval": (aggregate.median([case_median(r, lambda s: s["map_us_per_eval"]) for r in runs]), "us"),
        "metric.evals": (count["metric.evals"], "count"),
        "metric.us_per_eval": (aggregate.median([case_median(r, lambda s: s["metric_us_per_eval"]) for r in runs]), "us"),
        "trace.overhead_s": (traced_run - plain_run, "s"),
    }
    return metrics


def _outcome(run: CaseRun, workload: str) -> str:
    bad = [s["verdict"] for s in run.samples if s["verdict"] is not None]
    if len(run.hashes) > 1:
        return "FAIL: #REC stream differs between samples"
    if not bad:
        return "ok"
    known = workloads.KNOWN_DEFECTS.get(f"{workload}/{run.case.id}")
    return f"FAIL: {bad[0]}" + (f" [known defect, {known.split(':')[0]}]" if known else "")


def _print_cases(runs: list[CaseRun], workload: str) -> None:
    print(f"{'case':24} {'command':19} {'n':>4} {'wall_s':>8} {'run_s':>8} {'rss_mb':>7}  outcome")
    for r in runs:
        tail = aggregate.tail_percentile([s["wall_s"] for s in r.samples])
        print(
            f"{r.case.id:24} {r.case.command:19} {len(r.samples):4d} "
            f"{_case_medians(r.samples, 'wall_s'):8.4f} {_case_medians(r.samples, 'run_s'):8.4f} "
            f"{_case_medians(r.samples, 'peak_rss_mb'):7.1f}  {_outcome(r, workload)}"
            + (f"  wall p{tail[0]} {tail[1]:.4f}" if tail else "")
        )


def _print_dominance(workload: str, metrics: dict) -> None:
    selfs = {name: metrics[f"{name}.self_s"][0] for name in LAYERS}
    ranked = sorted(selfs, key=selfs.get, reverse=True)
    total = sum(selfs.values())
    predicted = PREDICTED_DOMINANT[workload]
    top = ranked[: len(predicted)]
    verdict = "as predicted" if set(top) == predicted else f"NOT as predicted ({' + '.join(sorted(predicted))})"
    print("self time by layer: " + ", ".join(f"{n} {selfs[n] / total:.0%}" for n in ranked))
    print(f"dominant layer: {' + '.join(top)} -- {verdict}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "perov" / "cli.py").is_file():
        print(f"perov sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    began = time.perf_counter()
    env_before = _environment()
    run_dir = WORK / f"run-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        runs, digest = _prepare(args.workload, args.seed, run_dir)
        setup, rounds, measured = _loop(args, runs, run_dir, began)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    _summarise(args, runs, digest, setup, rounds, measured, env_before, _environment())
    return 0


def _loop(args, runs: list[CaseRun], run_dir: Path, began: float) -> tuple[list[float], int, float]:
    """Round-robin over the cases until --seconds; returns setup samples, rounds, seconds."""
    env = _child_env()
    _setup_sample(env)  # warm-up: writes the bytecode cache once
    setup = []
    out_path = run_dir / "probe.json"
    rounds = 0
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for index, run in enumerate(runs):
            if index % SETUP_EVERY == 0:
                setup.append(_setup_sample(env))
            timeout = min(SAMPLE_TIMEOUT_S, max(1.0, 170.0 - (time.perf_counter() - began)))
            for traced, samples in ((False, run.samples), (True, run.traced))[: 1 + args.trace]:
                sample = _sample(run, traced, env, out_path, timeout)
                sample["at_s"] = time.perf_counter() - start
                samples.append(sample)
        rounds += 1
        now = time.perf_counter()
        last_round = now - round_start
        # Stop at the round boundary nearest to --seconds, so that a run lasts
        # --seconds on average whatever the length of a round.
        if now - start + last_round / 2 >= args.seconds or now - began + last_round > RUN_LIMIT_S:
            return setup, rounds, now - start


def _summarise(args, runs, digest, setup, rounds, measured, env_before, env_after) -> None:
    """Print the report and the result line; write the full report and spans under WORK."""
    attempted = sum(len(r.samples) + len(r.traced) for r in runs)
    failed = sum(1 for r in runs for s in r.samples + r.traced if s["failed"])
    for r in runs:
        r.traced = [s for s in r.traced if not s["failed"]]
    timed = all(any(not s["failed"] for s in r.samples) and (r.traced or not args.trace) for r in runs)
    failing = [r for r in runs if r.ok_invocations() < len(r.samples)]
    unexpected = [r for r in failing if f"{args.workload}/{r.case.id}" not in workloads.KNOWN_DEFECTS]
    correct = timed and failed == 0 and not unexpected

    print(f"perov benchmark  workload={args.workload}  seed={args.seed}  seconds={args.seconds:g}  trace={args.trace}")
    print(
        f"environment: python {env_before['python']}  numpy {env_before['numpy']}  "
        f"nproc {env_before['nproc']} (affinity {env_before['affinity']})  "
        f"loadavg {env_before['loadavg'][0]:.2f} -> {env_after['loadavg'][0]:.2f}  "
        f"calibration {env_before['calibration_ms']:.2f} -> {env_after['calibration_ms']:.2f} ms"
    )
    print(
        f"generator: {len(runs)} files, sha256 {digest[:16]}, byte-identical when regenerated, "
        f"all parse with perov.cli.parse_problem"
    )
    print(
        f"loop: closed, 1 client, 1 process at a time; {rounds} rounds in {measured:.1f} s; "
        f"{attempted} invocations, {failed} failed to run"
    )
    _print_cases(runs, args.workload)

    metrics = {}
    if timed:
        invocations = sum(len(r.traced if args.trace else r.samples) for r in runs)
        if args.trace:
            metrics = _per_layer(runs)
            print(f"per-layer metrics from {invocations} traced invocations "
                  f"(*_s and counts: sums of per-case medians over {len(runs)} cases):")
        else:
            metrics = _end_to_end(runs, setup)
            print(f"end-to-end metrics ({len(runs)} cases x {rounds} rounds):")
        print(f"  {'metric':22} {'value':>14} {'unit':6} samples")
        for name, (value, unit) in metrics.items():
            count = len(setup) if name == "setup_s" else invocations
            print(f"  {name:22} {value:14.6g} {unit:6} {count}")
        if args.trace:
            _print_dominance(args.workload, metrics)
        else:
            print("  (setup_s: median of fresh `import perov.cli` runs; cli_wall_s, run_s: geometric mean "
                  "of per-case medians; worst_run_s: max of per-case interquartile means; "
                  "peak_rss_mb: max of per-case medians)")
    else:
        print("no metrics: some case has no sample that ran", file=sys.stderr)
    missing = sorted({name for r in runs for s in r.traced for name in s.get("missing", ())})
    if missing:
        print(f"not traced, entry points not found: {', '.join(missing)}")
    for r in failing:
        key = f"{args.workload}/{r.case.id}"
        print(f"failing case: {key}: {workloads.KNOWN_DEFECTS.get(key, 'UNEXPECTED')}")

    WORK.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report = {
        "args": vars(args),
        "environment": {"before": env_before, "after": env_after},
        "generator_sha256": digest,
        "rounds": rounds,
        "setup_samples": setup,
        "cases": {
            r.case.id: {"command": r.case.command, "samples": r.samples, "traced": r.traced,
                        "distinct_rec_streams": len(r.hashes)}
            for r in runs
        },
        "metrics": metrics,
        "correct": correct,
    }
    (WORK / f"report-{stem}.json").write_text(json.dumps(report, indent=1), encoding="utf-8")
    if args.trace:
        spans = {r.case.id: r.last_spans for r in runs}
        (WORK / f"spans-{stem}.json").write_text(json.dumps(spans), encoding="utf-8")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    sys.exit(main())

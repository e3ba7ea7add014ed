"""One fresh-process sample of the perov CLI.

    python3 bench/probe.py OUT TRACE -- COMMAND PROBLEM [FLAGS...]

Runs `perov/__main__.py` exactly as `python -m perov COMMAND PROBLEM FLAGS`
does, so stdout, stderr and the exit code are the CLI's own. Around it the
probe times `import numpy`, `import perov.cli` and the call of
`perov.cli.run` on their own, and writes those times as JSON to OUT once run
has returned. With TRACE=1 it first wraps the layer entry points (tracer.py),
and afterwards adds the spans, the layer counters and a micro-loop over the
case's own map and metric to OUT.
"""

import sys
import time


def _peak_rss_mb() -> float:
    """Peak resident set of this process since exec (VmHWM).

    getrusage and wait4 report ru_maxrss, which on Linux also covers the
    memory of the process that forked this one, so they would measure the
    benchmark runner rather than the CLI.
    """
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise OSError("no VmHWM line in /proc/self/status")


def main() -> None:
    out_path, traced = sys.argv[1], sys.argv[2] == "1"
    cli_argv = sys.argv[4:]
    t0 = time.perf_counter()
    import numpy  # noqa: F401  (timed on its own: it is most of the import)

    t1 = time.perf_counter()
    import perov.cli

    t2 = time.perf_counter()
    import runpy

    record = {"import_numpy_s": t1 - t0, "import_perov_s": t2 - t1}
    tracer = None
    if traced:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    inner = perov.cli.run

    def timed_run(argv=None):
        start = time.perf_counter()
        try:
            return inner(argv)
        finally:
            record["run_s"] = time.perf_counter() - start

    perov.cli.run = timed_run
    sys.argv = ["perov", *cli_argv]
    code = 0
    try:
        runpy.run_module("perov", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code
    finally:
        perov.cli.run = inner
        record["peak_rss_mb"] = _peak_rss_mb()
        if tracer is not None:
            tracer.uninstall()
            record.update(tracer.report(cli_argv[1]))
        import json

        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump(record, handle)
    sys.exit(code)


if __name__ == "__main__":
    main()

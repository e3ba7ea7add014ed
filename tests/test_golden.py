"""The `#REC` streams of the shipped commands and three sampled checks, byte for byte.

Criterion 10 only checks that two runs agree with each other; this test pins
the records themselves, so a refactor that changes any record fails here.
An intended change regenerates the transcripts with

    PYTHONPATH=src python3 tests/test_golden.py

and says in CHANGES.md which fields moved.
"""

import contextlib
import functools
import io
import pathlib

import pytest

from perov.cli import run
from test_acceptance import SHIPPED

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

# sampled checks that no shipped command runs on their own
SAMPLED = [
    ("problems/comparison-2d.prob", "check-metric", 0),
    ("problems/comparison-2d.prob", "check-comparison", 0),
    ("problems/comparison-2d.prob", "verify-condition-c", 0),
]


def _golden_path(rel: str, command: str) -> pathlib.Path:
    return GOLDEN / f"{pathlib.Path(rel).stem}.{command}.rec"


# The stdout lines that are not records, after `problem: <path>`: section
# headers and failure reasons. Every fact a run checks is printed once, as
# a record, so no other line may appear.
HUMAN_LINES = {
    "solve-perov": ["== hypothesis check ==", "== certificate (k) ==", "== iterations ==", "== result =="],
    "solve-jungck": ["== hypothesis check ==", "== certificate (k) ==", "== iterations ==", "== result =="],
    "solve-comparison": ["== comparison function ==", "== hypothesis check ==", "== iterations ==", "== result =="],
    "certify": ["== certificate (k) ==", "not certified: 1 - k is singular"],
    "verify-lipschitz": ["== hypothesis check =="],
    "check-metric": ["== metric axioms =="],
    "check-comparison": ["== comparison function ==", "== comparison axioms =="],
    "verify-condition-c": ["== comparison function ==", "== contraction condition =="],
}


@functools.cache
def _stdout(rel: str, command: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        run([command, str(ROOT / rel)])
    return out.getvalue()


def _records(rel: str, command: str) -> str:
    lines = [line for line in _stdout(rel, command).splitlines() if line.startswith("#REC ")]
    # the problem path is not part of any record, so transcripts do not
    # depend on where the checkout lives
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(("rel", "command", "expected_exit"), SHIPPED + SAMPLED)
def test_records_match_golden(rel, command, expected_exit):
    expected = _golden_path(rel, command).read_text(encoding="utf-8")
    actual = _records(rel, command)
    assert actual == expected
    assert actual.endswith(f"#REC kind=exit code={expected_exit}\n")


@pytest.mark.parametrize(("rel", "command", "expected_exit"), SHIPPED + SAMPLED)
def test_stdout_outside_records_is_path_headers_and_reasons(rel, command, expected_exit):
    lines = [line for line in _stdout(rel, command).splitlines() if not line.startswith("#REC ")]
    assert lines == [f"problem: {ROOT / rel}", *HUMAN_LINES[command]]


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for rel, command, _ in SHIPPED + SAMPLED:
        _golden_path(rel, command).write_text(_records(rel, command), encoding="utf-8")

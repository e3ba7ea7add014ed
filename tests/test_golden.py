"""The `#REC` streams of the shipped commands and three sampled checks, byte for byte.

Criterion 10 only checks that two runs agree with each other; this test pins
the records themselves, so a refactor that changes any record fails here.
An intended change regenerates the transcripts with

    PYTHONPATH=src python3 tests/test_golden.py

and says in CHANGES.md which fields moved.
"""

import contextlib
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


def _records(rel: str, command: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        run([command, str(ROOT / rel)])
    lines = [line for line in out.getvalue().splitlines() if line.startswith("#REC ")]
    # the problem path is not part of any record, so transcripts do not
    # depend on where the checkout lives
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(("rel", "command", "expected_exit"), SHIPPED + SAMPLED)
def test_records_match_golden(rel, command, expected_exit):
    expected = _golden_path(rel, command).read_text(encoding="utf-8")
    actual = _records(rel, command)
    assert actual == expected
    assert actual.endswith(f"#REC kind=exit code={expected_exit}\n")


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for rel, command, _ in SHIPPED + SAMPLED:
        _golden_path(rel, command).write_text(_records(rel, command), encoding="utf-8")

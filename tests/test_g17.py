"""perov._g17 renders exactly what '%.17g' prints, and long solves print the same records.

The iter records of a solve are rendered a chunk at a time; a partial last
chunk goes through the same kernel once a full one has loaded it, and
through the per-record template otherwise. These tests compare the kernel
with '%.17g' value by value, and the stdout of solves several chunks long
with the per-record rendering of the same steps.
"""

import contextlib
import io

import numpy as np
import pytest

import perov._g17 as g17
import perov.cli
from perov import EvaluationError
from perov.cli import _iter_writer, run


def rendered(values):
    values = np.asarray(values, dtype=np.float64).ravel()
    return g17.RowFormatter(len(values), [""])(values[:, None])


def expected(values):
    return ["%.17g\n" % v for v in np.asarray(values, dtype=np.float64).ravel().tolist()]


def samples():
    rng = np.random.default_rng(1817)
    count = 20_000
    powers = 10.0 ** np.arange(-30, 31)
    return {
        "uniform": rng.uniform(-1.0, 1.0, count),
        "log-uniform": rng.choice([-1.0, 1.0], count) * 10.0 ** rng.uniform(-40.0, 20.0, count),
        "random bits": rng.integers(0, 2**64, count, dtype=np.uint64).view(np.float64),
        "powers of ten": np.concatenate(
            [powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf), -powers]
        ),
        "dyadic": rng.integers(1, 2**20, count) / 2.0 ** rng.integers(0, 40, count),
        "integers": np.concatenate([np.arange(0.0, 2000.0), 10.0 ** rng.uniform(1.0, 17.0, 500).round()]),
        "special": np.array(
            [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e-310, 1e17, -1.5e17, 1e300,
             np.inf, -np.inf, np.nan, 9.9999999999999995e-08, 0.5, 12345.0, 0.1]
        ),
    }


@pytest.mark.parametrize("name", list(samples()))
def test_kernel_prints_what_percent_17g_prints(name):
    values = samples()[name]
    assert rendered(values) == expected(values)


def test_short_long_double_prints_every_value_through_percent_17g(monkeypatch):
    # where the long double has fewer than 64 mantissa bits nothing takes the product
    monkeypatch.setattr(g17, "_EXACT", False)
    values = np.concatenate(list(samples().values()))
    assert rendered(values) == expected(values)


def test_power_table_is_exact():
    assert g17._EXACT == (np.finfo(np.longdouble).nmant >= 63)
    if g17._EXACT:
        assert [p.as_integer_ratio() for p in g17._POWERS] == [(10**i, 1) for i in range(28)]


def test_rows_carry_their_prefixes():
    formatter = g17.RowFormatter(2, ["#REC n=", " y=", ","])
    table = np.array([[3.0, 0.25, -1e-7], [4.0, 1.0 / 3.0, 0.0]])
    assert formatter(table) == [
        "#REC n=3 y=0.25,-9.9999999999999995e-08\n",
        "#REC n=4 y=0.33333333333333331,0\n",
    ]


def test_a_partial_table_renders_its_rows_alone():
    # after a full table, a shorter one prints its own rows and nothing of the first
    formatter = g17.RowFormatter(5, ["#REC n=", " y=", ","])
    rng = np.random.default_rng(7)
    full = rng.uniform(-1e3, 1e3, (5, 3))
    full[:, 0] = np.arange(5)
    assert formatter(full) == ["#REC n=%.17g y=%.17g,%.17g\n" % tuple(row) for row in full.tolist()]
    part = np.array([[9.0, 1e-300, -0.0], [10.0, 2.0 / 3.0, 1e17]])
    assert formatter(part) == ["#REC n=%.17g y=%.17g,%.17g\n" % tuple(row) for row in part.tolist()]


def per_record(steps, n):
    """The records of steps as the per-record template prints them."""
    vec = ",".join(["%.17g"] * n)
    line = f"#REC kind=iter n=%d y={vec} dist={vec} bound={vec}\n"
    return [line % (j, *y.tolist(), *d.tolist(), *b.tolist()) for j, y, d, b in steps]


def chunk_rows(n):
    return -(-perov.cli._CHUNK_VALUES // (3 * n + 1))


LONG_PEROV = """\
# n = 16 self-map with rho 0.99 that needs 2,000-odd steps
n = 16
W = {W}
f.kind = affine
f.M = {M}
f.b = {b}
k = {k}
x0 = {x0}
eps = 1e-12
"""

LONG_JUNGCK = """\
# 1-d coincidence pair with ratio 0.992 that needs 3,000-odd steps
n = 1
W = 1
f.kind = affine
f.M = 0.992
f.b = 0.3
g.kind = affine
g.M = 1
g.b = 0.5
k = 0.992
x0 = 7
eps = 1e-12
"""


def mat(a):
    return "; ".join(", ".join(repr(float(x)) for x in row) for row in a)


def vec(v):
    return ", ".join(repr(float(x)) for x in v)


def long_perov_text():
    rng = np.random.default_rng(18)
    n = 16
    k = rng.uniform(0.1, 1.0, (n, n))
    k *= 0.99 / k.sum(axis=1, keepdims=True)
    m = 0.999 * k
    b = np.ones(n) - m @ np.ones(n)
    return LONG_PEROV.format(W=mat(np.eye(n) + k), M=mat(m), b=vec(b), k=mat(k), x0=vec(-rng.uniform(0, 9, n)))


@pytest.mark.parametrize(
    ("command", "text", "n"),
    [("solve-perov", long_perov_text(), 16), ("solve-jungck", LONG_JUNGCK, 1)],
    ids=["perov-n16", "jungck-n1"],
)
def test_long_solve_prints_the_per_record_bytes(tmp_path, monkeypatch, command, text, n):
    path = tmp_path / "long.prob"
    path.write_text(text, encoding="utf-8")
    steps = []
    real = perov.cli._iter_writer

    def recording(n):  # record the steps the solver hands over
        on_step, flush = real(n)

        def spy(j, y, dist, bound):
            steps.append((j, y.copy(), dist.copy(), bound.copy()))
            on_step(j, y, dist, bound)

        return spy, flush

    monkeypatch.setattr(perov.cli, "_iter_writer", recording)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run([command, str(path)]) == 0
    records = [line + "\n" for line in out.getvalue().splitlines() if line.startswith("#REC kind=iter ")]
    rows = chunk_rows(n)
    assert len(steps) > 3 * rows and len(steps) % rows, "several chunks and a partial one"
    assert records == per_record(steps, n)


class Writes(io.StringIO):
    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return super().write(text)


def test_failing_solve_prints_every_step_first(tmp_path, monkeypatch):
    # a stub solver hands over one and a half chunks of steps, then fails
    n = 2
    count = chunk_rows(n) * 3 // 2
    rng = np.random.default_rng(5)
    steps = [(j, rng.uniform(-1, 1, n), rng.uniform(0, 1e-3, n), rng.uniform(0, 1, n)) for j in range(count)]

    def failing(*args, on_step):
        for step in steps:
            on_step(*step)
        raise EvaluationError("map evaluation produced a non-finite value")

    monkeypatch.setattr(perov.cli, "perov_solve", failing)
    path = tmp_path / "case.prob"
    path.write_text(
        "n = 2\nW = 1, 0.5; 0.5, 1\nf.kind = affine\nf.M = 0.5, 0; 0, 0.5\nf.b = 1, 1\n"
        "k = 0.5, 0; 0, 0.5\nx0 = 0, 0\neps = 1e-9\n",
        encoding="utf-8",
    )
    out = Writes()
    with contextlib.redirect_stdout(out):
        assert run(["solve-perov", str(path)]) == 2
    writes = out.writes
    first = writes.index(per_record(steps, n)[0])
    assert writes[first : first + count] == per_record(steps, n)
    assert writes[first + count].startswith("evaluation failure: map evaluation")


def test_iter_writer_flushes_a_partial_chunk_through_the_template():
    n = 3
    steps = [(j, np.full(n, j / 7.0), np.full(n, 1e-13 * j), np.full(n, -0.0)) for j in range(5)]
    out = Writes()
    with contextlib.redirect_stdout(out):
        on_step, flush = _iter_writer(n)
        for step in steps:
            on_step(*step)
        assert out.writes == []
        flush()
    assert out.writes == per_record(steps, n)


def test_iter_writer_flushes_a_tail_through_the_loaded_kernel(monkeypatch):
    # once a full chunk has loaded the kernel, the partial last chunk goes
    # through it too, one write per record, byte for byte the template's text
    n = 2
    rows = chunk_rows(n)
    rng = np.random.default_rng(11)
    steps = [
        (j, rng.uniform(-1e6, 1e6, n), 10.0 ** rng.uniform(-300, 0, n), rng.uniform(0, 1, n))
        for j in range(rows + rows // 2)
    ]
    tables = []
    real = g17.RowFormatter

    class Counting(real):
        def __call__(self, values):
            tables.append(len(values))
            return super().__call__(values)

    monkeypatch.setattr(g17, "RowFormatter", Counting)
    out = Writes()
    with contextlib.redirect_stdout(out):
        on_step, flush = _iter_writer(n)
        for step in steps:
            on_step(*step)
        flush()
        flush()  # a second flush has nothing left to write
    assert tables == [rows, rows // 2]
    assert out.writes == per_record(steps, n)

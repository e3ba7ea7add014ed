"""perov._g17 renders exactly what '%d' and '%.17g' print, and long solves print the same records.

The iter records of a solve are rendered a chunk at a time, one write per
chunk; a partial last chunk goes through the same kernel once a full one has
loaded it, and through the per-record template otherwise. These tests
compare the kernel with '%.17g' value by value, on this host and with
numpy's SIMD dispatch off, check that only exact ties and values outside its
range leave its product for '%.17g' itself, check the product's tables,
compare the stdout of solves several chunks long with the per-record
rendering of the same steps, and pin the chunk sizes under the allocator's
and the pipe's thresholds.
"""

import contextlib
import io
import os
import pathlib
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

import perov._g17 as g17
import perov.cli
from perov import EvaluationError
from perov.cli import _iter_writer, run
from steps import per_step


def rendered(values):
    """The kernel's lines for values, one per row: the row's index, a space and the value."""
    values = np.asarray(values, dtype=np.float64).ravel()
    return g17.RowFormatter(len(values), "", [" "], 1)(0, values[:, None, None]).splitlines(keepends=True)


def expected(values):
    return ["%d %.17g\n" % (i, v) for i, v in enumerate(np.asarray(values, dtype=np.float64).ravel().tolist())]


def lines(x):
    return x.splitlines(keepends=True) if isinstance(x, str) else list(x)


def difference(got, want):
    """Where two texts or lists first differ: their lengths and the first differing line or item."""
    got, want = lines(got), lines(want)
    i = next((i for i, pair in enumerate(zip(got, want)) if pair[0] != pair[1]), min(len(got), len(want)))
    head = f"{len(got)} lines or items, {len(want)} expected; the first difference is at {i}"
    if i < min(len(got), len(want)) and all(isinstance(x[i], str) and x[i].count("\n") > 1 for x in (got, want)):
        return f"{head}: {difference(got[i], want[i])}"
    shown, wanted = (repr(x[i])[:2000] if i < len(x) else "nothing" for x in (got, want))
    return f"{head}: {shown} where {wanted} is expected"


def assert_same(got, want):
    """Assert got == want for two texts or lists, reporting only where they first differ.

    pytest reports a failed == between texts or lists of thousands of lines
    with a difflib diff, which can take minutes to build.
    """
    if got != want:
        raise AssertionError(difference(got, want))


def exact_t(x):
    """|x| 10^(16 - e) exactly, e the decimal exponent of x: its 17 significant digits and the rest."""
    return abs(Fraction(x)) * Fraction(10) ** (16 - Decimal(x).adjusted())


def is_tie(x):
    """Whether x's exact decimal has 18 significant digits, the last a 5."""
    return exact_t(x) % 1 == Fraction(1, 2)


def ties(rng):
    # m / 2^k with m odd has the exact decimal m 5^k / 10^k: 18 significant
    # digits ending in 5 when m 5^k has 18 digits, e.g. 2^-25 =
    # 2.98023223876953125e-08. Below 10 that needs k >= 17, and k <= 25 as
    # 5^26 has 19 digits
    candidates = [
        m / 2.0**k
        for k in range(17, 26)
        for m in (rng.integers(-(-(10**17) // 5**k) // 2, 10**18 // 5**k // 2, 40) * 2 + 1).tolist()
    ]
    found = [x for x in candidates if is_tie(x)]
    return np.array(found) * rng.choice([-1.0, 1.0], len(found))


def near_ties(rng):
    # values whose t has a fraction within 2^-6 of 1/2, but not 1/2
    values = 10.0 ** rng.uniform(-38.0, 1.0, 8_000)
    near = [x for x in values.tolist() if 0 < abs(exact_t(x) % 1 - Fraction(1, 2)) < Fraction(1, 64)]
    return np.array(near) * rng.choice([-1.0, 1.0], len(near))


def samples():
    rng = np.random.default_rng(1817)
    count = 20_000
    powers = 10.0 ** np.arange(-38, 31)
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
        "ties": ties(rng),
        "near ties": near_ties(rng),
    }


@pytest.mark.parametrize("name", list(samples()))
def test_kernel_prints_what_percent_17g_prints(name):
    values = samples()[name]
    assert_same(rendered(values), expected(values))


@pytest.fixture
def taken(monkeypatch):
    """The values the kernel hands to '%.17g' itself."""
    values = []
    real = g17._fallback

    def counting(batch):
        values.extend(batch)
        return real(batch)

    monkeypatch.setattr(g17, "_fallback", counting)
    return values


def test_the_tie_sets_hold_what_they_name():
    sets = samples()
    assert len(sets["ties"]) > 200 and all(map(is_tie, sets["ties"].tolist()))
    assert 2.0**-25 in np.abs(sets["ties"])
    assert len(sets["near ties"]) > 100 and not any(map(is_tie, sets["near ties"].tolist()))


def test_near_ties_take_the_product(taken):
    # t's fraction within 2^-6 of 1/2 is printed by the product, not '%.17g'
    values = samples()["near ties"]
    assert_same(rendered(values), expected(values))
    assert_same(taken, [])


def test_only_ties_and_values_outside_the_product_take_percent_17g(taken):
    # values shaped like a long solve's records: y in [-3, 3], dist and bound
    # log-uniform over [1e-13, 10). Every value of 10 or more goes to '%.17g',
    # and of those below 10 only exact ties
    rng = np.random.default_rng(23)
    y = rng.uniform(-3.0, 3.0, (2_000, 8))
    dist, bound = 10.0 ** rng.uniform(-13.0, 1.0, (2, 2_000, 8))
    wide = np.concatenate([np.arange(10.0, 100.0), 10.0 ** rng.uniform(1.0, 300.0, 1_910)])
    wide *= rng.choice([-1.0, 1.0], wide.size)
    table = np.hstack((y, dist, bound, wide.reshape(2_000, -1)))
    assert_same(
        g17.RowFormatter(len(table), "", [" "], table.shape[1])(0, table[:, None]),
        "".join("%d " % i + ",".join("%.17g" % x for x in row) + "\n" for i, row in enumerate(table.tolist())),
    )
    assert set(wide.tolist()) <= set(taken)
    assert_same([x for x in taken if 1e-38 <= abs(x) < 10 and not is_tie(x)], [])


def significant_bits(x):
    n = abs(Fraction(x)).numerator
    return (n // (n & -n)).bit_length() if n else 0


def test_power_tables_split_ten_to_the_p():
    for i, p in enumerate(g17._P):
        ph, hi, lo, pl = (float(table[i]) for table in (g17._PH, g17._PH_HI, g17._PH_LO, g17._PL))
        assert Fraction(hi) + Fraction(lo) == Fraction(ph), p
        assert significant_bits(hi) <= 26 and significant_bits(lo) <= 26, p
        assert (pl == 0) == (p <= 22), p
        assert abs(int(ph) + int(pl) - 10**p) * 2**100 <= 10**p, p


def test_kernel_prints_what_percent_17g_prints_without_simd_dispatch():
    # numpy's ufuncs pick a SIMD target by the CPU; with every target this
    # host has switched off, the kernel must still print '%.17g'
    umath = pytest.importorskip("numpy._core._multiarray_umath")
    targets = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
    if not targets:
        pytest.skip("numpy dispatches to no SIMD target on this host")
    here = pathlib.Path(__file__).resolve().parent
    script = (
        "import sys\n"
        "from numpy._core._multiarray_umath import __cpu_features__\n"
        "import test_g17\n"
        "print(*[t for t in sys.argv[1:] if __cpu_features__[t]])\n"
        "for name, values in test_g17.samples().items():\n"
        "    print(name, test_g17.rendered(values) == test_g17.expected(values))\n"
    )
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join([str(here.parent / "src"), str(here)]),
        "NPY_DISABLE_CPU_FEATURES": " ".join(targets),
    }
    proc = subprocess.run(
        [sys.executable, "-c", script, *targets], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [""] + [f"{name} True" for name in samples()]


def test_rows_carry_their_prefixes():
    formatter = g17.RowFormatter(2, "#REC n=", [" y=", " dist="], 2)
    table = np.array([[[0.25, -1e-7], [1.0, 2.0]], [[1.0 / 3.0, 0.0], [5e-5, 1e-300]]])
    assert formatter(3, table) == (
        "#REC n=3 y=0.25,-9.9999999999999995e-08 dist=1,2\n"
        "#REC n=4 y=0.33333333333333331,0 dist=5.0000000000000002e-05,1e-300\n"
    )


def test_a_partial_table_renders_its_rows_alone():
    # after a full table, a shorter one prints its own rows and nothing of the first
    formatter = g17.RowFormatter(5, "#REC n=", [" y="], 2)
    rng = np.random.default_rng(7)
    full = rng.uniform(-1e3, 1e3, (5, 1, 2))
    assert formatter(995, full) == "".join(
        "#REC n=%d y=%.17g,%.17g\n" % (995 + i, *row) for i, row in enumerate(full.reshape(5, 2).tolist())
    )
    part = np.array([[[1e-300, -0.0]], [[2.0 / 3.0, 1e17]]])
    assert formatter(9, part) == "".join(
        "#REC n=%d y=%.17g,%.17g\n" % (9 + i, *row) for i, row in enumerate(part.reshape(2, 2).tolist())
    )


@pytest.mark.parametrize("first", [0, 1, 9, 95, 99_990, 10**12 - 3, 2**63 - 8])
def test_the_index_prints_as_percent_d(first):
    # a chunk's indices may cross a power of ten; the largest is the largest int64
    formatter = g17.RowFormatter(8, "n=", [" "], 1)
    text = formatter(first, np.zeros((8, 1, 1)))
    assert text == "".join("n=%d 0\n" % (first + i) for i in range(8))


def per_record(steps, n):
    """The records of steps as the per-record template prints them."""
    vec = ",".join(["%.17g"] * n)
    line = f"#REC kind=iter n=%d y={vec} dist={vec} bound={vec}\n"
    return [line % (j, *y.tolist(), *d.tolist(), *b.tolist()) for j, y, d, b in steps]


class Writes(io.StringIO):
    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return super().write(text)


def chunk_rows(n):
    """The records of a chunk: the steps an iter writer takes before its first write."""
    out = Writes()
    with contextlib.redirect_stdout(out):
        on_step, _ = _iter_writer(n)
        rows = 0
        while not out.writes:
            on_step(rows, *np.zeros((3, 1, n)))
            rows += 1
    return rows


@pytest.mark.parametrize("n", range(1, 65))
def test_a_full_chunk_stays_below_the_mmap_threshold_and_the_pipe_buffer(n, monkeypatch):
    # the kernel's buffer, and so the text taken out of it for each chunk,
    # stays below glibc's 128 KiB mmap threshold: the heap serves it, and
    # it is not mapped and faulted in afresh for each chunk. The chunk's one
    # write stays below the 64 KiB pipe buffer, so it does not wait for the
    # reader. The longest records have 19-digit indices and values of 24
    # bytes, the most '%.17g' prints for a double
    worst = -2.2250738585072014e-308
    assert len("%.17g" % worst) == 24
    formatters = []

    class Keeping(g17.RowFormatter):
        def __init__(self, *args):
            super().__init__(*args)
            formatters.append(self)

    monkeypatch.setattr(g17, "RowFormatter", Keeping)
    out = Writes()
    with contextlib.redirect_stdout(out):
        on_step, _ = _iter_writer(n)
        rows = 0
        while not out.writes:
            on_step(10**18 + rows, *np.full((3, 1, n), worst))
            rows += 1
    [text] = out.writes
    assert_same(text, "".join(per_record([(10**18 + i, *np.full((3, n), worst)) for i in range(rows)], n)))
    assert len(text) < 64 * 1024
    [formatter] = formatters
    assert formatter._buf.nbytes < 128 * 1024


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
        record = per_step(lambda j, y, dist, bound: steps.append((j, y.copy(), dist.copy(), bound.copy())))

        def spy(j, ys, dists, bounds):
            record(j, ys, dists, bounds)
            on_step(j, ys, dists, bounds)

        return spy, flush

    monkeypatch.setattr(perov.cli, "_iter_writer", recording)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run([command, str(path)]) == 0
    records = [line + "\n" for line in out.getvalue().splitlines() if line.startswith("#REC kind=iter ")]
    rows = chunk_rows(n)
    assert len(steps) > 3 * rows and len(steps) % rows, "several chunks and a partial one"
    assert_same(records, per_record(steps, n))


def blocks(steps, sizes):
    """steps handed over as blocks of the given sizes, as the solver's on_step takes them."""
    start = 0
    for size in sizes:
        part = steps[start : start + size]
        yield part[0][0], *(np.array([step[k] for step in part]) for k in (1, 2, 3))
        start += size


def test_failing_solve_prints_every_step_first(tmp_path, monkeypatch):
    # a stub solver hands over one and a half chunks of steps in blocks of
    # up to 16, one of them across the chunk's end, then fails
    n = 2
    count = chunk_rows(n) * 3 // 2
    rng = np.random.default_rng(5)
    steps = [(j, rng.uniform(-1, 1, n), rng.uniform(0, 1e-3, n), rng.uniform(0, 1, n)) for j in range(count)]
    sizes = [1, 2, 4, 8] + [16] * ((count - 15) // 16) + [(count - 15) % 16]
    ends = np.cumsum(sizes)
    assert ends[-1] == count and chunk_rows(n) not in ends

    def failing(*args, on_step):
        for block in blocks(steps, sizes):
            on_step(*block)
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
    # the full chunk and the flushed rest, one write each, then the failure
    records = per_record(steps, n)
    writes = out.writes
    first = writes.index("".join(records[: chunk_rows(n)]))
    assert_same(writes[first : first + 2], ["".join(records[: chunk_rows(n)]), "".join(records[chunk_rows(n) :])])
    assert writes[first + 2].startswith("evaluation failure: map evaluation")


def test_iter_writer_flushes_a_partial_chunk_through_the_template():
    n = 3
    steps = [(j, np.full(n, j / 7.0), np.full(n, 1e-13 * j), np.full(n, -0.0)) for j in range(5)]
    out = Writes()
    with contextlib.redirect_stdout(out):
        on_step, flush = _iter_writer(n)
        for block in blocks(steps, [1, 2, 2]):
            on_step(*block)
        assert out.writes == []
        flush()
    assert out.writes == per_record(steps, n)


def test_iter_writer_flushes_a_tail_through_the_loaded_kernel(monkeypatch):
    # once a full chunk has loaded the kernel, the partial last chunk goes
    # through it too, one write per chunk, byte for byte the template's text
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
        def __call__(self, first, values):
            tables.append((first, len(values)))
            return super().__call__(first, values)

    monkeypatch.setattr(g17, "RowFormatter", Counting)
    out = Writes()
    with contextlib.redirect_stdout(out):
        on_step, flush = _iter_writer(n)
        for block in blocks(steps, [1] * len(steps)):
            on_step(*block)
        flush()
        flush()  # a second flush has nothing left to write
    assert tables == [(0, rows), (rows, rows // 2)]
    records = per_record(steps, n)
    assert_same(out.writes, ["".join(records[:rows]), "".join(records[rows:])])

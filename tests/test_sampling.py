import math
import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from perov import (
    UsageError,
    check_metric_axioms,
    cone_sampler,
    interior_sampler,
    uniform_sampler,
)
from perov.sampling import DRAW_LIMIT, _draw, _witnesses

ROOT = pathlib.Path(__file__).resolve().parent.parent

RANGES = [
    (uniform_sampler, -10.0, 10.0),
    (cone_sampler, 0.0, 10.0),
    (interior_sampler, 1e-3, 10.0),
]


@pytest.mark.parametrize(("factory", "low", "high"), RANGES)
@pytest.mark.parametrize("seed", [0, 2**32, 2**130 + 5])
def test_samplers_draw_the_default_rng_stream(factory, low, high, seed):
    # the public contract: split draws are one default_rng(seed) stream of
    # uniform(low, high, (count, n)) calls, for seeds of one to five words
    n = 1 + seed % 4
    draw = factory(n, seed=seed)
    rng = np.random.default_rng(seed)
    for count in [1, 3, 0, 64]:
        got = draw(count)
        want = rng.uniform(low, high, (count, n))
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), (seed, n, count)


def test_numpy_random_is_imported_on_the_first_draw():
    # making a sampler, or having one refused, imports nothing; only a fresh
    # interpreter shows it
    script = (
        "import sys\n"
        "from perov import UsageError, uniform_sampler\n"
        "draw = uniform_sampler(2, seed=0)\n"
        "try:\n"
        "    uniform_sampler(1, seed=-1)\n"
        "except UsageError:\n"
        "    pass\n"
        "print('numpy.random' in sys.modules)\n"
        "draw(1)\n"
        "print('numpy.random' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True"]


def test_numpy_integer_seeds_are_ints():
    a = uniform_sampler(2, seed=np.uint64(2**63 + 1))(50)
    assert np.array_equal(a, uniform_sampler(2, seed=2**63 + 1)(50))


@pytest.mark.parametrize("seed", [-1, 1.5, None, "3"])
def test_seed_must_be_a_nonnegative_int(seed):
    # seed=None would draw OS entropy, and a float seed has no stream
    with pytest.raises(UsageError, match="seed"):
        uniform_sampler(1, seed=seed)


def test_uniform_bounds_must_have_a_finite_width():
    with pytest.raises(UsageError, match="finite"):
        uniform_sampler(1, low=-1e308, high=1e308)


def test_cone_bound_must_be_finite():
    with pytest.raises(UsageError, match="finite"):
        cone_sampler(1, high=math.inf)


@pytest.mark.parametrize(
    ("make", "message"),
    [
        (lambda: uniform_sampler(0), "sampler dimension must be at least 1"),
        (lambda: uniform_sampler(1, low=1.0, high=1.0), "sampler bounds must satisfy low < high"),
        (lambda: cone_sampler(1, high=0.0), "cone sampler needs high > 0"),
        (lambda: interior_sampler(1, low=0.0), "interior sampler needs low > 0"),
        (lambda: _draw(uniform_sampler(1), 0, 2), "sample count must be at least 1"),
    ],
    ids=["dimension", "empty-range", "cone-high", "interior-low", "count"],
)
def test_sampler_refusals(make, message):
    with pytest.raises(UsageError) as info:
        make()
    assert str(info.value) == message


@pytest.mark.parametrize("count", [DRAW_LIMIT // 2 + 1, 10**12])
def test_a_draw_over_the_limit_is_refused_before_it_allocates(count):
    # a draw holds at most DRAW_LIMIT values, 2**24 as the CLI's help says;
    # a larger one is refused before any array is made, and draws nothing
    assert DRAW_LIMIT == 2**24
    draw = uniform_sampler(2, seed=7)
    tracemalloc.start()
    try:
        with pytest.raises(UsageError, match=f"exceeds the limit of {DRAW_LIMIT} values"):
            draw(count)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert np.array_equal(draw(3), np.random.default_rng(7).uniform(-10.0, 10.0, (3, 2)))


def test_uniform_sampler_range_and_shape():
    block = uniform_sampler(3, seed=0)(100)
    assert block.shape == (100, 3)
    assert np.all(block >= -10.0) and np.all(block <= 10.0)


def test_cone_sampler_stays_in_cone():
    assert np.all(cone_sampler(2, seed=1)(100) >= 0.0)


def test_interior_sampler_stays_interior():
    assert np.all(interior_sampler(2, seed=2)(100) > 0.0)


def test_same_seed_same_stream():
    a = uniform_sampler(4, seed=9)
    b = uniform_sampler(4, seed=9)
    assert np.array_equal(a(20), b(20))


def test_stream_does_not_depend_on_how_draws_are_split():
    # every sampled check draws all its samples in one call and relies on
    # this to reproduce the stream of one draw per point
    a = uniform_sampler(3, seed=5)
    b = uniform_sampler(3, seed=5)
    assert np.array_equal(a(6), np.vstack([b(2), b(4)]))


def test_different_seeds_differ():
    a = uniform_sampler(4, seed=1)
    b = uniform_sampler(4, seed=2)
    assert not np.array_equal(a(5), b(5))


def test_closures_own_their_state():
    # drawing from one sampler must not advance another
    a = uniform_sampler(2, seed=3)
    b = uniform_sampler(2, seed=3)
    first = a(1)
    b(10)
    c = uniform_sampler(2, seed=3)
    assert np.array_equal(c(1), first)


def test_witnesses_are_read_only_copies_of_the_flagged_rows():
    x = np.arange(6.0).reshape(3, 2)
    x[1, 0] = np.inf  # an unflagged row need not be finite
    d = np.array([[1, 2], [3, 4], [5, 6]])  # an integer stack becomes floats
    witnesses = _witnesses(np.array([True, False, True]), x, d)
    x[:] = -1.0
    d[:] = -1
    assert [[v.components.tolist() for v in w] for w in witnesses] == [
        [[0.0, 1.0], [1.0, 2.0]],
        [[4.0, 5.0], [5.0, 6.0]],
    ]
    for w in witnesses:
        for v in w:
            assert v.components.dtype == float
            assert not np.shares_memory(v.components, x)
            with pytest.raises(ValueError):
                v.components[0] = 7.0
            with pytest.raises(ValueError):
                v.components.flags.writeable = True


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_a_non_finite_flagged_row_is_refused(bad):
    x = np.arange(6.0).reshape(3, 2)
    y = x + 1.0
    y[2, 1] = bad
    with pytest.raises(UsageError, match="finite"):
        _witnesses(np.array([True, False, True]), x, y)
    assert len(_witnesses(np.array([True, True, False]), x, y)) == 2


def test_check_witnesses_outlive_the_candidates_stacks():
    # a candidate metric that hands out one buffer and overwrites it later
    buffers = []

    def reused(a, b):
        out = np.abs(a - b) * -1.0  # every sample violates d1's sign test
        buffers.append(out)
        return out

    report = check_metric_axioms(reused, uniform_sampler(2, seed=3), 5)
    first = [v.components.copy() for v in report.d1_violations[0]]
    for buf in buffers:
        buf[:] = 123.0
    assert all(
        np.array_equal(v.components, c) for v, c in zip(report.d1_violations[0], first)
    )
    assert not report.d1_violations[0][2].components.flags.writeable

import math

import numpy as np
import pytest

from perov import (
    UsageError,
    check_metric_axioms,
    cone_sampler,
    interior_sampler,
    uniform_sampler,
)
from perov.sampling import _LANE, _LANES, _witnesses

CHUNK = _LANE * _LANES  # draws generated at once

# seeds of one to six 32-bit words, with SeedSequence's word boundaries
REFERENCE_SEEDS = list(range(200)) + [
    2**32 - 1,
    2**32,
    2**64 + 9,
    2**130 + 5,
    0x9E3779B97F4A7C15F39CC0605CEDC834,
    0xB5AD4ECEDA1CE2A9_1C8A2B3F_0E6D5A47_5F3C2E1D_77AA0123,
    314159265358979323846264338327950288419716939937510,
]

RANGES = [
    (uniform_sampler, -10.0, 10.0),
    (cone_sampler, 0.0, 10.0),
    (interior_sampler, 1e-3, 10.0),
]


def _assert_matches_default_rng(factory, low, high, seed, n, counts):
    # numpy.random is the reference here only: perov never imports it
    draw = factory(n, seed=seed)
    rng = np.random.default_rng(seed)
    for count in counts:
        got = draw(count)
        want = rng.uniform(low, high, (count, n))
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), (seed, n, count)


@pytest.mark.parametrize(("factory", "low", "high"), RANGES)
def test_samplers_reproduce_default_rng_bit_for_bit(factory, low, high):
    # split calls that cross lane boundaries (_LANE draws) on every seed
    for seed in REFERENCE_SEEDS:
        n = 1 + seed % 4
        _assert_matches_default_rng(factory, low, high, seed, n, [1, 3, 64, 200, 0, 7])


@pytest.mark.parametrize(("factory", "low", "high"), RANGES)
def test_samplers_reproduce_default_rng_across_chunks(factory, low, high):
    for seed in REFERENCE_SEEDS[::25] + REFERENCE_SEEDS[200:]:
        n = 1 + seed % 4
        below, above = (CHUNK - 1) // n, CHUNK // n + 1
        _assert_matches_default_rng(factory, low, high, seed, n, [below])
        _assert_matches_default_rng(factory, low, high, seed, n, [CHUNK // n])
        _assert_matches_default_rng(factory, low, high, seed, n, [above, 5, below, 2 * above])


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

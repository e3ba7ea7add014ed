import numpy as np
import pytest

from perov import check_metric_axioms, cone_sampler, interior_sampler, uniform_sampler
from perov.sampling import _witnesses


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
            with pytest.raises(ValueError):
                v.components[0] = 7.0


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

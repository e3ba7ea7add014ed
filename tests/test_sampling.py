import numpy as np

from perov import cone_sampler, interior_sampler, uniform_sampler


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

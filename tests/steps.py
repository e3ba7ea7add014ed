"""The per-step view of a solver's block on_step, shared by the tests."""


def per_step(fn):
    """An on_step that splits each block into its steps: fn(j, y, dist, bound) per row, in order.

    A block is on_step(j, ys, dists, bounds) with three (rows, n) arrays for
    steps j .. j + rows - 1; fn gets each step's rows as 1-d arrays.
    """

    def on_step(j, ys, dists, bounds):
        assert ys.ndim == 2 and len(ys) > 0 and ys.shape == dists.shape == bounds.shape
        for i, (y, dist, bound) in enumerate(zip(ys, dists, bounds)):
            fn(j + i, y, dist, bound)

    return on_step

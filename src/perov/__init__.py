"""Fixed points and coincidence points under matrix-weighted vector metrics.

The package works over R^n ordered by the nonnegative orthant. Distances
are vector valued: d(x, y) = W |x - y| for a strictly positive weight
matrix W. On top of that sit contraction certificates for nonnegative
matrices (one linear solve for (I - k)^-1 and its residual, and a
Collatz-Wielandt upper bound on the spectral radius),
successive-approximation solvers with componentwise a-priori error
bounds, coincidence-point iteration for pairs of maps, and
comparison-function generalizations of the linear contraction condition.

Every solver hands its steps, with their a-priori error bounds, to an
on_step callback a checked block of steps at a time, so the bounds can be
audited during the run; the result keeps only the end status and the step
count. Every
sampled hypothesis check reports the witnesses it found rather than a
bare verdict.

Each module's __all__ is the one list of its public names; the package's
are those of the six modules imported below.
"""

from . import contraction, errors, metric, ordered_algebra, sampling, solver
from .contraction import *  # noqa: F403
from .errors import *  # noqa: F403
from .metric import *  # noqa: F403
from .ordered_algebra import *  # noqa: F403
from .sampling import *  # noqa: F403
from .solver import *  # noqa: F403

__version__ = "0.1.0"

_MODULES = (contraction, errors, metric, ordered_algebra, sampling, solver)
__all__ = [*sorted({name for module in _MODULES for name in module.__all__}), "__version__"]

"""Adaptive 2D finite elements with separate marking of error and data.

The package bundles a newest-vertex-bisection mesh engine, triangle
quadrature with a data-oscillation functional, greedy data
approximation, Doerfler marking, two Poisson discretizations (mixed
fluxes and div least squares) with a posteriori indicators, the
adaptive driver loops, and an empirical harness for the convergence
properties the loops rely on.  The package exports the ``__all__`` of
each module below.
"""

from . import axioms, driver, edges, ls_fem, marking, mesh, mixed_fem, quadrature
from .axioms import *  # noqa: F403
from .driver import *  # noqa: F403
from .edges import *  # noqa: F403
from .ls_fem import *  # noqa: F403
from .marking import *  # noqa: F403
from .mesh import *  # noqa: F403
from .mixed_fem import *  # noqa: F403
from .quadrature import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    name
    for module in (axioms, driver, edges, ls_fem, marking, mesh, mixed_fem, quadrature)
    for name in module.__all__
] + ["__version__"]

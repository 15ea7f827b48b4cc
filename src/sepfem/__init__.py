"""Adaptive 2D finite elements with separate marking of error and data.

The package bundles a newest-vertex-bisection mesh engine, triangle
quadrature with a data-oscillation functional, greedy data
approximation, Doerfler marking, two Poisson discretizations (mixed
fluxes and div least squares) with a posteriori indicators, the
adaptive driver loops, and an empirical harness for the convergence
properties the loops rely on.
"""

from .axioms import (
    AxiomReport,
    check_A4_telescope,
    check_A12,
    check_B1_rate,
    check_B2,
    check_QM,
    check_rlinear,
    random_hierarchy,
)
from .driver import (
    CSV_HEADER,
    DataApproximationProblem,
    LevelRecord,
    RateFit,
    RunResult,
    SafemParams,
    cafem_run,
    fit_rate,
    safem_run,
    uniform_run,
    write_csv,
)
from .edges import Connectivity, prolong_p1, prolong_rt0
from .ls_fem import (
    LeastSquaresPoisson,
    LsSolution,
    assemble_ls,
    delta_ls,
    eta_ls,
    ls_functional,
    solve_ls,
)
from .marking import (
    ApproxState,
    ElementOscillation,
    IndicatorField,
    WeightedDataSize,
    approx,
    doerfler_select,
    tilde_mu_children,
)
from .mesh import (
    BisectionForest,
    MeshError,
    Triangulation,
    complete_partition,
    initial_mesh,
    l_shape,
    read_mesh,
    unit_square_criss,
    write_mesh,
)
from .mixed_fem import (
    MixedPoisson,
    MixedSolution,
    SolverError,
    delta_mixed,
    eta_mixed,
    solve_mixed,
)
from .quadrature import (
    QuadratureRule,
    ScalarField,
    element_means,
    field_from_name,
    integrate,
    integrate_many,
    mu2_elements,
    triangle_rule,
)

__version__ = "0.1.0"

__all__ = [
    "AxiomReport",
    "check_A4_telescope",
    "check_A12",
    "check_B1_rate",
    "check_B2",
    "check_QM",
    "check_rlinear",
    "random_hierarchy",
    "CSV_HEADER",
    "DataApproximationProblem",
    "LevelRecord",
    "RateFit",
    "RunResult",
    "SafemParams",
    "cafem_run",
    "fit_rate",
    "safem_run",
    "uniform_run",
    "write_csv",
    "Connectivity",
    "prolong_p1",
    "prolong_rt0",
    "LeastSquaresPoisson",
    "LsSolution",
    "assemble_ls",
    "delta_ls",
    "eta_ls",
    "ls_functional",
    "solve_ls",
    "ApproxState",
    "ElementOscillation",
    "IndicatorField",
    "WeightedDataSize",
    "approx",
    "doerfler_select",
    "tilde_mu_children",
    "BisectionForest",
    "MeshError",
    "Triangulation",
    "complete_partition",
    "initial_mesh",
    "l_shape",
    "read_mesh",
    "unit_square_criss",
    "write_mesh",
    "MixedPoisson",
    "MixedSolution",
    "SolverError",
    "delta_mixed",
    "eta_mixed",
    "solve_mixed",
    "QuadratureRule",
    "ScalarField",
    "element_means",
    "field_from_name",
    "integrate",
    "integrate_many",
    "mu2_elements",
    "triangle_rule",
    "__version__",
]

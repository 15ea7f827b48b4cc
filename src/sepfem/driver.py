"""Adaptive refinement loops with separate and collective marking.

A problem instance bundles five operations over a triangulation: solve,
the squared error indicators eta (per element), the squared data
indicators mu (per element), a squared distance delta between the
solutions on two nested meshes, and a dict of diagnostic extras.  A
problem that keeps something from one solve for the next (the mixed one
keeps its last factor) may also define release(), which drops it.  The
driver runs one of three loops on top of that interface:

* safem_run: separate marking.  On each level either the data term is
  small (mu2 <= kappa * eta2, case A) and a bulk of the error
  indicators is marked, or the data term dominates (case B) and the
  mesh is overlaid with an approximation mesh driven to a fraction
  rho_b of the current data term; the problem is released first.
* cafem_run: collective marking on the combined per-element indicator
  eta2 + mu2.
* uniform_run: every element is bisected twice per level.

All three record one LevelRecord per level and stop at a sigma
tolerance, an element budget, or sigma = 0.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field as dataclass_field
from pathlib import Path

import numpy as np

from .marking import ApproxState, IndicatorField, WeightedDataSize, doerfler_select
from .mesh import Triangulation
from .quadrature import _areas, integrate_many

__all__ = [
    "SafemParams",
    "LevelRecord",
    "RunResult",
    "safem_run",
    "cafem_run",
    "uniform_run",
    "fit_rate",
    "write_csv",
    "CSV_HEADER",
    "DataApproximationProblem",
]

CSV_HEADER = "level,N,case,eta2,mu2,sigma2,delta2,marked,seconds"


@dataclass
class SafemParams:
    """Knobs of the adaptive loops, with the documented defaults."""

    theta_a: float = 0.3
    kappa: float = 1.0
    rho_b: float = 0.5
    sigma_tol: float = 1e-6
    max_elements: int = 200_000

    def __post_init__(self):
        if not 0.0 < self.theta_a <= 1.0:
            raise ValueError(f"theta_a must be in (0, 1], got {self.theta_a}")
        # written so that NaN fails every check
        if not self.kappa > 0.0:
            raise ValueError(f"kappa must be positive, got {self.kappa}")
        if not 0.0 < self.rho_b < 1.0:
            raise ValueError(f"rho_b must be in (0, 1), got {self.rho_b}")
        if not self.sigma_tol >= 0.0:
            raise ValueError(f"sigma_tol must be nonnegative, got {self.sigma_tol}")
        if not self.max_elements >= 1:
            raise ValueError(f"max_elements must be at least 1, got {self.max_elements}")


@dataclass
class LevelRecord:
    """One row of the per-level log.

    N counts elements added since the initial mesh.  delta2 is the
    squared distance to the *next* level's solution, back-filled once
    that solve exists; the final record keeps nan.  marked counts the
    Doerfler-selected elements in marking steps and the added elements
    in overlay steps.
    """

    level: int
    N: int
    case: str
    eta2: float
    mu2: float
    sigma2: float
    delta2: float = float("nan")
    marked: int = 0
    seconds: float = 0.0
    extra: dict = dataclass_field(default_factory=dict)


@dataclass
class RunResult:
    records: list
    meshes: list
    solutions: list
    stop_reason: str

    @property
    def final_sigma(self) -> float:
        return math.sqrt(self.records[-1].sigma2)

    def fitted_rate(self) -> float:
        return fit_rate(self.records)


def fit_rate(records) -> float:
    """Least-squares decay rate of sigma against mesh growth.

    Fits log sigma_l = c - s * log(1 + N_l) over all records with
    sigma > 0 and returns s.  Fewer than four usable records is an
    error.
    """
    pts = [(r.N, math.sqrt(r.sigma2)) for r in records if r.sigma2 > 0.0]
    if len(pts) < 4:
        raise ValueError("rate fit needs at least 4 records with sigma > 0")
    n = np.array([p[0] for p in pts], dtype=float)
    sig = np.array([p[1] for p in pts])
    slope = np.polyfit(np.log1p(n), np.log(sig), 1)[0]
    return -float(slope)


def write_csv(records, path) -> None:
    """Write the level log; floats use the shortest round-trip form."""
    lines = [CSV_HEADER]
    for r in records:
        lines.append(
            ",".join(
                (
                    str(r.level),
                    str(r.N),
                    r.case,
                    repr(float(r.eta2)),
                    repr(float(r.mu2)),
                    repr(float(r.sigma2)),
                    repr(float(r.delta2)),
                    str(r.marked),
                    repr(float(r.seconds)),
                )
            )
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def _stop_reason(sigma2, T, params) -> str | None:
    if sigma2 == 0.0:
        return "sigma-zero"
    if math.sqrt(sigma2) <= params.sigma_tol:
        return "tolerance"
    if T.n_elements >= params.max_elements:
        return "element-cap"
    return None


def _run_loop(problem, T0, params, advance) -> RunResult:
    """Shared solve / estimate / log / stop / advance loop.

    ``advance(T, eta2, mu2, record)`` performs the marking and
    refinement for one level, sets record.case and record.marked, and
    returns the next mesh.  An exception leaving a level gets that
    level as its ``level`` attribute unless it names one already.
    """
    params = SafemParams() if params is None else params
    records: list[LevelRecord] = []
    meshes = [T0]
    solutions = []
    T = T0
    level = 0
    try:
        while True:
            tic = time.perf_counter()
            sol = problem.solve(T)
            eta2 = problem.eta(T, sol)
            mu2 = problem.mu(T)
            if not np.array_equal(eta2.ids, mu2.ids):
                raise ValueError("eta and mu indicators disagree on element ids")
            rec = LevelRecord(
                level=level,
                N=T.n_elements - T0.n_elements,
                case="-",
                eta2=eta2.total,
                mu2=mu2.total,
                sigma2=eta2.total + mu2.total,
                extra=problem.extras(T, sol),
            )
            if solutions:
                records[-1].delta2 = problem.delta(meshes[-2], T, solutions[-1], sol)
            records.append(rec)
            solutions.append(sol)
            reason = _stop_reason(rec.sigma2, T, params)
            if reason is not None:
                rec.seconds = time.perf_counter() - tic
                return RunResult(records, meshes, solutions, reason)
            T_next = advance(T, eta2, mu2, rec)
            # the level is finished once it is refined: it keeps its
            # leaves and its solution's coefficients, and its tables are
            # derived again if anything reads them later
            if T_next is not T:
                T.release()
            rec.seconds = time.perf_counter() - tic
            T = T_next
            meshes.append(T)
            level += 1
    except Exception as err:
        if getattr(err, "level", None) is None:
            err.level = level
        raise


def safem_run(problem, T0: Triangulation, params: SafemParams | None = None) -> RunResult:
    """Separate-marking adaptive loop."""
    params = SafemParams() if params is None else params
    approx = None

    def advance(T, eta2, mu2, rec):
        nonlocal approx
        if mu2.total <= params.kappa * eta2.total:
            rec.case = "A"
            marked = doerfler_select(params.theta_a, eta2)
            rec.marked = len(marked)
            return T.refine(marked)
        rec.case = "B"
        # APPROX and the overlay build tables of their own, so what the
        # problem keeps for its next solve is dropped first
        release = getattr(problem, "release", None)
        if release is not None:
            release()
        if approx is None:
            approx = ApproxState(T0, problem.oscillation)
        tol = params.rho_b * mu2.total
        # mu under the 7-point rule is not monotone on rough data (f of
        # degree > 2, such as checkerboard:5), so the approximation mesh
        # can lie inside T and the overlay add nothing; force progress
        # by halving the approximation tolerance, up to 120 times.
        for _ in range(121):
            T_next = T.overlay(approx.run(tol))
            if T_next.n_elements > T.n_elements:
                rec.marked = T_next.n_elements - T.n_elements
                return T_next
            if tol <= 0.0:
                break
            tol *= 0.5
        raise RuntimeError("case B made no progress at the smallest tolerance")

    return _run_loop(problem, T0, params, advance)


def cafem_run(problem, T0: Triangulation, params: SafemParams | None = None) -> RunResult:
    """Collective-marking adaptive loop on the combined indicator."""
    params = SafemParams() if params is None else params

    def advance(T, eta2, mu2, rec):
        rec.case = "C"
        combined = IndicatorField(eta2.ids, eta2.values + mu2.values)
        marked = doerfler_select(params.theta_a, combined)
        rec.marked = len(marked)
        return T.refine(marked)

    return _run_loop(problem, T0, params, advance)


def uniform_run(problem, T0: Triangulation, params: SafemParams | None = None) -> RunResult:
    """Uniform refinement: two bisection sweeps (one mesh-size halving) per level."""

    def advance(T, eta2, mu2, rec):
        rec.case = "U"
        rec.marked = T.n_elements
        return T.uniform_refine().uniform_refine()

    return _run_loop(problem, T0, params, advance)


class DataApproximationProblem:
    """Pure data approximation dressed up as a problem instance.

    There is no PDE: solve returns None and mu vanishes, so every
    marking decision is driven by the collective indicator
    eta(K) = |K| * ||f||_L2(K), and safem_run never leaves case A.  The
    distance between nested meshes is ||(w - w_hat) f||_L2 with the
    elementwise mesh-size weight w = |K|, the same weight that appears
    in eta.
    """

    kind = "data"

    def __init__(self, data_field):
        self.field = data_field
        self.size = WeightedDataSize(data_field)

    def solve(self, T: Triangulation):
        return None

    def eta(self, T: Triangulation, sol) -> IndicatorField:
        return self.size.mesh_values2(T)

    def mu(self, T: Triangulation) -> IndicatorField:
        return IndicatorField(T.leaf_ids, np.zeros(T.n_elements))

    def delta(self, Tc: Triangulation, Tf: Triangulation, sol_c, sol_f) -> float:
        rows = Tf.coarse_rows(Tc)
        if np.any(rows < 0):
            raise ValueError("delta requires the second mesh to refine the first")
        # the coarse areas from the forest, not from Tc's released tables
        w_coarse = _areas(Tc.forest.node_coords(Tc.leaf_ids[rows]))
        w_fine = Tf.areas()
        f = self.field
        l2sq = integrate_many(lambda x, y: f(x, y) ** 2, Tf.tri_coords())
        return float(np.sum((w_coarse - w_fine) ** 2 * l2sq))

    def extras(self, T: Triangulation, sol) -> dict:
        return {}

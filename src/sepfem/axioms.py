"""Empirical certificates for the estimator properties behind the loops.

Each check fits or verifies one testable consequence on concrete data
(a refinement hierarchy or the per-level records of a run) and returns
an AxiomReport carrying a pass flag plus the witness values: worst
ratios, fitted constants, and the exact pair behind a failure.  The
constants are searched for, never assumed, so a report certifies the
property on that data and nothing more.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .marking import ApproxState, ElementOscillation
from .mesh import Triangulation, unit_square_criss

__all__ = [
    "AxiomReport",
    "check_B2",
    "check_QM",
    "check_A12",
    "check_rlinear",
    "check_A4_telescope",
    "check_B1_rate",
    "random_hierarchy",
]

A12_LAMBDA_GRID = np.concatenate(([0.0], np.logspace(-2.0, 4.0, 25)))
# fixed thresholds of the checks; each check's docstring states its value
_MONOTONE_RTOL = 1e-9  # B2, and QM for least squares
_QM_RATIO_BOUND = 10.0
_RLINEAR_Q_MAX = 0.999
_TELESCOPE_RTOL = 1e-8
_B1_SLOPE_SLACK = 0.05
_RANDOM_FRACTION = 0.25  # share of the elements random_hierarchy marks per level


@dataclass
class AxiomReport:
    name: str
    passed: bool
    witness: dict = dataclass_field(default_factory=dict)
    pairs: int = 0

    def __str__(self):
        status = "pass" if self.passed else "FAIL"
        parts = [f"{self.name}: {status} pairs={self.pairs}"]
        for key in sorted(self.witness):
            val = self.witness[key]
            if isinstance(val, (list, tuple, np.ndarray)):
                continue
            if isinstance(val, float):
                parts.append(f"{key}={val:.6g}")
            else:
                parts.append(f"{key}={val}")
        return " ".join(parts)

    def items(self):
        """Flat (key, value) pairs for machine-readable output."""
        out = [(f"{self.name}.pass", int(self.passed)), (f"{self.name}.pairs", self.pairs)]
        for key in sorted(self.witness):
            val = self.witness[key]
            if isinstance(val, (list, tuple, np.ndarray)):
                val = ";".join(repr(float(v)) for v in val)
            out.append((f"{self.name}.{key}", val))
        return out


def _mu_totals(problem, meshes):
    return [math.sqrt(problem.mu(T).total) for T in meshes]


def _worst_ratio(values):
    """Largest ``values[j] / values[i]`` over the pairs i < j, from 0.0.

    A zero followed by a zero counts as ratio 1, a zero followed by a
    positive value as inf.  Returns the ratio, the first pair ``"i->j"``
    attaining it (None when no ratio exceeds 0.0) and the pair count.
    """
    worst, worst_pair = 0.0, None
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            if values[i] == 0.0:
                ratio = 1.0 if values[j] == 0.0 else math.inf
            else:
                ratio = values[j] / values[i]
            if ratio > worst:
                worst, worst_pair = ratio, f"{i}->{j}"
    return worst, worst_pair, len(values) * (len(values) - 1) // 2


def check_B2(problem, meshes) -> AxiomReport:
    """Monotonicity of the data term: mu never grows under refinement.

    Verifies mu(T_j) <= mu(T_i) * (1 + 1e-9) for every i < j in the
    hierarchy (the unsquared totals).  mu is the oscillation under the
    7-point rule, which is monotone only when the rule integrates
    (f - f_K)^2 exactly (f of degree <= 2); rough data can fail this
    check with a correct program.
    """
    mus = _mu_totals(problem, meshes)
    worst, worst_pair, pairs = _worst_ratio(mus)
    passed = worst <= 1.0 + _MONOTONE_RTOL
    witness = {"worst_ratio": worst, "mu_first": mus[0], "mu_last": mus[-1]}
    if worst_pair is not None:
        witness["worst_pair"] = worst_pair
    return AxiomReport("B2", passed, witness, pairs)


def check_QM(problem, meshes, solutions=None) -> AxiomReport:
    """Quasimonotonicity of the total estimator along a hierarchy.

    For the least-squares problem the minimized functional itself must
    be monotone to a relative 1e-9 on every nested pair, which is the
    exact form of the property; the sigma ratio is reported alongside.
    For other problems the check records the worst
    sigma(fine)/sigma(coarse) and passes while it stays below 10.
    """
    if solutions is None:
        solutions = [problem.solve(T) for T in meshes]
    sigmas = []
    for T, sol in zip(meshes, solutions):
        sigmas.append(math.sqrt(problem.eta(T, sol).total + problem.mu(T).total))
    worst, worst_pair, pairs = _worst_ratio(sigmas)
    witness = {"worst_sigma_ratio": worst}
    if worst_pair is not None:
        witness["worst_pair"] = worst_pair
    if getattr(problem, "kind", None) == "ls":
        worst_ls, _, _ = _worst_ratio([sol.ls_total for sol in solutions])
        witness["worst_ls_ratio"] = worst_ls
        passed = worst_ls <= 1.0 + _MONOTONE_RTOL
    else:
        passed = worst <= _QM_RATIO_BOUND
        witness["ratio_bound"] = _QM_RATIO_BOUND
    return AxiomReport("QM", passed, witness, pairs)


def _consecutive(records):
    """(sigma2_l, sigma2_{l+1}, delta2_l) triples with the back-filled delta."""
    out = []
    for a, b in zip(records[:-1], records[1:]):
        d = a.delta2
        if math.isnan(d):
            raise ValueError(f"record {a.level} is missing its distance to the next level")
        out.append((a.sigma2, b.sigma2, d))
    return out


def check_A12(records) -> AxiomReport:
    """Estimator contraction up to the distance term.

    For each Lambda on ``A12_LAMBDA_GRID`` (0, then 10^-2 to 10^4 with
    four values per decade) the smallest admissible rho is the worst
    ratio (sigma2_{l+1} - Lambda * delta2_l) / sigma2_l over the levels
    (clamped at zero).  The reported certificate is the smallest
    Lambda whose rho stays below one; the check fails if no grid value
    works, with the least-bad pair as witness.
    """
    triples = _consecutive(records)
    if not triples:
        raise ValueError("need at least two records")

    def worst(lam):
        rho, level = -math.inf, -1
        for k, (s0, s1, d) in enumerate(triples):
            if s0 == 0.0:
                r = 0.0 if s1 <= lam * d else math.inf
            else:
                r = (s1 - lam * d) / s0
            if r > rho:
                rho, level = r, k
        return rho, level

    fits = [(lam, *worst(lam)) for lam in A12_LAMBDA_GRID]
    certs = [f for f in fits if f[1] < 1.0]
    if certs:
        lam, rho, level = certs[0]
        passed = True
    else:
        lam, rho, level = min(fits, key=lambda f: f[1])
        passed = False
    witness = {"rho": max(rho, 0.0), "Lambda": float(lam), "worst_level": level}
    return AxiomReport("A12", passed, witness, len(triples))


def check_rlinear(records) -> AxiomReport:
    """R-linear decay of sigma2: sigma2_{l+m} <= C * q^m * sigma2_l.

    q is fitted by regression of log sigma2 on the level index and C is
    the smallest constant making the bound hold on every pair; the
    check passes for q <= 0.999 and a finite C.
    """
    sig2 = [r.sigma2 for r in records]
    if len(sig2) < 3:
        raise ValueError("need at least three records to fit a decay factor")
    if any(s <= 0.0 for s in sig2[:-1]):
        raise ValueError("sigma must be positive before the final level")
    usable = sig2 if sig2[-1] > 0.0 else sig2[:-1]
    slope = np.polyfit(np.arange(len(usable)), np.log(usable), 1)[0]
    q = float(np.exp(slope))
    C = 0.0
    pairs = 0
    worst_pair = None
    for i in range(len(usable)):
        for j in range(i + 1, len(usable)):
            pairs += 1
            c = usable[j] / (q ** (j - i) * usable[i])
            if c > C:
                C = c
                worst_pair = (i, j)
    passed = q <= _RLINEAR_Q_MAX and math.isfinite(C)
    witness = {"q": q, "C": C}
    if worst_pair is not None:
        witness["worst_pair"] = f"{worst_pair[0]}->{worst_pair[1]}"
    return AxiomReport("Rlinear", passed, witness, pairs)


def check_A4_telescope(records) -> AxiomReport:
    """Summability of the squared distances against the functional drop.

    For the least-squares problem the distances telescope exactly:
    sum of delta2 equals LS(first) - LS(last) up to the clamping noise
    (a relative 1e-8), and every tail sum is bounded by the functional
    at its start.
    """
    try:
        totals = [r.extra["ls_total"] for r in records]
    except KeyError:
        raise ValueError("records do not carry ls totals") from None
    deltas = [r.delta2 for r in records[:-1]]
    if any(math.isnan(d) for d in deltas):
        raise ValueError("records are missing back-filled distances")
    lhs = math.fsum(deltas)
    rhs = totals[0] - totals[-1]
    scale = abs(totals[0]) if totals[0] != 0.0 else 1.0
    mismatch = abs(lhs - rhs)
    tail_ok = True
    c_max = 0.0
    for l in range(len(records) - 1):
        tail = math.fsum(deltas[l:])
        if tail > totals[l] * (1.0 + _TELESCOPE_RTOL) + 1e-300:
            tail_ok = False
        if records[l].sigma2 > 0.0:
            c_max = max(c_max, tail / records[l].sigma2)
    passed = mismatch <= _TELESCOPE_RTOL * scale and tail_ok
    witness = {
        "telescope_mismatch": mismatch,
        "ls_first": totals[0],
        "ls_last": totals[-1],
        "delta2_sum": lhs,
        "C_max": c_max,
    }
    return AxiomReport("A4", passed, witness, len(deltas))


def check_B1_rate(f, tols, T0: Triangulation | None = None) -> AxiomReport:
    """Rate certificate for the greedy data approximation.

    Runs one persistent approximation state through the decreasing
    tolerances, asserts the achieved value stays below each tolerance,
    and fits the growth slope beta in |T| - |T0| ~ tol^(-beta).  The
    oracle is uniform refinement measured by the same functional: its
    decay slope gamma gives the growth slope 1/gamma a uniform strategy
    would need, and the check passes when beta <= 1/gamma + 0.05.
    """
    T0 = unit_square_criss() if T0 is None else T0
    values = ElementOscillation(f)
    tols = sorted((float(t) for t in tols), reverse=True)
    if len(tols) < 4:
        raise ValueError("need at least four tolerances to fit a slope")
    if tols[-1] <= 0.0:
        raise ValueError("tolerances must be positive")
    state = ApproxState(T0, values)
    growth, achieved = [], []
    cert_ok = True
    for tol in tols:
        T = state.run(tol)
        m2 = values.mesh_values2(T).total
        growth.append(T.n_elements - T0.n_elements)
        achieved.append(m2)
        if m2 > tol:
            cert_ok = False
    x = -np.log(tols)
    beta = float(np.polyfit(x, np.log1p(growth), 1)[0])

    # Uniform oracle: single bisection sweeps measured by the same values,
    # one past the sweep that reaches the greedy's largest mesh.
    target = max(growth) + T0.n_elements
    uniform_levels = max(6, int(math.ceil(math.log2(max(target, 2) / T0.n_elements))) + 1)
    T = T0
    u_n, u_m2 = [], []
    for _ in range(uniform_levels + 1):
        u_n.append(T.n_elements - T0.n_elements)
        u_m2.append(values.mesh_values2(T).total)
        T = T.uniform_refine()
    u_pts = [(n, m) for n, m in zip(u_n, u_m2) if m > 0.0]
    if len(u_pts) >= 4:
        gamma = -float(np.polyfit(
            np.log1p([p[0] for p in u_pts]), np.log([p[1] for p in u_pts]), 1)[0])
        beta_uniform = math.inf if gamma <= 0.0 else 1.0 / gamma
    else:
        gamma = math.inf
        beta_uniform = 0.0 if all(m == 0.0 for m in u_m2) else math.inf
    if all(g == 0 for g in growth):
        # nothing to approximate: zero growth is optimal by definition
        passed = cert_ok
        beta = 0.0
    else:
        passed = cert_ok and beta <= beta_uniform + _B1_SLOPE_SLACK
    witness = {
        "beta": beta,
        "beta_uniform": beta_uniform,
        "uniform_decay": gamma,
        "certificate": int(cert_ok),
        "s": math.inf if beta == 0.0 else 1.0 / (2.0 * beta),
        "N": growth,
        "mu2": achieved,
        "uniform_N": [p[0] for p in u_pts],
        "uniform_mu2": [p[1] for p in u_pts],
    }
    return AxiomReport("B1", passed, witness, len(tols))


def random_hierarchy(T0: Triangulation, levels: int, seed: int = 0) -> list:
    """Nested meshes from repeated random marking, reproducible by seed.

    Each level marks every element with probability 1/4, and at least one.
    """
    if levels < 1:
        raise ValueError("levels must be at least 1")
    rng = np.random.default_rng(seed)
    meshes = [T0]
    for _ in range(levels):
        T = meshes[-1]
        pick = rng.random(T.n_elements) < _RANDOM_FRACTION
        if not pick.any():
            pick[rng.integers(T.n_elements)] = True
        meshes.append(T.refine(T.leaf_ids[pick]))
    return meshes

"""End-to-end acceptance checks, one test per criterion.

Each test records a PASS/FAIL line printed in the terminal summary.
The expensive adaptive runs are shared module-scoped fixtures.
"""

import math
import time

import mpmath
import numpy as np
import pytest

from conftest import record
from sepfem import (
    DataApproximationProblem,
    MixedPoisson,
    SafemParams,
    check_A4_telescope,
    check_A12,
    check_B1_rate,
    check_B2,
    check_rlinear,
    doerfler_select,
    field_from_name,
    fit_rate,
    cafem_run,
    l_shape,
    random_hierarchy,
    safem_run,
    tilde_mu_children,
    uniform_run,
    unit_square_criss,
)
from sepfem.ls_fem import LeastSquaresPoisson
from sepfem.marking import ApproxState, IndicatorField, WeightedDataSize
from sepfem.quadrature import integrate_many

pytestmark = pytest.mark.acceptance

CAP = 200_000


@pytest.fixture(scope="module")
def mixed_run():
    t0 = time.perf_counter()
    res = safem_run(
        MixedPoisson(field_from_name("one")),
        l_shape(),
        SafemParams(theta_a=0.3, kappa=1.0, rho_b=0.5,
                    sigma_tol=0.0, max_elements=CAP),
    )
    return res, time.perf_counter() - t0


@pytest.fixture(scope="module")
def ls_run():
    t0 = time.perf_counter()
    res = safem_run(
        LeastSquaresPoisson(field_from_name("one")),
        l_shape(),
        SafemParams(theta_a=0.5, kappa=1.0, rho_b=0.5,
                    sigma_tol=0.0, max_elements=CAP),
    )
    return res, time.perf_counter() - t0


@pytest.fixture(scope="module")
def uniform_mixed_run():
    t0 = time.perf_counter()
    res = uniform_run(
        MixedPoisson(field_from_name("one")),
        l_shape(),
        SafemParams(sigma_tol=0.0, max_elements=CAP),
    )
    return res, time.perf_counter() - t0


def test_criterion_1_certificates_on_live_runs(mixed_run, ls_run, acceptance_log):
    parts = []
    ok = True
    for label, (res, seconds) in (("mixed", mixed_run), ("ls", ls_run)):
        a12 = check_A12(res.records)
        rlin = check_rlinear(res.records)
        levels = len(res.records)
        run_ok = (
            a12.passed
            and rlin.passed
            and a12.witness["rho"] < 1.0
            and rlin.witness["q"] < 1.0
            and levels >= 12
            and seconds <= 60.0
            and res.stop_reason == "element-cap"
        )
        part = (
            f"{label}: levels={levels} rho={a12.witness['rho']:.3f} "
            f"q={rlin.witness['q']:.3f}"
        )
        if label == "ls":
            # the run criteria 2 and 3 read too; its conjugate gradients
            # take few iterations on every level
            most_cg = max(r.extra["cg_iterations"] for r in res.records)
            run_ok = run_ok and most_cg <= 20
            part += f" max_cg={most_cg}"
        ok = ok and run_ok
        parts.append(f"{part} {seconds:.1f}s")
    record(acceptance_log, 1, "axiom certificates on live runs", ok, "; ".join(parts))


def test_criterion_2_data_and_total_monotonicity(ls_run, acceptance_log):
    pairs = 0
    worst = 0.0
    ok = True
    # the monotonicity is exact only when the quadrature integrates the
    # data exactly, so the randomized pairs use polynomial fields; the
    # variety comes from domains, seeds, and refinement depths
    cases = [
        (l_shape, "linear-x", 3, 6),
        (l_shape, "linear-x", 7, 6),
        (l_shape, "linear-x", 11, 7),
        (l_shape, "linear-x", 31, 6),
        (unit_square_criss, "linear-x", 19, 6),
        (unit_square_criss, "linear-x", 23, 7),
        (unit_square_criss, "linear-x", 37, 6),
        (unit_square_criss, "linear-x", 43, 6),
        (l_shape, "one", 41, 6),
        (unit_square_criss, "one", 29, 6),
    ]
    for domain, field_name, seed, levels in cases:
        problem = MixedPoisson(field_from_name(field_name))
        meshes = random_hierarchy(domain(), levels, seed=seed)
        rep = check_B2(problem, meshes)
        pairs += rep.pairs
        worst = max(worst, rep.witness["worst_ratio"])
        ok = ok and rep.passed

    recs = ls_run[0].records
    ls_ok = all(
        b.extra["ls_total"] <= a.extra["ls_total"] * (1.0 + 1e-9)
        for a, b in zip(recs[:-1], recs[1:])
    )
    ok = ok and ls_ok and pairs >= 200
    record(
        acceptance_log, 2, "data term and LS total monotone", ok,
        f"pairs={pairs} worst_mu_ratio={worst:.12f} ls_pairs_monotone={ls_ok}",
    )


def test_criterion_3_telescope_identity(ls_run, acceptance_log):
    recs = ls_run[0].records
    rep = check_A4_telescope(recs)
    delta_sum = math.fsum(r.delta2 for r in recs[:-1])
    drop = recs[0].extra["ls_total"] - recs[-1].extra["ls_total"]
    mismatch = abs(delta_sum - drop)
    ok = rep.passed and mismatch <= 1e-8 * recs[0].extra["ls_total"]
    record(
        acceptance_log, 3, "LS distance telescope", ok,
        f"levels={len(recs)} mismatch={mismatch:.3e} "
        f"bound={1e-8 * recs[0].extra['ls_total']:.3e}",
    )


def test_criterion_4_adaptive_beats_uniform_rate(
    mixed_run, uniform_mixed_run, acceptance_log
):
    adaptive, t_a = mixed_run
    uniform, t_u = uniform_mixed_run
    s_adaptive = adaptive.fitted_rate()
    s_uniform = uniform.fitted_rate()
    seconds = t_a + t_u
    ok = 0.43 <= s_adaptive <= 0.57 and s_uniform <= 0.40 and seconds <= 300.0
    record(
        acceptance_log, 4, "quasioptimal adaptive rate", ok,
        f"adaptive_s={s_adaptive:.4f} uniform_s={s_uniform:.4f} {seconds:.1f}s",
    )


def test_criterion_5_greedy_approximation_near_optimal(acceptance_log):
    f = field_from_name("radial-alpha:0.6")
    tols = [0.03 / 4.0**k for k in range(6)]
    rep = check_B1_rate(f, tols)
    w = rep.witness
    certified = all(m <= t for m, t in zip(w["mu2"], sorted(tols, reverse=True)))
    ok = (
        rep.passed
        and certified
        and w["certificate"] == 1
        and w["beta"] <= w["beta_uniform"] + 0.05
    )
    record(
        acceptance_log, 5, "greedy data approximation near optimal", ok,
        f"beta={w['beta']:.3f} uniform_beta={w['beta_uniform']:.3f} "
        f"largest_N={max(w['N'])}",
    )


def test_criterion_6_constraint_identities(mixed_run, ls_run, acceptance_log):
    # div p_h = -f_K on every element, each gap relative to the
    # magnitudes of the divergence's terms sum_i d_i |E_i|
    res, _ = mixed_run
    worst_div = 0.0
    for sol in res.solutions:
        conn = sol.conn
        terms = conn.elem_edge_lengths * conn.local_flux_dofs(sol.p)
        gap = np.abs(terms.sum(axis=1) + integrate_many(field_from_name("one"), conn.pts))
        worst_div = max(worst_div, float(np.max(gap / np.abs(terms).sum(axis=1))))
    div_ok = worst_div <= 1e-13

    ls_res, _ = ls_run
    worst_res = max(sol.residual for sol in ls_res.solutions)
    res_ok = worst_res <= 1e-9
    ok = div_ok and res_ok
    record(
        acceptance_log, 6, "discrete constraint identities", ok,
        f"max_divergence_gap={worst_div:.2e} max_ls_residual={worst_res:.2e}",
    )


def _exhaustive_min_bulk(values, theta):
    """Minimum bulk-set size by full subset enumeration (n <= 15)."""
    n = len(values)
    masks = (np.arange(1 << n)[:, np.newaxis] >> np.arange(n)) & 1
    sums = masks @ values
    hits = sums >= theta * values.sum()
    return int(masks.sum(axis=1)[hits].min())


def test_criterion_7_marking_oracles(acceptance_log):
    rng = np.random.default_rng(2024)
    mismatches = 0
    for _ in range(1000):
        n = int(rng.integers(1, 16))
        # dyadic rationals keep every subset sum exact, so the greedy and
        # the exhaustive search compare against identical floats
        denom = float(rng.choice([8.0, 16.0]))
        values = rng.integers(0, 32, size=n) / denom
        if rng.random() < 0.02:
            values = np.zeros(n)
        theta = float(rng.uniform(0.05, 1.0))
        ids = rng.choice(10_000, size=n, replace=False)
        field = IndicatorField(ids, values)
        marked = doerfler_select(theta, field)
        marked_sum = math.fsum(field.values[np.isin(field.ids, marked)].tolist())
        if values.sum() > 0.0 and marked_sum < theta * values.sum():
            mismatches += 1
        if len(marked) != _exhaustive_min_bulk(values, theta) and values.sum() > 0.0:
            mismatches += 1
        if values.sum() == 0.0 and len(marked) != 0:
            mismatches += 1
    greedy_ok = mismatches == 0

    mpmath.mp.dps = 50
    worst = 0.0
    for _ in range(1000):
        mu_p, tilde_p, c1, c2 = rng.uniform(0.0, 10.0, size=4)
        got = float(tilde_mu_children(mu_p, tilde_p, c1, c2))
        den = mpmath.mpf(mu_p) + mpmath.mpf(tilde_p)
        want = float(mpmath.mpf(tilde_p) * (mpmath.mpf(c1) + mpmath.mpf(c2)) / den)
        worst = max(worst, abs(got - want) / max(1.0, abs(want)))
    tilde_ok = worst <= 1e-14
    ok = greedy_ok and tilde_ok
    record(
        acceptance_log, 7, "marking oracles", ok,
        f"greedy_mismatches={mismatches}/1000 tilde_worst={worst:.2e}",
    )


def test_criterion_8_mesh_engine_fuzz(acceptance_log):
    rng = np.random.default_rng(77)
    T0 = unit_square_criss()
    area0 = T0.area()
    quarter_pi = math.pi / 4.0
    chains = [T0, T0]
    ops = 0
    failures = []
    max_seen = 0
    while ops < 10_000 and not failures:
        ops += 1
        if ops % 20 == 0:
            ov = chains[0].overlay(chains[1])
            bound_ok = (
                ov.n_elements + T0.n_elements
                <= chains[0].n_elements + chains[1].n_elements
            )
            if not bound_ok:
                failures.append(f"op {ops}: overlay cardinality bound")
            T = ov
        else:
            which = int(rng.integers(2))
            T = chains[which]
            k = int(rng.integers(1, 4))
            marks = rng.choice(T.leaf_ids, size=min(k, T.n_elements), replace=False)
            T = T.refine(marks)
            chains[which] = T
        max_seen = max(max_seen, T.n_elements)
        if not T.is_conforming():
            failures.append(f"op {ops}: non-conforming")
        if abs(T.area() - area0) > 1e-12:
            failures.append(f"op {ops}: area drift {T.area() - area0:.2e}")
        if abs(T.min_angle() - quarter_pi) > 1e-12:
            failures.append(f"op {ops}: min angle {T.min_angle():.12f}")
        if max(c.n_elements for c in chains) > 1500:
            chains = [T0, T0]
    ok = not failures and ops >= 10_000
    record(
        acceptance_log, 8, "mesh engine fuzz", ok,
        failures[0] if failures else f"ops={ops} largest_mesh={max_seen}",
    )


def test_criterion_9_collective_marking_matches_greedy(acceptance_log):
    f = field_from_name("radial-alpha:0.6")
    T0 = unit_square_criss()
    values = WeightedDataSize(f)
    state = ApproxState(T0, values)
    pts = []
    for tol in [1e-3 / 4.0**k for k in range(7)]:
        T = state.run(tol)
        pts.append((T.n_elements - T0.n_elements, values.mesh_values2(T).total))
    n = np.asarray([p[0] for p in pts], dtype=float)
    m2 = np.asarray([p[1] for p in pts])
    s_greedy = -0.5 * float(np.polyfit(np.log1p(n), np.log(m2), 1)[0])

    res = cafem_run(
        DataApproximationProblem(f), T0,
        SafemParams(theta_a=0.3, sigma_tol=0.0, max_elements=60_000),
    )
    s_cafem = fit_rate(res.records)
    gap = abs(s_cafem - s_greedy)
    ok = gap <= 0.05
    record(
        acceptance_log, 9, "collective marking is rate optimal on data", ok,
        f"cafem_s={s_cafem:.4f} greedy_s={s_greedy:.4f} gap={gap:.4f}",
    )


def test_criterion_10_separate_marking_at_scale(acceptance_log):
    # singular data make the loop take case B (the greedy data
    # approximation to rho_B mu^2) on about half of its levels
    params = SafemParams(theta_a=0.3, kappa=0.1, rho_b=0.5, sigma_tol=0.0, max_elements=CAP)
    t0 = time.perf_counter()
    res = safem_run(MixedPoisson(field_from_name("radial-alpha:0.6")), l_shape(), params)
    seconds = time.perf_counter() - t0
    recs = res.records
    cases = "".join(r.case for r in recs)
    a12 = check_A12(recs)
    rlin = check_rlinear(recs)
    # the first levels sit before the asymptotic regime, as in criterion 4
    rate = fit_rate([r for r in recs if r.N > 2000])
    decreased = all(
        b.mu2 <= params.rho_b * a.mu2 for a, b in zip(recs[:-1], recs[1:]) if a.case == "B"
    )
    ok = (
        cases.count("B") >= 5
        and a12.passed
        and rlin.passed
        and a12.witness["rho"] < 1.0
        and rlin.witness["q"] < 1.0
        and res.stop_reason == "element-cap"
        and seconds <= 60.0
        and 0.43 <= rate <= 0.57
        and decreased
    )
    record(
        acceptance_log, 10, "separate marking at scale", ok,
        f"cases={cases} rho={a12.witness['rho']:.3f} q={rlin.witness['q']:.3f} "
        f"rate_s={rate:.4f} mu2_decrease={decreased} {seconds:.1f}s",
    )


def test_criterion_11_least_squares_separate_marking_at_scale(acceptance_log):
    # least squares on singular data through case B: its smallest elements
    # reach areas near 1e-16, where the RT0 mass of the divergence-free
    # fluxes is lost next to (div, div) in any factor of the whole
    # system; the tree basis keeps the two apart.  Measured: 28 levels,
    # 10 of them case B, at most 6 iterations and a worst residual of
    # 5.8e-12
    params = SafemParams(theta_a=0.5, kappa=0.1, rho_b=0.5, sigma_tol=0.0, max_elements=CAP)
    t0 = time.perf_counter()
    res = safem_run(LeastSquaresPoisson(field_from_name("radial-alpha:0.6")), l_shape(), params)
    seconds = time.perf_counter() - t0
    recs = res.records
    cases = "".join(r.case for r in recs)
    a12 = check_A12(recs)
    worst_res = max(r.extra["solver_residual"] for r in recs)
    most_cg = max(r.extra["cg_iterations"] for r in recs)
    ok = (
        res.stop_reason == "element-cap"
        and 24 <= len(recs) <= 32
        and cases.count("B") >= 1
        and a12.passed
        and a12.witness["rho"] < 1.0
        and worst_res <= 1e-10
        and most_cg <= 20
        and seconds <= 60.0
    )
    record(
        acceptance_log, 11, "least-squares separate marking at scale", ok,
        f"levels={len(recs)} cases={cases} rho={a12.witness['rho']:.3f} "
        f"max_residual={worst_res:.2e} max_cg={most_cg} {seconds:.1f}s",
    )

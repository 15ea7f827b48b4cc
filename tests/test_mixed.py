"""Mixed flux discretization tests.

The solver oracle is a dense from-scratch assembly in this module: basis
functions, mass and coupling blocks are rebuilt with plain loops and the
saddle system is solved densely, then compared coefficient by
coefficient against the sparse path.
"""

import math

import numpy as np
import pytest

from sepfem import (
    Connectivity,
    MixedPoisson,
    delta_mixed,
    eta_mixed,
    field_from_name,
    initial_mesh,
    l_shape,
    solve_mixed,
    triangle_rule,
    unit_square_criss,
)
from sepfem.mixed_fem import _saddle_residual

ETA2_SQUARE_CONST = 0.07975889843221229
ETA2_LSHAPE_CONST = 0.840767435801184
PNORM2_SQUARE_CONST = 1.0 / 24.0
PNORM2_LSHAPE_CONST = 0.325


def dense_mixed_solve(T, fval):
    """Independent dense mixed solve for piecewise-constant data.

    ``fval`` is one value for every element, or an array of element means.
    """
    tris = T.tris()
    coords = T.forest.coords()
    pairs = set()
    for t in tris:
        for i in range(3):
            a, b = int(t[i]), int(t[(i + 1) % 3])
            pairs.add((min(a, b), max(a, b)))
    edges = sorted(pairs)
    eindex = {e: i for i, e in enumerate(edges)}
    ne, n = len(edges), len(tris)
    A = np.zeros((ne, ne))
    B = np.zeros((n, ne))
    areas = np.zeros(n)
    for k, t in enumerate(tris):
        P = coords[list(t)]
        d1, d2 = P[1] - P[0], P[2] - P[0]
        area = 0.5 * abs(d1[0] * d2[1] - d1[1] * d2[0])
        areas[k] = area
        mids = np.array([0.5 * (P[1] + P[2]), 0.5 * (P[2] + P[0]), 0.5 * (P[0] + P[1])])
        loc = []
        for i in range(3):
            va, vb = int(t[(i + 1) % 3]), int(t[(i + 2) % 3])
            a, b = min(va, vb), max(va, vb)
            tang = coords[b] - coords[a]
            length = float(np.hypot(tang[0], tang[1]))
            nrm = np.array([tang[1], -tang[0]]) / length
            sgn = 1.0 if (mids[i] - P[i]) @ nrm > 0 else -1.0
            loc.append((eindex[(a, b)], sgn, length))
        for i in range(3):
            gi, si, li = loc[i]
            B[k, gi] += si * li
            for j in range(3):
                gj, sj, lj = loc[j]
                val = 0.0
                for q in range(3):
                    fi = si * li / (2.0 * area) * (mids[q] - P[i])
                    fj = sj * lj / (2.0 * area) * (mids[q] - P[j])
                    val += fi @ fj
                A[gi, gj] += val * area / 3.0
    K = np.block([[A, B.T], [B, np.zeros((n, n))]])
    rhs = np.concatenate([np.zeros(ne), -fval * areas])
    x = np.linalg.solve(K, rhs)
    return edges, x[:ne], x[ne:], A, B


def align(conn, edges):
    """Permutation taking oracle edge order into the package order."""
    pkg = {tuple(int(v) for v in e): i for i, e in enumerate(conn.edges)}
    return np.array([pkg[e] for e in edges], dtype=np.int64)


def mass_norm2(sol):
    d = sol.conn.local_flux_dofs(sol.p)
    return float(np.einsum("ni,nij,nj->", d, sol.conn.rt_local_mass(), d))


def eta2_by_hand(T, sol):
    """Estimator totals recomputed with plain loops from vertex traces."""
    conn = sol.conn
    coords = T.forest.coords()
    tris = conn.tris
    vol = 0.0
    traces = {}
    for k in range(len(tris)):
        P = conn.pts[k]
        area = conn.areas[k]
        mids = np.array([0.5 * (P[1] + P[2]), 0.5 * (P[2] + P[0]), 0.5 * (P[0] + P[1])])
        dofs = conn.local_flux_dofs(sol.p)[k]
        scale = conn.elem_edge_lengths[k] / (2.0 * area)

        def val(x):
            return sum(dofs[i] * scale[i] * (x - P[i]) for i in range(3))

        l2 = area / 3.0 * sum(val(m) @ val(m) for m in mids)
        vol += area * l2
        for i in range(3):
            va, vb = int(tris[k][(i + 1) % 3]), int(tris[k][(i + 2) % 3])
            key = (min(va, vb), max(va, vb))
            traces.setdefault(key, []).append((k, val(coords[key[0]]), val(coords[key[1]])))
    jump_per_edge = {}
    for key, sides in traces.items():
        a, b = key
        tang = coords[b] - coords[a]
        length = float(np.hypot(tang[0], tang[1]))
        tang = tang / length
        if len(sides) == 2:
            j0 = (sides[0][1] - sides[1][1]) @ tang
            j1 = (sides[0][2] - sides[1][2]) @ tang
        else:
            j0 = sides[0][1] @ tang
            j1 = sides[0][2] @ tang
        jump_per_edge[key] = length * (j0 * j0 + j0 * j1 + j1 * j1) / 3.0
    jump = 0.0
    for k in range(len(tris)):
        area = conn.areas[k]
        s = 0.0
        for i in range(3):
            va, vb = int(tris[k][(i + 1) % 3]), int(tris[k][(i + 2) % 3])
            s += jump_per_edge[(min(va, vb), max(va, vb))]
        jump += math.sqrt(area) * s
    return vol + jump


@pytest.mark.parametrize("mesh_fn", [unit_square_criss, l_shape])
def test_solver_matches_dense_oracle(mesh_fn):
    T = mesh_fn()
    f = field_from_name("one")
    sol = solve_mixed(T, f)
    edges, p_ref, u_ref, _, _ = dense_mixed_solve(T, 1.0)
    perm = align(sol.conn, edges)
    assert np.max(np.abs(sol.p[perm] - p_ref)) < 1e-12
    assert np.max(np.abs(sol.u - u_ref)) < 1e-12


def test_refined_mesh_still_matches_dense_oracle():
    T = unit_square_criss().uniform_refine().uniform_refine()
    sol = solve_mixed(T, field_from_name("one"))
    edges, p_ref, u_ref, _, _ = dense_mixed_solve(T, 1.0)
    perm = align(sol.conn, edges)
    assert np.max(np.abs(sol.p[perm] - p_ref)) < 1e-11
    assert np.max(np.abs(sol.u - u_ref)) < 1e-11


def test_graded_mesh_matches_dense_oracle():
    # repeated refinement at the reentrant corner: element areas span a
    # factor of 3e4, so the Crouzeix-Raviart recovery sees varying sizes
    T = l_shape()
    while T.n_elements < 100:
        corner = np.any(np.all(T.tri_coords() == 0.0, axis=2), axis=1)
        T = T.refine(T.leaf_ids[corner])
    sol = solve_mixed(T, field_from_name("one"))
    edges, p_ref, u_ref, _, _ = dense_mixed_solve(T, 1.0)
    perm = align(sol.conn, edges)
    assert np.max(np.abs(sol.p[perm] - p_ref)) < 1e-11
    assert np.max(np.abs(sol.u - u_ref)) < 1e-11


def test_elementwise_residual_is_the_saddle_residual():
    # random (p, u) and load on a mesh of several element sizes, against
    # K [p; u] - [0; -load] with the oracle's A and B
    T = l_shape().uniform_refine()
    T = T.refine(T.leaf_ids[:3])
    conn = Connectivity(T)
    edges, _, _, A, B = dense_mixed_solve(T, 1.0)
    perm = align(conn, edges)
    n, ne = T.n_elements, conn.n_edges
    K = np.block([[A, B.T], [B, np.zeros((n, n))]])
    rng = np.random.default_rng(7)
    for _ in range(3):
        p, u, load = rng.standard_normal(ne), rng.standard_normal(n), rng.standard_normal(n)
        want = K @ np.concatenate((p[perm], u)) - np.concatenate((np.zeros(ne), -load))
        r = _saddle_residual(conn, p, u, load)
        got = np.concatenate((r[:ne][perm], r[ne:]))
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


def test_mesh_without_interior_edges():
    T = initial_mesh([(0, 0), (1, 0), (0, 1)], [(0, 1, 2)])
    sol = solve_mixed(T, field_from_name("one"))
    assert abs(sol.u[0] - 1.0 / 36.0) < 1e-15
    p_want = [-1.0 / 6.0, 1.0 / 6.0, -1.0 / (6.0 * math.sqrt(2.0))]
    assert np.max(np.abs(sol.p - p_want)) < 1e-15
    assert sol.residual <= 1e-10
    edges, p_ref, u_ref, _, _ = dense_mixed_solve(T, 1.0)
    assert np.max(np.abs(sol.p[align(sol.conn, edges)] - p_ref)) < 1e-14
    assert np.max(np.abs(sol.u - u_ref)) < 1e-14


def test_zero_data_gives_zero_solution():
    T = l_shape()
    sol = solve_mixed(T, lambda x, y: np.zeros_like(x))
    assert np.all(sol.p == 0.0)
    assert np.all(sol.u == 0.0)
    assert sol.residual == 0.0
    assert eta_mixed(T, sol).total == 0.0


def test_divergence_constraint_holds_elementwise():
    f = field_from_name("radial-alpha:0.6")
    T = l_shape().uniform_refine()
    for _ in range(3):
        sol = solve_mixed(T, f)
        err = np.max(np.abs(sol.div_p + sol.f_means))
        assert err <= 1e-9 * np.max(np.abs(sol.f_means))
        eta2 = eta_mixed(T, sol)
        T = T.refine(eta2.ids[np.argsort(eta2.values)[-4:]])


def test_pinned_initial_estimator_values():
    f = field_from_name("one")
    Ts = unit_square_criss()
    sol_s = solve_mixed(Ts, f)
    assert abs(eta_mixed(Ts, sol_s).total - ETA2_SQUARE_CONST) < 1e-13
    assert abs(mass_norm2(sol_s) - PNORM2_SQUARE_CONST) < 1e-15
    Tl = l_shape()
    sol_l = solve_mixed(Tl, f)
    assert abs(eta_mixed(Tl, sol_l).total - ETA2_LSHAPE_CONST) < 1e-13
    assert abs(mass_norm2(sol_l) - PNORM2_LSHAPE_CONST) < 1e-15


def test_estimator_matches_loop_recomputation():
    f = field_from_name("one")
    T = l_shape().refine(l_shape().leaf_ids[:2])
    sol = solve_mixed(T, f)
    got = eta_mixed(T, sol).total
    want = eta2_by_hand(T, sol)
    assert abs(got - want) < 1e-12 * max(1.0, want)


def test_distance_is_pythagorean_for_constant_data():
    # with f constant the divergence constraint is mesh independent, so
    # the fine flux is the projection of the coarse one and
    # ||p_c - p_f||^2 = ||p_c||^2 - ||p_f||^2 with zero divergence gap
    f = field_from_name("one")
    Tc = l_shape()
    sol_c = solve_mixed(Tc, f)
    Tf = Tc.uniform_refine()
    for _ in range(3):
        sol_f = solve_mixed(Tf, f)
        d2 = delta_mixed(Tc, Tf, sol_c, sol_f)
        drop = mass_norm2(sol_c) - mass_norm2(sol_f)
        assert d2 >= 0.0
        assert abs(d2 - drop) < 1e-10 * max(drop, 1e-30)
        eta2 = eta_mixed(Tf, sol_f)
        Tc, sol_c = Tf, sol_f
        Tf = Tf.refine(eta2.ids[np.argsort(eta2.values)[-5:]])


def test_distance_rejects_non_nested_meshes():
    f = field_from_name("one")
    T0 = unit_square_criss()
    A = T0.refine([T0.leaf_ids[0]])
    sol_0 = solve_mixed(T0, f)
    sol_a = solve_mixed(A, f)
    with pytest.raises(ValueError):
        delta_mixed(A, T0, sol_a, sol_0)


def test_volume_term_halves_under_one_sweep_with_frozen_flux():
    from sepfem import Connectivity, prolong_rt0

    f = field_from_name("one")
    T = unit_square_criss().uniform_refine()
    sol = solve_mixed(T, f)
    conn_c = sol.conn
    d = conn_c.local_flux_dofs(sol.p)
    mids_val = np.einsum("ni,nij,nj->n", d, conn_c.rt_local_mass(), d)
    vol_c = float(np.sum(conn_c.areas * mids_val))
    Tf = T.uniform_refine()
    conn_f = Connectivity(Tf)
    pf = prolong_rt0(conn_c, sol.p, conn_f)
    df = conn_f.local_flux_dofs(pf)
    mids_f = np.einsum("ni,nij,nj->n", df, conn_f.rt_local_mass(), df)
    vol_f = float(np.sum(conn_f.areas * mids_f))
    assert abs(vol_f - 0.5 * vol_c) < 1e-13 * vol_c


def test_nonconstant_load_matches_dense_oracle():
    # the element means of linear-x are the centroids' x coordinates
    T = l_shape().uniform_refine().uniform_refine()
    sol = solve_mixed(T, field_from_name("linear-x"))
    means = T.tri_coords()[:, :, 0].mean(axis=1)
    edges, p_ref, u_ref, _, _ = dense_mixed_solve(T, means)
    perm = align(sol.conn, edges)
    assert np.max(np.abs(sol.p[perm] - p_ref)) < 1e-12
    assert np.max(np.abs(sol.u - u_ref)) < 1e-12


def test_data_means_are_quadratured_element_means():
    T = unit_square_criss()
    sol = solve_mixed(T, field_from_name("linear-x"))
    cx = T.tri_coords()[:, :, 0].mean(axis=1)
    assert np.allclose(sol.f_means, cx, atol=1e-14)


def test_problem_wrapper_contract():
    prob = MixedPoisson(field_from_name("one"))
    assert prob.kind == "mixed"
    T = l_shape()
    sol = prob.solve(T)
    assert prob.mu(T).total == 0.0
    eta2 = prob.eta(T, sol)
    assert eta2.total > 0.0
    extras = prob.extras(T, sol)
    assert extras["constraint_residual"] <= 1e-12
    assert extras["solver_residual"] <= 1e-10

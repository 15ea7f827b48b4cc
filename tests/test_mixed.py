"""Mixed flux discretization tests.

The solver oracle is a dense from-scratch assembly in this module: basis
functions, mass and coupling blocks are rebuilt with plain loops and the
saddle system is solved densely, then compared coefficient by
coefficient against the sparse path.
"""

import math

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

import sepfem.mixed_fem
from conftest import graded_l_shape, grid_without, prolonged_flux
from sepfem import (
    Connectivity,
    MixedPoisson,
    SafemParams,
    SolverError,
    delta_mixed,
    eta_mixed,
    field_from_name,
    initial_mesh,
    l_shape,
    safem_run,
    solve_mixed,
    unit_square_criss,
)
from sepfem.edges import rt_affine, rt_norm2
from sepfem.mixed_fem import _dual_tree, _free_nodes_and_holes, _mass_rows, _saddle_residual
from sepfem.quadrature import _centroids, integrate_many

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
    conn = sol.conn
    return float(np.sum(rt_norm2(conn, *rt_affine(conn, conn.local_flux_dofs(sol.p)))))


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
    # factor of 3e4, so the tree fluxes and the P1 system see varying sizes
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
    means = conn.rt_means()
    rng = np.random.default_rng(7)
    for _ in range(3):
        p, u, load = rng.standard_normal(ne), rng.standard_normal(n), rng.standard_normal(n)
        want = K @ np.concatenate((p[perm], u)) - np.concatenate((np.zeros(ne), -load))
        mass = _mass_rows(conn, rt_affine(conn, conn.local_flux_dofs(p), means), means)
        r = _saddle_residual(conn, p, mass, u, load)
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
        div_p = np.einsum("ni,ni->n", sol.conn.rt_div(), sol.conn.local_flux_dofs(sol.p))
        f_means = integrate_many(f, sol.conn.pts) / sol.conn.areas
        err = np.max(np.abs(div_p + f_means))
        assert err <= 1e-9 * np.max(np.abs(f_means))
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


def test_distance_matches_the_norm_of_the_prolonged_difference():
    # on rough data a_f - a_c is nonzero, so the divergence term counts;
    # the reference carries the coarse flux edge by edge onto the fine
    # mesh, the package compares the two solves' pairs element by element
    f = field_from_name("radial-alpha:0.6")
    Tc = graded_l_shape()
    sol_c = solve_mixed(Tc, f)
    for step in ("refine", "uniform", "overlay", "refine"):
        eta2 = eta_mixed(Tc, sol_c)
        ids = eta2.ids[np.argsort(eta2.values)]
        if step == "refine":
            Tf = Tc.refine(ids[-10:])
        elif step == "uniform":
            Tf = Tc.uniform_refine()
        else:
            # refinements at the largest and at the smallest indicators
            Tf = Tc.refine(ids[-6:]).overlay(Tc.refine(ids[:6]))
        sol_f = solve_mixed(Tf, f)
        conn = sol_f.conn
        diff = sol_f.p - prolonged_flux(Tc, sol_c.p, Tf)
        a, pbar = rt_affine(conn, conn.local_flux_dofs(diff))
        div2 = float(np.sum(conn.areas * (2.0 * a) ** 2))
        want = float(np.sum(rt_norm2(conn, a, pbar))) + div2
        assert div2 > 0.1 * want
        assert abs(delta_mixed(Tc, Tf, sol_c, sol_f) - want) <= 1e-12 * want
        Tc, sol_c = Tf, sol_f


def test_distance_reads_no_coarse_table_and_matches_the_coarse_connectivity_route(graded_mesh):
    # the ancestors' corners come from the forest, in the same bits as
    # the coarse Connectivity's element coordinates, so the distance
    # needs no table of a level that was released once refined
    f = field_from_name("radial-alpha:0.6")
    Tc = graded_mesh
    sol_c = solve_mixed(Tc, f)
    ids = eta_mixed(Tc, sol_c).ids
    for Tf in (Tc.refine(ids[::7]), Tc.uniform_refine()):
        sol_f = solve_mixed(Tf, f)
        Tc.release()
        got = delta_mixed(Tc, Tf, sol_c, sol_f)
        assert Tc._cache == {}
        # the coarse flux at each fine centroid through the coarse Connectivity
        conn_c, conn = Connectivity(Tc), sol_f.conn
        rows = Tf.coarse_rows(Tc)
        offsets = _centroids(conn.pts) - _centroids(conn_c.pts[rows])
        a_c, p_c = sol_c.pair
        a = sol_f.pair[0] - a_c[rows]
        pbar = sol_f.pair[1] - (a_c[rows, np.newaxis] * offsets + p_c[rows])
        want = float(np.sum(rt_norm2(conn, a, pbar))) + float(np.sum(conn.areas * (2.0 * a) ** 2))
        assert np.any(a != 0.0)
        assert got == want


def test_volume_term_halves_under_one_sweep_with_frozen_flux():
    f = field_from_name("one")
    T = unit_square_criss().uniform_refine()
    sol = solve_mixed(T, f)
    conn_c = sol.conn
    norms_c = rt_norm2(conn_c, *rt_affine(conn_c, conn_c.local_flux_dofs(sol.p)))
    vol_c = float(np.sum(conn_c.areas * norms_c))
    Tf = T.uniform_refine()
    conn_f = Connectivity(Tf)
    pf = prolonged_flux(T, sol.p, Tf)
    norms_f = rt_norm2(conn_f, *rt_affine(conn_f, conn_f.local_flux_dofs(pf)))
    vol_f = float(np.sum(conn_f.areas * norms_f))
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
    # div p = -f_K, with f_K the quadratured mean of f = x on K: the
    # mean of its corners' x
    T = unit_square_criss()
    sol = solve_mixed(T, field_from_name("linear-x"))
    cx = T.tri_coords()[:, :, 0].mean(axis=1)
    div_p = np.einsum("ni,ni->n", sol.conn.rt_div(), sol.conn.local_flux_dofs(sol.p))
    assert np.allclose(-div_p, cx, atol=1e-14)


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


def holes_and_components(T):
    """(g, c): holes and connected components, from Euler's formula and the
    vertices reached through the edges."""
    conn = Connectivity(T)
    parent = list(range(conn.n_nodes))

    def root(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for a, b in np.searchsorted(conn.node_vertices, conn.edges):
        parent[root(int(a))] = root(int(b))
    c = len({root(v) for v in range(conn.n_nodes)})
    return conn.n_edges - T.n_elements - conn.n_nodes + c, c


def assert_matches_dense(T, field, tol):
    f = field_from_name(field)
    sol = solve_mixed(T, f)
    f_means = integrate_many(f, sol.conn.pts) / sol.conn.areas
    edges, p_ref, u_ref, _, _ = dense_mixed_solve(T, f_means)
    perm = align(sol.conn, edges)
    assert np.max(np.abs(sol.p[perm] - p_ref)) < tol
    assert np.max(np.abs(sol.u - u_ref)) < tol


def test_ring_matches_dense_oracle():
    # a 4 x 3 grid without one square: the hole sits off the centre and
    # the load varies, so the flux has a part around the hole that no
    # curl of a P1 function gives (with f = 1 on a symmetric ring that
    # part vanishes and a solve without it still passes)
    T = grid_without(4, 3, {(1, 1)})
    assert holes_and_components(T) == (1, 1)
    for _ in range(3):
        assert_matches_dense(T, "linear-x", 1e-11)
        T = T.uniform_refine()


@pytest.mark.parametrize("cells, holes", [(set(), 0), ({(1, 1)}, 1), ({(1, 1), (3, 1)}, 2)])
def test_each_step_of_a_solve_derives_the_rt0_means_once(cells, holes, monkeypatch):
    # one derivation per level serves the stream functions' load (one
    # column per hole besides p_f), the Gram system of the hole fields,
    # the flux's pair and the mass rows of the residual; the estimate
    # and the distance read the pairs the solves keep
    T = grid_without(5, 3, cells)
    assert holes_and_components(T) == (holes, 1)
    calls = []
    means = Connectivity.rt_means

    def counted(conn):
        calls.append(1)
        return means(conn)

    monkeypatch.setattr(Connectivity, "rt_means", counted)
    prob = MixedPoisson(field_from_name("linear-x"))
    res = safem_run(prob, T, SafemParams(max_elements=400))
    assert len(res.records) >= 3
    assert all(np.isfinite(r.delta2) for r in res.records[:-1])
    assert len(calls) == len(res.records)


@pytest.mark.parametrize("case", ["graded", "ring", "two-components", "one-shared-vertex", "unused-vertex"])
def test_pinned_nodes_are_the_lowest_of_each_component_of_the_mesh(case, graded_mesh):
    # the pinned nodes and the component count are read from the root
    # mesh; on a refined mesh they are those of its own primal graph
    if case == "graded":
        T = graded_mesh
    else:
        if case == "ring":
            T = grid_without(4, 3, {(1, 1)})
        elif case == "two-components":
            pts = [(0, 0), (1, 0), (1, 1), (0, 1), (2, 0), (4, 0), (4, 2), (2, 2)]
            T = initial_mesh(pts, [(4, 5, 6), (4, 6, 7), (0, 1, 2), (0, 2, 3)])
        elif case == "one-shared-vertex":
            T = initial_mesh([(0, 0), (1, 0), (1, 1), (2, 1), (2, 2)], [(0, 1, 2), (2, 3, 4)])
        else:
            # the first point is no triangle's vertex
            pts = [(5, 5), (0, 0), (1, 0), (1, 1), (0, 1)]
            T = initial_mesh(pts, [(1, 2, 3), (1, 3, 4)])
        T = T.uniform_refine()
        T = T.refine(T.leaf_ids[::3])
    conn = Connectivity(T)
    ends = conn.edge_nodes()
    free, holes = _free_nodes_and_holes(conn, _dual_tree(conn), ends)
    n = conn.n_nodes
    primal = sp.csr_matrix((np.ones(conn.n_edges), (ends[:, 0], ends[:, 1])), shape=(n, n))
    n_comp, labels = connected_components(primal, directed=False)
    pinned = np.unique(labels, return_index=True)[1]
    assert n_comp == {"two-components": 2, "one-shared-vertex": 1}.get(case, 1)
    assert np.array_equal(free, ~np.isin(np.arange(n), pinned))
    assert len(holes) == conn.n_edges - T.n_elements - n + n_comp == (case == "ring")


def test_two_components_match_dense_oracle():
    # two squares of different sizes that share no vertex
    pts = [(0, 0), (1, 0), (1, 1), (0, 1), (2, 0), (4, 0), (4, 2), (2, 2)]
    T = initial_mesh(pts, [(0, 1, 2), (0, 2, 3), (4, 5, 6), (4, 6, 7)])
    assert holes_and_components(T) == (0, 2)
    for _ in range(3):
        assert_matches_dense(T, "linear-x", 1e-11)
        T = T.uniform_refine()


def test_divergence_gap_is_reported_and_gated(monkeypatch):
    T = l_shape().uniform_refine()
    f = field_from_name("radial-alpha:0.6")
    sol = solve_mixed(T, f)
    terms = sol.conn.elem_edge_lengths * sol.conn.local_flux_dofs(sol.p)
    load = integrate_many(f, sol.conn.pts)
    gap = np.abs(terms.sum(axis=1) + load) / np.abs(terms).sum(axis=1)
    assert sol.div_gap <= 1e-13
    assert abs(sol.div_gap - gap.max()) <= 1e-15
    prob = MixedPoisson(field_from_name("one"))
    assert prob.extras(T, sol)["constraint_residual"] == sol.div_gap

    # from the third solve on, one flux is off by a relative 2e-11: the
    # saddle residual still passes, the divergence gate does not
    real = sepfem.mixed_fem._solve_flux
    calls = []

    def perturbed(conn, load, means):
        p, *rest = real(conn, load, means)
        calls.append(len(calls))
        if len(calls) >= 3:
            p = p.copy()
            p[len(p) // 2] *= 1.0 + 2e-11
        return (p, *rest)

    monkeypatch.setattr(sepfem.mixed_fem, "_solve_flux", perturbed)
    params = SafemParams(theta_a=0.3, kappa=1.0, rho_b=0.5, sigma_tol=0.0, max_elements=500)
    with pytest.raises(SolverError, match="divergence gap") as err:
        safem_run(prob, l_shape(), params)
    assert err.value.level == 2

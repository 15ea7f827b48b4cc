"""Div least-squares discretization tests.

The solver oracle never touches the package assembly: the functional is
evaluated by plain loops, its quadratic form is recovered through finite
differences at unit coefficient vectors (exact for quadratics), and the
dense normal equations are solved with numpy.  The package minimizer
must reproduce those coefficients.
"""

import gc
import logging
import math
import tracemalloc
import types

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import grid_without, prolonged_flux
from sepfem import (
    Connectivity,
    LeastSquaresPoisson,
    SafemParams,
    assemble_ls,
    delta_ls,
    eta_ls,
    field_from_name,
    initial_mesh,
    integrate_many,
    l_shape,
    ls_functional,
    safem_run,
    solve_ls,
    unit_square_criss,
)
from sepfem.edges import rt_affine, rt_norm2

def brute_ls(T, f, p, u):
    """Functional value by plain loops, midpoint quadrature per element."""
    conn = Connectivity(T)
    p = np.asarray(p, dtype=float)
    u = np.asarray(u, dtype=float)
    total = 0.0
    for k in range(len(conn.tris)):
        P = conn.pts[k]
        area = float(conn.areas[k])
        mids = [0.5 * (P[1] + P[2]), 0.5 * (P[2] + P[0]), 0.5 * (P[0] + P[1])]
        lens = conn.elem_edge_lengths[k]
        dofs = (conn.elem_signs[k] * p[conn.elem_edges[k]]).astype(float)
        divq = float(np.sum(dofs * lens)) / area
        uv = u[conn.elem_nodes[k]]
        M = np.array([P[1] - P[0], P[2] - P[0]])
        g = np.linalg.solve(M, [uv[1] - uv[0], uv[2] - uv[0]])
        acc = 0.0
        for m in mids:
            q = sum(dofs[i] * lens[i] / (2.0 * area) * (m - P[i]) for i in range(3))
            fv = float(np.asarray(f(m[0], m[1])))
            acc += (fv + divq) ** 2 + np.sum((q - g) ** 2)
        total += area / 3.0 * acc
    return total


def brute_minimize(T, f):
    """Dense minimizer of the functional, independent of the assembly."""
    conn = Connectivity(T)
    ne = conn.n_edges
    interior = np.nonzero(~conn.boundary_node)[0]
    ndof = ne + len(interior)

    def ls_of(c):
        p = c[:ne]
        u = np.zeros(conn.n_nodes)
        u[interior] = c[ne:]
        return brute_ls(T, f, p, u)

    s0 = ls_of(np.zeros(ndof))
    H = np.zeros((ndof, ndof))
    g = np.zeros(ndof)
    plus = np.zeros(ndof)
    minus = np.zeros(ndof)
    for i in range(ndof):
        e = np.zeros(ndof)
        e[i] = 1.0
        plus[i] = ls_of(e)
        minus[i] = ls_of(-e)
        H[i, i] = 0.5 * (plus[i] + minus[i] - 2.0 * s0)
        g[i] = 0.25 * (minus[i] - plus[i])
    for i in range(ndof):
        for j in range(i + 1, ndof):
            e = np.zeros(ndof)
            e[i] = 1.0
            e[j] = 1.0
            hij = 0.5 * (ls_of(e) - plus[i] - plus[j] + s0)
            H[i, j] = H[j, i] = hij
    c = np.linalg.solve(H, g)
    p = c[:ne]
    u = np.zeros(conn.n_nodes)
    u[interior] = c[ne:]
    return conn, p, u, ls_of(c)


def gram(rows, dofs, n):
    """The optimality matrix R^T R, formed here from the elements' rows of
    ``assemble_ls`` on their unknowns ``dofs`` (-1 dropped)."""
    m, r, _ = rows.shape
    cols = np.broadcast_to(dofs[:, np.newaxis, :], rows.shape)
    line = np.broadcast_to(np.arange(m * r).reshape(m, r, 1), rows.shape)
    keep = cols >= 0
    R = sp.coo_matrix((rows[keep], (line[keep], cols[keep])), shape=(m * r, n)).tocsr()
    return (R.T @ R).tocsr()


def assert_matches_brute_force(T, f):
    conn_ref, p_ref, u_ref, ls_ref = brute_minimize(T, f)
    sol = solve_ls(T, f)
    pkg = {tuple(int(v) for v in e): i for i, e in enumerate(sol.conn.edges)}
    perm = [pkg[tuple(int(v) for v in e)] for e in conn_ref.edges]
    assert np.max(np.abs(sol.p[perm] - p_ref)) < 1e-10
    assert np.max(np.abs(sol.u - u_ref)) < 1e-10
    assert abs(sol.ls_total - ls_ref) < 1e-12 * max(1.0, ls_ref)


@pytest.mark.parametrize("field_name", ["one", "linear-x"])
def test_solver_matches_brute_force_minimizer(field_name):
    assert_matches_brute_force(unit_square_criss().uniform_refine(), field_from_name(field_name))


def ring_or_criss(mesh):
    """The 4 x 3 grid without one square (one hole, off the centre), or the
    criss square refined once (no hole)."""
    return grid_without(4, 3, {(1, 1)}) if mesh == "ring" else unit_square_criss().uniform_refine()


@pytest.mark.parametrize("mesh", ["ring", "criss"])
def test_tree_basis_minimizer_matches_brute_force_with_and_without_a_hole(mesh):
    # on the ring the load varies and the hole sits off the centre, so
    # the minimizer has a part around the hole that neither the tree
    # fluxes nor the curls give: the hole's field carries it
    T = ring_or_criss(mesh)
    conn = Connectivity(T)
    holes = conn.n_edges - T.n_elements - conn.n_nodes + 1
    assert holes == (mesh == "ring")
    assert_matches_brute_force(T, field_from_name("linear-x"))


@pytest.mark.parametrize("mesh", ["ring", "criss"])
def test_stream_function_and_potential_are_decoupled_exactly(mesh):
    # (curl psi, grad v) = 0 for v vanishing on the boundary: the mean
    # rows of the curls, sqrt|K| curl phi = sqrt|K| (d phi/dy, -d phi/dx),
    # against those of the interior nodes' hats, -sqrt|K| grad phi, sum
    # to exactly 0.0 once assembled, so the two P1 systems are solved apart
    rows, dofs, rhs, conn, interior = assemble_ls(ring_or_criss(mesh), field_from_name("one"))
    grad = rows[:, 2:, 3:]
    curl = np.stack((-grad[:, 1], grad[:, 0]), axis=1)
    nodes = np.where(interior[conn.elem_nodes], conn.n_nodes + conn.elem_nodes, -1)
    coupling = gram(
        np.concatenate((curl, grad), axis=2),
        np.concatenate((conn.elem_nodes, nodes), axis=1),
        2 * conn.n_nodes,
    )
    block = coupling[: conn.n_nodes, conn.n_nodes :].toarray()
    assert np.any(coupling[: conn.n_nodes, : conn.n_nodes].toarray() != 0.0)
    assert np.any(coupling[conn.n_nodes :, conn.n_nodes :].toarray() != 0.0)
    assert np.all(block == 0.0)


def test_system_is_symmetric_positive_definite():
    T = l_shape().uniform_refine()
    rows, dofs, rhs, conn, interior = assemble_ls(T, field_from_name("one"))
    D = gram(rows, dofs, len(rhs)).toarray()
    assert np.max(np.abs(D - D.T)) < 1e-14
    w = np.linalg.eigvalsh(D)
    assert w.min() > 0.0
    assert D.shape[0] == conn.n_edges + int(interior.sum())


def test_a_solve_peaks_below_1000_bytes_per_unknown(graded_mesh):
    # the bound is 1000 B per unknown of the least-squares system, edge
    # fluxes and interior nodes (7 233 here), although the solve now
    # factors two P1 systems of 3 617 unknowns between them; it reads
    # 445 B.  tracemalloc sees numpy's arrays (not SuperLU's factors):
    # the elements' rows, the rows of R on the tree fluxes, and the P1
    # systems, each formed once in its factor's order with 32-bit indices
    T = graded_mesh
    Connectivity.of(T)  # the mesh's own tables are not the solve's
    f = field_from_name("one")
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        solve_ls(T, f)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    conn = Connectivity.of(T)
    assert T.n_elements == 3616
    assert conn.n_edges + int((~conn.boundary_node).sum()) == 7233
    assert peak <= 1000 * 7233


def test_zero_data_gives_zero_minimum():
    T = unit_square_criss()
    sol = solve_ls(T, lambda x, y: np.zeros_like(x))
    assert np.all(sol.p == 0.0)
    assert np.all(sol.u == 0.0)
    assert sol.ls_total == 0.0
    assert sol.residual == 0.0


def test_functional_of_the_minimizer_matches_solution_total():
    f = field_from_name("linear-x")
    T = unit_square_criss().uniform_refine()
    sol = solve_ls(T, f)
    total = ls_functional(sol.conn, f, sol.p, sol.u)
    assert total >= 0.0
    assert abs(total - sol.ls_total) < 1e-14 * max(total, 1.0)


def test_functional_rejects_partial_potential_vector():
    T = unit_square_criss()
    f = field_from_name("one")
    with pytest.raises(ValueError):
        ls_functional(Connectivity(T), f, np.zeros(5), np.zeros(2))


def test_minimum_drop_equals_energy_norm_of_update():
    # with A = R^T R the optimality matrix and b its load, LS(coarse) -
    # LS(fine) equals d^T A d for d the coefficient difference in the
    # fine space
    f = field_from_name("one")
    Tc = l_shape()
    sol_c = solve_ls(Tc, f)
    Tf = Tc.uniform_refine()
    sol_f = solve_ls(Tf, f)
    rows, dofs, rhs, conn_f, interior = assemble_ls(Tf, f)
    A = gram(rows, dofs, len(rhs))
    p_up = prolonged_flux(Tc, sol_c.p, Tf)
    # the coarse potential at each fine element's vertices, from the
    # barycentric coordinates of those vertices in the coarse ancestor
    rows = Tf.coarse_rows(Tc)
    anc = sol_c.conn.pts[rows]
    edges = np.stack((anc[:, 1] - anc[:, 0], anc[:, 2] - anc[:, 0]), axis=2)
    lam = np.linalg.solve(edges[:, np.newaxis], (conn_f.pts - anc[:, :1])[..., np.newaxis])
    lam = np.concatenate((1.0 - lam.sum(axis=2), lam[..., 0]), axis=2)
    u_up = np.empty(conn_f.n_nodes)
    u_up[conn_f.elem_nodes] = np.einsum("kij,kj->ki", lam, sol_c.u[sol_c.conn.elem_nodes[rows]])
    carried = ls_functional(conn_f, f, p_up, u_up)
    assert abs(carried - sol_c.ls_total) < 1e-12 * sol_c.ls_total
    d = np.concatenate((p_up - sol_f.p, (u_up - sol_f.u)[interior]))
    drop = float(d @ (A @ d))
    got = delta_ls(sol_c, sol_f)
    assert abs(got - drop) < 1e-10 * sol_c.ls_total
    assert got >= 0.0


def test_minimum_is_monotone_under_refinement():
    f = field_from_name("radial-alpha:0.6")
    T = l_shape()
    prev = solve_ls(T, f)
    rng = np.random.default_rng(3)
    for _ in range(4):
        pick = rng.choice(T.n_elements, size=max(1, T.n_elements // 3), replace=False)
        T = T.refine(T.leaf_ids[pick])
        sol = solve_ls(T, f)
        assert sol.ls_total <= prev.ls_total * (1.0 + 1e-12)
        prev = sol


@pytest.mark.parametrize("scale", [30.0, 1000.0])
def test_adaptive_runs_on_a_scaled_l_shape_solve_every_level(scale):
    # the functional weighs q against div q by the element size squared,
    # so on large elements the mean rows, which the preconditioner of the
    # conjugate gradients leaves out, dominate: they take more iterations,
    # bounded by the order of their system, and every level still passes
    # the gate up to the element cap
    T0 = l_shape()
    T = initial_mesh(T0.forest.coords() * scale, T0.tris())
    params = SafemParams(theta_a=0.5, max_elements=3000)
    res = safem_run(LeastSquaresPoisson(field_from_name("one")), T, params)
    assert res.stop_reason == "element-cap" and len(res.records) >= 15
    for r in res.records:
        assert r.extra["solver_residual"] <= 1e-10
        assert 1 <= r.extra["cg_iterations"] <= T.n_elements + r.N


def test_distance_clamps_and_warns_on_increase(caplog):
    a = types.SimpleNamespace(ls_total=1.0)
    b = types.SimpleNamespace(ls_total=1.0 + 1e-12)
    assert delta_ls(a, b) == 0.0
    c = types.SimpleNamespace(ls_total=1.5)
    with caplog.at_level(logging.WARNING, logger="sepfem.ls_fem"):
        assert delta_ls(a, c) == 0.0
    assert any("increased" in r.message for r in caplog.records)


def test_on_rough_data_the_minimum_rises_only_through_the_oscillation():
    # under the 7-point rule LS = J_h + mu^2 exactly, where J_h is the
    # functional with f replaced by its quadratured means f_K: the rule
    # gives Q((f - f_K)^2) = mu^2 and Q(f - f_K) = 0.  On rough data the
    # 7-point mu^2 can rise under refinement (the cause of a B2 failure),
    # and the minimum rises with it while J_h falls on every level
    f = field_from_name("radial-alpha:0.5@0.25,0.75")
    problem = LeastSquaresPoisson(f)
    res = safem_run(problem, l_shape(), SafemParams(kappa=0.5, max_elements=3000))
    totals, rest = [], []
    for T, sol in zip(res.meshes, res.solutions):
        conn = sol.conn
        a, pbar = rt_affine(conn, conn.local_flux_dofs(sol.p))
        f_means = integrate_many(f, conn.pts) / conn.areas
        gradv = np.einsum("ni,nik->nk", sol.u[conn.elem_nodes], conn.p1_grads())
        div_part = conn.areas * (f_means + 2.0 * a) ** 2
        j_h = math.fsum((div_part + rt_norm2(conn, a, pbar - gradv)).tolist())
        mu2 = problem.mu(T).total
        assert abs(sol.ls_total - (j_h + mu2)) <= 1e-14 * sol.ls_total
        totals.append(sol.ls_total)
        rest.append(sol.ls_total - mu2)
    assert len(totals) >= 20
    assert totals[0] < totals[1] < totals[2]
    assert all(b < a for a, b in zip(rest, rest[1:]))


def eta2_ls_by_hand(T, sol):
    """Loop recomputation of the least-squares indicators."""
    conn = sol.conn
    coords = T.forest.coords()
    p = np.asarray(sol.p)
    total = 0.0
    grads = {}
    traces = {}
    for k in range(len(conn.tris)):
        P = conn.pts[k]
        area = float(conn.areas[k])
        lens = conn.elem_edge_lengths[k]
        dofs = conn.elem_signs[k] * p[conn.elem_edges[k]]
        mids = [0.5 * (P[1] + P[2]), 0.5 * (P[2] + P[0]), 0.5 * (P[0] + P[1])]

        def val(x):
            return sum(dofs[i] * lens[i] / (2.0 * area) * (x - P[i]) for i in range(3))

        vals = [val(m) for m in mids]
        mean = sum(vals) / 3.0
        total += area / 3.0 * sum(np.sum((v - mean) ** 2) for v in vals)
        uv = sol.u[conn.elem_nodes[k]]
        M = np.array([P[1] - P[0], P[2] - P[0]])
        grads[k] = np.linalg.solve(M, [uv[1] - uv[0], uv[2] - uv[0]])
        for i in range(3):
            va = int(conn.tris[k][(i + 1) % 3])
            vb = int(conn.tris[k][(i + 2) % 3])
            key = (min(va, vb), max(va, vb))
            traces.setdefault(key, []).append((k, val(coords[key[0]]), val(coords[key[1]])))
    for key, sides in traces.items():
        a, b = key
        tang = coords[b] - coords[a]
        length = float(np.hypot(tang[0], tang[1]))
        that = tang / length
        nhat = np.array([that[1], -that[0]])
        if len(sides) == 2:
            j0 = (sides[0][1] - sides[1][1]) @ that
            j1 = (sides[0][2] - sides[1][2]) @ that
            gj = (grads[sides[0][0]] - grads[sides[1][0]]) @ nhat
        else:
            j0 = sides[0][1] @ that
            j1 = sides[0][2] @ that
            gj = 0.0
        tang_term = length * (j0 * j0 + j0 * j1 + j1 * j1) / 3.0
        norm_term = length * gj * gj
        for k, _, _ in sides:
            total += math.sqrt(float(conn.areas[k])) * (tang_term + norm_term)
    return total


def test_estimator_matches_loop_recomputation():
    f = field_from_name("one")
    T = l_shape().refine(l_shape().leaf_ids[:2])
    sol = solve_ls(T, f)
    got = eta_ls(T, sol).total
    want = eta2_ls_by_hand(T, sol)
    assert abs(got - want) < 1e-11 * max(1.0, want)


def test_potential_vanishes_on_the_boundary():
    sol = solve_ls(l_shape().uniform_refine(), field_from_name("one"))
    assert np.all(sol.u[sol.conn.boundary_node] == 0.0)
    assert np.any(sol.u != 0.0)


def test_problem_wrapper_contract():
    prob = LeastSquaresPoisson(field_from_name("linear-x"))
    assert prob.kind == "ls"
    T = unit_square_criss().uniform_refine()
    sol = prob.solve(T)
    extras = prob.extras(T, sol)
    assert extras["ls_total"] == sol.ls_total
    assert extras["solver_residual"] <= 1e-10
    assert prob.mu(T).total > 0.0
    T2 = T.refine([T.leaf_ids[0]])
    sol2 = prob.solve(T2)
    with pytest.raises(ValueError):
        prob.delta(T2, T, sol2, sol)


@pytest.mark.parametrize(
    "field", ["one", "radial-alpha:0.6", "checkerboard:5", "radial-alpha:0.5@0.25,0.75"]
)
def test_closed_form_functional_equals_the_7_point_form(field):
    # the divergence part is |K| (f_K + 2 a)^2 + mu^2(K) in closed form,
    # which the 7-point rule's Q((f + div q)^2) equals in exact
    # arithmetic; checked at the minimizer, where f + div q nearly
    # cancels, and at a perturbed (p, u), on the L-shape refined around
    # its corner, where radial-alpha:0.6 is singular
    f = field_from_name(field)
    T = l_shape().uniform_refine().uniform_refine().uniform_refine()
    for _ in range(4):
        corner = np.all(T.tri_coords() == 0.0, axis=2).any(axis=1)
        T = T.refine(T.leaf_ids[corner])
    sol = solve_ls(T, f)
    conn = sol.conn
    rng = np.random.default_rng(3)
    interior = ~conn.boundary_node
    for p, u in (
        (sol.p, sol.u),
        (sol.p + 0.1 * rng.standard_normal(len(sol.p)), np.where(interior, 0.1, 0.0) + sol.u),
    ):
        a, pbar = rt_affine(conn, conn.local_flux_dofs(p))
        gradu = np.einsum("ni,nik->nk", u[conn.elem_nodes], conn.p1_grads())

        def shifted_sq(x, y):
            v = f(x, y) + 2.0 * a[:, np.newaxis]
            return v * v

        div_part = integrate_many(shifted_sq, conn.pts)
        want = math.fsum((div_part + rt_norm2(conn, a, pbar - gradu)).tolist())
        got = ls_functional(conn, f, p, u)
        assert abs(got - want) <= 1e-13 * want
    assert ls_functional(conn, f, sol.p, sol.u) == sol.ls_total

"""Div least-squares discretization tests.

The solver oracle never touches the package assembly: the functional is
evaluated by plain loops, its quadratic form is recovered through finite
differences at unit coefficient vectors (exact for quadratics), and the
dense normal equations are solved with numpy.  The package minimizer
must reproduce those coefficients.
"""

import logging
import math
import types

import numpy as np
import pytest

from sepfem import (
    Connectivity,
    LeastSquaresPoisson,
    assemble_ls,
    delta_ls,
    eta_ls,
    field_from_name,
    l_shape,
    ls_functional,
    prolong_p1,
    prolong_rt0,
    solve_ls,
    unit_square_criss,
)

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


@pytest.mark.parametrize("field_name", ["one", "linear-x"])
def test_solver_matches_brute_force_minimizer(field_name):
    f = field_from_name(field_name)
    T = unit_square_criss().uniform_refine()
    conn_ref, p_ref, u_ref, ls_ref = brute_minimize(T, f)
    sol = solve_ls(T, f)
    pkg = {tuple(int(v) for v in e): i for i, e in enumerate(sol.conn.edges)}
    perm = [pkg[tuple(int(v) for v in e)] for e in conn_ref.edges]
    assert np.max(np.abs(sol.p[perm] - p_ref)) < 1e-10
    assert np.max(np.abs(sol.u - u_ref)) < 1e-10
    assert abs(sol.ls_total - ls_ref) < 1e-12 * max(1.0, ls_ref)


def test_system_is_symmetric_positive_definite():
    T = l_shape().uniform_refine()
    S, rhs, conn, interior = assemble_ls(T, field_from_name("one"))
    D = S.toarray()
    assert np.max(np.abs(D - D.T)) < 1e-14
    w = np.linalg.eigvalsh(D)
    assert w.min() > 0.0
    assert S.shape[0] == conn.n_edges + int(interior.sum())


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
    total, per_elem = ls_functional(T, f, sol.p, sol.u)
    assert np.all(per_elem >= 0.0)
    assert abs(math.fsum(per_elem.tolist()) - total) < 1e-15 * max(total, 1.0)
    assert abs(total - sol.ls_total) < 1e-14 * max(total, 1.0)


def test_functional_rejects_partial_potential_vector():
    T = unit_square_criss()
    f = field_from_name("one")
    with pytest.raises(ValueError):
        ls_functional(T, f, np.zeros(5), np.zeros(2))


def test_minimum_drop_equals_energy_norm_of_update():
    # with S the SPD system and b its load, LS(coarse) - LS(fine) equals
    # d^T S d for d the coefficient difference in the fine space
    f = field_from_name("one")
    Tc = l_shape()
    sol_c = solve_ls(Tc, f)
    Tf = Tc.uniform_refine()
    sol_f = solve_ls(Tf, f)
    S, rhs, conn_f, interior = assemble_ls(Tf, f)
    p_up = prolong_rt0(sol_c.conn, sol_c.p, conn_f)
    u_up = prolong_p1(
        Tf.forest, dict(zip(sol_c.conn.node_vertices.tolist(), sol_c.u)), conn_f
    )
    carried = ls_functional(Tf, f, p_up, u_up)[0]
    assert abs(carried - sol_c.ls_total) < 1e-12 * sol_c.ls_total
    d = np.concatenate((p_up - sol_f.p, (u_up - sol_f.u)[interior]))
    drop = float(d @ (S @ d))
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


def test_distance_clamps_and_warns_on_increase(caplog):
    a = types.SimpleNamespace(ls_total=1.0)
    b = types.SimpleNamespace(ls_total=1.0 + 1e-12)
    assert delta_ls(a, b) == 0.0
    c = types.SimpleNamespace(ls_total=1.5)
    with caplog.at_level(logging.WARNING, logger="sepfem.ls_fem"):
        assert delta_ls(a, c) == 0.0
    assert any("increased" in r.message for r in caplog.records)


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

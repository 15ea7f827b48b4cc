"""Connectivity's signs, jumps and RT0 integrals against reference formulas.

The references below are the geometric sign test and the two-holder
jump that ``Connectivity`` once computed from a stable argsort of its
edge table; the package now reads the signs from the vertex order and
sums each edge's holders with them.  Both must agree bit for bit.  The
RT0 integrals, now closed form in each element's affine pair, are held
against the midpoint rule the package once evaluated them with.
"""

import math

import numpy as np
import pytest

from conftest import edge_midpoints, graded_l_shape
from sepfem import (
    Connectivity,
    LeastSquaresPoisson,
    MixedPoisson,
    SafemParams,
    field_from_name,
    initial_mesh,
    l_shape,
    read_mesh,
    safem_run,
    write_mesh,
)
import sepfem.edges
import sepfem.ls_fem
import sepfem.mixed_fem
from sepfem.edges import rt_affine, rt_at_points, rt_norm2, tangential_jump_norms
from sepfem.ls_fem import assemble_ls, ls_functional
from sepfem.marking import ElementOscillation
from sepfem.mixed_fem import _mass_rows
from sepfem.quadrature import integrate_many


def geometric_signs(conn):
    """+1 where the global normal points from the opposite vertex past the edge midpoint."""
    outward = edge_midpoints(conn)[conn.elem_edges] - conn.pts
    dots = np.einsum("nik,nik->ni", outward, conn.normals[conn.elem_edges])
    return np.where(dots > 0.0, 1.0, -1.0)


def holder_tables(conn):
    """(n_edges, 2) holders of each edge and their local edges, -1 for none."""
    elem_edges = conn.elem_edges
    counts = np.bincount(elem_edges.ravel(), minlength=conn.n_edges)
    order = np.argsort(elem_edges.ravel(), kind="stable")
    elems, locals_ = order // 3, order % 3
    starts = np.concatenate(([0], np.cumsum(counts)))[:-1]
    holders = np.full((conn.n_edges, 2), -1, dtype=np.int64)
    local = np.zeros((conn.n_edges, 2), dtype=np.int64)
    holders[:, 0], local[:, 0] = elems[starts], locals_[starts]
    two = counts == 2
    holders[two, 1], local[two, 1] = elems[starts[two] + 1], locals_[starts[two] + 1]
    return holders, local


def two_holder_jump_norms(conn, local_dofs):
    """Squared tangential jump per edge, from each holder's traces at the edge's ends."""
    holders, local = holder_tables(conn)
    traces = rt_at_points(conn.pts, *rt_affine(conn, local_dofs), conn.pts)

    def side_vals(s):
        k, l = holders[:, s], local[:, s]
        va, vb = (l + 1) % 3, (l + 2) % 3
        ta, tb = traces[k, va, :], traces[k, vb, :]
        flip = (conn.tris[k, va] != conn.edges[:, 0])[:, np.newaxis]
        return np.where(flip, tb, ta), np.where(flip, ta, tb)

    lo0, hi0 = side_vals(0)
    lo1, hi1 = side_vals(1)
    interior = ~conn.boundary_edge
    jlo, jhi = lo0.copy(), hi0.copy()
    jlo[interior] -= lo1[interior]
    jhi[interior] -= hi1[interior]
    coords = conn.forest.coords()
    tang = coords[conn.edges[:, 1]] - coords[conn.edges[:, 0]]
    tangents = tang / conn.lengths[:, np.newaxis]
    j0 = np.einsum("ek,ek->e", jlo, tangents)
    j1 = np.einsum("ek,ek->e", jhi, tangents)
    return conn.lengths * (j0 * j0 + j0 * j1 + j1 * j1) / 3.0


def midpoint_basis(conn):
    """(n, 3, 3, 2) values s_i (m_q - P_i) of basis function i at edge midpoint q."""
    mids = 0.5 * (conn.pts[:, [1, 2, 0], :] + conn.pts[:, [2, 0, 1], :])
    scale = conn.elem_edge_lengths / (2.0 * conn.areas[:, np.newaxis])
    diff = mids[:, np.newaxis, :, :] - conn.pts[:, :, np.newaxis, :]
    return scale[:, :, np.newaxis, np.newaxis] * diff


def midpoint_mass(conn):
    """(n, 3, 3) RT0 local mass by the midpoint rule, exact for quadratics."""
    # the three midpoint values of basis function i side by side in one row of six
    phi = midpoint_basis(conn).reshape(-1, 3, 6)
    return (phi @ phi.transpose(0, 2, 1)) * (conn.areas[:, np.newaxis, np.newaxis] / 3.0)


def scrambled_file_mesh(tmp_path):
    """A refined L-shape written with shuffled vertex numbers and triangle rows."""
    path = tmp_path / "plain.mesh"
    write_mesh(l_shape().uniform_refine().uniform_refine(), path)
    lines = path.read_text().splitlines()
    nv = int(lines[0].split()[1])
    nt = int(lines[nv + 1].split()[1])
    rng = np.random.default_rng(3)
    new = rng.permutation(nv)  # old vertex number -> new
    verts = [None] * nv
    for old, line in enumerate(lines[1 : nv + 1]):
        verts[new[old]] = line
    rows = []
    for line in lines[nv + 2 : nv + 2 + nt]:
        v0, v1, v2, flag = (int(t) for t in line.split())
        rows.append(f"{new[v0]} {new[v1]} {new[v2]} {flag}")
    rows = [rows[i] for i in rng.permutation(nt)]
    bnd = [" ".join(str(new[int(v)]) for v in line.split()) for line in lines[nv + 3 + nt :]]
    out = tmp_path / "scrambled.mesh"
    out.write_text(
        "\n".join(
            [f"vertices {nv}", *verts, f"triangles {nt}", *rows, f"boundary {len(bnd)}", *bnd]
        )
        + "\n"
    )
    return read_mesh(out)


def clockwise_mesh():
    """The L-shape from clockwise triangles, refined at a few scattered leaves."""
    pts = [(0, 0), (1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1)]
    tris = [(0, 2, 1), (0, 3, 2), (0, 4, 3), (0, 5, 4), (0, 6, 5), (0, 7, 6)]
    T = initial_mesh(pts, tris).uniform_refine()
    for _ in range(3):
        T = T.refine(T.leaf_ids[::5])
    return T


MESHES = {
    "graded-l-shape": lambda tmp_path: graded_l_shape(),
    "scrambled-file": scrambled_file_mesh,
    "clockwise-input": lambda tmp_path: clockwise_mesh(),
}


@pytest.fixture(params=sorted(MESHES))
def conn(request, tmp_path):
    return Connectivity(MESHES[request.param](tmp_path))


def test_signs_from_vertex_order_match_the_geometric_test(conn):
    assert np.array_equal(conn.elem_signs, geometric_signs(conn))
    # the two holders of an interior edge hold it with opposite signs
    sums = conn.signed_edge_sum(np.ones((len(conn.tris), 3)))
    assert np.array_equal(sums == 0.0, ~conn.boundary_edge)


def test_edge_elem_is_the_first_holder(conn):
    assert np.array_equal(conn.edge_elem, holder_tables(conn)[0][:, 0])


def test_nodes_are_numbered_in_vertex_order(conn):
    # the numbering the binary searches in the sorted vertex list gave
    vertices = np.unique(conn.tris)
    assert np.array_equal(conn.node_vertices, vertices)
    assert np.array_equal(conn.elem_nodes, np.searchsorted(vertices, conn.tris))
    ends = np.searchsorted(vertices, conn.edges)
    assert np.array_equal(conn.edge_nodes(), ends)
    boundary = np.zeros(conn.n_nodes, dtype=bool)
    boundary[ends[conn.boundary_edge].ravel()] = True
    assert np.array_equal(conn.boundary_node, boundary)


def test_tangential_jumps_match_the_two_holder_jumps_bit_for_bit(conn):
    rng = np.random.default_rng(11)
    for _ in range(3):
        dofs = conn.local_flux_dofs(rng.standard_normal(conn.n_edges))
        got = tangential_jump_norms(conn, *rt_affine(conn, dofs))
        assert np.array_equal(got, two_holder_jump_norms(conn, dofs))
        # an elementwise field that is not a global RT0 field
        dofs = rng.standard_normal((len(conn.tris), 3))
        got = tangential_jump_norms(conn, *rt_affine(conn, dofs))
        assert np.array_equal(got, two_holder_jump_norms(conn, dofs))


def test_normal_jump_of_a_gradient_matches_the_holder_difference(conn):
    rng = np.random.default_rng(5)
    grad = rng.standard_normal((len(conn.tris), 2))
    k0, k1 = holder_tables(conn)[0].T
    interior = ~conn.boundary_edge
    want = np.einsum("ek,ek->e", grad[k0] - grad[k1], conn.normals)[interior]
    got = np.einsum(
        "ek,ek->e", conn.signed_edge_sum(np.repeat(grad[:, None, :], 3, axis=1)), conn.normals
    )[interior]
    # the sum is the jump from the side that holds the edge with sign +1
    assert np.array_equal(np.abs(got), np.abs(want))


def test_normal_traces_of_a_conforming_field_cancel_on_interior_edges(conn):
    rng = np.random.default_rng(2)
    p = rng.standard_normal(conn.n_edges)
    mids = edge_midpoints(conn)[conn.elem_edges]
    vals = rt_at_points(conn.pts, *rt_affine(conn, conn.local_flux_dofs(p)), mids)
    traces = np.einsum("nik,nik->ni", vals, conn.normals[conn.elem_edges])
    sums = conn.signed_edge_sum(traces)
    interior = ~conn.boundary_edge
    assert np.max(np.abs(sums[interior])) <= 1e-12 * np.max(np.abs(p))
    # a boundary edge gets its one side: its holder's sign times its flux
    b = np.flatnonzero(conn.boundary_edge)
    k = conn.edge_elem[b]
    side = np.argmax(conn.elem_edges[k] == b[:, None], axis=1)
    want = conn.elem_signs[k, side] * p[b]
    assert np.max(np.abs(sums[b] - want)) <= 1e-12 * np.max(np.abs(p))


# each closed_form_* returns the package's closed form, its midpoint-rule
# reference and, per element (or edge), the magnitude the error is held to


def closed_form_norm(conn, p):
    d = conn.local_flux_dofs(p)
    want = np.einsum("ni,nij,nj->n", d, midpoint_mass(conn), d)
    return rt_norm2(conn, *rt_affine(conn, d)), want, want


def closed_form_deviation(conn, p):
    d = conn.local_flux_dofs(p)
    a, _ = rt_affine(conn, d)
    vals = np.einsum("ni,niqk->nqk", d, midpoint_basis(conn))
    dev = vals - vals.mean(axis=1)[:, np.newaxis, :]
    want = conn.areas / 3.0 * np.einsum("nqk,nqk->n", dev, dev)
    return a * a * conn.second_moments(), want, want


def closed_form_moments(conn, p):
    # the mass rows A p of the saddle residual sum M d over each edge's holders
    d = conn.local_flux_dofs(p)
    means = conn.rt_means()
    got = _mass_rows(conn, rt_affine(conn, d, means), means)
    local = np.einsum("nij,nj->ni", midpoint_mass(conn), d)
    scale = np.bincount(conn.elem_edges.ravel(), np.abs(local).ravel(), conn.n_edges)
    return got, conn.signed_edge_sum(local), scale


def closed_form_means(conn, p):
    want = conn.areas[:, np.newaxis, np.newaxis] / 3.0 * midpoint_basis(conn).sum(axis=2)
    return conn.areas[:, np.newaxis, np.newaxis] * conn.rt_means(), want, want


@pytest.mark.parametrize(
    "closed_form",
    [closed_form_norm, closed_form_deviation, closed_form_moments, closed_form_means],
    ids=lambda fn: fn.__name__,
)
def test_closed_form_integrals_match_the_midpoint_rule(closed_form):
    conn = Connectivity(graded_l_shape())
    rng = np.random.default_rng(13)
    for _ in range(3):
        got, want, scale = closed_form(conn, rng.standard_normal(conn.n_edges))
        # relative to each element's (or edge's) own magnitude, so that the
        # smallest elements of the grading are held to the same bound
        err = np.abs(got - want).reshape(len(got), -1).max(axis=1)
        assert np.all(err <= 1e-13 * np.abs(scale).reshape(len(got), -1).max(axis=1))


def test_least_squares_rows_give_the_functional():
    # assemble_ls returns four rows of R per element; with
    # b = -sqrt|K| f_K on each divergence row, ||R x - b||^2 + mu^2 is the
    # least-squares functional of x = (p, u), as the 7-point rule gives
    # Q((f + c)^2) = |K| (f_K + c)^2 + Q((f - f_K)^2) for a constant c
    T = graded_l_shape()
    f = field_from_name("radial-alpha:0.6")
    rows, dofs, _, conn, interior = assemble_ls(T, f)
    assert rows.shape == (len(conn.tris), 4, 6)
    b = np.zeros(rows.shape[:2])
    b[:, 0] = -np.sqrt(conn.areas) * integrate_many(f, conn.pts) / conn.areas
    mu2 = math.fsum(ElementOscillation(f).mesh_values2(T).values.tolist())
    rng = np.random.default_rng(17)
    for _ in range(3):
        p = rng.standard_normal(conn.n_edges)
        u = np.zeros(conn.n_nodes)
        u[interior] = rng.standard_normal(int(interior.sum()))
        # x[-1] = 0 stands for the eliminated boundary nodes
        x = np.concatenate((p, u[interior], [0.0]))
        res = np.einsum("nrq,nq->nr", rows, x[dofs]) - b
        got = math.fsum((res * res).ravel().tolist()) + mu2
        want = ls_functional(conn, f, p, u)
        assert abs(got - want) <= 1e-12 * want


@pytest.mark.parametrize("cls", [MixedPoisson, LeastSquaresPoisson])
def test_finished_levels_keep_no_tables_and_derive_them_again_bit_for_bit(cls):
    # a finished level keeps its leaves and its solution's coefficients;
    # its tables, Connectivity among them, are derived again when read
    params = SafemParams(max_elements=400, sigma_tol=1e-9)
    res = safem_run(cls(field_from_name("radial-alpha:0.6")), l_shape(), params)
    assert len(res.meshes) > 2
    assert [T._cache for T in res.meshes[:-1]] == [{}] * (len(res.meshes) - 1)
    assert "connectivity" in res.meshes[-1]._cache
    for T, sol in zip(res.meshes, res.solutions):
        built = vars(Connectivity(T))
        kept = vars(sol.conn)
        assert sol.conn is T._cache["connectivity"]
        assert kept.keys() == built.keys()
        for name, value in built.items():
            assert type(kept[name]) is type(value), name
            if isinstance(value, np.ndarray):
                assert np.array_equal(kept[name], value), name
            else:
                assert kept[name] is value or kept[name] == value, name


@pytest.mark.parametrize("cls", [MixedPoisson, LeastSquaresPoisson])
def test_each_estimate_derives_the_rt0_pair_once(cls, monkeypatch):
    # the mixed solve derives the pair and keeps it, so its estimate
    # derives none; the least-squares estimate derives one
    T = graded_l_shape()
    prob = cls(field_from_name("radial-alpha:0.6"))
    sol = prob.solve(T)
    calls = []

    def counted(*args):
        calls.append(1)
        return rt_affine(*args)

    for module in (sepfem.edges, sepfem.mixed_fem, sepfem.ls_fem):
        monkeypatch.setattr(module, "rt_affine", counted)
    prob.eta(T, sol)
    assert len(calls) == (0 if cls is MixedPoisson else 1)

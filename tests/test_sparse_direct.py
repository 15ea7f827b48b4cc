"""SPD direct solves: the nested-dissection ordering and the SuperLU path."""

import inspect
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import sepfem.ls_fem
import sepfem.mixed_fem
import sepfem.sparse_direct as sparse_direct
from conftest import edge_midpoints
from sepfem import field_from_name, l_shape
from sepfem.edges import Connectivity
from sepfem.ls_fem import assemble_ls
from sepfem.mesh import initial_mesh, read_mesh, unit_square_criss, write_mesh
from sepfem.mixed_fem import solve_mixed
from sepfem.quadrature import _centroids
from sepfem.ls_fem import solve_ls
from sepfem.mixed_fem import _dual_tree, _free_nodes_and_holes
from sepfem.sparse_direct import (
    _CLUSTER_DEPTH,
    SolverError,
    _clusters,
    _dissect,
    _leaf_slots,
    _ordered_gram,
    _row_matrix,
    assemble_nodal,
    nested_dissection,
    solve_spd,
)


def element_slots(conn):
    """The dissection of the elements themselves, as the reference for the clusters.

    Every part with more than 16 elements is sorted along the longer axis
    of the bounding box of its element centroids and cut in two.  The cut
    is the position within 20 % of the part's size around its median
    that the fewest interior edges (joining the two elements holding
    them) cross; ties go to the position nearest the median, then to the
    lower one.  All parts of one level are cut together.  Returns the
    first and last slot of each element's leaf, as ``_leaf_slots``.
    """
    ne = len(conn.tris)
    centroids = _centroids(conn.pts)
    xs, ys = centroids[:, 0].copy(), centroids[:, 1].copy()
    inner = np.flatnonzero(~conn.boundary_edge)
    a = conn.edge_elem[inner]
    b = conn.other_elem()[inner]

    part = np.ones(ne, dtype=np.int64)
    depth = np.zeros(ne, dtype=np.int64)
    active = np.arange(ne if ne > 16 else 0)
    counts = np.array([ne], dtype=np.int64)
    heap = np.ones(1, dtype=np.int64)
    level = 0
    while len(active):
        m = len(active)
        first = np.cumsum(counts) - counts
        grp = np.repeat(np.arange(len(counts)), counts)

        x, y = xs[active], ys[active]
        xlo, ylo = np.minimum.reduceat(x, first), np.minimum.reduceat(y, first)
        xspan = np.maximum.reduceat(x, first) - xlo
        yspan = np.maximum.reduceat(y, first) - ylo
        along_y = yspan > xspan
        lo = np.where(along_y, ylo, xlo)
        width = np.where(along_y, yspan, xspan)
        frac = (np.where(along_y[grp], y, x) - lo[grp]) / np.where(
            width > 0.0, width, 1.0
        )[grp]
        order = np.argsort(grp + 0.5 * frac, kind="stable")
        active = active[order]
        idx = np.arange(m)
        pos = np.empty(m, dtype=np.int64)
        pos[order] = idx
        a, b = pos[a], pos[b]
        low_end, high_end = np.minimum(a, b), np.maximum(a, b)

        crossings = np.zeros(m, dtype=np.int64)
        crossings[1:] = np.cumsum(
            np.bincount(low_end, minlength=m) - np.bincount(high_end, minlength=m)
        )[:-1]
        median = (counts // 2)[grp]
        offset = idx - first[grp] - median
        dist = np.abs(offset)
        key = np.where(
            dist <= (0.2 * counts).astype(np.int64)[grp],
            crossings * (2 * m + 2) + 2 * dist + (offset > 0),
            np.iinfo(np.int64).max,
        )
        cut = np.flatnonzero(key == np.minimum.reduceat(key, first)[grp])
        upper = idx >= cut[grp]

        half = 2 * grp + upper
        sizes = np.bincount(half, minlength=2 * len(counts))
        split = sizes > 16
        going = split[half]
        done = ~going
        ids = active[done]
        part[ids], depth[ids] = 2 * heap[grp[done]] + upper[done], level + 1

        stay = going[low_end] & (upper[low_end] == upper[high_end])
        kept = np.cumsum(going) - 1
        a, b = kept[low_end[stay]], kept[high_end[stay]]
        active = active[going]
        counts = sizes[split]
        heap = (2 * heap[:, np.newaxis] + np.arange(2)).ravel()[split]
        level += 1

    below = depth.max() - depth
    return part << below, ((part + 1) << below) - 1


def coupling_dissection(S, coords):
    """The ordering of the unknowns by their couplings, as the reference for fill.

    Every part with more than 32 unknowns is sorted along the longer axis
    of the bounding box of the unknowns' coordinates and cut in two.  The
    cut is the position within 20 % of the part's size around its median
    that the fewest couplings (stored entries of S) cross; ties go to the
    position nearest the median, then to the lower one.  The unknowns of
    either half that are coupled to the other half separate the two; the
    smaller of these two sets is the separator, and the rest of each half
    is split again.  The ordering lists each part's two halves before its
    separator.  All parts of one level are split together.
    """
    n = S.shape[0]
    coords = np.asarray(coords, dtype=float)
    xs, ys = coords[:, 0].copy(), coords[:, 1].copy()
    coo = sp.triu(S, k=1, format="coo")
    # parts are numbered as in a binary heap: the root is 1, the halves
    # of part k are 2k and 2k + 1
    part = np.ones(n, dtype=np.int64)
    depth = np.zeros(n, dtype=np.int64)
    # the unknowns of the parts still to split, grouped by part, with the
    # parts' sizes and heap numbers
    active = np.arange(n if n > 32 else 0)
    counts = np.array([n], dtype=np.int64)
    heap = np.ones(1, dtype=np.int64)
    # the couplings, as pairs of positions in the previous level's
    # ``active``; ``kept`` maps such a position to the unknown's index in
    # the current ``active``, or to -1 once the unknown left (as part of
    # a separator or of a finished half)
    a, b = coo.row.astype(np.int64), coo.col.astype(np.int64)
    kept = np.arange(len(active))
    level = 0
    while len(active):
        m = len(active)
        first = np.cumsum(counts) - counts
        grp = np.repeat(np.arange(len(counts)), counts)

        x, y = xs[active], ys[active]
        xlo, ylo = np.minimum.reduceat(x, first), np.minimum.reduceat(y, first)
        xspan = np.maximum.reduceat(x, first) - xlo
        yspan = np.maximum.reduceat(y, first) - ylo
        along_y = yspan > xspan
        lo = np.where(along_y, ylo, xlo)
        width = np.where(along_y, yspan, xspan)
        frac = (np.where(along_y[grp], y, x) - lo[grp]) / np.where(
            width > 0.0, width, 1.0
        )[grp]
        # one sort orders the parts and, inside each, the coordinate:
        # the part is the integer part of the key, frac is in [0, 1]
        order = np.argsort(grp + 0.5 * frac, kind="stable")
        active = active[order]
        idx = np.arange(m)
        pos = np.empty(m, dtype=np.int64)
        pos[order] = idx
        # one filter per level drops the couplings of the unknowns that
        # left: separators, finished halves, and with them every coupling
        # that crossed a cut
        kept = np.where(kept >= 0, pos[kept], -1)
        a, b = kept[a], kept[b]
        inside = (a >= 0) & (b >= 0)
        a, b = a[inside], b[inside]
        low_end, high_end = np.minimum(a, b), np.maximum(a, b)

        # a cut before position c crosses the couplings with
        # low_end < c <= high_end
        crossings = np.zeros(m, dtype=np.int64)
        crossings[1:] = np.cumsum(
            np.bincount(low_end, minlength=m) - np.bincount(high_end, minlength=m)
        )[:-1]
        # one integer key per position ranks the cuts of a part: fewest
        # crossings, then nearest the median, then the lower side; it is
        # unique within a part, and the median is always a candidate
        median = (counts // 2)[grp]
        offset = idx - first[grp] - median
        dist = np.abs(offset)
        key = np.where(
            dist <= (0.2 * counts).astype(np.int64)[grp],
            crossings * (2 * m + 2) + 2 * dist + (offset > 0),
            np.iinfo(np.int64).max,
        )
        cut = np.flatnonzero(key == np.minimum.reduceat(key, first)[grp])
        upper = idx >= cut[grp]

        crossing = upper[high_end] & ~upper[low_end]
        low = np.zeros(m, dtype=bool)
        low[low_end[crossing]] = True
        high = np.zeros(m, dtype=bool)
        high[high_end[crossing]] = True
        n_low = np.add.reduceat(low, first, dtype=np.int64)
        n_high = np.add.reduceat(high, first, dtype=np.int64)
        sep = np.where((n_high < n_low)[grp], high, low)

        # halves of at most 32 unknowns are finished
        half = 2 * grp + upper
        sizes = np.bincount(half[~sep], minlength=2 * len(counts))
        split = sizes > 32
        going = ~sep & split[half]
        done = ~(sep | going)
        ids = active[sep]
        part[ids], depth[ids] = heap[grp[sep]], level
        ids = active[done]
        part[ids], depth[ids] = 2 * heap[grp[done]] + upper[done], level + 1

        a, b = low_end, high_end
        kept = np.where(going, np.cumsum(going) - 1, -1)
        active = active[going]
        counts = sizes[split]
        heap = (2 * heap[:, np.newaxis] + np.arange(2)).ravel()[split]
        level += 1

    # post-order of the part tree: a part's unknowns follow every part
    # below it, which is the order of the last leaf slot under each part
    # (at the deepest level), deeper parts first
    slots = int(depth.max()) if n else 0
    last = ((part + 1) << (slots - depth)) - 1
    return np.lexsort((np.arange(n), -depth, last))


def median_dissection(S, coords):
    """The exact-median nested dissection, as the reference for fill.

    Every part with more than 32 unknowns is split at the median of the
    longer axis of its bounding box, and the smaller one-sided boundary
    separates the halves.
    """
    n = S.shape[0]
    coords = np.asarray(coords, dtype=float)
    coo = sp.triu(S, k=1, format="coo")
    row, col = coo.row, coo.col
    part = np.ones(n, dtype=np.int64)
    depth = np.zeros(n, dtype=np.int64)
    side = np.zeros(n, dtype=np.int8)
    active = np.arange(n)
    while len(active):
        first = np.flatnonzero(np.r_[True, np.diff(part[active]) != 0])
        counts = np.diff(np.r_[first, len(active)])
        big = counts > 32
        active = active[np.repeat(big, counts)]
        if not len(active):
            break
        counts = counts[big]
        first = np.r_[0, np.cumsum(counts)[:-1]]
        grp = np.repeat(np.arange(len(counts)), counts)

        x = coords[active]
        lo = np.minimum.reduceat(x, first)
        span = np.maximum.reduceat(x, first) - lo
        axis = (span[:, 1] > span[:, 0]).astype(np.int64)
        width = span[np.arange(len(counts)), axis]
        ax = axis[grp]
        frac = (x[np.arange(len(active)), ax] - lo[grp, ax]) / np.where(
            width > 0.0, width, 1.0
        )[grp]
        active = active[np.argsort(grp + 0.5 * frac, kind="stable")]
        upper = np.arange(len(active)) - first[grp] >= counts[grp] // 2

        side[active] = np.where(upper, 2, 1)
        d = side[row] - side[col]
        low = np.zeros(n, dtype=bool)
        low[row[d == -1]] = True
        low[col[d == 1]] = True
        high = np.zeros(n, dtype=bool)
        high[row[d == 1]] = True
        high[col[d == -1]] = True
        side[active] = 0
        low, high = low[active], high[active]
        n_low = np.bincount(grp, weights=low, minlength=len(counts))
        n_high = np.bincount(grp, weights=high, minlength=len(counts))
        sep = np.where((n_high < n_low)[grp], high, low)

        active, upper = active[~sep], upper[~sep]
        part[active] = 2 * part[active] + upper
        depth[active] += 1
        live = np.zeros(n, dtype=bool)
        live[active] = True
        keep = live[row] & live[col]
        row, col = row[keep], col[keep]

    slots = int(depth.max()) if n else 0
    last = ((part + 1) << (slots - depth)) - 1
    return np.lexsort((np.arange(n), -depth, last))


def assemble_spd(rows, dofs, n, conn):
    """S and perm of the system R^T R on any unknowns ``dofs``.

    The module's two steps, as ``assemble_nodal`` takes them for nodal
    unknowns: ``nested_dissection`` orders the unknowns, and
    ``_ordered_gram`` forms the system in that order.
    """
    perm = nested_dissection(conn, dofs, n)
    return _ordered_gram(rows, dofs, perm)[0], perm


def recorded_assemblies(module, monkeypatch):
    """Each system ``module`` assembles through ``assemble_nodal``: the
    arguments (rows, dofs, n, conn) of the system on its unknowns in
    node order, and what was returned for it, (S, perm)."""
    calls = []

    def record(rows, conn, subsets):
        out = assemble_nodal(rows, conn, subsets)
        for keep, (S, perm, _) in zip(subsets, out):
            dofs = np.where(keep, np.cumsum(keep) - 1, -1)[conn.elem_nodes]
            calls.append(((rows, dofs, int(keep.sum()), conn), (S, perm)))
        return out

    monkeypatch.setattr(module, "assemble_nodal", record)
    return calls


def gram(rows, dofs, n):
    """A = R^T R on the unknowns' own labels, R stored with its zeros.

    Row r of element k of R is ``rows[k, r]`` on the columns ``dofs[k]``;
    the columns -1 are dropped.
    """
    m, r, _ = rows.shape
    cols = np.broadcast_to(dofs[:, np.newaxis, :], rows.shape)
    line = np.broadcast_to(np.arange(m * r).reshape(m, r, 1), rows.shape)
    keep = cols >= 0
    R = sp.coo_matrix((rows[keep], (line[keep], cols[keep])), shape=(m * r, n)).tocsr()
    return (R.T @ R).tocsr()


def spd_system(call, **rest):
    """The system of one assembly: A = R^T R formed on the unknowns' own
    labels, and S and perm as the assembly returned them."""
    (rows, dofs, n, conn), (S, perm) = call
    return SimpleNamespace(A=gram(rows, dofs, n), S=S, perm=perm, conn=conn, dofs=dofs, **rest)


def ls_system(levels):
    T = l_shape()
    for _ in range(levels):
        T = T.uniform_refine()
    return ls_system_on(T)


def ls_system_on(T):
    """The least-squares optimality system on edges and interior nodes,
    assembled here from the rows of ``assemble_ls``, and its right-hand
    side, with one point per unknown for the reference orderings.  The
    solver factors only P1 systems, but this one, with three kinds of
    coupling, still tests the ordering."""
    rows, dofs, rhs, conn, interior = assemble_ls(T, field_from_name("one"))
    args = (rows, dofs, len(rhs), conn)
    coords = np.concatenate(
        (edge_midpoints(conn), T.forest.coords()[conn.node_vertices[interior]])
    )
    return spd_system((args, assemble_spd(*args)), rhs=rhs, coords=coords)


def curl_system_on(T, monkeypatch):
    """The P1 stream-function system of the mixed solve, with the
    coordinates of each unknown's node."""
    calls = recorded_assemblies(sepfem.mixed_fem, monkeypatch)
    solve_mixed(T, field_from_name("one"))
    _, dofs, n, conn = calls[0][0]
    held = dofs >= 0
    coords = np.empty((n, 2))
    coords[dofs[held]] = T.forest.coords()[conn.node_vertices[conn.elem_nodes[held]]]
    return spd_system(calls[0], coords=coords)


def edge_dofs(T):
    """Connectivity, element unknowns and count of a system with one
    unknown per interior edge, numbered by edge."""
    conn = Connectivity(T)
    interior = ~conn.boundary_edge
    index = np.full(conn.n_edges, -1, dtype=np.int64)
    index[interior] = np.arange(int(interior.sum()))
    return conn, index[conn.elem_edges], int(interior.sum())


def fill(A):
    lu = spla.splu(
        A.tocsc(), permc_spec="NATURAL", diag_pivot_thresh=0.0,
        options=dict(SymmetricMode=True),
    )
    return lu.L.nnz + lu.U.nnz


def reordered(S, perm):
    return S.tocsr()[perm][:, perm]


def is_permutation(perm, n):
    return np.array_equal(np.sort(perm), np.arange(n))


def test_small_system_keeps_natural_order():
    system = ls_system(1)
    assert len(system.conn.tris) <= 16
    n = system.S.shape[0]
    assert system.perm.tolist() == list(range(n))


def test_ordering_is_a_permutation_that_cuts_fill():
    system = ls_system(8)
    assert is_permutation(system.perm, system.S.shape[0])
    # the natural order of the unknowns follows the forest and is far
    # from banded; dissection must cut the factor's fill several times
    assert 3 * fill(system.S) < fill(system.A)


def graded_system(T, system, monkeypatch):
    if system == "ls":
        system = ls_system_on(T)
    else:
        system = curl_system_on(T, monkeypatch)
    assert len(system.conn.tris) == 3616
    assert len(system.coords) == system.S.shape[0]
    assert is_permutation(system.perm, system.S.shape[0])
    return system


@pytest.mark.parametrize("system", ["ls", "curl"])
def test_cuts_by_crossings_store_less_fill_than_median_cuts_on_a_graded_mesh(
    graded_mesh, system, monkeypatch
):
    system = graded_system(graded_mesh, system, monkeypatch)
    ref = median_dissection(system.A, system.coords)
    assert fill(system.S) <= 0.8 * fill(reordered(system.A, ref))


@pytest.mark.parametrize("system", ["ls", "curl"])
def test_element_dissection_stores_no_more_fill_than_the_coupling_ordering(
    graded_mesh, system, monkeypatch
):
    system = graded_system(graded_mesh, system, monkeypatch)
    ref = coupling_dissection(system.A, system.coords)
    assert fill(system.S) <= fill(reordered(system.A, ref))


@pytest.mark.parametrize("system", ["ls", "curl"])
def test_cluster_dissection_stores_at_most_5_percent_more_fill_than_the_element_one(
    graded_mesh, system, monkeypatch
):
    clusters = graded_system(graded_mesh, system, monkeypatch)
    monkeypatch.setattr(sparse_direct, "_leaf_slots", element_slots)
    elements = graded_system(graded_mesh, system, monkeypatch)
    assert fill(clusters.S) <= 1.05 * fill(elements.S)


def test_root_mesh_is_dissected_element_by_element(graded_mesh, tmp_path):
    # the graded mesh read back as a root mesh: every element is a cluster
    # of its own, with unit weight, and the rule is the element rule
    write_mesh(graded_mesh, tmp_path / "graded.mesh")
    conn = Connectivity(read_mesh(tmp_path / "graded.mesh"))
    assert len(conn.tris) == 3616
    assert np.array_equal(_clusters(conn), np.arange(3616))
    first, last = _leaf_slots(conn)
    ref_first, ref_last = element_slots(conn)
    assert np.array_equal(first, ref_first) and np.array_equal(last, ref_last)


def test_clusters_partition_the_leaves_under_their_ancestors(graded_mesh):
    T = graded_mesh
    cluster = _clusters(T)
    sizes = np.bincount(cluster)
    assert len(cluster) == T.n_elements and sizes.min() >= 1
    assert sizes.max() <= 2**_CLUSTER_DEPTH == 8
    # each leaf's ancestor three generations up, clamped at the roots
    anc = []
    for leaf in T.leaf_ids.tolist():
        for _ in range(_CLUSTER_DEPTH):
            up = T.forest.parent(leaf)
            leaf = leaf if up < 0 else up
        anc.append(leaf)
    anc = np.array(anc)
    # one cluster per ancestor, numbered in the ancestors' order
    assert np.array_equal(np.unique(anc, return_inverse=True)[1].ravel(), cluster)
    # and every leaf lies inside its ancestor's triangle
    v = T.forest.node_coords(anc)
    c = _centroids(T.tri_coords())
    e1, e2, d = v[:, 1] - v[:, 0], v[:, 2] - v[:, 0], c - v[:, 0]
    det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    s = (d[:, 0] * e2[:, 1] - d[:, 1] * e2[:, 0]) / det
    t = (e1[:, 0] * d[:, 1] - e1[:, 1] * d[:, 0]) / det
    assert np.all((s > 0.0) & (t > 0.0) & (s + t < 1.0))
    # the clusters are not the elements themselves on a refined mesh,
    # and the dissection never parts a cluster's elements
    assert sizes.mean() > 2.0
    first, last = _leaf_slots(Connectivity(T))
    for slots in (first, last):
        assert np.array_equal(slots, slots[np.unique(cluster, return_index=True)[1]][cluster])


@pytest.mark.parametrize(
    "weights, lower",
    [
        # the median element is 9 of 18, the window reaches 3 elements
        # from it, and the two cuts lie 4 from it: the lower one is taken
        ((5, 8, 5), 1),
        # with the median element at a cluster's edge, the cut is there
        ((8, 8, 1), 1),
        # the cut nearest the median would leave the lower half empty
        ((16, 1), 1),
        ((1, 16), 1),
        # a half of one point is a leaf, however heavy
        ((20, 1), 1),
    ],
)
def test_heavy_points_are_cut_nearest_the_median_into_two_halves(weights, lower):
    # points on a line, no couplings: every cut crosses nothing
    n = len(weights)
    xs, ys = np.arange(float(n)), np.zeros(n)
    none = np.zeros(0, dtype=np.int64)
    first, last = _dissect(xs, ys, np.array(weights), none, none)
    # the root's halves are parts 2 and 3, both leaves here
    assert first.tolist() == [2] * lower + [3] * (n - lower)
    assert np.array_equal(first, last)


def strip(m):
    """m triangles in a row along x, each sharing an edge with the next.

    Their longest edges lie on the boundary, so a bisection does not
    spread to the neighbours.
    """
    k = (m + 2) // 2
    pts = [(2.0 * j, 0.0) for j in range(k)] + [(2.0 * j + 1.0, 0.5) for j in range(k)]
    tris = [
        (i // 2, i // 2 + 1, k + i // 2) if i % 2 == 0 else (i // 2 + 1, k + i // 2 + 1, k + i // 2)
        for i in range(m)
    ]
    return initial_mesh(pts, tris)


def test_one_above_the_leaf_size_splits_at_the_median():
    # every cut of a strip crosses one interior edge, so the median wins:
    # elements 0..7 and 8..16; edge unknown i joins elements i and i + 1,
    # and the edge between the halves is ordered last
    conn, dofs, n = edge_dofs(strip(17))
    assert n == 16
    perm = nested_dissection(conn, dofs, n)
    assert perm.tolist() == list(range(7)) + list(range(8, 16)) + [7]


def test_cut_avoids_couplings_bunched_at_the_median():
    # a strip of 200 triangles whose middle is bisected four times over:
    # a cut through the refined band crosses several interior edges,
    # a cut through the coarse strip one
    T = strip(200)
    for _ in range(4):
        x = T.tri_coords().mean(axis=1)[:, 0]
        T = T.refine(T.leaf_ids[(x > 98.0) & (x < 102.0)])
    conn, dofs, n = edge_dofs(T)
    x = conn.pts.mean(axis=1)[:, 0]
    assert 98.0 < np.sort(x)[len(x) // 2] < 102.0
    perm = nested_dissection(conn, dofs, n)
    assert is_permutation(perm, n)
    # the root separator is the one edge the chosen cut crosses
    root = edge_midpoints(conn)[np.flatnonzero(~conn.boundary_edge)[perm[-1]]]
    assert not 98.0 < root[0] < 102.0


def disjoint_triangles(centres):
    """One small triangle around each centre, turned by its index, none
    sharing a vertex or an edge with another."""
    turn = np.arange(len(centres))[:, np.newaxis] + np.arange(3) * 2.0 * np.pi / 3.0
    pts = np.asarray(centres, dtype=float)[:, np.newaxis, :] + 0.1 * np.stack(
        (np.cos(turn), np.sin(turn)), axis=2
    )
    return initial_mesh(pts.reshape(-1, 2), np.arange(3 * len(centres)).reshape(-1, 3))


@pytest.mark.parametrize("case", ["one-x", "one-point", "no-couplings"])
def test_degenerate_input_gives_a_permutation(case):
    # 40 elements with no interior edge, each holding three unknowns of
    # its own: every cut crosses nothing
    m = 40
    if case == "one-x":
        centres = [(0.0, float(k)) for k in range(m)]
    elif case == "one-point":
        centres = [(0.0, 0.0)] * m
    else:
        centres = [(float(k % 8), float(k // 8)) for k in range(m)]
    conn = Connectivity(disjoint_triangles(centres))
    assert conn.boundary_edge.all()
    centroids = conn.pts.mean(axis=1)
    if case != "no-couplings":
        assert np.ptp(centroids[:, 0]) < 1e-12
    if case == "one-point":
        assert np.ptp(centroids[:, 1]) < 1e-12
    dofs = np.arange(3 * m).reshape(m, 3)
    assert is_permutation(nested_dissection(conn, dofs, 3 * m), 3 * m)


def test_singular_system_raises_solver_error():
    # the second pivot of [[1, 1], [1, 1]] is exactly zero: the first
    # element adds the row (1, 1) on the unknowns 0 and 1, the second a
    # row of zeros
    conn = Connectivity(unit_square_criss())
    dofs = np.array([[0, 1, -1], [0, 1, -1]])
    rows = np.array([[[1.0, 1.0, 3.0]], [[0.0, 0.0, 3.0]]])
    S, perm = assemble_spd(rows, dofs, 2, conn)
    assert np.array_equal(S.toarray(), np.ones((2, 2)))
    with pytest.raises(SolverError, match="exactly singular"):
        solve_spd(S, np.ones(2), perm)


def test_superlu_path_matches_reference_solve():
    system = ls_system(3)
    A, rhs = system.A, system.rhs
    x, factor = solve_spd(system.S, rhs, system.perm)
    ref = spla.spsolve(sp.csc_matrix(A), rhs)
    assert np.max(np.abs(x - ref)) <= 1e-10 * np.max(np.abs(ref))
    lu = spla.splu(
        reordered(A, system.perm).tocsc(), permc_spec="NATURAL", diag_pivot_thresh=0.0,
        options=dict(SymmetricMode=True),
    )
    assert factor.nnz == lu.nnz
    # the kept factor solves again, in the unknowns' own order
    assert np.array_equal(factor.solve(rhs), x)
    both = factor.solve(np.column_stack((rhs, 2.0 * rhs)))
    assert np.array_equal(both[:, 0], x) and np.array_equal(both[:, 1], 2.0 * x)


@pytest.mark.parametrize("system", ["ls", "curl"])
def test_systems_are_assembled_in_their_factors_order_bit_for_bit(graded_mesh, system, monkeypatch):
    # S = P A P^T, formed once on the relabelled unknowns: the same
    # entries, in the same bits, as R^T R on the unknowns' own labels
    # permuted afterwards, with sorted 32-bit indices; both systems
    # eliminate unknowns (the boundary nodes of LS, the pinned node of
    # the curl system)
    system = graded_system(graded_mesh, system, monkeypatch)
    assert np.any(system.dofs < 0)
    S, ref = system.S, reordered(system.A, system.perm)
    ref.sort_indices()
    assert S.format == "csr"
    assert S.indptr.dtype == S.indices.dtype == np.int32
    rows = np.repeat(np.arange(S.shape[0]), np.diff(S.indptr))
    assert np.all((np.diff(S.indices) > 0) | (np.diff(rows) > 0))
    assert np.array_equal(S.indptr, ref.indptr)
    assert np.array_equal(S.indices, ref.indices)
    assert np.array_equal(S.data.view(np.int64), ref.data.view(np.int64))


@pytest.mark.parametrize("system", ["ls", "curl"])
def test_assembled_systems_equal_their_transpose_bit_for_bit(graded_mesh, system, monkeypatch):
    # entries (i, j) and (j, i) sum the same products over the rows of R
    # in the same order, so SuperLU's symmetric mode sees S bit for bit
    # from either triangle, and reads its CSR arrays as CSC
    S = graded_system(graded_mesh, system, monkeypatch).S.copy()
    St = S.T.tocsr()
    for A in (S, St):
        A.sort_indices()
    assert np.array_equal(S.indptr, St.indptr)
    assert np.array_equal(S.indices, St.indices)
    assert np.array_equal(S.data.view(np.int64), St.data.view(np.int64))


def test_assembled_system_does_not_depend_on_the_unknowns_labels():
    # rows of magnitudes 1e-8 to 1e8 on 20 unknowns shared by many of 96
    # elements, so every entry sums many products, whose rounding depends
    # on the order they are added in; under 20 relabellings of the
    # unknowns, S mapped back to the first labels is the same bit for bit
    T = l_shape()
    for _ in range(4):
        T = T.uniform_refine()
    conn = Connectivity(T)
    m, n = len(conn.tris), 20
    assert m == 96
    rng = np.random.default_rng(7)
    dofs = np.array([rng.choice(n, 6, replace=False) for _ in range(m)])
    dofs[rng.random(dofs.shape) < 0.1] = -1
    rows = rng.choice([-1.0, 1.0], (m, 3, 6)) * 10.0 ** rng.uniform(-8.0, 8.0, (m, 3, 6))
    mapped = []
    for _ in range(20):
        label = rng.permutation(n)
        S, perm = assemble_spd(rows, np.where(dofs >= 0, label[dofs], -1), n, conn)
        # S[i, j] is the entry of the unknowns perm[i] and perm[j] of the
        # relabelled system, whose unknown label[a] is unknown a
        A = np.empty((n, n))
        A[np.ix_(perm, perm)] = S.toarray()
        mapped.append(A[np.ix_(label, label)].view(np.int64))
    assert np.count_nonzero(mapped[0]) == n * n
    for A in mapped[1:]:
        assert np.array_equal(A, mapped[0])


def test_names_the_benchmark_tracer_wraps_are_in_place(monkeypatch):
    # perfbench/spans.py times ``nested_dissection`` and ``solve_spd`` by
    # name, reads the size of ``solve_spd``'s first argument and counts
    # the factors through ``spla``; a renamed one reads 0 without error
    assert callable(sparse_direct.nested_dissection)
    assert sparse_direct.spla is spla
    first = next(iter(inspect.signature(sparse_direct.solve_spd).parameters))
    assert first == "S"
    sizes = []
    solve = sepfem.mixed_fem.solve_spd

    def traced(*args):
        sizes.append(args[0].shape[0])
        return solve(*args)

    monkeypatch.setattr(sepfem.mixed_fem, "solve_spd", traced)
    sol = solve_mixed(l_shape().uniform_refine(), field_from_name("one"))
    assert sizes == [sol.unknowns] and sol.unknowns > 0
    # least squares factors its two P1 systems through the same name
    sizes.clear()
    monkeypatch.setattr(sepfem.ls_fem, "solve_spd", traced)
    sol = solve_ls(l_shape().uniform_refine(), field_from_name("one"))
    assert len(sizes) == 2 and sum(sizes) == sol.unknowns and min(sizes) > 0


def test_one_node_dissection_orders_each_nodal_system_as_its_own_would(graded_mesh, monkeypatch):
    # a node's part depends only on the elements that hold it, so the
    # dissection of all nodes, restricted to the free nodes of the
    # stream function or the interior nodes of the potential, is the
    # order a dissection of each system's own unknowns gives it: S and
    # perm come out bit for bit, from one call of ``_leaf_slots``
    # instead of two
    conn = Connectivity(graded_mesh)
    free, _ = _free_nodes_and_holes(conn, _dual_tree(conn), conn.edge_nodes())
    interior = ~conn.boundary_node
    rows = np.sqrt(conn.areas)[:, np.newaxis, np.newaxis] * conn.p1_grads().transpose(0, 2, 1)
    calls = []

    def counted(c):
        calls.append(1)
        return _leaf_slots(c)

    monkeypatch.setattr(sparse_direct, "_leaf_slots", counted)
    systems = assemble_nodal(rows, conn, (free, interior))
    assert len(calls) == 1
    for keep, (S, perm, R) in zip((free, interior), systems):
        m = int(keep.sum())
        dofs = np.where(keep, np.cumsum(keep) - 1, -1)[conn.elem_nodes]
        ref_S, ref_perm = assemble_spd(rows, dofs, m, conn)
        assert np.array_equal(perm, ref_perm)
        assert np.array_equal(S.indptr, ref_S.indptr)
        assert np.array_equal(S.indices, ref_S.indices)
        assert np.array_equal(S.data.view(np.int64), ref_S.data.view(np.int64))
        # R is on the factor's labels: its column i is unknown perm[i]
        rank = np.empty(m, dtype=np.int64)
        rank[perm] = np.arange(m)
        assert (R != _row_matrix(rows, np.where(dofs >= 0, rank[dofs], -1), m)).nnz == 0
    calls.clear()
    solve_ls(graded_mesh, field_from_name("one"))
    assert len(calls) == 1

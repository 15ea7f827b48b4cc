"""Bisection forest, completion, overlay and mesh io tests.

The hand oracle: marking one triangle of the two-triangle criss square
bisects the shared diagonal, completion forces the neighbor, and the
result has exactly four congruent right isosceles triangles.
"""

import copy
import math
from collections import deque

import numpy as np
import pytest

import sepfem.mesh
from sepfem import (
    Connectivity,
    ElementOscillation,
    MeshError,
    Triangulation,
    complete_partition,
    field_from_name,
    initial_mesh,
    l_shape,
    read_mesh,
    unit_square_criss,
    write_mesh,
)
from sepfem.marking import ApproxState


def test_criss_initial_mesh():
    T = unit_square_criss()
    assert T.n_elements == 2
    assert abs(T.area() - 1.0) < 1e-15
    assert T.is_conforming()
    assert abs(T.min_angle() - math.pi / 4.0) < 1e-12


def test_single_mark_forces_neighbor_completion():
    T = unit_square_criss()
    T1 = T.refine([T.leaf_ids[0]])
    assert T1.n_elements == 4
    assert T1.is_conforming()
    assert abs(T1.area() - 1.0) < 1e-15
    assert np.all(T1.areas() == 0.25)  # generation 1 of roots with area 1/2
    assert T1.refines(T)


def test_refine_is_monotone_and_marked_elements_vanish():
    T = unit_square_criss()
    marked = int(T.leaf_ids[1])
    T1 = T.refine([marked])
    assert marked not in T1.leaf_ids
    assert T1.n_elements > T.n_elements
    assert T.refine([]) is T


def test_criss_hierarchy_keeps_min_angle():
    T = unit_square_criss()
    rng = np.random.default_rng(5)
    for _ in range(5):
        pick = rng.random(T.n_elements) < 0.4
        if not pick.any():
            pick[0] = True
        T = T.refine(T.leaf_ids[pick])
        assert T.is_conforming()
        assert abs(T.min_angle() - math.pi / 4.0) < 1e-12
        assert abs(T.area() - 1.0) < 1e-12


def test_uniform_refine_quadruples_criss():
    # every element is bisected and each bisection splits the neighbor
    # across the refinement edge, so one sweep doubles, never less
    T = unit_square_criss()
    T1 = T.uniform_refine()
    assert T1.n_elements == 4
    T2 = T1.uniform_refine()
    assert T2.n_elements == 8
    assert T2.refines(T1) and T2.refines(T)


def test_l_shape_initial_mesh():
    T = l_shape()
    assert T.n_elements == 6
    assert abs(T.area() - 3.0) < 1e-15
    assert T.is_conforming()
    assert abs(T.min_angle() - math.pi / 4.0) < 1e-12


def test_generations_track_bisection_depth():
    T = unit_square_criss()
    T1 = T.refine([T.leaf_ids[0]])
    T2 = T1.refine([T1.leaf_ids[0]])
    # a leaf of generation g has the area 2^-g of its root, here 1/2
    gens = sorted(np.log2(0.5 / T2.areas()).tolist())
    assert gens[0] == 1 and gens[-1] == 2
    assert T2.n_elements in (5, 6)
    assert T2.is_conforming()


def test_node_coords_match_the_forest_coordinate_array():
    forest = l_shape().forest
    before = forest.coords().copy()
    c0, c1 = forest.split([0])[0]
    forest.split([c1])  # adds a vertex after the split that created c0
    coords = forest.coords()
    assert np.array_equal(coords[: len(before)], before)
    nodes = [c1, 0, c0, forest.n_nodes - 1, 0]
    want = coords[forest.tris(nodes)]
    assert np.array_equal(forest.node_coords(nodes), want)
    assert forest.node_coords([c0]).shape == (1, 3, 2)
    assert forest.node_coords([]).shape == (0, 3, 2)


def test_overlay_of_diverged_meshes():
    T0 = unit_square_criss()
    A = T0.refine([T0.leaf_ids[0]])
    B = T0.refine([T0.leaf_ids[1]])
    for _ in range(2):
        A = A.refine([A.leaf_ids[0]])
        B = B.refine([B.leaf_ids[-1]])
    C = A.overlay(B)
    assert C.refines(A) and C.refines(B)
    assert C.is_conforming()
    assert C.n_elements + T0.n_elements <= A.n_elements + B.n_elements
    assert abs(C.area() - 1.0) < 1e-12


def test_overlay_with_self_and_with_coarser():
    T0 = unit_square_criss()
    A = T0.refine([T0.leaf_ids[0]])
    assert np.array_equal(A.overlay(A).leaf_ids, A.leaf_ids)
    assert np.array_equal(A.overlay(T0).leaf_ids, A.leaf_ids)
    assert np.array_equal(T0.overlay(A).leaf_ids, A.leaf_ids)


def test_overlay_rejects_separate_forests():
    A = unit_square_criss()
    B = unit_square_criss()
    with pytest.raises(MeshError):
        A.overlay(B)
    assert not A.refines(B)


def test_complete_partition_closes_hanging_nodes():
    T0 = unit_square_criss()
    forest = T0.forest
    a, b = (int(n) for n in T0.leaf_ids)
    c0, c1 = forest.split([a])[0]
    # partition {c0, c1, b} hangs at the diagonal midpoint of b
    T = complete_partition(forest, [c0, c1, b])
    assert T.is_conforming()
    assert T.n_elements == 4
    assert T.refines(T0)


def test_complete_partition_checks_the_ids_before_any_split():
    F = l_shape().forest
    F.split([0])
    n_nodes, n_vertices = F.n_nodes, F.n_vertices
    # a closure of the valid ids would split two more nodes first
    for ids in ([1, 2, 3, 4, 5, 6, -1], [F.n_nodes + 5]):
        with pytest.raises(MeshError, match="leaf id out of range"):
            complete_partition(F, ids)
        assert (F.n_nodes, F.n_vertices) == (n_nodes, n_vertices)


def test_refinement_is_deterministic():
    runs = []
    for _ in range(2):
        T = unit_square_criss()
        rng = np.random.default_rng(123)
        for _ in range(4):
            pick = rng.random(T.n_elements) < 0.3
            if not pick.any():
                pick[0] = True
            T = T.refine(T.leaf_ids[pick])
        runs.append((T.n_elements, T.tris().tolist(), T.forest.coords().tolist()))
    assert runs[0] == runs[1]


def test_fuzz_refine_overlay_invariants():
    # marks are capped at a handful of elements per step and the chains
    # restart at the root mesh when they grow, so the sequence stays small
    rng = np.random.default_rng(42)
    T0 = l_shape()
    chain_a, chain_b = T0, T0
    for step in range(60):
        src = chain_a if step % 2 == 0 else chain_b
        if src.n_elements > 3000:
            src = T0
        k = int(rng.integers(1, 9))
        pick = rng.choice(src.n_elements, size=min(k, src.n_elements), replace=False)
        out = src.refine(src.leaf_ids[pick])
        assert out.is_conforming()
        assert abs(out.area() - 3.0) < 1e-12
        assert abs(out.min_angle() - math.pi / 4.0) < 1e-12
        if step % 2 == 0:
            chain_a = out
        else:
            chain_b = out
        if step % 7 == 0:
            ov = chain_a.overlay(chain_b)
            assert ov.is_conforming()
            assert ov.n_elements + T0.n_elements <= chain_a.n_elements + chain_b.n_elements
            assert ov.refines(chain_a) and ov.refines(chain_b)


def test_initial_mesh_rejects_degenerate_input():
    with pytest.raises(Exception):
        initial_mesh([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)], [(0, 1, 2)])


def test_mesh_io_round_trip_is_bit_exact(tmp_path):
    T = unit_square_criss()
    rng = np.random.default_rng(9)
    for _ in range(3):
        pick = rng.random(T.n_elements) < 0.5
        if not pick.any():
            pick[0] = True
        T = T.refine(T.leaf_ids[pick])
    p1 = tmp_path / "a.mesh"
    p2 = tmp_path / "b.mesh"
    write_mesh(T, p1)
    R = read_mesh(p1)
    assert R.n_elements == T.n_elements
    assert abs(R.area() - T.area()) < 1e-15
    assert R.is_conforming()
    write_mesh(R, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_read_mesh_supports_further_refinement(tmp_path):
    T = l_shape().uniform_refine()
    path = tmp_path / "m.mesh"
    write_mesh(T, path)
    R = read_mesh(path)
    R1 = R.refine([R.leaf_ids[0]])
    assert R1.is_conforming()
    assert abs(R1.area() - 3.0) < 1e-12


def ancestor_in(forest, n, leaf_set):
    """Reference walk: the ancestor-or-self of node ``n`` in ``leaf_set``, or -1."""
    while n != -1:
        if n in leaf_set:
            return n
        n = forest.parent(n)
    return -1


def test_coarse_rows_refines_and_overlay_match_an_ancestor_walk():
    # two chains refine apart and every fifth step one of them becomes
    # their overlay
    rng = np.random.default_rng(11)
    T0 = unit_square_criss()
    forest = T0.forest
    chains = [T0, T0]
    meshes = [T0]
    proper_overlays = 0
    for step in range(45):
        if step % 5 == 4:
            a, b = chains
            out = a.overlay(b)
            expected = {
                int(n)
                for A, B in ((a, b), (b, a))
                for n in A.leaf_ids
                if ancestor_in(forest, int(n), set(B.leaf_ids.tolist())) != -1
            }
            assert set(out.leaf_ids.tolist()) == expected
            proper_overlays += not any(np.array_equal(out.leaf_ids, m.leaf_ids) for m in (a, b))
            chains[int(rng.integers(2))] = out
        else:
            i = step % 2
            src = chains[i] if chains[i].n_elements <= 200 else T0
            k = int(rng.integers(1, 4))
            pick = rng.choice(src.n_elements, size=min(k, src.n_elements), replace=False)
            out = chains[i] = src.refine(src.leaf_ids[pick])
        meshes.append(out)
    assert proper_overlays >= 5
    nested = 0
    for fine in meshes:
        for coarse in meshes:
            row_of = {int(n): i for i, n in enumerate(coarse.leaf_ids)}
            expected = [
                row_of.get(ancestor_in(forest, int(n), row_of), -1) for n in fine.leaf_ids
            ]
            assert fine.coarse_rows(coarse).tolist() == expected
            assert fine.refines(coarse) == (min(expected) >= 0)
            nested += fine.refines(coarse)
    # both outcomes are exercised
    assert len(meshes) < nested < len(meshes) ** 2

    stranger = unit_square_criss()
    assert np.all(meshes[-1].coarse_rows(stranger) == -1)
    assert not meshes[-1].refines(stranger)
    with pytest.raises(MeshError):
        meshes[-1].overlay(stranger)


def test_hanging_node_is_not_conforming():
    T0 = unit_square_criss()
    Connectivity(T0)
    # bisect one triangle of the criss square without its neighbour: the
    # new midpoint hangs on the shared diagonal
    c0, c1 = T0.forest.split(T0.leaf_ids[:1])[0]
    H = Triangulation(T0.forest, [c0, c1, int(T0.leaf_ids[1])])
    assert abs(H.area() - 1.0) < 1e-15
    assert not H.is_conforming()
    with pytest.raises(MeshError):
        Connectivity(H)


def test_an_edge_held_three_times_is_not_conforming():
    # root 1, its child 6 and root 2 all hold the edge from vertex 0 to 3
    F = l_shape().forest
    F.split([1])
    T = Triangulation(F, [0, 1, 2, 3, 4, 5, 6])
    assert T.edge_table()[2].max() == 3
    assert not T.is_conforming()


@pytest.mark.parametrize(
    "ids", [[3, 0, 5, 1], [0, 1, 3, 5, 3, 0], np.array([[5, 3], [1, 0]]), np.array([0, 1, 3, 5])]
)
def test_leaf_ids_are_sorted_and_unique_whatever_the_input(ids):
    F = l_shape().forest
    T = Triangulation(F, ids)
    assert T.leaf_ids.dtype == np.int64
    assert T.leaf_ids.tolist() == [0, 1, 3, 5]
    # the ids are the Triangulation's own, not a view of its input's
    if isinstance(ids, np.ndarray):
        assert not np.shares_memory(T.leaf_ids, ids)


@pytest.mark.parametrize("ids", [[], [0, 6], [-1, 0], [6], [2, 2, -1]])
def test_empty_or_out_of_range_leaf_ids_are_rejected(ids):
    F = l_shape().forest
    assert F.n_nodes == 6
    with pytest.raises(MeshError, match="empty triangulation|leaf id out of range"):
        Triangulation(F, ids)


def test_batched_split_shares_midpoints_and_reuses_children():
    forest = unit_square_criss().forest
    # both triangles have the diagonal as refinement edge
    kids = forest.split([1, 0, 1])
    assert kids.shape == (3, 2) and np.array_equal(kids[0], kids[2])
    assert forest.n_nodes == 6 and forest.n_vertices == 5
    assert forest.tris(kids[:2].ravel())[:, 2].tolist() == [4] * 4
    assert forest.midpoints(np.array([(0 << 32) + 2, (1 << 32) + 3])).tolist() == [4, -1]
    assert np.array_equal(forest.split([0, 1]), kids[[1, 0]])
    assert forest.n_nodes == 6 and forest.parents().tolist() == [-1, -1, 1, 1, 0, 0]


def test_child_coords_are_the_coordinates_split_gives():
    # vertices off any grid, so that a midpoint's rounding shows
    rng = np.random.default_rng(3)
    pts = rng.uniform(-1.0, 1.0, size=(4, 2)) + np.array([[0, 0], [3, 0], [3, 3], [0, 3]])
    forest = initial_mesh(pts, [(0, 1, 2), (0, 2, 3)]).forest
    T = Triangulation.initial(forest)
    for _ in range(5):
        T = T.refine(T.leaf_ids[rng.random(T.n_elements) < 0.5])
    # leaves whose refinement edge is split already (by a neighbour) and
    # leaves whose edge is not, with nodes that have children among them
    parents = forest.parents()[T.leaf_ids]
    nodes = np.concatenate((T.leaf_ids, parents[parents >= 0][:5]))
    rng.shuffle(nodes)
    had = forest.first_children(nodes)
    assert np.any(had >= 0) and np.any(had < 0)
    want = forest.child_coords(nodes)
    n_nodes, n_vertices = forest.n_nodes, forest.n_vertices
    assert forest.n_nodes == n_nodes and forest.n_vertices == n_vertices
    kids = forest.split(nodes)
    assert want.tobytes() == forest.node_coords(kids.ravel()).reshape(-1, 2, 3, 2).tobytes()
    assert np.array_equal(forest.first_children(nodes), kids[:, 0])
    assert np.array_equal(kids[had >= 0, 0], had[had >= 0])
    assert forest.child_coords([]).shape == (0, 2, 3, 2)


def worklist_closure(forest, leaf_ids, marked):
    """Reference: the conforming closure computed one bisection at a time.

    Bisects the marked leaves, then any leaf that hangs: one of its edges
    has a forest midpoint that is a vertex of a current leaf (the
    midpoint lies on the open edge, so that leaf sits on the other
    side).  A split can only make leaves hang at the new midpoint or on
    the two children, so a queue seeded with the marked and the hanging
    leaves reaches the closure.  Returns the set of leaf ids.
    """
    leaves, active, holders = set(), {}, {}

    def edges(n):
        v0, v1, v2 = forest.tris([n])[0].tolist()
        return [(min(a, b), max(a, b)) for a, b in ((v0, v1), (v1, v2), (v2, v0))]

    def toggle(n, add):
        (leaves.add if add else leaves.discard)(n)
        for v in forest.tris([n])[0].tolist():
            active[v] = active.get(v, 0) + (1 if add else -1)
        for e in edges(n):
            (holders.setdefault(e, set()).add if add else holders[e].discard)(n)

    def hangs(n):
        mids = forest.midpoints(np.array([(a << 32) + b for a, b in edges(n)]))
        return any(active.get(m, 0) > 0 for m in mids.tolist())

    for n in leaf_ids:
        toggle(int(n), True)
    forced = {int(n) for n in marked}
    if not forced <= leaves:
        raise MeshError("marked element is not a leaf")
    queue = deque(sorted(forced))
    queue.extend(n for n in sorted(leaves) if hangs(n))
    while queue:
        n = queue.popleft()
        if n not in leaves or (n not in forced and not hangs(n)):
            continue
        forced.discard(n)
        toggle(n, False)
        c0, c1 = forest.split([n])[0].tolist()
        split_edge = edges(n)[0]
        for c in (c0, c1):
            toggle(c, True)
        # a leaf still holding the split edge now hangs, and so may a child
        queue.extend(holders[split_edge])
        queue.extend(c for c in (c0, c1) if hangs(c))
    return leaves


def triples(forest, ids):
    """The leaves' vertex coordinates (v0, v1, v2), sorted: the leaf set geometrically."""
    return sorted(map(tuple, forest.node_coords(sorted(ids)).reshape(-1, 6).tolist()))


@pytest.mark.parametrize("start", [unit_square_criss, l_shape])
def test_refine_matches_the_worklist_closure(start, monkeypatch):
    # later rounds would repair a round that leaves a marked edge unsplit,
    # so the edge tables are counted too: refine reuses the input's table
    # and closes a conforming mesh in one bisecting round, whose table is
    # the result's
    tables = []
    edge_table = sepfem.mesh._edge_table
    monkeypatch.setattr(sepfem.mesh, "_edge_table", lambda t: tables.append(1) or edge_table(t))
    rng = np.random.default_rng(8)
    T = start()
    for step in range(60):
        if T.n_elements > 1500:
            T = start()
        # a handful of marks, or a bulk of about a third of the leaves
        k = max(1, T.n_elements // 3) if step % 3 == 2 else int(rng.integers(1, 5))
        pick = rng.choice(T.n_elements, size=min(k, T.n_elements), replace=False)
        marked = T.leaf_ids[pick]
        ref = copy.deepcopy(T.forest)
        expected = worklist_closure(ref, T.leaf_ids, marked)
        T.edge_table()
        before = len(tables)
        T = T.refine(marked)
        assert len(tables) == before + 1
        assert T.is_conforming()
        assert triples(T.forest, T.leaf_ids) == triples(ref, expected)


def test_complete_partition_matches_the_worklist_closure():
    state = ApproxState(l_shape(), ElementOscillation(field_from_name("radial-alpha:0.6")))
    hanging = 0
    for tol in (1e-1, 3e-2, 1e-2, 3e-3, 1e-3):
        state.run(tol)
        ref = copy.deepcopy(state.forest)
        expected = worklist_closure(ref, state.partition, [])
        T = complete_partition(state.forest, state.partition)
        assert T.is_conforming()
        assert triples(T.forest, T.leaf_ids) == triples(ref, expected)
        hanging += T.n_elements > len(state.partition)
    assert hanging >= 3


def test_refine_rejects_marks_that_are_not_leaves():
    T0 = unit_square_criss()
    T1 = T0.refine([T0.leaf_ids[0]])
    for bad in (int(T0.leaf_ids[0]), T1.forest.n_nodes + 5, -1):
        with pytest.raises(MeshError):
            T1.refine([bad])

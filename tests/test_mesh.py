"""Bisection forest, completion, overlay and mesh io tests.

The hand oracle: marking one triangle of the two-triangle criss square
bisects the shared diagonal, completion forces the neighbor, and the
result has exactly four congruent right isosceles triangles.
"""

import math

import numpy as np
import pytest

from sepfem import (
    Connectivity,
    MeshError,
    Triangulation,
    complete_partition,
    initial_mesh,
    l_shape,
    read_mesh,
    unit_square_criss,
    write_mesh,
)


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
    assert np.allclose(T1.areas(), 0.25)
    assert np.all(T1.generations() == 1)
    assert T1.refines(T)


def test_refine_is_monotone_and_marked_elements_vanish():
    T = unit_square_criss()
    marked = int(T.leaf_ids[1])
    T1 = T.refine([marked])
    assert marked not in T1
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
    gens = sorted(T2.generations().tolist())
    assert gens[0] == 1 and gens[-1] == 2
    assert T2.n_elements in (5, 6)
    assert T2.is_conforming()


def test_node_coords_match_the_forest_coordinate_array():
    forest = l_shape().forest
    before = forest.coords()
    c0, c1 = forest.split(0)
    forest.split(c1)  # adds a vertex after the split that created c0
    coords = forest.coords()
    assert np.array_equal(coords[: len(before)], before)
    nodes = [c1, 0, c0, forest.n_nodes - 1, 0]
    want = coords[[list(forest.vertices_of(n)) for n in nodes]]
    assert np.array_equal(forest.node_coords(nodes), want)
    assert forest.node_coords([c0]).shape == (1, 3, 2)
    assert forest.node_coords([]).shape == (0, 3, 2)
    assert forest.coords() is coords  # no new vertex, nothing converted


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
    assert A.overlay(A).leaf_set == A.leaf_set
    assert A.overlay(T0).leaf_set == A.leaf_set
    assert T0.overlay(A).leaf_set == A.leaf_set


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
    c0, c1 = forest.split(a)
    # partition {c0, c1, b} hangs at the diagonal midpoint of b
    T = complete_partition(forest, [c0, c1, b])
    assert T.is_conforming()
    assert T.n_elements == 4
    assert T.refines(T0)


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
                if ancestor_in(forest, int(n), B.leaf_set) != -1
            }
            assert out.leaf_set == expected
            proper_overlays += out.leaf_set not in (a.leaf_set, b.leaf_set)
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
    c0, c1 = T0.forest.split(int(T0.leaf_ids[0]))
    H = Triangulation(T0.forest, [c0, c1, int(T0.leaf_ids[1])])
    assert abs(H.area() - 1.0) < 1e-15
    assert not H.is_conforming()
    with pytest.raises(MeshError):
        Connectivity(H)


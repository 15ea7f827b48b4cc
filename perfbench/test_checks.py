"""Tests of the benchmark's own output checks.

Run with ``python3 -m pytest perfbench/test_checks.py``.
"""

import math
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from checks import div_gap, ls_value, mesh_errors, nested_errors, p1_energy, rt0_norm2  # noqa: E402

SQUARE = ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0))


def square_mesh(n):
    """n x n squares on [0, 1]^2, each cut by its rising diagonal."""
    x = np.linspace(0.0, 1.0, n + 1)
    coords = np.array([(xi, yj) for yj in x for xi in x])
    v = lambda i, j: j * (n + 1) + i  # noqa: E731
    tris = []
    for j in range(n):
        for i in range(n):
            tris.append((v(i, j), v(i + 1, j), v(i + 1, j + 1)))
            tris.append((v(i, j), v(i + 1, j + 1), v(i, j + 1)))
    return np.array(tris), coords


def edges_of(tris):
    """The sorted vertex pairs (a, b), a < b, of all edges."""
    return np.unique(np.sort(np.concatenate((tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [2, 0]])), axis=1), axis=0)


def unit_normals(coords, e):
    """Right perpendicular of P_b - P_a, the normal a flux coefficient refers to."""
    t = coords[e[:, 1]] - coords[e[:, 0]]
    return np.column_stack((t[:, 1], -t[:, 0])) / np.hypot(t[:, 0], t[:, 1])[:, None]


def test_p1_energy_converges_to_the_manufactured_energy():
    # u = sin(pi x) sin(pi y), -lap u = 2 pi^2 u, |u|^2_{H^1} = pi^2 / 2
    def f(x, y):
        return 2.0 * math.pi**2 * np.sin(math.pi * x) * np.sin(math.pi * y)

    exact = math.pi**2 / 2.0
    errors = [abs(p1_energy(*square_mesh(n), f) - exact) for n in (8, 16, 32, 64)]
    for coarse, fine in zip(errors, errors[1:]):
        assert 3.5 < coarse / fine < 4.5  # second order in h
    assert errors[-1] < 2e-3 * exact


def test_p1_energy_is_below_the_exact_energy():
    # the conforming Galerkin energy approaches the exact one from below
    f = lambda x, y: np.ones_like(x)  # noqa: E731
    energies = [p1_energy(*square_mesh(n), f) for n in (4, 8, 16)]
    assert energies[0] < energies[1] < energies[2]


def test_conforming_mesh_passes():
    tris, coords = square_mesh(3)
    assert mesh_errors(tris, coords, SQUARE, 1.0) == []


def test_hanging_node_is_rejected():
    coords = np.array([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0), (0.5, 0.5)])
    # the lower triangle is bisected at the diagonal's midpoint, the upper one is not
    tris = np.array([(0, 1, 4), (1, 2, 4), (0, 2, 3)])
    errors = mesh_errors(tris, coords, SQUARE, 1.0)
    assert any("off the boundary" in e for e in errors)


def test_overlap_and_orientation_are_rejected():
    tris, coords = square_mesh(1)
    doubled = np.vstack((tris, tris[:1]))
    assert any("more than two" in e for e in mesh_errors(doubled, coords, SQUARE, 1.0))
    flipped = tris[:, [1, 0, 2]]
    assert any("nonpositive" in e for e in mesh_errors(flipped, coords, SQUARE, 1.0))


def test_rt0_norm_of_a_constant_field():
    tris, coords = square_mesh(4)
    e = edges_of(tris)
    p = unit_normals(coords, e) @ (1.0, 2.0)  # q = (1, 2)
    assert abs(rt0_norm2(tris, coords, e, p) - 5.0) < 1e-12


def test_nesting_follows_parent_links():
    parent = np.array([-1, -1, 0, 0, 2, 2])
    assert nested_errors(parent, [0, 1], [1, 3, 4, 5]) == []
    assert nested_errors(parent, [2, 3], [1, 3, 4, 5]) != []


def test_ls_value_of_a_constant_field():
    # q = (1, 2) = grad(x + 2y) and div q = 0: only ||f||^2 remains
    tris, coords = square_mesh(4)
    e = edges_of(tris)
    p = unit_normals(coords, e) @ (1.0, 2.0)
    u = coords[:, 0] + 2.0 * coords[:, 1]
    assert abs(ls_value(tris, coords, e, p, u, 1.5) - 2.25) < 1e-12
    assert abs(ls_value(tris, coords, e, p, 0.0 * u, 1.0) - 6.0) < 1e-12


def test_div_gap_of_a_field_with_known_divergence():
    # q = (x, 0): div q = 1, so f = -1 closes the gap and f = -2 opens it to 1 / |terms|
    tris, coords = square_mesh(4)
    e = edges_of(tris)
    # (x, 0) . n at the edge midpoints: the RT0 interpolant keeps div = 1
    p = unit_normals(coords, e)[:, 0] * 0.5 * (coords[e[:, 0], 0] + coords[e[:, 1], 0])
    assert div_gap(tris, coords, e, p, -1.0) < 1e-12
    assert div_gap(tris, coords, e, p, -2.0) > 0.01

"""SPD direct solves: the nested-dissection ordering and the SuperLU path."""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from sepfem import field_from_name, l_shape
from sepfem.ls_fem import assemble_ls
from sepfem.sparse_direct import nested_dissection, solve_spd


def ls_system(levels):
    T = l_shape()
    for _ in range(levels):
        T = T.uniform_refine()
    S, rhs, conn, interior = assemble_ls(T, field_from_name("one"))
    coords = np.concatenate(
        (conn.midpoints, T.forest.coords()[conn.node_vertices[interior]])
    )
    return S, rhs, coords


def test_small_system_keeps_natural_order():
    S, _, coords = ls_system(0)
    assert S.shape[0] <= 32
    assert nested_dissection(S, coords).tolist() == list(range(S.shape[0]))


def test_ordering_is_a_permutation_that_cuts_fill():
    S, _, coords = ls_system(8)
    n = S.shape[0]
    perm = nested_dissection(S, coords)
    assert np.array_equal(np.sort(perm), np.arange(n))

    def fill(A):
        lu = spla.splu(
            A.tocsc(), permc_spec="NATURAL", diag_pivot_thresh=0.0,
            options=dict(SymmetricMode=True),
        )
        return lu.L.nnz + lu.U.nnz

    # the natural order of the unknowns follows the forest and is far
    # from banded; dissection must cut the factor's fill several times
    assert 3 * fill(S.tocsr()[perm][:, perm]) < fill(S)


def test_superlu_path_matches_reference_solve():
    S, rhs, coords = ls_system(3)
    x = solve_spd(S, rhs, coords)
    ref = spla.spsolve(sp.csc_matrix(S), rhs)
    assert np.max(np.abs(x - ref)) <= 1e-10 * np.max(np.abs(ref))

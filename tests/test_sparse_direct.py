"""SPD direct solves: the nested-dissection ordering and the SuperLU path."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import sepfem.mixed_fem
from sepfem import MixedPoisson, SafemParams, field_from_name, l_shape, safem_run
from sepfem.ls_fem import assemble_ls
from sepfem.mixed_fem import solve_mixed
from sepfem.sparse_direct import nested_dissection, solve_spd


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


def ls_system(levels):
    T = l_shape()
    for _ in range(levels):
        T = T.uniform_refine()
    return ls_system_on(T)


def ls_system_on(T):
    S, rhs, conn, interior = assemble_ls(T, field_from_name("one"))
    coords = np.concatenate(
        (conn.midpoints, T.forest.coords()[conn.node_vertices[interior]])
    )
    return S, rhs, coords


def fill(A):
    lu = spla.splu(
        A.tocsc(), permc_spec="NATURAL", diag_pivot_thresh=0.0,
        options=dict(SymmetricMode=True),
    )
    return lu.L.nnz + lu.U.nnz


def is_permutation(perm, n):
    return np.array_equal(np.sort(perm), np.arange(n))


def test_small_system_keeps_natural_order():
    S, _, coords = ls_system(0)
    assert S.shape[0] <= 32
    assert nested_dissection(S, coords).tolist() == list(range(S.shape[0]))


def test_ordering_is_a_permutation_that_cuts_fill():
    S, _, coords = ls_system(8)
    n = S.shape[0]
    perm = nested_dissection(S, coords)
    assert is_permutation(perm, n)
    # the natural order of the unknowns follows the forest and is far
    # from banded; dissection must cut the factor's fill several times
    assert 3 * fill(S.tocsr()[perm][:, perm]) < fill(S)


@pytest.fixture(scope="module")
def graded_mesh():
    # the mixed loop with f = 1 grades the L-shape toward its re-entrant
    # corner; 3 616 elements
    params = SafemParams(theta_a=0.3, kappa=1.0, rho_b=0.5, sigma_tol=0.0, max_elements=3000)
    res = safem_run(MixedPoisson(field_from_name("one")), l_shape(), params)
    return res.meshes[-1]


def cr_system_on(T, monkeypatch):
    systems = []

    def record(S, rhs, coords):
        systems.append((S, coords))
        return solve_spd(S, rhs, coords)

    monkeypatch.setattr(sepfem.mixed_fem, "solve_spd", record)
    solve_mixed(T, field_from_name("one"))
    return systems[0]


@pytest.mark.parametrize("system", ["ls", "cr"])
def test_cuts_by_crossings_store_less_fill_than_median_cuts_on_a_graded_mesh(
    graded_mesh, system, monkeypatch
):
    if system == "ls":
        S, _, coords = ls_system_on(graded_mesh)
    else:
        S, coords = cr_system_on(graded_mesh, monkeypatch)
    assert S.shape[0] > 5000
    perm = nested_dissection(S, coords)
    ref = median_dissection(S, coords)
    assert is_permutation(perm, S.shape[0])
    assert fill(S.tocsr()[perm][:, perm]) <= 0.8 * fill(S.tocsr()[ref][:, ref])


def path(n):
    # unknowns on a line, each coupled to the next
    S = sp.diags([np.full(n - 1, -1.0), np.full(n, 2.0), np.full(n - 1, -1.0)], [-1, 0, 1])
    coords = np.column_stack((np.arange(n, dtype=float), np.zeros(n)))
    return S.tocsr(), coords


def test_one_above_the_leaf_size_splits_at_the_median():
    # every cut of a path crosses one coupling, so the median wins; the
    # lower one-sided boundary wins the tie and is ordered last
    S, coords = path(33)
    perm = nested_dissection(S, coords)
    assert perm.tolist() == list(range(15)) + list(range(16, 33)) + [15]


def test_cut_avoids_couplings_bunched_at_the_median():
    n = 100
    S, coords = path(n)
    # every unknown of 45..55 is coupled to every other: a cut through
    # them crosses up to 36 couplings, the cut before 45 crosses one
    bunch = np.arange(45, 56)
    rows, cols = np.meshgrid(bunch, bunch)
    extra = sp.coo_matrix(
        (np.full(rows.size, -0.01), (rows.ravel(), cols.ravel())), shape=(n, n)
    )
    S = (S + extra).tocsr()
    perm = nested_dissection(S, coords)
    assert is_permutation(perm, n)
    # the root separator is the lower endpoint of the cut: 44
    assert perm[-1] == 44
    assert median_dissection(S, coords)[-1] in bunch


@pytest.mark.parametrize("case", ["one-x", "one-point", "no-couplings"])
def test_degenerate_input_gives_a_permutation(case):
    S, _, coords = ls_system(3)
    if case == "one-x":
        coords = np.column_stack((np.zeros(len(coords)), coords[:, 1]))
    elif case == "one-point":
        coords = np.zeros_like(coords)
    else:  # every cut crosses no coupling
        S = sp.identity(S.shape[0], format="csr")
    assert S.shape[0] > 32
    assert is_permutation(nested_dissection(S, coords), S.shape[0])


def test_superlu_path_matches_reference_solve():
    S, rhs, coords = ls_system(3)
    x = solve_spd(S, rhs, coords)
    ref = spla.spsolve(sp.csc_matrix(S), rhs)
    assert np.max(np.abs(x - ref)) <= 1e-10 * np.max(np.abs(ref))

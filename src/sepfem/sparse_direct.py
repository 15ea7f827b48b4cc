"""Sparse direct solves of the symmetric positive definite systems.

Both discretizations reduce their linear algebra to one SPD system: the
least-squares optimality system, and the Crouzeix-Raviart system from
which the mixed solution is recovered.  ``solve_spd`` factors it with
SuperLU in symmetric mode, without pivoting, on a geometric
nested-dissection ordering of the unknowns.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

__all__ = ["solve_spd", "nested_dissection"]

_LEAF_SIZE = 32


def nested_dissection(S, coords) -> np.ndarray:
    """Fill-reducing symmetric ordering of S from the unknowns' coordinates.

    Every part with more than 32 unknowns is split at the median of the
    longer axis of its bounding box.  The unknowns of either half that
    are coupled (a stored entry of S) to the other half separate the
    two; the smaller of these two sets is the separator, and the rest of
    each half is split again.  The ordering lists each part's two halves
    before its separator, so ``S[perm][:, perm]`` is the reordered
    matrix.  All parts of one level are split together.
    """
    n = S.shape[0]
    coords = np.asarray(coords, dtype=float)
    coo = sp.triu(S, k=1, format="coo")
    row, col = coo.row, coo.col
    # parts are numbered as in a binary heap: the root is 1, the halves
    # of part k are 2k and 2k + 1
    part = np.ones(n, dtype=np.int64)
    depth = np.zeros(n, dtype=np.int64)
    side = np.zeros(n, dtype=np.int8)
    active = np.arange(n)  # kept sorted by part
    while len(active):
        first = np.flatnonzero(np.r_[True, np.diff(part[active]) != 0])
        counts = np.diff(np.r_[first, len(active)])
        big = counts > _LEAF_SIZE
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
        # one sort orders the parts and, inside each, the coordinate:
        # the part is the integer part of the key, frac is in [0, 1]
        active = active[np.argsort(grp + 0.5 * frac, kind="stable")]
        upper = np.arange(len(active)) - first[grp] >= counts[grp] // 2

        side[active] = np.where(upper, 2, 1)
        d = side[row] - side[col]  # -1 or 1 on a coupling of the two halves
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

    # post-order of the part tree: a part's unknowns follow every part
    # below it, which is the order of the last leaf slot under each part
    # (at the deepest level), deeper parts first
    slots = int(depth.max()) if n else 0
    last = ((part + 1) << (slots - depth)) - 1
    return np.lexsort((np.arange(n), -depth, last))


def solve_spd(S, rhs, coords) -> np.ndarray:
    """Solve the sparse SPD system S x = rhs.

    ``coords`` holds one point per unknown (an edge midpoint for an edge
    unknown, the vertex for a nodal one) and drives the nested-dissection
    ordering of the SuperLU factorization.
    """
    perm = nested_dissection(S, coords)
    Sp = S.tocsr()[perm][:, perm].tocsc()
    lu = spla.splu(
        Sp,
        permc_spec="NATURAL",
        diag_pivot_thresh=0.0,
        options=dict(SymmetricMode=True),
    )
    x = np.empty(len(perm))
    x[perm] = lu.solve(np.asarray(rhs, dtype=np.float64)[perm])
    return x

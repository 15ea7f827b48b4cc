"""Sparse direct solves of the symmetric positive definite systems.

Both discretizations reduce their linear algebra to one SPD system: the
least-squares optimality system, and the Crouzeix-Raviart system from
which the mixed solution is recovered.  ``solve_spd`` factors it with
SuperLU in symmetric mode, without pivoting, on a geometric
nested-dissection ordering of the unknowns (George, SIAM J. Numer.
Anal. 10, 1973).  Each part is cut across the longer axis of its
bounding box, at the position near its median that the fewest
couplings cross (Gilbert-Miller-Teng, SIAM J. Sci. Comput. 19, 1998,
choose among candidate cuts by separator size): on the meshes graded
toward a corner the exact median runs through the densest region.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

__all__ = ["solve_spd", "nested_dissection"]

_LEAF_SIZE = 32
# a part is cut at one of the positions within this share of its size
# on either side of its median
_WINDOW = 0.2

# L+U entries of the latest factorization made by ``solve_spd``
last_lu_nnz = 0


def nested_dissection(S, coords) -> np.ndarray:
    """Fill-reducing symmetric ordering of S from the unknowns' coordinates.

    Every part with more than 32 unknowns is sorted along the longer axis
    of its bounding box and cut in two.  The cut is the position within
    20 % of the part's size around its median that the fewest couplings
    (stored entries of S) cross; ties go to the position nearest the
    median, then to the lower one.  The unknowns of either half that are
    coupled to the other half separate the two; the smaller of these two
    sets is the separator, and the rest of each half is split again.
    The ordering lists each part's two halves before its separator, so
    ``S[perm][:, perm]`` is the reordered matrix.  All parts of one level
    are split together.
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
    active = np.arange(n if n > _LEAF_SIZE else 0)
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
            dist <= (_WINDOW * counts).astype(np.int64)[grp],
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

        # halves of at most _LEAF_SIZE unknowns are finished
        half = 2 * grp + upper
        sizes = np.bincount(half[~sep], minlength=2 * len(counts))
        split = sizes > _LEAF_SIZE
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


def solve_spd(S, rhs, coords) -> np.ndarray:
    """Solve the sparse SPD system S x = rhs.

    ``coords`` holds one point per unknown (an edge midpoint for an edge
    unknown, the vertex for a nodal one) and drives the nested-dissection
    ordering of the SuperLU factorization.  The factor's number of L+U
    entries is left in ``last_lu_nnz``.
    """
    global last_lu_nnz
    perm = nested_dissection(S, coords)
    Sp = S.tocsr()[perm][:, perm].tocsc()
    lu = spla.splu(
        Sp,
        permc_spec="NATURAL",
        diag_pivot_thresh=0.0,
        options=dict(SymmetricMode=True),
    )
    last_lu_nnz = int(lu.nnz)
    x = np.empty(len(perm))
    x[perm] = lu.solve(np.asarray(rhs, dtype=np.float64)[perm])
    return x

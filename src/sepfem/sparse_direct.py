"""Sparse direct solves of the symmetric positive definite P1 systems.

Both discretizations work in the basis of a spanning tree of the dual
graph (see ``mixed_fem``), so the only matrices they factor are P1
stiffness matrices: the stream function's, for the mixed flux, and the
stream function's and the potential's, eliminated inside the
least-squares conjugate gradients.  Each is the Gram matrix R^T R of the
rows sqrt|K| grad phi that every element contributes.
``assemble_nodal`` orders the nodes by a nested dissection of the
elements (George, SIAM J. Numer. Anal. 10, 1973) and forms R^T R on
the new labels, one system per subset of the nodes: each system is
assembled once, in the order its factor uses, with 32-bit indices,
symmetric bit for bit and independent of the unknowns' numbering.
``solve_spd`` hands a matrix to SuperLU in symmetric mode, without
pivoting and without a permuted copy, and keeps the factor for further
solves (``SpdFactor``).  As in
multilevel partitioning (Karypis-Kumar, SIAM J. Sci. Comput. 20,
1998), the elements are first coarsened, then cut: the bisection
forest groups them into clusters of at most 8, the leaves below one
node three generations up, and the dissection cuts the clusters.  Each
part is cut across the longer axis of the bounding box of its clusters,
at the position near its median element that the fewest interior edges
cross (Gilbert-Miller-Teng, SIAM J. Sci. Comput. 19, 1998, choose among
candidate cuts by separator size): on the meshes graded toward a corner
the exact median runs through the densest region.  Each unknown is
ordered with the lowest part that holds all of its elements.
``solve_spd`` raises ``SolverError`` when SuperLU meets a zero pivot.
Both discretizations gate their solves on one relative residual,
``_RESIDUAL_TOL``, and raise ``SolverError`` above it.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .quadrature import _centroids

__all__ = [
    "SolverError",
    "SpdFactor",
    "assemble_nodal",
    "solve_spd",
    "nested_dissection",
]

_RESIDUAL_TOL = 1e-10

# parts of at most this many elements are not cut
_LEAF_SIZE = 16
# the elements below one forest node this many generations up are
# dissected as one cluster
_CLUSTER_DEPTH = 3
# a part is cut at one of the positions within this share of its
# elements on either side of its median element
_WINDOW = 0.2


class SolverError(Exception):
    """Linear solver failed to reach the required residual."""


def _clusters(T):
    """Cluster of each element of T: the leaves below one forest node.

    Each leaf joins the leaves that share its ancestor ``_CLUSTER_DEPTH``
    generations up, clamped at the roots, so a cluster holds at most
    2 ** _CLUSTER_DEPTH elements inside one forest triangle, and the
    elements of a root mesh are their own clusters.  Clusters are
    numbered by their ancestor's node id.  T is a Triangulation or its
    Connectivity: either carries the forest and the leaf ids.
    """
    parents = T.forest.parents()
    anc = T.leaf_ids
    for _ in range(_CLUSTER_DEPTH):
        up = parents[anc]
        anc = np.where(up >= 0, up, anc)
    seen = np.zeros(T.forest.n_nodes, dtype=bool)
    seen[anc] = True
    return (np.cumsum(seen) - 1)[anc]


def _leaf_slots(conn):
    """First and last slot of each element's leaf in the element tree.

    The elements are grouped into clusters (see ``_clusters``), and the
    clusters are dissected (see ``_dissect``) at the mean of their
    element centroids, weighted by their element counts, with the
    interior edges that join two clusters as couplings.  Each element
    gets its cluster's slots.
    """
    cluster = _clusters(conn)
    weights = np.bincount(cluster)
    centroids = _centroids(conn.pts)
    xs = np.bincount(cluster, weights=centroids[:, 0]) / weights
    ys = np.bincount(cluster, weights=centroids[:, 1]) / weights
    # the two holders' clusters of each interior edge, where they differ
    inner = np.flatnonzero(~conn.boundary_edge)
    a = cluster[conn.edge_elem[inner]]
    b = cluster[conn.other_elem()[inner]]
    apart = a != b
    first, last = _dissect(xs, ys, weights, a[apart], b[apart])
    return first[cluster], last[cluster]


def _dissect(xs, ys, weights, a, b):
    """First and last slot of each weighted point's leaf in its dissection tree.

    Point i stands for ``weights[i]`` elements at (xs[i], ys[i]), and
    (a[j], b[j]) is the pair of points joined by coupling j.  Every part
    of more than 16 elements and more than one point is sorted along the
    longer axis of the bounding box of its points and cut in two.  The
    cut is the position within 20 % of the part's elements around its
    median element that the fewest couplings cross; ties go to the
    position nearest the median, then to the lower one.  Where no
    position falls inside that window, the window widens to the
    positions nearest the median; a position that leaves a half empty is
    never a cut.  With unit weights this is the rule of the element
    dissection exactly.  All parts of one level are cut together.  Parts
    are numbered as in a binary heap (the root is 1, the halves of part
    h are 2h and 2h + 1), and the slots are the heap numbers at the depth
    of the deepest leaf: a leaf h at depth d covers the slots from
    h << (D - d) to ((h + 1) << (D - d)) - 1.
    """
    n = len(weights)
    part = np.ones(n, dtype=np.int64)
    depth = np.zeros(n, dtype=np.int64)
    # the points of the parts still to cut, grouped by part, with the
    # parts' point counts and heap numbers; the couplings (a, b) are
    # pairs of positions in ``active`` inside one part
    active = np.arange(n if n > 1 and weights.sum() > _LEAF_SIZE else 0)
    counts = np.array([n], dtype=np.int64)
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
        # one sort orders the parts and, inside each, the coordinate:
        # the part is the integer part of the key, frac is in [0, 1]
        order = np.argsort(grp + 0.5 * frac, kind="stable")
        active = active[order]
        idx = np.arange(m)
        pos = np.empty(m, dtype=np.int64)
        pos[order] = idx
        a, b = pos[a], pos[b]
        low_end, high_end = np.minimum(a, b), np.maximum(a, b)

        # a cut before position c crosses the couplings with
        # low_end < c <= high_end
        crossings = np.zeros(m, dtype=np.int64)
        crossings[1:] = np.cumsum(
            np.bincount(low_end, minlength=m) - np.bincount(high_end, minlength=m)
        )[:-1]
        # the elements of the part before each position
        w = weights[active]
        before = np.cumsum(w) - w
        before -= before[first][grp]
        total = np.add.reduceat(w, first)
        # one integer key per position ranks the cuts of a part: fewest
        # crossings, then nearest the median, then the lower side; it is
        # unique within a part, and the nearest cuts to the median are
        # always candidates
        offset = before - (total // 2)[grp]
        dist = np.abs(offset)
        top = total.max()
        cuts = idx > first[grp]
        nearest = np.minimum.reduceat(np.where(cuts, dist, top), first)
        reach = np.maximum((_WINDOW * total).astype(np.int64), nearest)
        key = np.where(
            cuts & (dist <= reach[grp]),
            crossings * (2 * top + 2) + 2 * dist + (offset > 0),
            np.iinfo(np.int64).max,
        )
        cut = np.flatnonzero(key == np.minimum.reduceat(key, first)[grp])
        upper = idx >= cut[grp]

        # halves of at most _LEAF_SIZE elements, or of one point, are leaves
        half = 2 * grp + upper
        points = np.bincount(half, minlength=2 * len(counts))
        sizes = np.bincount(half, weights=w, minlength=2 * len(counts))
        split = (sizes > _LEAF_SIZE) & (points > 1)
        going = split[half]
        done = ~going
        ids = active[done]
        part[ids], depth[ids] = 2 * heap[grp[done]] + upper[done], level + 1

        # the couplings inside a half that is cut again, renumbered
        stay = going[low_end] & (upper[low_end] == upper[high_end])
        kept = np.cumsum(going) - 1
        a, b = kept[low_end[stay]], kept[high_end[stay]]
        active = active[going]
        counts = points[split]
        heap = (2 * heap[:, np.newaxis] + np.arange(2)).ravel()[split]
        level += 1

    below = depth.max() - depth
    return part << below, ((part + 1) << below) - 1


def nested_dissection(conn, dofs, n) -> np.ndarray:
    """Fill-reducing symmetric ordering of the n unknowns held by ``dofs``.

    ``dofs[k]`` lists the unknowns of element k of ``conn``; -1 marks an
    eliminated one.  The elements are dissected (see ``_leaf_slots``),
    and each unknown joins the lowest part of the element tree that holds
    all of its elements, so the unknowns a part holds separate its two
    halves.  The ordering lists every part after the parts below it, and
    the unknowns of one part by index: unknown ``perm[i]`` comes i-th.
    """
    first, last = _leaf_slots(conn)
    held = dofs >= 0
    rows = dofs[held]
    lo = np.full(n, np.iinfo(np.int64).max)
    np.minimum.at(lo, rows, np.broadcast_to(first[:, np.newaxis], dofs.shape)[held])
    hi = np.zeros(n, dtype=np.int64)
    np.maximum.at(hi, rows, np.broadcast_to(last[:, np.newaxis], dofs.shape)[held])
    # every slot has the bit length of the deepest level, so the common
    # ancestor of slots lo and hi is lo >> k, with k the bit length of
    # lo ^ hi, and the last slot it covers is ((lo >> k) + 1 << k) - 1
    k = np.frexp((lo ^ hi).astype(float))[1].astype(np.int64)
    end = (((lo >> k) + 1) << k) - 1
    # post-order: by the last slot, then deeper parts (smaller k) first
    return np.argsort(end * 64 + k, kind="stable")


def assemble_nodal(rows, conn, subsets):
    """The SPD systems S = R^T R of nodal rows on subsets of the nodes, in their factors' order.

    ``rows[k]`` holds the (r, 3) rows of R that element k of ``conn``
    contributes on its nodes ``conn.elem_nodes[k]``.  Each boolean mask
    of ``subsets`` keeps the nodes that are a system's unknowns,
    numbered in node order, and eliminates the others.  One nested
    dissection of all the nodes (see ``nested_dissection``) orders
    every system: a node's part depends only on the elements that hold
    it, and ties go to the lower node, so each system is ordered as a
    dissection of its own unknowns would order it.  Returns, per subset,
    S in its factor's order, that order ``perm``, and R on the same
    labels (see ``_ordered_gram``): column i of R is unknown ``perm[i]``.
    """
    order = nested_dissection(conn, conn.elem_nodes, conn.n_nodes)
    systems = []
    for keep in subsets:
        number = np.cumsum(keep) - 1
        perm = number[order[keep[order]]]
        S, R = _ordered_gram(rows, np.where(keep, number, -1)[conn.elem_nodes], perm)
        systems.append((S, perm, R))
    return systems


def _row_matrix(rows, cols, n) -> sp.csr_matrix:
    """R as a CSR matrix: the rows ``rows[k]`` of element k on the columns ``cols[k]``.

    Row r of element k is row k r_k + r of R, for the (m, r_k, q)
    ``rows``; a column -1 is dropped.
    """
    cols = np.broadcast_to(cols[:, np.newaxis, :], rows.shape)
    keep = cols >= 0
    indptr = np.zeros(keep.shape[0] * keep.shape[1] + 1, dtype=np.int32)
    indptr[1:] = np.cumsum(keep.sum(axis=2))
    return sp.csr_matrix((rows[keep], cols[keep], indptr), shape=(len(indptr) - 1, n))


def _ordered_gram(rows, dofs, perm) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """S = P A P^T of A = R^T R in the order ``perm``, and R on the new labels.

    The columns of R are relabelled by their rank in ``perm``, so the
    system is formed once, as S with ``S[i, j] = A[perm[i], perm[j]]``:
    a CSR matrix with sorted 32-bit indices.  Every entry of S sums its
    products R[m, i] R[m, j] over the rows m of R in element order,
    whatever the labels, so S equals its transpose bit for bit and does
    not depend on how the unknowns are numbered; an entry whose products
    cancel exactly is not stored.
    """
    n = len(perm)
    # rank[-1] is -1, so an eliminated unknown stays eliminated
    rank = np.full(n + 1, -1, dtype=np.int32)
    rank[perm] = np.arange(n, dtype=np.int32)
    R = _row_matrix(rows, rank[dofs], n)
    # the rows of R^T list the rows of R in order, so each entry sums
    # its products in element order
    S = R.T.tocsr() @ R
    S.sort_indices()
    return S, R


class SpdFactor:
    """The SuperLU factor of S = P A P^T, with ``perm`` its order.

    ``solve`` solves A x = rhs again, in the unknowns' own order, for
    one right-hand side or one per column; ``nnz`` is the number of L+U
    entries.
    """

    def __init__(self, lu, perm):
        self.lu, self.perm = lu, perm

    @property
    def nnz(self) -> int:
        return int(self.lu.nnz)

    def solve(self, rhs) -> np.ndarray:
        rhs = np.asarray(rhs, dtype=np.float64)
        x = np.empty(rhs.shape)
        x[self.perm] = self.lu.solve(rhs[self.perm])
        return x


def solve_spd(S, rhs, perm) -> tuple[np.ndarray, SpdFactor]:
    """Factor the sparse SPD system A x = rhs and solve it; return x and the factor.

    S is P A P^T as ``assemble_nodal`` returns it, with ``perm`` its order;
    ``rhs`` is one right-hand side, or one per column, all solved on the
    one factor, and x is in the unknowns' own order.  S is symmetric, so
    its CSR arrays are also its CSC arrays, and SuperLU factors them in
    place, in their order, without pivoting.  The factor (see
    ``SpdFactor``) is kept for further solves.  A factorization that
    meets a zero pivot raises ``SolverError``.
    """
    n = S.shape[0]
    try:
        lu = spla.splu(
            sp.csc_matrix((S.data, S.indices, S.indptr), shape=(n, n)),
            permc_spec="NATURAL",
            diag_pivot_thresh=0.0,
            options=dict(SymmetricMode=True),
        )
    except RuntimeError as err:  # SuperLU's "Factor is exactly singular"
        raise SolverError(f"factorization of {n} unknowns failed: {err}") from None
    factor = SpdFactor(lu, perm)
    return factor.solve(rhs), factor

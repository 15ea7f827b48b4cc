"""Tagged-triangle meshes under newest-vertex bisection.

All triangulations of one experiment are leaf sets of a single grow-only
bisection forest, kept in numpy arrays: vertex coordinates, and per node
its vertex triple, parent and first child.  One edge -> midpoint map
numbers the midpoints in the order they are created and deduplicates
them forest-wide.  Nodes are never mutated or deleted, and every derived
mesh keeps ancestry information.
``Triangulation.refine`` and ``complete_partition`` share one
conforming closure, which marks edges and bisects in vectorized rounds
(Funken, Praetorius and Wissgott, CMAM 11, 2011).
``Triangulation.coarse_rows`` maps the leaves of one mesh to their
ancestor-or-self leaves in another with a few vectorized passes over
the forest's parent array; nesting checks, the overlay of two meshes
and the prolongation between nested meshes all read it.
``Triangulation.edge_table`` is the one place that derives a mesh's
edges.

A triangle is stored as an index triple (v0, v1, v2): the refinement
edge is (v0, v1) and v2 is the newest vertex.  Bisection inserts the
midpoint m of (v0, v1) and produces the children (v2, v0, m) and
(v1, v2, m), so each child's refinement edge is the edge opposite m.
"""

from __future__ import annotations

import math

import numpy as np

from .quadrature import _areas

__all__ = [
    "MeshError",
    "BisectionForest",
    "Triangulation",
    "complete_partition",
    "initial_mesh",
    "unit_square_criss",
    "l_shape",
    "write_mesh",
    "read_mesh",
]

# Hard cap on bisections per refine/completion call; valid compatibly
# tagged meshes never get near it, incompatible hand-made tags do.
_SPLIT_CAP = 20_000_000


class MeshError(Exception):
    """Raised for degenerate geometry or non-terminating completion."""


def _grow(arr, n):
    """``arr``, or a copy with doubled capacity and zeros past its end, with room for ``n`` rows."""
    if n <= len(arr):
        return arr
    # large zeroed arrays are mapped lazily: capacity not yet used costs no memory
    out = np.zeros((max(n, 2 * len(arr)),) + arr.shape[1:], dtype=arr.dtype)
    out[: len(arr)] = arr
    return out


def _in_sorted(table, keys):
    """Mask of the ``keys`` that occur in the sorted array ``table``."""
    return np.searchsorted(table, keys, "right") > np.searchsorted(table, keys)


def _edge_table(tris):
    """``Triangulation.edge_table`` of the (n, 3) vertex rows ``tris``."""
    pair = tris[:, [[1, 2], [2, 0], [0, 1]]]
    keys = (pair.min(axis=2) << 32) + pair.max(axis=2)
    keys, inverse, counts = np.unique(keys.ravel(), return_inverse=True, return_counts=True)
    return keys, inverse.reshape(-1, 3), counts


class BisectionForest:
    """Grow-only store of all triangles ever created from one initial mesh.

    Vertices and triangle nodes are rows of arrays that are appended to
    and never rewritten; the children of node n are the consecutive
    nodes ``c, c + 1`` recorded when n is first split.  Midpoints are
    deduplicated by edge key ``(a << 32) + b``, a < b, so two refinement
    paths that split the same edge agree on the new vertex index.
    Boundary edges are tracked combinatorially: when a boundary edge is
    split its halves are boundary edges as well.
    """

    def __init__(self, points, triangles, boundary=None):
        pts = np.array(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise MeshError("points must be (n, 2)")
        if not np.all(np.isfinite(pts)):
            raise MeshError("vertex coordinates must be finite")
        tri = np.array(triangles, dtype=np.int64).reshape(-1, 3)
        bad = np.any((tri < 0) | (tri >= len(pts)), axis=1)
        bad |= (tri[:, 0] == tri[:, 1]) | (tri[:, 1] == tri[:, 2]) | (tri[:, 2] == tri[:, 0])
        if bad.any():
            raise MeshError(f"invalid triangle {tuple(tri[bad][0].tolist())}")
        c = pts[tri]
        d1, d2 = c[:, 1] - c[:, 0], c[:, 2] - c[:, 0]
        area = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
        if np.any(area == 0.0):
            raise MeshError(f"degenerate triangle {tuple(tri[area == 0.0][0].tolist())}")
        flip = area < 0.0
        tri[flip, :2] = tri[flip, 1::-1]  # keep the tag edge, fix the orientation

        self._xy = pts
        self._nv = len(pts)
        self._mid: dict[int, int] = {}
        self._tri = tri
        self._parent = np.full(len(tri), -1, dtype=np.int64)
        self._child = np.full(len(tri), -1, dtype=np.int64)
        self._nn = len(tri)
        self.roots = np.arange(len(tri))

        if boundary is None:
            keys, _, counts = _edge_table(tri)
            self._boundary = keys[counts == 1]
        else:
            b = np.array(boundary, dtype=np.int64).reshape(-1, 2)
            self._boundary = np.unique((b.min(axis=1) << 32) + b.max(axis=1))

    # -- vertices -----------------------------------------------------------

    def coords(self) -> np.ndarray:
        """(n_vertices, 2) vertex coordinates."""
        return self._xy[: self._nv]

    def vertex_parents(self) -> np.ndarray:
        """(n_vertices, 2) ends a < b of the edge each vertex bisects, -1 for an initial vertex.

        Midpoints are numbered in the order of their keys in the
        midpoint map, after the initial vertices.
        """
        keys = np.fromiter(self._mid, dtype=np.int64, count=len(self._mid))
        out = np.full((self._nv, 2), -1, dtype=np.int64)
        out[self._nv - len(keys) :] = np.column_stack((keys >> 32, keys & 0xFFFFFFFF))
        return out

    @property
    def n_vertices(self) -> int:
        return self._nv

    def boundary_keys(self) -> np.ndarray:
        """Sorted keys ``(a << 32) + b``, a < b, of every boundary edge created so far."""
        return self._boundary

    def midpoints(self, keys) -> np.ndarray:
        """Midpoint vertex of each edge key, -1 for an edge never split."""
        get = self._mid.get
        return np.array([get(k, -1) for k in keys.tolist()], dtype=np.int64)

    # -- nodes --------------------------------------------------------------

    def tris(self, nodes) -> np.ndarray:
        """(m, 3) vertex indices (v0, v1, v2) of the nodes in ``nodes``."""
        return self._tri[: self._nn][nodes]

    def node_coords(self, nodes) -> np.ndarray:
        """(m, 3, 2) vertex coordinates of the nodes in ``nodes``."""
        return self._xy[self.tris(np.asarray(nodes, dtype=np.int64))]

    def parent(self, n: int) -> int:
        return int(self._parent[: self._nn][n])

    def parents(self) -> np.ndarray:
        """Parent of every node, -1 for a root."""
        return self._parent[: self._nn]

    @property
    def n_nodes(self) -> int:
        return self._nn

    def split(self, nodes) -> np.ndarray:
        """(m, 2) children of the nodes in ``nodes``, created where missing.

        New nodes and new midpoints are numbered in the order of the
        nodes in ``nodes`` that first need them.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        first = self._child[: self._nn][nodes]
        new = np.array(list(dict.fromkeys(nodes[first < 0].tolist())), dtype=np.int64)
        if len(new):
            v0, v1, v2 = self._tri[new].T
            keys = (np.minimum(v0, v1) << 32) + np.maximum(v0, v1)
            # every vertex after the initial ones is a midpoint in _mid
            mid, nv0 = self._mid, self._nv
            base = nv0 - len(mid)
            m = [mid.setdefault(k, base + len(mid)) for k in keys.tolist()]
            m = np.array(m, dtype=np.int64)
            nv = base + len(mid)
            if nv > nv0:
                fresh = m >= nv0
                vkeys = np.empty(nv - nv0, dtype=np.int64)
                vkeys[m[fresh] - nv0] = keys[fresh]
                lo, hi = vkeys >> 32, vkeys & 0xFFFFFFFF
                self._xy = _grow(self._xy, nv)
                self._xy[nv0:nv] = 0.5 * (self._xy[lo] + self._xy[hi])
                on = _in_sorted(self._boundary, vkeys)
                if on.any():
                    ids = np.arange(nv0, nv)[on]
                    halves = np.concatenate(((lo[on] << 32) + ids, (hi[on] << 32) + ids))
                    self._boundary = np.union1d(self._boundary, halves)
                self._nv = nv
            nn0, nn = self._nn, self._nn + 2 * len(new)
            self._tri, self._parent, self._child = (
                _grow(a, nn) for a in (self._tri, self._parent, self._child)
            )
            self._tri[nn0:nn].reshape(-1, 6)[:] = np.array((v2, v0, m, v1, v2, m)).T
            self._parent[nn0:nn] = np.repeat(new, 2)
            self._child[nn0:nn] = -1
            self._child[new] = np.arange(nn0, nn, 2)
            self._nn = nn
            first = self._child[nodes]
        return first[:, None] + np.arange(2)


def _closure(forest: BisectionForest, ids, tris, table, forced) -> "Triangulation":
    """Conforming newest-vertex-bisection closure of a leaf set.

    ``ids`` are sorted leaf ids, ``tris`` and ``table`` their vertex
    rows and ``_edge_table``, and ``forced`` the rows of the leaves that
    must be bisected.  Each round marks the refinement edges of the
    forced leaves and every hanging edge: held by one leaf, not on the
    boundary, with a forest midpoint that is a vertex of a leaf (which
    can only lie across the edge).  A leaf with a marked edge then marks
    its refinement edge, until nothing changes.  Every leaf whose
    refinement edge (local edge 2) is marked is bisected, and its
    children (v2, v0, m) and (v1, v2, m) are bisected again when the
    parent's edge 1 or edge 0, their refinement edges, is marked.  So
    each marked edge is split on both sides: a conforming leaf set is
    closed after one round, a hanging partition after a few.  Rounds
    stop when nothing is marked, and the last round's table becomes
    the result's ``edge_table``.
    """
    n_split = 0
    while True:
        keys, elem_edges, counts = table
        edge = np.zeros(len(keys), dtype=bool)
        edge[elem_edges[forced, 2]] = True
        once = np.flatnonzero(counts == 1)
        once = once[~_in_sorted(forest.boundary_keys(), keys[once])]
        if len(once):
            mid = forest.midpoints(keys[once])
            active = np.zeros(forest.n_vertices + 1, dtype=bool)  # row -1: no midpoint
            active[tris] = True
            edge[once[active[mid]]] = True
        if not edge.any():
            break
        while True:
            on = edge[elem_edges]
            spread = on.any(axis=1) & ~on[:, 2]
            if not spread.any():
                break
            edge[elem_edges[spread, 2]] = True
        # number the forced leaves' children first, as a closure bisecting
        # one leaf at a time does: Doerfler breaks exact ties by id, and
        # in this order the ties of the symmetric L-shape resolve alike
        # for any numbering of the initial mesh
        bis = np.flatnonzero(on[:, 2])
        bis = np.concatenate((forced, bis[~_in_sorted(forced, bis)]))
        kids = forest.split(ids[bis])
        again = on[bis][:, [1, 0]]
        n_split += len(bis) + int(again.sum())
        if n_split > _SPLIT_CAP:
            raise MeshError("completion did not terminate (incompatible tags?)")
        keep = np.ones(len(ids), dtype=bool)
        keep[bis] = False
        ids = np.sort(np.concatenate((ids[keep], kids[~again], forest.split(kids[again]).ravel())))
        tris = forest.tris(ids)
        table = _edge_table(tris)
        forced = forced[:0]
    T = Triangulation(forest, ids)
    T._cache.update(tris=tris, edge_table=table)
    return T


class Triangulation:
    """An immutable leaf set of a bisection forest.

    Elements are identified by their forest node index, which is stable
    across refinements of the same experiment.
    """

    __slots__ = ("forest", "leaf_ids", "_cache")

    def __init__(self, forest: BisectionForest, leaf_ids):
        self.forest = forest
        arr = np.unique(np.asarray(leaf_ids, dtype=np.int64))
        if len(arr) == 0:
            raise MeshError("empty triangulation")
        if arr[0] < 0 or arr[-1] >= forest.n_nodes:
            raise MeshError("leaf id out of range")
        self.leaf_ids = arr
        self._cache = {}

    @classmethod
    def initial(cls, forest: BisectionForest) -> "Triangulation":
        return cls(forest, forest.roots)

    @property
    def n_elements(self) -> int:
        return len(self.leaf_ids)

    # -- geometry views -----------------------------------------------------

    def tris(self) -> np.ndarray:
        """(n, 3) vertex indices, row order matching ``leaf_ids``."""
        out = self._cache.get("tris")
        if out is None:
            out = self._cache["tris"] = self.forest.tris(self.leaf_ids)
        return out

    def tri_coords(self) -> np.ndarray:
        out = self._cache.get("tri_coords")
        if out is None:
            out = self.forest.coords()[self.tris()]
            self._cache["tri_coords"] = out
        return out

    def areas(self) -> np.ndarray:
        out = self._cache.get("areas")
        if out is None:
            out = self._cache["areas"] = _areas(self.tri_coords())
        return out

    def area(self) -> float:
        return math.fsum(self.areas().tolist())

    def min_angle(self) -> float:
        """Smallest interior angle over all leaves, in radians."""
        c = self.tri_coords()
        angles = []
        for i in range(3):
            a = c[:, (i + 1) % 3, :] - c[:, i, :]
            b = c[:, (i + 2) % 3, :] - c[:, i, :]
            dot = a[:, 0] * b[:, 0] + a[:, 1] * b[:, 1]
            na = np.hypot(a[:, 0], a[:, 1])
            nb = np.hypot(b[:, 0], b[:, 1])
            angles.append(np.arccos(np.clip(dot / (na * nb), -1.0, 1.0)))
        return float(np.min(np.column_stack(angles)))

    def edge_table(self):
        """The edges of the leaf set, each once.

        Returns ``(keys, elem_edges, counts)``: the sorted edge keys
        ``(a << 32) + b`` with a < b, the (n, 3) rows in ``keys`` of each
        leaf's edges (local edge i is opposite local vertex i), and the
        number of leaves holding each edge.
        """
        out = self._cache.get("edge_table")
        if out is None:
            out = self._cache["edge_table"] = _edge_table(self.tris())
        return out

    def is_conforming(self) -> bool:
        """True iff every edge is matched: twice interior, once on the boundary."""
        keys, _, counts = self.edge_table()
        if np.any(counts > 2):
            return False
        return bool(np.all(_in_sorted(self.forest.boundary_keys(), keys[counts == 1])))

    def coarse_rows(self, coarser: "Triangulation") -> np.ndarray:
        """Row in ``coarser.leaf_ids`` of each leaf's ancestor-or-self, or -1.

        Every row is -1 when the meshes live in different forests.  Each
        pass looks the open leaves' current ancestors up among the sorted
        coarse ids and moves the misses one generation up.  A node is
        created after its parent, so a node below the smallest coarse id
        has no ancestor among them and drops out.
        """
        rows = np.full(self.n_elements, -1, dtype=np.int64)
        if self.forest is not coarser.forest:
            return rows
        parents = self.forest.parents()
        ids = coarser.leaf_ids
        idx = np.arange(self.n_elements)
        node = self.leaf_ids
        while len(idx):
            pos = np.minimum(np.searchsorted(ids, node), len(ids) - 1)
            hit = ids[pos] == node
            rows[idx[hit]] = pos[hit]
            idx, node = idx[~hit], parents[node[~hit]]
            keep = node >= ids[0]
            idx, node = idx[keep], node[keep]
        return rows

    # -- refinement ---------------------------------------------------------

    def refine(self, marked) -> "Triangulation":
        """Bisect every marked leaf at least once and complete to conformity.

        The result is the conforming closure, so marked elements are
        never leaves of it and untouched elements carry over unchanged.
        A marked id that is not a leaf raises MeshError.
        """
        marked = np.asarray(marked, dtype=np.int64).reshape(-1)
        if not len(marked):
            return self
        rows = np.minimum(np.searchsorted(self.leaf_ids, marked), self.n_elements - 1)
        bad = self.leaf_ids[rows] != marked
        if bad.any():
            raise MeshError(f"marked element {marked[bad][0]} is not a leaf")
        rows = np.unique(rows)
        return _closure(self.forest, self.leaf_ids, self.tris(), self.edge_table(), rows)

    def uniform_refine(self) -> "Triangulation":
        """Refine with every leaf marked (doubles the leaf count at least)."""
        return self.refine(self.leaf_ids)

    def overlay(self, other: "Triangulation") -> "Triangulation":
        """Coarsest common refinement: the union of the two bisection trees.

        Both meshes must live in the same forest.  The result satisfies
        the cardinality bound |overlay| + |roots| <= |self| + |other|.
        """
        if self.forest is not other.forest:
            raise MeshError("overlay requires triangulations of one forest")
        mine = self.leaf_ids[self.coarse_rows(other) >= 0]
        theirs = other.leaf_ids[other.coarse_rows(self) >= 0]
        return Triangulation(self.forest, np.union1d(mine, theirs))

    def refines(self, coarser: "Triangulation") -> bool:
        """True iff every leaf of ``self`` descends from a leaf of ``coarser``."""
        return bool(np.all(self.coarse_rows(coarser) >= 0))


def complete_partition(forest: BisectionForest, leaf_ids) -> Triangulation:
    """Smallest conforming closure of a (possibly hanging) partition."""
    ids = np.unique(np.asarray(leaf_ids, dtype=np.int64))
    tris = forest.tris(ids)
    return _closure(forest, ids, tris, _edge_table(tris), ids[:0])


# -- initial meshes ---------------------------------------------------------


def _longest_edge_order(pts, tri):
    """Rotate (v0, v1, v2) so the refinement edge (v0, v1) is the longest.

    Ties pick the lexicographically smallest unordered index pair, which
    keeps the tagging deterministic.
    """
    best = None
    for i in range(3):
        a, b, c = tri[i], tri[(i + 1) % 3], tri[(i + 2) % 3]
        d = pts[a] - pts[b]
        key = (-(d[0] * d[0] + d[1] * d[1]), (min(a, b), max(a, b)))
        if best is None or key < best[0]:
            best = (key, (a, b, c))
    return best[1]


def initial_mesh(points, triangles) -> Triangulation:
    """Build an initial triangulation with longest-edge refinement tags."""
    pts = np.asarray(points, dtype=float)
    tagged = [_longest_edge_order(pts, tuple(int(v) for v in t)) for t in triangles]
    forest = BisectionForest(pts, tagged)
    return Triangulation.initial(forest)


def unit_square_criss() -> Triangulation:
    """Two right isosceles triangles on [0,1]^2 sharing the diagonal."""
    pts = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
    tris = [(0, 1, 2), (0, 2, 3)]
    return initial_mesh(pts, tris)


def l_shape() -> Triangulation:
    """Six-triangle criss mesh of (-1,1)^2 minus [0,1]x[-1,0].

    The diagonals (and hence all refinement edges) run into the reentrant
    corner at the origin.
    """
    pts = [
        (0.0, 0.0),
        (1.0, 0.0),
        (1.0, 1.0),
        (0.0, 1.0),
        (-1.0, 1.0),
        (-1.0, 0.0),
        (-1.0, -1.0),
        (0.0, -1.0),
    ]
    tris = [
        (0, 1, 2),
        (0, 2, 3),
        (0, 3, 4),
        (0, 4, 5),
        (0, 5, 6),
        (0, 6, 7),
    ]
    return initial_mesh(pts, tris)


# -- text format ------------------------------------------------------------


def write_mesh(T: Triangulation, path) -> None:
    """Write a triangulation in the plain text exchange format.

    Sections: ``vertices N`` with ``x y`` lines, ``triangles M`` with
    ``v0 v1 v2 refedge_flag`` lines (flag 0: the refinement edge is
    (v0, v1)), ``boundary K`` with ``va vb`` lines.  Coordinates use 17
    significant digits so a read/write round trip is bit exact.
    """
    tris = T.tris()
    used = sorted({int(v) for v in tris.ravel()})
    remap = {g: i for i, g in enumerate(used)}
    coords = T.forest.coords()
    keys = T.edge_table()[0]
    keys = keys[_in_sorted(T.forest.boundary_keys(), keys)].tolist()
    # keys are sorted and remap is increasing, so the pairs come out sorted
    boundary = [(remap[k >> 32], remap[k & 0xFFFFFFFF]) for k in keys]
    lines = [f"vertices {len(used)}"]
    for g in used:
        lines.append("%.17g %.17g" % (coords[g, 0], coords[g, 1]))
    lines.append(f"triangles {len(tris)}")
    for t in tris:
        lines.append(f"{remap[int(t[0])]} {remap[int(t[1])]} {remap[int(t[2])]} 0")
    lines.append(f"boundary {len(boundary)}")
    for a, b in boundary:
        lines.append(f"{a} {b}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_mesh(path) -> Triangulation:
    """Read the text format written by :func:`write_mesh`.

    The file becomes the root mesh of a fresh forest; the refedge flag
    selects which edge is the refinement edge (flag i: edge (v_i,
    v_{i+1 mod 3})).  Any malformed, degenerate, folded or non-conforming
    file, or a boundary block whose edges are not exactly the edges of
    one triangle each, raises MeshError; a missing file raises OSError.
    """
    with open(path) as fh:
        try:
            tokens = fh.read().split()
        except UnicodeDecodeError:
            raise MeshError("not a text file") from None
    pos = 0

    def take(conv, n):
        nonlocal pos
        out = tokens[pos : pos + n]
        if len(out) != n:
            raise MeshError("truncated mesh file")
        pos += n
        try:
            return [conv(v) for v in out]
        except ValueError:
            raise MeshError(f"expected {conv.__name__} values, got {' '.join(out)!r}") from None

    def section(name):
        (word,) = take(str, 1)
        if word != name:
            raise MeshError(f"expected section {name!r}, got {word!r}")
        return take(int, 1)[0]

    nv = section("vertices")
    pts = np.asarray([take(float, 2) for _ in range(nv)])
    nt = section("triangles")
    tris = []
    for _ in range(nt):
        v0, v1, v2, flag = take(int, 4)
        order = ((v0, v1, v2), (v1, v2, v0), (v2, v0, v1))
        if flag not in (0, 1, 2):
            raise MeshError(f"refedge flag must be 0, 1 or 2, got {flag}")
        tris.append(order[flag])
    nb = section("boundary")
    boundary = [tuple(take(int, 2)) for _ in range(nb)]
    if pos != len(tokens):
        raise MeshError("trailing data in mesh file")
    forest = BisectionForest(pts, tris, boundary=boundary)
    T = Triangulation.initial(forest)
    if not T.is_conforming():
        raise MeshError("the triangles and the boundary block do not form a conforming mesh")
    # the forest orients every triangle counterclockwise, so two triangles
    # on opposite sides of an edge run along it in opposite directions
    t = T.tris()
    directed = (t << 32) + np.roll(t, -1, axis=1)
    if len(np.unique(directed)) != directed.size:
        raise MeshError("two triangles lie on the same side of an edge (repeated or folded)")
    keys, _, counts = T.edge_table()
    if not np.array_equal(keys[counts == 1], forest.boundary_keys()):
        raise MeshError("a boundary edge is not an edge of exactly one triangle")
    return T

"""Tagged-triangle meshes under newest-vertex bisection.

All triangulations of one experiment are leaf sets of a single grow-only
bisection forest.  Nodes are never mutated or deleted, midpoints are
deduplicated forest-wide, and every derived mesh keeps ancestry
information.  ``Triangulation.coarse_rows`` maps the leaves of one
mesh to their ancestor-or-self leaves in another with a few vectorized
passes over the forest's parent array; nesting checks, the overlay of
two meshes and the prolongation between nested meshes all read it.
``Triangulation.edge_table`` is the one place that derives a mesh's
edges.

A triangle is stored as an index triple (v0, v1, v2): the refinement
edge is (v0, v1) and v2 is the newest vertex.  Bisection inserts the
midpoint m of (v0, v1) and produces the children (v2, v0, m) and
(v1, v2, m), so each child's refinement edge is the edge opposite m.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Iterable

import numpy as np

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


def _signed_area(coords, a, b, c):
    ax, ay = coords[a]
    bx, by = coords[b]
    cx, cy = coords[c]
    return 0.5 * ((bx - ax) * (cy - ay) - (by - ay) * (cx - ax))


class BisectionForest:
    """Grow-only store of all triangles ever created from one initial mesh.

    Vertices and triangle nodes are appended, never changed.  Midpoints
    are deduplicated by unordered vertex pair, so two refinement paths
    that split the same edge agree on the new vertex index.  Boundary
    edges are tracked combinatorially: when a boundary edge is split its
    halves are boundary edges as well.
    """

    def __init__(self, points, triangles, boundary=None):
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise MeshError("points must be (n, 2)")
        if not np.all(np.isfinite(pts)):
            raise MeshError("vertex coordinates must be finite")
        self._vx = [float(x) for x in pts[:, 0]]
        self._vy = [float(y) for y in pts[:, 1]]
        self.vertex_parents: list[tuple[int, int] | None] = [None] * len(self._vx)
        self._coords_cache = None

        self._tri: list[tuple[int, int, int]] = []
        self._gen: list[int] = []
        self._parent: list[int] = []
        self._parents_cache = np.empty(0, dtype=np.int64)
        self._children: list[tuple[int, int] | None] = []
        self.midpoint: dict[tuple[int, int], int] = {}

        tris = [tuple(int(v) for v in t) for t in triangles]
        nv = len(self._vx)
        for t in tris:
            if len(set(t)) != 3 or not all(0 <= v < nv for v in t):
                raise MeshError(f"invalid triangle {t}")
        coords = self.coords()
        for t in tris:
            v0, v1, v2 = t
            area = _signed_area(coords, v0, v1, v2)
            if area == 0.0:
                raise MeshError(f"degenerate triangle {t}")
            if area < 0.0:
                v0, v1 = v1, v0  # keep the tag edge, fix the orientation
            self._tri.append((v0, v1, v2))
            self._gen.append(0)
            self._parent.append(-1)
            self._children.append(None)
        self.roots = tuple(range(len(self._tri)))

        if boundary is None:
            counts: dict[tuple[int, int], int] = {}
            for t in self._tri:
                for e in _tri_edges(t):
                    counts[e] = counts.get(e, 0) + 1
            boundary = [e for e, c in counts.items() if c == 1]
        self.boundary_edges: set[tuple[int, int]] = {
            (min(a, b), max(a, b)) for a, b in boundary
        }

    # -- vertices -----------------------------------------------------------

    def coords(self) -> np.ndarray:
        if self._coords_cache is None or len(self._coords_cache) != len(self._vx):
            self._coords_cache = np.column_stack(
                (np.asarray(self._vx), np.asarray(self._vy))
            )
        return self._coords_cache

    @property
    def n_vertices(self) -> int:
        return len(self._vx)

    def boundary_keys(self) -> np.ndarray:
        """Keys ``(a << 32) + b``, a < b, of every boundary edge created so far."""
        return np.fromiter(
            ((a << 32) + b for a, b in self.boundary_edges),
            dtype=np.int64,
            count=len(self.boundary_edges),
        )

    def get_midpoint(self, a: int, b: int) -> int:
        key = (a, b) if a < b else (b, a)
        m = self.midpoint.get(key)
        if m is not None:
            return m
        m = len(self._vx)
        self._vx.append(0.5 * (self._vx[a] + self._vx[b]))
        self._vy.append(0.5 * (self._vy[a] + self._vy[b]))
        self.vertex_parents.append(key)
        self.midpoint[key] = m
        if key in self.boundary_edges:
            self.boundary_edges.add((min(a, m), max(a, m)))
            self.boundary_edges.add((min(b, m), max(b, m)))
        return m

    # -- nodes --------------------------------------------------------------

    def vertices_of(self, n: int) -> tuple[int, int, int]:
        return self._tri[n]

    def node_coords(self, n: int) -> np.ndarray:
        """(3, 2) coordinates of the vertices of node ``n``."""
        vx, vy = self._vx, self._vy
        return np.array([(vx[v], vy[v]) for v in self._tri[n]])

    def generation(self, n: int) -> int:
        return self._gen[n]

    def parent(self, n: int) -> int:
        return self._parent[n]

    def parents(self) -> np.ndarray:
        """Parent of every node, -1 for a root; only new nodes are converted."""
        done = len(self._parents_cache)
        if done != len(self._parent):
            self._parents_cache = np.concatenate(
                (self._parents_cache, np.asarray(self._parent[done:], dtype=np.int64))
            )
        return self._parents_cache

    @property
    def n_nodes(self) -> int:
        return len(self._tri)

    def split(self, n: int) -> tuple[int, int]:
        """Get or create the two children of node ``n``."""
        ch = self._children[n]
        if ch is not None:
            return ch
        v0, v1, v2 = self._tri[n]
        m = self.get_midpoint(v0, v1)
        gen = self._gen[n] + 1
        i = len(self._tri)
        self._tri.append((v2, v0, m))
        self._gen.append(gen)
        self._parent.append(n)
        self._children.append(None)
        self._tri.append((v1, v2, m))
        self._gen.append(gen)
        self._parent.append(n)
        self._children.append(None)
        ch = (i, i + 1)
        self._children[n] = ch
        return ch


def _tri_edges(t):
    v0, v1, v2 = t
    return (
        (v0, v1) if v0 < v1 else (v1, v0),
        (v1, v2) if v1 < v2 else (v2, v1),
        (v2, v0) if v2 < v0 else (v0, v2),
    )


def _refine_leafset(forest, leaf_ids, tris, marked, initial_scan):
    """Worklist refinement: bisect ``marked``, then chase hanging nodes.

    ``tris`` holds the vertices of ``leaf_ids``, row by row.  A leaf
    hangs when one of its edges has a forest midpoint that is used by
    some current leaf (the midpoint lies on the open edge, so any leaf
    using it sits on the other side).  Each split can only create hanging
    nodes at the new midpoint or on the two children, so a queue seeded
    with the marked leaves reaches the conforming fixed point.
    """
    leaf_ids = np.asarray(leaf_ids, dtype=np.int64)
    leaves = set(leaf_ids.tolist())
    verts, uses = np.unique(tris, return_counts=True)
    active = dict(zip(verts.tolist(), uses.tolist()))
    # the leaves holding each full edge, at most one on either side; a
    # holder that has been split since is no longer in ``leaves``
    nxt = np.roll(tris, -1, axis=1)
    lo = np.minimum(tris, nxt).ravel()
    hi = np.maximum(tris, nxt).ravel()
    owner = np.repeat(leaf_ids, 3)
    order = np.lexsort((hi, lo))
    lo, hi, owner = lo[order], hi[order], owner[order]
    again = np.r_[False, (lo[1:] == lo[:-1]) & (hi[1:] == hi[:-1])]
    holders = [
        dict(zip(zip(lo[m].tolist(), hi[m].tolist()), owner[m].tolist()))
        for m in (~again, again)
    ]
    new_holders: dict[tuple[int, int], list[int]] = {}
    tri_of = forest.vertices_of

    midpoint = forest.midpoint
    queue: deque[int] = deque()

    def hangs(n):
        for e in _tri_edges(tri_of(n)):
            m = midpoint.get(e)
            if m is not None and active.get(m, 0) > 0:
                return True
        return False

    for n in sorted(marked):
        if n not in leaves:
            raise MeshError(f"marked element {n} is not a leaf")
        queue.append(n)
    forced = set(queue)
    if initial_scan:
        for n in sorted(leaves):
            if hangs(n):
                queue.append(n)

    nsplit = 0
    while queue:
        n = queue.popleft()
        if n not in leaves:
            continue
        if n not in forced and not hangs(n):
            continue
        nsplit += 1
        if nsplit > _SPLIT_CAP:
            raise MeshError("completion did not terminate (incompatible tags?)")
        t = tri_of(n)
        leaves.discard(n)
        forced.discard(n)
        for v in t:
            active[v] -= 1
        c0, c1 = forest.split(n)
        for c in (c0, c1):
            tc = tri_of(c)
            leaves.add(c)
            for v in tc:
                active[v] = active.get(v, 0) + 1
            for e in _tri_edges(tc):
                new_holders.setdefault(e, []).append(c)
        # the split edge (v0, v1) of n now has an active midpoint: any
        # remaining leaf with that full edge hangs
        v0, v1, _v2 = t
        e = (v0, v1) if v0 < v1 else (v1, v0)
        for nb in (holders[0].get(e), holders[1].get(e), *new_holders.get(e, ())):
            if nb in leaves:
                queue.append(nb)
        # children may hang if the far side is already finer
        for c in (c0, c1):
            if hangs(c):
                queue.append(c)
    return leaves


class Triangulation:
    """An immutable leaf set of a bisection forest.

    Elements are identified by their forest node index, which is stable
    across refinements of the same experiment.
    """

    __slots__ = ("forest", "leaf_ids", "_leaf_set", "_cache")

    def __init__(self, forest: BisectionForest, leaf_ids):
        self.forest = forest
        arr = np.asarray(sorted(int(n) for n in leaf_ids), dtype=np.int64)
        if len(arr) == 0:
            raise MeshError("empty triangulation")
        self.leaf_ids = arr
        self._leaf_set = None
        self._cache = {}

    @classmethod
    def initial(cls, forest: BisectionForest) -> "Triangulation":
        return cls(forest, forest.roots)

    @property
    def n_elements(self) -> int:
        return len(self.leaf_ids)

    @property
    def leaf_set(self) -> frozenset:
        if self._leaf_set is None:
            self._leaf_set = frozenset(int(n) for n in self.leaf_ids)
        return self._leaf_set

    def __contains__(self, n) -> bool:
        return int(n) in self.leaf_set

    # -- geometry views -----------------------------------------------------

    def tris(self) -> np.ndarray:
        """(n, 3) vertex indices, row order matching ``leaf_ids``."""
        out = self._cache.get("tris")
        if out is None:
            out = np.asarray(
                [self.forest.vertices_of(int(n)) for n in self.leaf_ids],
                dtype=np.int64,
            )
            self._cache["tris"] = out
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
            c = self.tri_coords()
            d1 = c[:, 1, :] - c[:, 0, :]
            d2 = c[:, 2, :] - c[:, 0, :]
            out = 0.5 * np.abs(d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
            self._cache["areas"] = out
        return out

    def area(self) -> float:
        return math.fsum(self.areas().tolist())

    def generations(self) -> np.ndarray:
        return np.asarray(
            [self.forest.generation(int(n)) for n in self.leaf_ids], dtype=np.int64
        )

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
            pair = self.tris()[:, [[1, 2], [2, 0], [0, 1]]]
            keys = (pair.min(axis=2) << 32) + pair.max(axis=2)
            keys, inverse, counts = np.unique(
                keys.ravel(), return_inverse=True, return_counts=True
            )
            out = (keys, inverse.reshape(-1, 3), counts)
            self._cache["edge_table"] = out
        return out

    def is_conforming(self) -> bool:
        """True iff every edge is matched: twice interior, once on the boundary."""
        keys, _, counts = self.edge_table()
        if np.any(counts > 2):
            return False
        return bool(np.all(np.isin(keys[counts == 1], self.forest.boundary_keys())))

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

    def refine(self, marked: Iterable[int]) -> "Triangulation":
        """Bisect every marked leaf at least once and complete to conformity.

        Completion chases hanging nodes through the forest, so the result
        is again conforming; marked elements are never leaves of the
        result and untouched elements carry over unchanged.
        """
        marked = [int(n) for n in marked]
        if not marked:
            return self
        leaves = _refine_leafset(self.forest, self.leaf_ids, self.tris(), marked, False)
        return Triangulation(self.forest, leaves)

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
    ids = [int(n) for n in leaf_ids]
    tris = np.asarray([forest.vertices_of(n) for n in ids], dtype=np.int64).reshape(-1, 3)
    leaves = _refine_leafset(forest, ids, tris, [], True)
    return Triangulation(forest, leaves)


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


def initial_mesh(points, triangles, boundary=None) -> Triangulation:
    """Build an initial triangulation with longest-edge refinement tags."""
    pts = np.asarray(points, dtype=float)
    tagged = [_longest_edge_order(pts, tuple(int(v) for v in t)) for t in triangles]
    forest = BisectionForest(pts, tagged, boundary=boundary)
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
    keys = keys[np.isin(keys, T.forest.boundary_keys())].tolist()
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
    v_{i+1 mod 3})).  Any malformed, degenerate or non-conforming file
    raises MeshError; a missing one raises OSError.
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
    return T

"""Element marking: bulk selection and greedy data approximation.

Two marking mechanisms drive the adaptive loops.  Bulk (Doerfler)
selection picks a minimal set of elements carrying a fixed fraction of
an indicator total.  The greedy data approximation refines a possibly
nonconforming partition by bisecting, each pass, all elements whose
surrogate weight attains the maximum, until the data total meets a
tolerance; the surrogate is propagated to children by a fixed recursion
instead of being recomputed, which is what makes the greedy choice
cheap and the element counts tolerance-optimal.  The greedy keeps its
partition and each partition element's surrogate weight only in its
heap, and its passes go in runs: one quadrature call fetches the
would-be children of many elements ahead, the passes are replayed in
Python, and one ``split`` makes all children of the run.

The element values live in one store per data field and forest
(``ElementOscillation``): per forest node, mu(K) and the integral of f,
from one quadrature batch.  The data term, APPROX's children and the
loads of both discretizations read it, so f is evaluated at most once
per forest node in a run.
"""

from __future__ import annotations

import heapq
import math
import weakref

import numpy as np

from .mesh import BisectionForest, Triangulation, _grow, complete_partition
from .quadrature import _areas, integrate_many, mu2_elements

__all__ = [
    "IndicatorField",
    "doerfler_select",
    "tilde_mu_children",
    "ApproxState",
    "ElementOscillation",
    "WeightedDataSize",
]

# ApproxState raises once its partition would pass this many elements
_PARTITION_CAP = 2_000_000
# elements ApproxState fetches ahead when a run of passes begins; more
# would make longer runs, but its transient arrays would raise the peak
# memory of a whole adaptive run
_AHEAD = 256


class IndicatorField:
    """Nonnegative squared indicator values keyed by element identifier."""

    __slots__ = ("ids", "values", "_total")

    def __init__(self, ids, values):
        self.ids = np.asarray(ids, dtype=np.int64)
        self.values = np.asarray(values, dtype=float)
        if self.ids.shape != self.values.shape or self.ids.ndim != 1:
            raise ValueError("ids and values must be matching 1-d arrays")
        if len(self.ids) == 0:
            raise ValueError("empty indicator field")
        if not np.all(np.isfinite(self.values)) or np.any(self.values < 0.0):
            raise ValueError("indicator values must be finite and nonnegative")
        self._total = None

    @property
    def total(self) -> float:
        if self._total is None:
            self._total = math.fsum(self.values.tolist())
        return self._total

    def __len__(self):
        return len(self.ids)


def doerfler_select(theta: float, eta2: IndicatorField) -> np.ndarray:
    """Minimal bulk set: fewest elements with sum(eta2) >= theta * total.

    Greedy on a descending sort of the values rounded to multiples of
    1e-12 * total, ties broken by ascending element identifier; the
    cumulative sum uses the unrounded values.  Values that agree to 12
    digits (relative to the total) thus sort by identifier, so roundoff
    in the indicators (from a different linear solver, say) does not
    change the selection, and the set is minimal up to such values.
    Returns the marked element identifiers sorted ascending.
    """
    if not 0.0 < theta <= 1.0:
        raise ValueError(f"theta must be in (0, 1], got {theta}")
    total = eta2.total
    if total == 0.0:
        return np.empty(0, dtype=np.int64)
    key = np.rint(eta2.values * 1e12 / total)
    order = np.lexsort((eta2.ids, -key))
    csum = np.cumsum(eta2.values[order])
    target = theta * total
    k = int(np.searchsorted(csum, target, side="left")) + 1
    k = min(k, len(order))
    return np.sort(eta2.ids[order[:k]])


def tilde_mu_children(mu_parent, tilde_parent, mu_child1, mu_child2) -> np.ndarray:
    """Surrogate weight that both children of each bisected element get.

    tilde(K_j) = tilde(K) * (mu(K_1) + mu(K_2)) / (mu(K) + tilde(K)),
    and zero where the denominator vanishes.  The arguments are arrays
    (or scalars) of the unsquared element values, one entry per element.
    """
    mu_parent, tilde_parent, mu_child1, mu_child2 = (
        np.asarray(v, dtype=float) for v in (mu_parent, tilde_parent, mu_child1, mu_child2)
    )
    low = np.minimum(np.minimum(mu_parent, tilde_parent), np.minimum(mu_child1, mu_child2))
    if not low.min() >= 0.0:
        raise ValueError("element values must be nonnegative")
    den = mu_parent + tilde_parent
    # a zero denominator means tilde(K) = 0, so the numerator is zero too
    return tilde_parent * (mu_child1 + mu_child2) / np.where(den == 0.0, 1.0, den)


class _NodeRecords:
    """One forest's records: ``width`` fields per node id, grown with the forest.

    ``fields[k][n]`` is field k of node n, and ``known`` marks the
    computed nodes.  The two children's fields of a node that ``split``
    had not split when they were computed wait in a row of ``ahead``
    (a pair per field) until the children are made and read; ``rows``
    maps the node to its row, ``held`` marks it, and ``top`` counts the
    rows written.
    """

    __slots__ = ("fields", "known", "ahead", "rows", "held", "top")

    def __init__(self, width):
        self.fields = [np.zeros(0) for _ in range(width)]
        self.known = np.zeros(0, dtype=bool)
        self.ahead = np.zeros((0, 2 * width))
        self.rows = {}
        self.held = np.zeros(0, dtype=bool)
        self.top = 0

    def keep(self, nodes, pairs):
        """Hold ``pairs[i]``, the children's fields of ``nodes[i]``, until they are made."""
        k = len(nodes)
        self.ahead = _grow(self.ahead, self.top + k)
        self.ahead[self.top : self.top + k] = pairs
        self.rows.update(zip(nodes.tolist(), range(self.top, self.top + k)))
        self.held[nodes] = True
        self.top += k

    def take(self, nodes) -> np.ndarray:
        """The held children's fields of ``nodes``, which no longer wait."""
        pairs = self.ahead[[self.rows.pop(n) for n in nodes.tolist()]]
        self.held[nodes] = False
        if self.top > 2 * len(self.rows) + 1024:
            # compact the rows still waiting
            live = np.fromiter(self.rows.values(), dtype=np.int64, count=len(self.rows))
            self.ahead[: len(live)] = self.ahead[live]
            self.rows = dict(zip(self.rows, range(len(live))))
            self.top = len(live)
        return pairs


class _CachedElementValue:
    """Per-forest cache of per-element fields, each node computed at most once.

    Each element has ``width`` fields, its value first.  Per forest
    (``_NodeRecords``), they are indexed by node id, and the children's
    fields that ``child_values`` computes before the children exist
    are kept until ``split`` makes them; a node is computed only where
    neither holds it, so every forest node is evaluated at most once.
    """

    width = 1

    def __init__(self, field):
        self.field = field
        self._caches = weakref.WeakKeyDictionary()

    def _compute_batch(self, coords):
        """The ``width`` fields, each (m,), of the (m, 3, 2) triangles ``coords``."""
        raise NotImplementedError

    def _records(self, forest: BisectionForest, nodes=()) -> _NodeRecords:
        """The records of ``forest``, with those of the id array ``nodes`` computed.

        Children that ``split`` made since their fields were computed
        ahead take them; the other missing nodes are computed in one
        batch.  All are cached.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        rec = self._caches.get(forest)
        if rec is None:
            rec = self._caches[forest] = _NodeRecords(self.width)
        rec.fields = [_grow(field, forest.n_nodes) for field in rec.fields]
        rec.known = _grow(rec.known, forest.n_nodes)
        rec.held = _grow(rec.held, forest.n_nodes)
        missing = nodes[~rec.known[nodes]]
        if len(missing) and rec.rows:
            parents = forest.parents()[missing]
            made = np.unique(parents[rec.held[parents] & (parents >= 0)])
            if len(made):
                kids = forest.first_children(made)[:, np.newaxis] + np.arange(2)
                pairs = rec.take(made)
                for k, field in enumerate(rec.fields):
                    field[kids] = pairs[:, 2 * k : 2 * k + 2]
                rec.known[kids] = True
                missing = missing[~rec.known[missing]]
        if len(missing):
            batch = self._compute_batch(forest.node_coords(missing))
            for field, values in zip(rec.fields, batch):
                field[missing] = values
            rec.known[missing] = True
        return rec

    def node_values(self, forest: BisectionForest, nodes) -> np.ndarray:
        """Values of the forest nodes in the id array ``nodes`` (any shape)."""
        return self._records(forest, nodes).fields[0][nodes]

    def child_values(self, forest: BisectionForest, nodes) -> np.ndarray:
        """(m, 2) values of the two children ``split`` gives each node.

        The children need not exist.  Those whose fields are held are
        read; the others are computed in one batch, cached where the
        children exist and kept ahead where they do not.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        rec = self._records(forest)
        first = forest.first_children(nodes)
        made = first >= 0
        kids = first[:, np.newaxis] + np.arange(2)
        # read where held; the rows of children not made yet are filled below
        out = [field[kids] for field in rec.fields]
        need = np.zeros(kids.shape, dtype=bool)
        need[made] = ~rec.known[kids[made]]
        need[~made] = True
        for i in np.flatnonzero(~made & rec.held[nodes]).tolist():
            need[i] = False
            for o, pair in zip(out, rec.ahead[rec.rows[nodes[i]]].reshape(-1, 2)):
                o[i] = pair
        if need.any():
            batch = self._compute_batch(forest.child_coords(nodes)[need])
            stored = need & made[:, np.newaxis]
            for o, values, field in zip(out, batch, rec.fields):
                o[need] = values
                field[kids[stored]] = o[stored]
            rec.known[kids[stored]] = True
            ahead = need[:, 0] & ~made
            rec.keep(nodes[ahead], np.concatenate([o[ahead] for o in out], axis=1))
        return out[0]

    def mesh_values2(self, T: Triangulation) -> IndicatorField:
        """Squared values for all leaves, filling the per-node cache."""
        vals = self.node_values(T.forest, T.leaf_ids)
        return IndicatorField(T.leaf_ids, vals * vals)


class ElementOscillation(_CachedElementValue):
    """mu(K) = ||f - f_K||_{L2(K)}, kept with int_K f: f's 7-point data per forest node.

    One ``mu2_elements`` batch gives both (see ``_compute_batch``), so
    the data term, APPROX and the loads of both discretizations
    (``loads``) evaluate f once per forest node.  A problem keeps one
    for its field; a solve given the bare field makes its own (``of``).
    """

    width = 2

    @classmethod
    def of(cls, f) -> "ElementOscillation":
        """``f`` if it is already f's data, else a new, empty store for the field ``f``."""
        return f if isinstance(f, cls) else cls(f)

    def _compute_batch(self, coords):
        integrals = np.empty(len(coords))
        mu2 = mu2_elements(self.field, coords, integrals)
        return np.sqrt(mu2), integrals

    def loads(self, T) -> np.ndarray:
        """int_K f over the elements of T, bit for bit ``integrate_many(f, T.tri_coords())``.

        T is a Triangulation or its Connectivity: either carries the
        forest and the leaf ids.
        """
        return self._records(T.forest, T.leaf_ids).fields[1][T.leaf_ids]


class WeightedDataSize(_CachedElementValue):
    """|K| * ||f||_{L2(K)}, the area-weighted data size (collective indicator)."""

    def _compute_batch(self, coords):
        f = self.field
        return (_areas(coords) * np.sqrt(integrate_many(lambda x, y: f(x, y) ** 2, coords)),)


class ApproxState:
    """Resumable greedy data approximation over one bisection forest.

    Keeps the (possibly nonconforming) working partition as a heap of
    (-surrogate weight, node), one entry per partition element and the
    only store of the partition and of the weights (the element values
    mu(K) are read from ``values``), so that successive calls with
    decreasing tolerances continue where the previous call stopped
    instead of restarting from the initial mesh.

    The greedy passes go in runs.  A run begins with one quadrature
    call for the would-be children of the pass at hand and of the next
    heap entries (``_fetch_ahead``).  Its passes are then replayed in
    Python: each child gets the id ``split`` will give it and goes into
    the heap at once.  A run ends (``_flush``) with one ``split`` of its
    elements in pass order; ``values`` keeps the children's values it
    computed ahead until they are made.  This happens when a pass needs
    an element that was not fetched ahead (one created in the run, or
    one past the prefetch), when the running total is made exact at the
    tolerance check and before ``run`` returns, so nothing else splits
    the forest while a run is open.  The quadrature gives every element the same bits in
    any batch, and ``split`` numbers nodes and midpoints in order of
    first need, so the result equals that of a greedy that splits and
    fetches one element at a time.
    """

    def __init__(self, T0: Triangulation, values: _CachedElementValue):
        self.forest = T0.forest
        self.values = values
        roots = T0.leaf_ids
        mu = values.node_values(self.forest, roots)
        # (-tilde, node) of every partition element, the one record of the
        # partition and of its weights: a node is pushed when it enters the
        # partition and popped when it leaves it
        self._heap = list(zip((-mu).tolist(), roots.tolist()))
        heapq.heapify(self._heap)
        # partition elements fetched ahead, node -> (-tilde of its
        # children, increment of the running total), each kept until the
        # element is split
        self._ahead = {}
        # the elements bisected in the open run, in pass order, and the
        # id the next new node gets
        self._pending, self._next = [], 0
        self._resync()

    @property
    def partition(self) -> np.ndarray:
        """Sorted node ids of the working partition."""
        return np.sort(np.array([n for _, n in self._heap], dtype=np.int64))

    def _resync(self):
        self._flush()
        # fsum is exact in any order, so the heap's order serves
        mu = self.values.node_values(self.forest, np.array([n for _, n in self._heap]))
        self.mu2_total = math.fsum((mu * mu).tolist())

    def _flush(self):
        """End the open run: split its elements."""
        if self._pending:
            self.forest.split(np.array(self._pending, dtype=np.int64))
            for n in self._pending:
                del self._ahead[n]
            self._pending = []

    def _fetch_ahead(self, batch, top):
        """Begin a run: fetch the children of ``batch`` and of the next heap entries.

        ``batch`` holds the elements popped with the heap key ``top``.
        Of the batch and the heap entries that follow it, up to ``_AHEAD``
        elements in all, the children's values of those not fetched yet
        come from one call, and their surrogate weights and the running
        total's increments from one array step each.  The elements' own
        weights are their heap keys, negated.
        """
        heap, ahead = self._heap, self._ahead
        seen = [heapq.heappop(heap) for _ in range(min(_AHEAD - len(batch), len(heap)))]
        for entry in seen:
            heapq.heappush(heap, entry)
        fresh = [(w, n) for w, n in [(top, n) for n in batch] + seen if n not in ahead]
        nodes = np.array([n for _, n in fresh], dtype=np.int64)
        tilde = -np.array([w for w, _ in fresh])
        mu = self.values.node_values(self.forest, nodes)
        m0, m1 = self.values.child_values(self.forest, nodes).T
        neg = -tilde_mu_children(mu, tilde, m0, m1)
        delta = m0 * m0 + m1 * m1 - mu * mu
        ahead.update(zip(nodes.tolist(), zip(neg.tolist(), delta.tolist())))

    def _pass(self):
        """Bisect every element attaining the maximal surrogate weight.

        The pass is replayed from the values fetched ahead.  If one of
        its elements was not fetched ahead, the open run ends and a new
        one begins with this pass.  The running total is updated
        element by element, in the order a one-at-a-time greedy would
        update it.
        """
        heap, ahead = self._heap, self._ahead
        top = heap[0][0]
        batch = []
        while heap and heap[0][0] == top:
            batch.append(heapq.heappop(heap)[1])
        if not all(n in ahead for n in batch):
            self._flush()
            self._fetch_ahead(batch, top)
        # elements split before the run keep their children, the others'
        # children get the ids split will give them
        first = self.forest.first_children(batch).tolist()
        new = self._next if self._pending else self.forest.n_nodes
        self._pending += batch
        for n, c in zip(batch, first):
            if c < 0:
                c, new = new, new + 2
            neg, d = ahead[n]
            heapq.heappush(heap, (neg, c))
            heapq.heappush(heap, (neg, c + 1))
            self.mu2_total += d
        self._next = new
        if len(heap) > _PARTITION_CAP:
            self._flush()
            raise RuntimeError(
                f"data approximation exceeded the partition cap ({_PARTITION_CAP} elements)"
            )

    def run(self, tol: float) -> Triangulation:
        """Refine until the squared data total is at most ``tol``, then complete.

        The running total is made exact only where it meets the target,
        which is ``tol`` until a completion overshoots it.  The completed
        conforming mesh is returned; the working partition is kept
        (uncompleted) so later calls resume from it.
        """
        if not tol > 0.0:
            raise ValueError(f"tolerance must be positive, got {tol}")
        target = tol
        while True:
            while True:
                if self.mu2_total <= target:
                    self._resync()
                    if self.mu2_total <= target:
                        break
                self._pass()
            T = complete_partition(self.forest, self.partition)
            mu = self.values.node_values(self.forest, T.leaf_ids)
            total = math.fsum((mu * mu).tolist())
            if total <= tol:
                return T
            # the completion's quadratured total overshoots tol: aim the
            # partition's exact total lower by the overshoot's ratio; the
            # pass makes progress even where that total is 0
            target = self.mu2_total * tol / total
            self._pass()

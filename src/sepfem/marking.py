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


class _CachedElementValue:
    """Per-forest cache of a nonnegative per-element value.

    Per forest, a value array and a computed-mask, both indexed by node
    id and grown with the forest.
    """

    def __init__(self, field):
        self.field = field
        self._caches = weakref.WeakKeyDictionary()

    def _compute_batch(self, coords):
        raise NotImplementedError

    def _cache(self, forest: BisectionForest):
        """The value and computed-mask arrays of ``forest``, grown to its node count."""
        vals, known = self._caches.get(forest, (np.zeros(0), np.zeros(0, dtype=bool)))
        vals, known = _grow(vals, forest.n_nodes), _grow(known, forest.n_nodes)
        self._caches[forest] = vals, known
        return vals, known

    def node_values(self, forest: BisectionForest, nodes) -> np.ndarray:
        """Values of the forest nodes in the id array ``nodes`` (any shape).

        The uncached ones are computed in one batch and cached.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        vals, known = self._cache(forest)
        missing = nodes[~known[nodes]]
        if len(missing):
            vals[missing] = self._compute_batch(forest.node_coords(missing))
            known[missing] = True
        return vals[nodes]

    def child_values(self, forest: BisectionForest, nodes) -> np.ndarray:
        """(m, 2) values of the two children ``split`` gives each node, in one batch.

        The children need not exist, and nothing is cached: ``store``
        caches the values once the children are made.
        """
        coords = forest.child_coords(np.asarray(nodes, dtype=np.int64))
        return self._compute_batch(coords.reshape(-1, 3, 2)).reshape(-1, 2)

    def store(self, forest: BisectionForest, nodes, values):
        """Cache ``values`` as the values of the existing forest nodes ``nodes``."""
        vals, known = self._cache(forest)
        vals[nodes] = values
        known[nodes] = True

    def mesh_values2(self, T: Triangulation) -> IndicatorField:
        """Squared values for all leaves, filling the per-node cache."""
        vals = self.node_values(T.forest, T.leaf_ids)
        return IndicatorField(T.leaf_ids, vals * vals)


class ElementOscillation(_CachedElementValue):
    """mu(K) = ||f - f_K||_{L2(K)}, the piecewise-constant data oscillation."""

    def _compute_batch(self, coords):
        return np.sqrt(mu2_elements(self.field, coords))


class WeightedDataSize(_CachedElementValue):
    """|K| * ||f||_{L2(K)}, the area-weighted data size (collective indicator)."""

    def _compute_batch(self, coords):
        f = self.field
        return _areas(coords) * np.sqrt(integrate_many(lambda x, y: f(x, y) ** 2, coords))


class ApproxState:
    """Resumable greedy data approximation over one bisection forest.

    Keeps the (possibly nonconforming) working partition as a heap of
    (-surrogate weight, node), one entry per partition element and the
    only store of the partition and of the weights (the element values
    mu(K) are read from ``values``' cache), so that successive calls
    with decreasing tolerances continue where the previous call stopped
    instead of restarting from the initial mesh.

    The greedy passes go in runs.  A run begins with one quadrature
    call for the would-be children of the pass at hand and of the next
    heap entries (``_fetch_ahead``).  Its passes are then replayed in
    Python: each child gets the id ``split`` will give it and goes into
    the heap at once.  A run ends (``_flush``) with one ``split`` of its
    elements in pass order, and their children's values go into the
    cache.  This happens when a pass needs an element that was not
    fetched ahead (one created in the run, or one past the prefetch),
    when the running total is made exact at the tolerance check and
    before ``run`` returns, so nothing else splits the forest while a
    run is open.  The quadrature gives every element the same bits in
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
        # children, increment of the running total, the children's two
        # values), each kept until the element is split
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
        """End the open run: split its elements and cache their children's values."""
        if self._pending:
            kids = self.forest.split(np.array(self._pending, dtype=np.int64))
            self.values.store(self.forest, kids, [self._ahead.pop(n)[2:] for n in self._pending])
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
        entries = zip(neg.tolist(), delta.tolist(), m0.tolist(), m1.tolist())
        ahead.update(zip(nodes.tolist(), entries))

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
            neg, d = ahead[n][:2]
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

"""Element marking: bulk selection and greedy data approximation.

Two marking mechanisms drive the adaptive loops.  Bulk (Doerfler)
selection picks a minimal set of elements carrying a fixed fraction of
an indicator total.  The greedy data approximation refines a possibly
nonconforming partition by bisecting, each pass, all elements whose
surrogate weight attains the maximum, until the data total meets a
tolerance; the surrogate is propagated to children by a fixed recursion
instead of being recomputed, which is what makes the greedy choice
cheap and the element counts tolerance-optimal.  The element values of
all children of one pass come from one quadrature call, and the greedy
keeps its state (values, surrogate weights, partition) in arrays
indexed by forest node.
"""

from __future__ import annotations

import heapq
import math
import weakref

import numpy as np

from .mesh import BisectionForest, Triangulation, _grow, complete_partition
from .quadrature import QuadratureRule, _areas, integrate_many, mu2_elements, triangle_rule

__all__ = [
    "IndicatorField",
    "doerfler_select",
    "tilde_mu_children",
    "ApproxState",
    "ElementOscillation",
    "WeightedDataSize",
]


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

    def __init__(self, field, rule: QuadratureRule | None = None):
        self.field = field
        self.rule = rule if rule is not None else triangle_rule(5)
        self._caches = weakref.WeakKeyDictionary()

    def _compute_batch(self, coords):
        raise NotImplementedError

    def node_values(self, forest: BisectionForest, nodes) -> np.ndarray:
        """Values of the forest nodes in the id array ``nodes`` (any shape).

        The uncached ones are computed in one batch and cached.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        vals, known = self._caches.get(forest, (np.zeros(0), np.zeros(0, dtype=bool)))
        vals, known = _grow(vals, forest.n_nodes), _grow(known, forest.n_nodes)
        self._caches[forest] = vals, known
        missing = nodes[~known[nodes]]
        if len(missing):
            vals[missing] = self._compute_batch(forest.node_coords(missing))
            known[missing] = True
        return vals[nodes]

    def mesh_values2(self, T: Triangulation) -> IndicatorField:
        """Squared values for all leaves, filling the per-node cache."""
        vals = self.node_values(T.forest, T.leaf_ids)
        return IndicatorField(T.leaf_ids, vals * vals)


class ElementOscillation(_CachedElementValue):
    """mu(K) = ||f - f_K||_{L2(K)}, the piecewise-constant data oscillation."""

    def _compute_batch(self, coords):
        return np.sqrt(np.maximum(mu2_elements(self.field, coords, self.rule), 0.0))


class WeightedDataSize(_CachedElementValue):
    """|K| * ||f||_{L2(K)}, the area-weighted data size (collective indicator)."""

    def _compute_batch(self, coords):
        f = self.field
        sq = integrate_many(lambda x, y: np.asarray(f(x, y)) ** 2, coords, self.rule)
        return _areas(coords) * np.sqrt(np.maximum(sq, 0.0))


class ApproxState:
    """Resumable greedy data approximation over one bisection forest.

    Keeps the (possibly nonconforming) working partition and the
    surrogate weights in arrays indexed by forest node (the element
    values mu(K) are read from ``values``' cache), so that successive
    calls with decreasing tolerances continue where the previous call
    stopped instead of restarting from the initial mesh.  Each greedy
    pass makes one quadrature call for the children of all elements it
    bisects, and so does each completion check; the quadrature gives
    every element the same bits in any batch, so the result equals that
    of a greedy fetching one child at a time.
    """

    def __init__(self, T0: Triangulation, values: _CachedElementValue, cap: int = 2_000_000):
        self.T0 = T0
        self.forest = T0.forest
        self.values = values
        self.cap = int(cap)
        roots = T0.leaf_ids
        mu = values.node_values(self.forest, roots)
        self.tilde = np.zeros(self.forest.n_nodes)
        self.tilde[roots] = mu
        self._in = np.zeros(self.forest.n_nodes, dtype=bool)
        self._in[roots] = True
        self._heap = list(zip((-mu).tolist(), roots.tolist()))
        heapq.heapify(self._heap)
        self._resync()
        self._updates = 0

    @property
    def partition(self) -> np.ndarray:
        """Sorted node ids of the working partition."""
        return np.flatnonzero(self._in)

    def _resync(self):
        mu = self.values.node_values(self.forest, self.partition)
        self.mu2_total = math.fsum((mu * mu).tolist())

    def _pass(self):
        """Bisect every element attaining the maximal surrogate weight.

        All elements of the pass are split in one ``BisectionForest.split``
        call, and their values and their children's come from one call;
        the running total is updated element by element, in the order a
        one-at-a-time greedy would update it, and is resynced at every
        4096th update on the partition of that moment.
        """
        heap = self._heap
        part = self._in
        while heap and not part[heap[0][1]]:
            heapq.heappop(heap)
        if not heap:
            raise RuntimeError("greedy heap exhausted with a nonempty partition")
        top = heap[0][0]
        batch = []
        while heap and heap[0][0] == top:
            _, n = heapq.heappop(heap)
            if part[n]:
                batch.append(n)
        batch = np.array(batch, dtype=np.int64)
        children = self.forest.split(batch)
        family = np.concatenate((batch[:, None], children), axis=1)
        mu, m0, m1 = self.values.node_values(self.forest, family).T
        t = tilde_mu_children(mu, self.tilde[batch], m0, m1)
        self.tilde = _grow(self.tilde, self.forest.n_nodes)
        self.tilde[children] = t[:, None]
        for c, neg in zip(children.tolist(), (-t).tolist()):
            heapq.heappush(heap, (neg, c[0]))
            heapq.heappush(heap, (neg, c[1]))
        delta = (m0 * m0 + m1 * m1 - mu * mu).tolist()
        self._in = part = _grow(part, self.forest.n_nodes)
        start = 0
        while start < len(batch):
            stop = min(len(batch), start + 4096 - self._updates % 4096)
            part[batch[start:stop]] = False
            part[children[start:stop]] = True
            for d in delta[start:stop]:
                self.mu2_total += d
            self._updates += stop - start
            if self._updates % 4096 == 0:
                self._resync()
            start = stop
        if len(self.T0.leaf_ids) + self._updates > self.cap:
            raise RuntimeError(
                f"data approximation exceeded the partition cap ({self.cap} elements)"
            )

    def run(self, tol: float) -> Triangulation:
        """Refine until the squared data total is at most ``tol``, then complete.

        The completed conforming mesh is returned; the working partition
        is kept (uncompleted) so later calls resume from it.
        """
        if not tol > 0.0:
            raise ValueError(f"tolerance must be positive, got {tol}")
        while True:
            while True:
                if self.mu2_total <= tol:
                    self._resync()
                    if self.mu2_total <= tol:
                        break
                self._pass()
            T = complete_partition(self.forest, self.partition)
            mu = self.values.node_values(self.forest, T.leaf_ids)
            if math.fsum((mu * mu).tolist()) <= tol:
                return T
            # completion pushed the quadratured total marginally over the
            # target; force one more greedy pass and try again
            self._pass()


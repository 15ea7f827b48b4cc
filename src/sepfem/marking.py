"""Element marking: bulk selection and greedy data approximation.

Two marking mechanisms drive the adaptive loops.  Bulk (Doerfler)
selection picks a minimal set of elements carrying a fixed fraction of
an indicator total.  The greedy data approximation refines a possibly
nonconforming partition by bisecting, each pass, all elements whose
surrogate weight attains the maximum, until the data total meets a
tolerance; the surrogate is propagated to children by a fixed recursion
instead of being recomputed, which is what makes the greedy choice
cheap and the element counts tolerance-optimal.  The element values of
all children of one pass come from one quadrature call.
"""

from __future__ import annotations

import heapq
import math
import weakref

import numpy as np

from .mesh import BisectionForest, Triangulation, complete_partition
from .quadrature import QuadratureRule, integrate_many, mu2_elements, triangle_rule

__all__ = [
    "IndicatorField",
    "doerfler_select",
    "tilde_mu_children",
    "ApproxState",
    "approx",
    "ElementOscillation",
    "WeightedDataSize",
]


class IndicatorField:
    """Nonnegative squared indicator values keyed by element identifier."""

    __slots__ = ("ids", "values", "_total", "_map")

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
        self._map = None

    @property
    def total(self) -> float:
        if self._total is None:
            self._total = math.fsum(self.values.tolist())
        return self._total

    def __len__(self):
        return len(self.ids)

    def __getitem__(self, eid) -> float:
        if self._map is None:
            self._map = {int(i): float(v) for i, v in zip(self.ids, self.values)}
        return self._map[int(eid)]

    @classmethod
    def from_dict(cls, d) -> "IndicatorField":
        ids = sorted(d)
        return cls(ids, [d[i] for i in ids])


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


def tilde_mu_children(mu_parent: float, tilde_parent: float, mu_child1: float, mu_child2: float):
    """Surrogate weight of both children of a bisected element.

    tilde(K_j) = tilde(K) * (mu(K_1) + mu(K_2)) / (mu(K) + tilde(K)),
    and zero when the denominator vanishes.  All arguments are the
    unsquared element values.
    """
    for v in (mu_parent, tilde_parent, mu_child1, mu_child2):
        if not v >= 0.0:
            raise ValueError("element values must be nonnegative")
    den = mu_parent + tilde_parent
    if den == 0.0:
        return 0.0, 0.0
    t = tilde_parent * (mu_child1 + mu_child2) / den
    return t, t


class _CachedElementValue:
    """Per-forest cache of a nonnegative per-element value."""

    def __init__(self, field, rule: QuadratureRule | None = None):
        self.field = field
        self.rule = rule if rule is not None else triangle_rule(5)
        self._caches = weakref.WeakKeyDictionary()

    def _cache(self, forest) -> dict:
        c = self._caches.get(forest)
        if c is None:
            c = {}
            self._caches[forest] = c
        return c

    def _compute_batch(self, coords):
        raise NotImplementedError

    def _values(self, forest, nodes: list, coords) -> list:
        """Values of ``nodes``, the uncached ones computed in one batch.

        ``coords(rows)`` returns the (m, 3, 2) vertex coordinates of
        ``nodes[i]`` for ``i`` in ``rows``.
        """
        cache = self._cache(forest)
        missing = [i for i, n in enumerate(nodes) if n not in cache]
        if missing:
            vals = self._compute_batch(coords(missing))
            for i, v in zip(missing, vals.tolist()):
                cache[nodes[i]] = v
        return [cache[n] for n in nodes]

    def node_values(self, forest: BisectionForest, nodes: list) -> list:
        """Values of the forest nodes in ``nodes``, filling the per-node cache."""
        return self._values(
            forest, nodes, lambda rows: forest.node_coords([nodes[i] for i in rows])
        )

    def mesh_values2(self, T: Triangulation) -> IndicatorField:
        """Squared values for all leaves, filling the per-node cache."""
        vals = self._values(T.forest, T.leaf_ids.tolist(), lambda rows: T.tri_coords()[rows])
        out = np.asarray(vals)
        return IndicatorField(T.leaf_ids, out * out)


class ElementOscillation(_CachedElementValue):
    """mu(K) = ||f - f_K||_{L2(K)}, the piecewise-constant data oscillation."""

    def _compute_batch(self, coords):
        return np.sqrt(np.maximum(mu2_elements(self.field, coords, self.rule), 0.0))


class WeightedDataSize(_CachedElementValue):
    """|K| * ||f||_{L2(K)}, the area-weighted data size (collective indicator)."""

    def _compute_batch(self, coords):
        f = self.field
        sq = integrate_many(lambda x, y: np.asarray(f(x, y)) ** 2, coords, self.rule)
        d1 = coords[:, 1, :] - coords[:, 0, :]
        d2 = coords[:, 2, :] - coords[:, 0, :]
        area = 0.5 * np.abs(d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
        return area * np.sqrt(np.maximum(sq, 0.0))


class ApproxState:
    """Resumable greedy data approximation over one bisection forest.

    Keeps the (possibly nonconforming) working partition, the element
    values mu(K), and the surrogate weights, so that successive calls
    with decreasing tolerances continue where the previous call stopped
    instead of restarting from the initial mesh.  Each greedy pass makes
    one quadrature call for the children of all elements it bisects, and
    so does each completion check; the quadrature gives every element
    the same bits in any batch, so the result equals that of a greedy
    fetching one child at a time.
    """

    def __init__(self, T0: Triangulation, values: _CachedElementValue, cap: int = 2_000_000):
        self.T0 = T0
        self.forest = T0.forest
        self.values = values
        self.cap = int(cap)
        self.mu: dict[int, float] = {}
        self.tilde: dict[int, float] = {}
        self.partition: set[int] = set()
        self._heap: list[tuple[float, int]] = []
        roots = T0.leaf_ids.tolist()
        for n, m in zip(roots, values.node_values(self.forest, roots)):
            self.mu[n] = m
            self.tilde[n] = m
            self.partition.add(n)
            self._heap.append((-m, n))
        heapq.heapify(self._heap)
        self._resync()
        self._updates = 0

    def _resync(self):
        self.mu2_total = math.fsum(self.mu[n] ** 2 for n in self.partition)

    def _pass(self):
        """Bisect every element attaining the maximal surrogate weight.

        All elements of the pass are split first and their children's
        values fetched in one call; the updates then run element by
        element, in the order a one-at-a-time greedy would make them.
        """
        heap = self._heap
        part = self.partition
        while heap and heap[0][1] not in part:
            heapq.heappop(heap)
        if not heap:
            raise RuntimeError("greedy heap exhausted with a nonempty partition")
        top = heap[0][0]
        batch = []
        while heap and heap[0][0] == top:
            _, n = heapq.heappop(heap)
            if n in part:
                batch.append(n)
        children = [c for n in batch for c in self.forest.split(n)]
        child_mu = self.values.node_values(self.forest, children)
        for k, n in enumerate(batch):
            c0, c1 = children[2 * k], children[2 * k + 1]
            m0, m1 = child_mu[2 * k], child_mu[2 * k + 1]
            t0, t1 = tilde_mu_children(self.mu[n], self.tilde[n], m0, m1)
            part.discard(n)
            for c, m, t in ((c0, m0, t0), (c1, m1, t1)):
                self.mu[c] = m
                self.tilde[c] = t
                part.add(c)
                heapq.heappush(heap, (-t, c))
            self.mu2_total += m0 * m0 + m1 * m1 - self.mu[n] ** 2
            self._updates += 1
            if self._updates % 4096 == 0:
                self._resync()
            if len(part) > self.cap:
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
            mu = self.values.node_values(self.forest, T.leaf_ids.tolist())
            total = math.fsum(m**2 for m in mu)
            if total <= tol:
                return T
            # completion pushed the quadratured total marginally over the
            # target; force one more greedy pass and try again
            self._pass()


def approx(tol_prime: float, f, T0: Triangulation, quad_degree: int = 5) -> Triangulation:
    """One-shot greedy data approximation of the oscillation of ``f``.

    Returns a conforming refinement T of T0 with total squared
    oscillation at most ``tol_prime``.  For resumable use across a
    decreasing tolerance sequence hold an :class:`ApproxState`.
    """
    state = ApproxState(T0, ElementOscillation(f, triangle_rule(quad_degree)))
    return state.run(tol_prime)

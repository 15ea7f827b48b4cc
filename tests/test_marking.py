"""Bulk marking and greedy data approximation tests.

The bulk-selection oracle enumerates all subsets of small random
instances and checks the greedy pick is a minimum-cardinality set
meeting the bulk target.
"""

import collections
import heapq
import itertools
import math

import numpy as np
import pytest

import sepfem.marking
from sepfem import (
    ApproxState,
    ElementOscillation,
    IndicatorField,
    WeightedDataSize,
    approx,
    doerfler_select,
    field_from_name,
    l_shape,
    tilde_mu_children,
    triangle_rule,
    unit_square_criss,
)


def exhaustive_min_bulk(values, theta):
    """Smallest subset cardinality with sum >= theta * total, by brute force."""
    total = math.fsum(values)
    target = theta * total
    n = len(values)
    for k in range(n + 1):
        for combo in itertools.combinations(range(n), k):
            if math.fsum(values[i] for i in combo) >= target - 1e-12 * total:
                return k
    return n


def test_hand_oracle_four_three_two_one():
    field = IndicatorField([10, 11, 12, 13], [4.0, 3.0, 2.0, 1.0])
    marked = doerfler_select(0.5, field)
    assert marked.tolist() == [10, 11]


def test_full_theta_marks_everything():
    field = IndicatorField([3, 1, 2], [1.0, 2.0, 0.5])
    assert doerfler_select(1.0, field).tolist() == [1, 2, 3]


def test_zero_total_marks_nothing():
    field = IndicatorField([0, 1], [0.0, 0.0])
    assert len(doerfler_select(0.5, field)) == 0


def test_ties_break_by_ascending_identifier():
    field = IndicatorField([7, 2, 9], [1.0, 1.0, 1.0])
    assert doerfler_select(0.4, field).tolist() == [2, 7]


def test_selection_is_stable_under_roundoff_in_tied_values():
    # mirrored elements carry equal indicators up to solver roundoff; the
    # bulk target here cuts through the tied group of 2.0 values
    ids = np.arange(40)
    values = np.repeat([3.0, 2.0, 1.0, 0.5], 10)
    want = doerfler_select(0.5, IndicatorField(ids, values))
    assert want.tolist() == list(range(12))
    rng = np.random.default_rng(11)
    for _ in range(50):
        noisy = values * (1.0 + 1e-14 * rng.uniform(-1.0, 1.0, size=len(values)))
        assert doerfler_select(0.5, IndicatorField(ids, noisy)).tolist() == want.tolist()


def test_theta_out_of_range_rejected():
    field = IndicatorField([0], [1.0])
    with pytest.raises(ValueError):
        doerfler_select(0.0, field)
    with pytest.raises(ValueError):
        doerfler_select(1.5, field)


def test_greedy_matches_exhaustive_minimum_on_random_instances():
    rng = np.random.default_rng(2024)
    for _ in range(300):
        n = int(rng.integers(1, 13))
        values = np.round(rng.uniform(0.0, 4.0, size=n), 3)
        theta = float(rng.uniform(0.05, 1.0))
        field = IndicatorField(np.arange(n), values)
        marked = doerfler_select(theta, field)
        picked = math.fsum(float(field[i]) for i in marked)
        assert picked >= theta * field.total - 1e-12 * max(field.total, 1.0)
        assert len(marked) == exhaustive_min_bulk(values.tolist(), theta)


def test_indicator_field_validation():
    with pytest.raises(ValueError):
        IndicatorField([], [])
    with pytest.raises(ValueError):
        IndicatorField([0, 1], [1.0])
    with pytest.raises(ValueError):
        IndicatorField([0], [-1.0])
    with pytest.raises(ValueError):
        IndicatorField([0], [math.nan])


def test_indicator_field_lookup_and_total():
    field = IndicatorField.from_dict({5: 1.5, 2: 0.25})
    assert field.ids.tolist() == [2, 5]
    assert field[5] == 1.5
    assert abs(field.total - 1.75) < 1e-15
    assert len(field) == 2


def test_tilde_recursion_formula_on_random_inputs():
    rng = np.random.default_rng(77)
    for _ in range(500):
        mu, tilde, m1, m2 = rng.uniform(0.0, 10.0, size=4)
        t1, t2 = tilde_mu_children(mu, tilde, m1, m2)
        assert t1 == t2
        expect = tilde * (m1 + m2) / (mu + tilde)
        assert abs(t1 - expect) <= 1e-14 * max(expect, 1.0)


def test_tilde_recursion_degenerate_denominator():
    assert tilde_mu_children(0.0, 0.0, 1.0, 2.0) == (0.0, 0.0)
    with pytest.raises(ValueError):
        tilde_mu_children(-1.0, 0.0, 0.0, 0.0)


def test_approx_meets_tolerance_and_conformity():
    f = field_from_name("linear-x")
    T0 = unit_square_criss()
    rule = triangle_rule(5)
    osc = ElementOscillation(f, rule)
    for tol in (1e-2, 1e-3, 1e-4):
        T = approx(tol, f, T0)
        assert T.is_conforming()
        assert osc.mesh_values2(T).total <= tol
        assert T.refines(T0)


def test_persistent_state_resumes_and_grows_monotonically():
    f = field_from_name("radial-alpha:0.6")
    T0 = unit_square_criss()
    state = ApproxState(T0, ElementOscillation(f, triangle_rule(5)))
    sizes = []
    for tol in (1e-1, 1e-2, 1e-3, 1e-4):
        T = state.run(tol)
        m2 = ElementOscillation(f, triangle_rule(5)).mesh_values2(T).total
        assert m2 <= tol
        sizes.append(T.n_elements)
    assert sizes == sorted(sizes)


def test_resumed_state_matches_fresh_run_tolerance():
    # resuming with a looser tolerance than already achieved needs no work
    f = field_from_name("linear-x")
    T0 = unit_square_criss()
    state = ApproxState(T0, ElementOscillation(f, triangle_rule(5)))
    T_tight = state.run(1e-4)
    T_loose = state.run(1e-2)
    assert T_loose.n_elements == T_tight.n_elements


def test_approx_rejects_nonpositive_tolerance():
    state = ApproxState(
        unit_square_criss(), ElementOscillation(field_from_name("one"), triangle_rule(5))
    )
    with pytest.raises(ValueError):
        state.run(0.0)


def test_constant_field_needs_no_refinement():
    f = field_from_name("one")
    T0 = unit_square_criss()
    T = approx(1e-12, f, T0)
    assert T.n_elements == T0.n_elements


def test_weighted_data_size_matches_direct_formula():
    f = field_from_name("linear-x")
    T = unit_square_criss().uniform_refine()
    rule = triangle_rule(5)
    size = WeightedDataSize(f, rule)
    field = size.mesh_values2(T)
    coords = T.tri_coords()
    areas = T.areas()
    from sepfem import integrate_many

    l2sq = integrate_many(lambda x, y: x * x, coords, rule)
    assert np.allclose(field.values, areas**2 * l2sq, rtol=1e-13)


class OneNodePerCall:
    """Element values fetched one node per call, each on a one-row batch."""

    def __init__(self, inner):
        self.inner = inner

    def node_values(self, forest, nodes):
        return [self.inner.node_values(forest, [n])[0] for n in nodes]


class OneAtATimeApprox(ApproxState):
    """The greedy with one value call per child element.

    Splits one element at a time, fetches each child's value on its own
    and updates before splitting the next: the reference for the
    per-pass batching of ``ApproxState._pass``.
    """

    def __init__(self, T0, values):
        super().__init__(T0, OneNodePerCall(values))

    def _bisect(self, n):
        c0, c1 = self.forest.split([n])[0].tolist()
        (m0,) = self.values.node_values(self.forest, [c0])
        (m1,) = self.values.node_values(self.forest, [c1])
        t0, t1 = tilde_mu_children(self.mu[n], self.tilde[n], m0, m1)
        self.partition.discard(n)
        for c, m, t in ((c0, m0, t0), (c1, m1, t1)):
            self.mu[c] = m
            self.tilde[c] = t
            self.partition.add(c)
            heapq.heappush(self._heap, (-t, c))
        self.mu2_total += m0 * m0 + m1 * m1 - self.mu[n] ** 2
        self._updates += 1
        if self._updates % 4096 == 0:
            self._resync()

    def _pass(self):
        heap, part = self._heap, self.partition
        while heap[0][1] not in part:
            heapq.heappop(heap)
        top = heap[0][0]
        batch = []
        while heap and heap[0][0] == top:
            _, n = heapq.heappop(heap)
            if n in part:
                batch.append(n)
        for n in batch:
            self._bisect(n)


def test_batched_greedy_equals_the_one_at_a_time_greedy_bit_for_bit():
    f = field_from_name("radial-alpha:0.6")
    batched = ApproxState(l_shape(), ElementOscillation(f, triangle_rule(5)))
    reference = OneAtATimeApprox(l_shape(), ElementOscillation(f, triangle_rule(5)))
    for tol in (1e-1, 1e-2, 3e-3, 1e-3, 5e-4):
        T = batched.run(tol)
        T_ref = reference.run(tol)
        assert np.array_equal(T.leaf_ids, T_ref.leaf_ids)
        assert batched.partition == reference.partition
        assert batched.mu2_total.hex() == reference.mu2_total.hex()
        assert batched.mu == reference.mu and batched.tilde == reference.tilde
    # past one periodic resync of the running total
    assert batched._updates > 4096


def test_cached_values_do_not_depend_on_which_call_computed_them():
    f = field_from_name("radial-alpha:0.6")
    osc = ElementOscillation(f, triangle_rule(5))
    T = ApproxState(l_shape(), osc).run(1e-3)
    after = osc.mesh_values2(T)  # APPROX's cache, filled pass by pass
    fresh = ElementOscillation(f, triangle_rule(5)).mesh_values2(T)
    assert np.array_equal(after.values, fresh.values)
    first = ElementOscillation(f, triangle_rule(5))
    before = first.mesh_values2(T)  # filled in one batch, before APPROX runs
    assert np.array_equal(before.values, fresh.values)
    state = ApproxState(l_shape(), first)
    T_again = state.run(1e-3)
    assert np.array_equal(T_again.leaf_ids, T.leaf_ids)


def test_approx_computes_values_once_per_pass(monkeypatch):
    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for owner, attr, name in (
        (ElementOscillation, "_compute_batch", "values"),
        (ApproxState, "_pass", "passes"),
        (sepfem.marking, "complete_partition", "completions"),
    ):
        monkeypatch.setattr(owner, attr, counted(name, getattr(owner, attr)))
    state = ApproxState(l_shape(), ElementOscillation(field_from_name("radial-alpha:0.6")))
    state.run(1e-3)
    assert calls["passes"] > 100 and calls["completions"] >= 1
    assert calls["values"] <= calls["passes"] + calls["completions"] + 1

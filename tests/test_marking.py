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
    BisectionForest,
    ElementOscillation,
    IndicatorField,
    WeightedDataSize,
    doerfler_select,
    field_from_name,
    l_shape,
    tilde_mu_children,
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
        picked = math.fsum(field.values[np.isin(field.ids, marked)].tolist())
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
    field = IndicatorField([5, 2], [1.5, 0.25])
    assert field.values[field.ids == 5].tolist() == [1.5]
    assert abs(field.total - 1.75) < 1e-15
    assert len(field) == 2


def test_tilde_recursion_formula_on_random_inputs():
    rng = np.random.default_rng(77)
    mu, tilde, m1, m2 = rng.uniform(0.0, 10.0, size=(4, 500))
    t = tilde_mu_children(mu, tilde, m1, m2)
    for k in range(500):
        expect = tilde[k] * (m1[k] + m2[k]) / (mu[k] + tilde[k])
        assert abs(t[k] - expect) <= 1e-14 * max(expect, 1.0)


def test_tilde_recursion_degenerate_denominator():
    # a zero denominator gives zero, with no division warning
    t = tilde_mu_children([0.0, 1.0], [0.0, 1.0], [1.0, 1.0], [2.0, 1.0])
    assert t.tolist() == [0.0, 1.0]
    with pytest.raises(ValueError):
        tilde_mu_children(-1.0, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        tilde_mu_children([1.0, 1.0], [1.0, 1.0], [1.0, math.nan], [1.0, 1.0])


def test_approx_meets_tolerance_and_conformity():
    f = field_from_name("linear-x")
    T0 = unit_square_criss()
    osc = ElementOscillation(f)
    for tol in (1e-2, 1e-3, 1e-4):
        T = ApproxState(T0, ElementOscillation(f)).run(tol)
        assert T.is_conforming()
        assert osc.mesh_values2(T).total <= tol
        assert T.refines(T0)


def test_persistent_state_resumes_and_grows_monotonically():
    f = field_from_name("radial-alpha:0.6")
    T0 = unit_square_criss()
    state = ApproxState(T0, ElementOscillation(f))
    sizes = []
    for tol in (1e-1, 1e-2, 1e-3, 1e-4):
        T = state.run(tol)
        m2 = ElementOscillation(f).mesh_values2(T).total
        assert m2 <= tol
        sizes.append(T.n_elements)
    assert sizes == sorted(sizes)


def test_resumed_state_matches_fresh_run_tolerance():
    # resuming with a looser tolerance than already achieved needs no work
    f = field_from_name("linear-x")
    T0 = unit_square_criss()
    state = ApproxState(T0, ElementOscillation(f))
    T_tight = state.run(1e-4)
    T_loose = state.run(1e-2)
    assert T_loose.n_elements == T_tight.n_elements


def test_approx_rejects_nonpositive_tolerance():
    state = ApproxState(
        unit_square_criss(), ElementOscillation(field_from_name("one"))
    )
    with pytest.raises(ValueError):
        state.run(0.0)


def test_constant_field_needs_no_refinement():
    f = field_from_name("one")
    T0 = unit_square_criss()
    T = ApproxState(T0, ElementOscillation(f)).run(1e-12)
    assert T.n_elements == T0.n_elements


def test_weighted_data_size_matches_direct_formula():
    f = field_from_name("linear-x")
    T = unit_square_criss().uniform_refine()
    size = WeightedDataSize(f)
    field = size.mesh_values2(T)
    coords = T.tri_coords()
    areas = T.areas()
    from sepfem import integrate_many

    l2sq = integrate_many(lambda x, y: x * x, coords)
    assert np.allclose(field.values, areas**2 * l2sq, rtol=1e-13)


class OneNodePerCall:
    """Element values fetched one node per call, each on a one-row batch."""

    def __init__(self, inner):
        self.inner = inner

    def node_values(self, forest, nodes):
        nodes = np.asarray(nodes)
        vals = [self.inner.node_values(forest, [n])[0] for n in nodes.ravel().tolist()]
        return np.array(vals).reshape(nodes.shape)


class OneAtATimeApprox(ApproxState):
    """The greedy with one value call per child element.

    Splits one element at a time, fetches each child's value on its own
    and updates the arrays and the running total (squares as ``x * x``)
    before splitting the next, and raises past the partition cap at the
    end of a pass: the reference for the runs of passes of
    ``ApproxState``.
    """

    def __init__(self, T0, values):
        super().__init__(T0, OneNodePerCall(values))
        # the reference keeps its own node-indexed surrogate weights
        self.tilde = np.zeros(self.forest.n_nodes)
        self.tilde[T0.leaf_ids] = self.values.node_values(self.forest, T0.leaf_ids)

    def _bisect(self, n):
        c0, c1 = self.forest.split([n])[0].tolist()
        (mu,) = self.values.node_values(self.forest, [n]).tolist()
        (m0,) = self.values.node_values(self.forest, [c0]).tolist()
        (m1,) = self.values.node_values(self.forest, [c1]).tolist()
        t = float(tilde_mu_children(mu, self.tilde[n], m0, m1))
        grow = self.forest.n_nodes - len(self.tilde)
        if grow > 0:
            self.tilde = np.concatenate((self.tilde, np.zeros(grow)))
            self._in = np.concatenate((self._in, np.zeros(grow, dtype=bool)))
        self._in[n] = False
        for c in (c0, c1):
            self.tilde[c] = t
            self._in[c] = True
            heapq.heappush(self._heap, (-t, c))
        self.mu2_total += m0 * m0 + m1 * m1 - mu * mu
        self._updates += 1
        if self._updates % 4096 == 0:
            self._resync()

    def _pass(self):
        heap, part = self._heap, self._in
        while not part[heap[0][1]]:
            heapq.heappop(heap)
        top = heap[0][0]
        batch = []
        while heap and heap[0][0] == top:
            _, n = heapq.heappop(heap)
            if part[n]:
                batch.append(n)
        for n in batch:
            self._bisect(n)
        if len(self.T0.leaf_ids) + self._updates > sepfem.marking._PARTITION_CAP:
            raise RuntimeError("data approximation exceeded the partition cap")


def trace_passes(state):
    """Record the running total's bits after every pass of ``state``."""
    seen = []

    def traced(inner=state._pass):
        inner()
        seen.append(state.mu2_total.hex())

    state._pass = traced
    return seen


def assert_same_greedy(batched, reference):
    """Partition, heap of surrogate weights, values, total and forest agree bit for bit."""
    part = batched.partition
    assert np.array_equal(part, reference.partition)
    assert batched.mu2_total.hex() == reference.mu2_total.hex()
    assert sorted(batched._heap) == sorted(reference._heap)
    assert np.array_equal(sorted(n for _, n in batched._heap), part)
    mu = batched.values.node_values(batched.forest, part)
    assert np.array_equal(mu, reference.values.node_values(reference.forest, part))
    nodes = np.arange(batched.forest.n_nodes)
    assert reference.forest.n_nodes == len(nodes)
    assert np.array_equal(batched.forest.tris(nodes), reference.forest.tris(nodes))
    assert np.array_equal(batched.forest.coords(), reference.forest.coords())


def compare_greedies(field, mesh, tols):
    """Run the greedy and its one-at-a-time reference to each tolerance.

    Compares the running total after every pass, and all state after
    every ``run``; returns the greedy under test and its pass count.
    """
    f = field_from_name(field)
    batched = ApproxState(mesh(), ElementOscillation(f))
    reference = OneAtATimeApprox(mesh(), ElementOscillation(f))
    totals = {batched: trace_passes(batched), reference: trace_passes(reference)}
    for tol in tols:
        T = batched.run(tol)
        T_ref = reference.run(tol)
        assert totals[batched] == totals[reference]
        assert np.array_equal(T.leaf_ids, T_ref.leaf_ids)
        assert_same_greedy(batched, reference)
    return batched, len(totals[batched])


def test_batched_greedy_equals_the_one_at_a_time_greedy_bit_for_bit():
    batched, _ = compare_greedies("radial-alpha:0.6", l_shape, (1e-1, 1e-2, 3e-3, 1e-3, 5e-4))
    # past one periodic resync of the running total
    assert batched._updates > 4096


def test_child_surrogate_is_the_same_in_any_batch():
    # the runs take each child's surrogate weight from one array call over
    # the whole prefetch; every element must get the bits it gets alone
    rng = np.random.default_rng(5)
    mu, tilde, m1, m2 = rng.uniform(0.0, 10.0, size=(4, 300))
    zero = rng.random(300) < 0.4  # zero denominators among nonzero ones
    mu[zero] = tilde[zero] = 0.0
    tilde[rng.random(300) < 0.2] = 0.0
    m1[rng.random(300) < 0.2] = 0.0
    for args in ((mu, tilde, m1, m2), (mu[zero], tilde[zero], m1[zero], m2[zero])):
        whole = tilde_mu_children(*args)
        alone = [tilde_mu_children(*(v[k] for v in args)) for k in range(len(args[0]))]
        assert whole.tobytes() == np.array(alone).tobytes()
        assert not np.any(whole[args[0] + args[1] == 0.0])


def test_fetched_ahead_weights_and_increments_are_those_of_one_element():
    f = field_from_name("radial-alpha:0.6")
    state = ApproxState(l_shape(), ElementOscillation(f))
    state.run(1e-2)
    fresh = ElementOscillation(f)
    weight = {n: -w for w, n in state._heap}
    assert len(state._ahead) > 0
    for n, (neg, delta, m0, m1) in state._ahead.items():
        c0, c1 = state.forest.child_coords([n])[0]
        assert [m0, m1] == fresh._compute_batch(np.array([c0, c1])).tolist()
        (mu,) = fresh.node_values(state.forest, [n]).tolist()
        assert -neg == float(tilde_mu_children(mu, weight[n], m0, m1))
        assert delta == m0 * m0 + m1 * m1 - mu * mu


def test_the_heap_is_the_only_store_of_surrogate_weights():
    # the weights live in the heap entries, one per partition element;
    # nothing the greedy keeps is a float array indexed by forest node
    f = field_from_name("radial-alpha:0.6")
    state = ApproxState(l_shape(), ElementOscillation(f))
    state.run(1e-3)
    assert np.array_equal(sorted(n for _, n in state._heap), state.partition)
    for name, value in vars(state).items():
        if isinstance(value, np.ndarray) and len(value) >= state.forest.n_nodes:
            assert not np.issubdtype(value.dtype, np.floating), name


def watch_runs(state):
    """Count the runs cut by a pass that needs a node the run created,
    and the resyncs that end a run in progress."""
    seen = collections.Counter()
    created = [state.forest.n_nodes]

    def flush(inner=state._flush):
        created[0] = state.forest.n_nodes
        inner()

    def fetch_ahead(batch, top, inner=state._fetch_ahead):
        seen["new-node cuts"] += any(n >= created[0] for n in batch)
        inner(batch, top)

    def resync(inner=state._resync):
        seen["resyncs in a run"] += bool(state._pending)
        inner()

    state._flush, state._fetch_ahead, state._resync = flush, fetch_ahead, resync
    return seen


def test_runs_cut_where_a_pass_needs_a_node_of_the_run():
    f = field_from_name("radial-alpha:0.6")
    batched = ApproxState(l_shape(), ElementOscillation(f))
    reference = OneAtATimeApprox(l_shape(), ElementOscillation(f))
    seen = watch_runs(batched)
    totals = {batched: trace_passes(batched), reference: trace_passes(reference)}
    for state in totals:
        state.run(1e-2)
    assert totals[batched] == totals[reference]
    assert_same_greedy(batched, reference)
    assert seen["new-node cuts"] >= 5


def test_a_resync_inside_a_run_matches_the_reference():
    f = field_from_name("linear-x")
    batched = ApproxState(l_shape(), ElementOscillation(f))
    reference = OneAtATimeApprox(l_shape(), ElementOscillation(f))
    seen = watch_runs(batched)
    totals = {batched: trace_passes(batched), reference: trace_passes(reference)}
    for tol in (1e-3, 2e-4):
        for state in totals:
            state.run(tol)
        assert totals[batched] == totals[reference]
        assert_same_greedy(batched, reference)
    assert batched._updates > 4096
    assert seen["resyncs in a run"] >= 1


def test_a_resumed_run_reuses_children_made_by_the_last_completion():
    f = field_from_name("radial-alpha:0.6")
    batched = ApproxState(l_shape(), ElementOscillation(f))
    reference = OneAtATimeApprox(l_shape(), ElementOscillation(f))
    totals = {batched: trace_passes(batched), reference: trace_passes(reference)}
    for state in totals:
        state.run(1e-1)
    # the first batch of the next run: the partition's largest weights
    top = batched._heap[0][0]
    first = np.array([n for w, n in batched._heap if w == top])
    assert np.any(batched.forest.first_children(first) >= 0)
    assert np.any(batched.forest.first_children(first) < 0)
    n_passes = len(totals[batched])
    for state in totals:
        state.run(1e-2)
    assert len(totals[batched]) > n_passes
    assert totals[batched] == totals[reference]
    assert_same_greedy(batched, reference)


def test_the_partition_cap_stops_both_greedies_at_the_same_pass(monkeypatch):
    monkeypatch.setattr(sepfem.marking, "_PARTITION_CAP", 1000)
    f = field_from_name("radial-alpha:0.6")
    batched = ApproxState(l_shape(), ElementOscillation(f))
    reference = OneAtATimeApprox(l_shape(), ElementOscillation(f))
    totals = {batched: trace_passes(batched), reference: trace_passes(reference)}
    for state in totals:
        with pytest.raises(RuntimeError, match="partition cap"):
            state.run(1e-6)
    # the failing pass records no total, so compare the passes before it
    assert totals[batched] == totals[reference]
    assert len(totals[batched]) > 50
    assert_same_greedy(batched, reference)
    assert len(batched.T0.leaf_ids) + batched._updates > 1000


def test_large_tied_batches_of_a_checkerboard_match_the_reference():
    batched, passes = compare_greedies("checkerboard:3", l_shape, (1e-1,))
    assert batched._updates > 8 * passes
    assert batched._updates > 4096


def test_value_cache_is_kept_per_forest():
    # node ids of the two meshes overlap, their triangles do not
    f = field_from_name("radial-alpha:0.6")
    meshes = [l_shape().uniform_refine(), unit_square_criss().uniform_refine().uniform_refine()]
    shared = ElementOscillation(f)
    fresh = [ElementOscillation(f).mesh_values2(T).values for T in meshes]
    common, rows0, rows1 = np.intersect1d(meshes[0].leaf_ids, meshes[1].leaf_ids,
                                          return_indices=True)
    assert len(common) > 0
    assert not np.array_equal(fresh[0][rows0], fresh[1][rows1])
    for T, want in zip(meshes, fresh):
        assert np.array_equal(shared.mesh_values2(T).values, want)
    for T in meshes:
        T_next = ApproxState(T, shared).run(1e-3)
        assert np.array_equal(
            shared.mesh_values2(T_next).values, ElementOscillation(f).mesh_values2(T_next).values
        )


def test_cached_values_do_not_depend_on_which_call_computed_them():
    f = field_from_name("radial-alpha:0.6")
    osc = ElementOscillation(f)
    T = ApproxState(l_shape(), osc).run(1e-3)
    after = osc.mesh_values2(T)  # APPROX's cache, filled pass by pass
    fresh = ElementOscillation(f).mesh_values2(T)
    assert np.array_equal(after.values, fresh.values)
    first = ElementOscillation(f)
    before = first.mesh_values2(T)  # filled in one batch, before APPROX runs
    assert np.array_equal(before.values, fresh.values)
    state = ApproxState(l_shape(), first)
    T_again = state.run(1e-3)
    assert np.array_equal(T_again.leaf_ids, T.leaf_ids)


def test_approx_computes_values_once_per_pass(monkeypatch):
    # one value call and one split per run of passes, not per pass
    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for owner, attr, name in (
        (ElementOscillation, "_compute_batch", "values"),
        (BisectionForest, "split", "splits"),
        (ApproxState, "_pass", "passes"),
        (sepfem.marking, "complete_partition", "completions"),
    ):
        monkeypatch.setattr(owner, attr, counted(name, getattr(owner, attr)))
    state = ApproxState(l_shape(), ElementOscillation(field_from_name("radial-alpha:0.6")))
    state.run(1e-3)
    assert calls["passes"] > 100 and calls["completions"] >= 1
    assert 10 * calls["values"] <= calls["passes"]
    assert 10 * calls["splits"] <= calls["passes"]

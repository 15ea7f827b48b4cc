"""Bulk marking and greedy data approximation tests.

The bulk-selection oracle enumerates all subsets of small random
instances and checks the greedy pick is a minimum-cardinality set
meeting the bulk target.
"""

import itertools
import math

import numpy as np
import pytest

from sepfem import (
    ApproxState,
    ElementOscillation,
    IndicatorField,
    WeightedDataSize,
    approx,
    doerfler_select,
    field_from_name,
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

"""Oracle tests for the triangle quadrature rules and the data fields.

The reference oracle is the closed form for monomials on the unit
reference triangle: int x^a y^b dx dy = a! b! / (a + b + 2)!.
"""

import math

import numpy as np
import pytest

from sepfem import (
    QuadratureRule,
    element_means,
    field_from_name,
    integrate,
    integrate_many,
    mu2_elements,
    triangle_rule,
)

REF = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


def ref_monomial(a, b):
    return math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)


def monomial(a, b):
    return lambda x, y: x**a * y**b


@pytest.mark.parametrize("degree", [1, 2, 3, 4, 5])
def test_monomials_exact_to_served_degree(degree):
    rule = triangle_rule(degree)
    assert rule.degree >= degree
    for a in range(rule.degree + 1):
        for b in range(rule.degree + 1 - a):
            got = integrate(monomial(a, b), REF, rule)
            assert abs(got - ref_monomial(a, b)) < 1e-15


def test_degree_three_request_served_by_degree_four_rule():
    # the classical 4-point degree-3 rule has a negative weight, so the
    # stocked rules jump from degree 2 to degree 4
    assert triangle_rule(3).degree == 4
    assert len(triangle_rule(3).weights) == 6


def test_x_squared_y_squared_on_reference_triangle():
    got = integrate(monomial(2, 2), REF, triangle_rule(4))
    assert abs(got - 1.0 / 180.0) < 1e-16


def test_oscillation_of_linear_on_reference_triangle():
    # int (x - 1/3)^2 over the reference triangle = 1/12 - (1/2)(1/3)^2
    got = mu2_elements(lambda x, y: x, REF, triangle_rule(2))
    assert abs(got[0] - 1.0 / 36.0) < 1e-16
    assert abs(math.sqrt(got[0]) - 1.0 / 6.0) < 1e-15


def test_invalid_degree_rejected():
    with pytest.raises(ValueError):
        triangle_rule(0)
    with pytest.raises(ValueError):
        triangle_rule(6)


def test_rule_validation():
    with pytest.raises(ValueError):
        QuadratureRule([(0.5, 0.5)], [1.0], 1)
    with pytest.raises(ValueError):
        QuadratureRule([(1 / 3, 1 / 3, 1 / 3)], [-1.0], 1)
    with pytest.raises(ValueError):
        QuadratureRule([(1 / 3, 1 / 3, 1 / 3)], [0.5], 1)
    with pytest.raises(ValueError):
        QuadratureRule([(0.6, 0.6, 0.6)], [1.0], 1)


def test_all_stocked_rules_have_positive_normalized_weights():
    for degree in (1, 2, 4, 5):
        rule = triangle_rule(degree)
        assert np.all(rule.weights > 0.0)
        assert abs(rule.weights.sum() - 1.0) < 1e-14
        assert np.allclose(rule.points.sum(axis=1), 1.0, atol=1e-14)


def test_constant_integrates_to_area_on_random_triangles():
    rng = np.random.default_rng(7)
    rule = triangle_rule(5)
    for _ in range(50):
        tri = rng.normal(size=(3, 2)) * rng.uniform(0.1, 10.0)
        area = 0.5 * abs(
            (tri[1, 0] - tri[0, 0]) * (tri[2, 1] - tri[0, 1])
            - (tri[1, 1] - tri[0, 1]) * (tri[2, 0] - tri[0, 0])
        )
        got = integrate(lambda x, y: np.ones_like(x), tri, rule)
        assert abs(got - area) < 1e-13 * max(area, 1.0)


def test_integration_is_additive_under_midpoint_subdivision():
    # exactness up to the stated degree makes the quadrature consistent:
    # splitting a triangle at its edge midpoints must reproduce the value
    rng = np.random.default_rng(21)
    rule = triangle_rule(5)
    for _ in range(30):
        tri = rng.normal(size=(3, 2)) * 3.0
        coef = rng.normal(size=6)

        def poly(x, y):
            return (
                coef[0]
                + coef[1] * x
                + coef[2] * y
                + coef[3] * x * y**2
                + coef[4] * x**2 * y**3
                + coef[5] * y**5
            )

        m01 = 0.5 * (tri[0] + tri[1])
        m12 = 0.5 * (tri[1] + tri[2])
        m20 = 0.5 * (tri[2] + tri[0])
        parts = np.array(
            [
                [tri[0], m01, m20],
                [m01, tri[1], m12],
                [m20, m12, tri[2]],
                [m01, m12, m20],
            ]
        )
        whole = integrate(poly, tri, rule)
        split = integrate_many(poly, parts, rule).sum()
        assert abs(whole - split) < 1e-12 * max(1.0, abs(whole))


def test_batch_integration_matches_elementwise_loop():
    rng = np.random.default_rng(3)
    rule = triangle_rule(4)
    tris = rng.normal(size=(20, 3, 2))
    f = field_from_name("radial-alpha:0.4@7,9")
    batch = integrate_many(f, tris, rule)
    single = [integrate(f, tris[i], rule) for i in range(len(tris))]
    assert np.allclose(batch, single, rtol=0.0, atol=1e-15)


def test_element_means_of_affine_field_is_centroid_value():
    rng = np.random.default_rng(11)
    rule = triangle_rule(5)
    tris = rng.normal(size=(15, 3, 2))
    means = element_means(lambda x, y: 2.0 * x - 3.0 * y + 0.5, tris, rule)
    cx = tris[:, :, 0].mean(axis=1)
    cy = tris[:, :, 1].mean(axis=1)
    assert np.allclose(means, 2.0 * cx - 3.0 * cy + 0.5, atol=1e-14)


def test_oscillation_is_nonnegative_for_rough_fields():
    rng = np.random.default_rng(13)
    rule = triangle_rule(5)
    f = field_from_name("checkerboard:7")
    for _ in range(40):
        tris = rng.uniform(0.0, 1.0, size=(8, 3, 2))
        m2 = mu2_elements(f, tris, rule)
        assert np.all(m2 >= 0.0)


def test_oscillation_of_constant_vanishes():
    rng = np.random.default_rng(17)
    tris = rng.normal(size=(10, 3, 2))
    m2 = mu2_elements(lambda x, y: np.full_like(x, 4.25), tris, triangle_rule(5))
    assert np.all(m2 == 0.0)


def test_field_parsing_round_trip():
    one = field_from_name("one")
    assert np.all(one(np.array([0.3, 0.7]), np.array([0.1, 0.9])) == 1.0)
    lin = field_from_name("linear-x")
    assert np.allclose(lin(np.array([0.25, 2.0]), np.array([5.0, 5.0])), [0.25, 2.0])
    rad = field_from_name("radial-alpha:0.5")
    assert abs(rad(3.0, 4.0) - 5.0 ** -0.5) < 1e-15
    shifted = field_from_name("radial-alpha:0.5@1,2")
    assert abs(shifted(4.0, 6.0) - 5.0 ** -0.5) < 1e-15
    assert rad.name == "radial-alpha:0.5"


def test_checkerboard_sign_pattern():
    f = field_from_name("checkerboard:2")
    assert f(0.1, 0.1) == 1.0
    assert f(0.6, 0.1) == -1.0
    assert f(0.6, 0.6) == 1.0


def test_unknown_fields_rejected():
    for bad in ("nope", "radial-alpha:1.5", "radial-alpha:0", "checkerboard:0"):
        with pytest.raises(ValueError):
            field_from_name(bad)

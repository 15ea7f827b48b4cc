"""Oracle tests for the triangle quadrature rule and the data fields.

The reference oracle is the closed form for monomials on the unit
reference triangle: int x^a y^b dx dy = a! b! / (a + b + 2)!.
"""

import math
import re
import warnings

import numpy as np
import pytest

from sepfem import (
    DataApproximationProblem,
    LeastSquaresPoisson,
    MixedPoisson,
    SafemParams,
    ScalarField,
    WeightedDataSize,
    field_from_name,
    integrate_many,
    l_shape,
    mu2_elements,
    safem_run,
)

REF = np.array([[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]])


def ref_monomial(a, b):
    return math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)


def monomial(a, b):
    return lambda x, y: x**a * y**b


@pytest.mark.parametrize("degree", [0, 1, 2, 3, 4, 5])
def test_monomials_exact_to_served_degree(degree):
    # the one rule serves degree 5: every monomial up to it is exact
    for a in range(degree + 1):
        (got,) = integrate_many(monomial(a, degree - a), REF)
        assert abs(got - ref_monomial(a, degree - a)) < 1e-15


def test_x_squared_y_squared_on_reference_triangle():
    (got,) = integrate_many(monomial(2, 2), REF)
    assert abs(got - 1.0 / 180.0) < 1e-16


def test_oscillation_of_linear_on_reference_triangle():
    # int (x - 1/3)^2 over the reference triangle = 1/12 - (1/2)(1/3)^2
    got = mu2_elements(lambda x, y: x, REF)
    assert abs(got[0] - 1.0 / 36.0) < 1e-16
    assert abs(math.sqrt(got[0]) - 1.0 / 6.0) < 1e-15


def test_constant_integrates_to_area_on_random_triangles():
    rng = np.random.default_rng(7)
    for _ in range(50):
        tri = rng.normal(size=(3, 2)) * rng.uniform(0.1, 10.0)
        area = 0.5 * abs(
            (tri[1, 0] - tri[0, 0]) * (tri[2, 1] - tri[0, 1])
            - (tri[1, 1] - tri[0, 1]) * (tri[2, 0] - tri[0, 0])
        )
        (got,) = integrate_many(lambda x, y: np.ones_like(x), tri[np.newaxis])
        assert abs(got - area) < 1e-13 * max(area, 1.0)


def test_integration_is_additive_under_midpoint_subdivision():
    # exactness up to the stated degree makes the quadrature consistent:
    # splitting a triangle at its edge midpoints must reproduce the value
    rng = np.random.default_rng(21)
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
        (whole,) = integrate_many(poly, tri[np.newaxis])
        split = integrate_many(poly, parts).sum()
        assert abs(whole - split) < 1e-12 * max(1.0, abs(whole))


def test_batch_integration_matches_elementwise_loop():
    rng = np.random.default_rng(3)
    tris = rng.normal(size=(20, 3, 2))
    f = field_from_name("radial-alpha:0.4@7,9")
    batch = integrate_many(f, tris)
    single = [integrate_many(f, tris[i : i + 1])[0] for i in range(len(tris))]
    assert np.array_equal(batch, single)


@pytest.mark.parametrize("fn", [integrate_many, mu2_elements])
def test_batched_values_equal_row_by_row_values_bit_for_bit(fn):
    # cached element values and the greedy's exact ties rely on a
    # triangle getting the same bits in any batch
    T = l_shape()
    for _ in range(6):
        T = T.uniform_refine()
    tris = T.tri_coords()
    assert len(tris) == 384
    f = field_from_name("radial-alpha:0.6")
    batch = fn(f, tris)
    single = np.concatenate([fn(f, tris[i : i + 1]) for i in range(len(tris))])
    assert np.array_equal(batch, single)
    halves = np.empty_like(batch)
    halves[::2], halves[1::2] = fn(f, tris[::2]), fn(f, tris[1::2])
    assert np.array_equal(batch, halves)
    # a layout other than C order gets the same bits too
    assert np.array_equal(fn(f, np.asfortranarray(tris)), batch)


def test_element_means_of_affine_field_is_centroid_value():
    rng = np.random.default_rng(11)
    tris = rng.normal(size=(15, 3, 2))
    d1, d2 = tris[:, 1] - tris[:, 0], tris[:, 2] - tris[:, 0]
    area = 0.5 * np.abs(d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
    means = integrate_many(lambda x, y: 2.0 * x - 3.0 * y + 0.5, tris) / area
    cx = tris[:, :, 0].mean(axis=1)
    cy = tris[:, :, 1].mean(axis=1)
    assert np.allclose(means, 2.0 * cx - 3.0 * cy + 0.5, atol=1e-14)


def test_oscillation_is_nonnegative_for_rough_fields():
    rng = np.random.default_rng(13)
    f = field_from_name("checkerboard:7")
    for _ in range(40):
        tris = rng.uniform(0.0, 1.0, size=(8, 3, 2))
        m2 = mu2_elements(f, tris)
        assert np.all(m2 >= 0.0)


def test_oscillation_of_constant_vanishes():
    rng = np.random.default_rng(17)
    tris = rng.normal(size=(10, 3, 2))
    m2 = mu2_elements(lambda x, y: np.full_like(x, 4.25), tris)
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


def test_integrate_many_rejects_coordinates_not_shaped_n_3_2():
    with pytest.raises(ValueError, match=re.escape("must have shape (n, 3, 2)")):
        integrate_many(lambda x, y: x, np.zeros((4, 3)))


@pytest.mark.parametrize(
    "spec",
    ["radial-alpha:0.5@nan,0", "radial-alpha:0.5@0,inf", "radial-alpha:0.5@1",
     "radial-alpha:0.5@1,2,3", "radial-alpha:0.5@", "radial-alpha:0.5@x,1"],
)
def test_radial_centre_must_be_two_finite_numbers(spec):
    with pytest.raises(ValueError, match=re.escape(repr(spec))):
        field_from_name(spec)


def test_non_finite_field_values_name_the_field_and_the_point():
    # the degree-5 rule has the centroid among its points; the field is
    # infinite at its centre, here the centroid (1, 1)
    f = field_from_name("radial-alpha:0.9@1,1")
    tri = np.array([[[0.0, 0.0], [3.0, 0.0], [0.0, 3.0]]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as err:
            integrate_many(f, tri)
    assert repr(f) in str(err.value) and "(1.0, 1.0)" in str(err.value)


def test_a_field_that_returns_a_scalar_gives_the_values_of_its_array_twin():
    # a library field may return a scalar; every integral that reads field
    # values broadcasts it to the quadrature points, so the constant 1.0
    # gives, bit for bit, what the array-valued field "one" gives
    const, one = ScalarField(lambda x, y: 1.0, "c"), field_from_name("one")
    T = l_shape().uniform_refine().uniform_refine()
    Tf = T.refine(T.leaf_ids[:5])
    tris = T.tri_coords()
    for fn in (integrate_many, mu2_elements):
        assert np.array_equal(fn(const, tris), fn(one, tris))
    for cls in (MixedPoisson, LeastSquaresPoisson):
        problems = cls(const), cls(one)
        got, want = (problem.solve(T) for problem in problems)
        assert np.array_equal(got.p, want.p) and np.array_equal(got.u, want.u)
        assert problems[0].extras(T, got) == problems[1].extras(T, want)
    sizes = [WeightedDataSize(f).mesh_values2(T).values for f in (const, one)]
    assert np.array_equal(*sizes)
    deltas = [DataApproximationProblem(f).delta(T, Tf, None, None) for f in (const, one)]
    assert deltas[0] == deltas[1] > 0.0
    params = SafemParams(max_elements=2000)
    runs = [safem_run(MixedPoisson(f), l_shape(), params) for f in (const, one)]
    assert [r.eta2 for r in runs[0].records] == [r.eta2 for r in runs[1].records]

"""Certificate checks: exact synthetic cases and live hierarchies."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from sepfem import (
    AxiomReport,
    DataApproximationProblem,
    IndicatorField,
    LevelRecord,
    MixedPoisson,
    SafemParams,
    check_A4_telescope,
    check_A12,
    check_B1_rate,
    check_B2,
    check_QM,
    check_rlinear,
    field_from_name,
    l_shape,
    random_hierarchy,
    safem_run,
    unit_square_criss,
)
from sepfem.ls_fem import LeastSquaresPoisson


def geometric_records(n, ratio=0.5):
    recs = []
    for k in range(n):
        s2 = ratio**k
        recs.append(LevelRecord(k, 2**k, "A", s2, 0.0, s2))
    for a, b in zip(recs[:-1], recs[1:]):
        a.delta2 = a.sigma2 - b.sigma2
    return recs


def test_contraction_certificate_on_geometric_decay():
    report = check_A12(geometric_records(8))
    assert report.passed
    assert report.witness["Lambda"] == 0.0
    assert abs(report.witness["rho"] - 0.5) < 1e-12
    assert report.pairs == 7


def test_contraction_needs_the_distance_term_when_sigma_grows():
    recs = [
        LevelRecord(0, 0, "A", 1.0, 0.0, 1.0, delta2=1.0),
        LevelRecord(1, 2, "A", 2.0, 0.0, 2.0, delta2=2.0),
        LevelRecord(2, 4, "A", 0.5, 0.0, 0.5),
    ]
    report = check_A12(recs, lambda_grid=[0.0, 2.0])
    assert report.passed
    assert report.witness["Lambda"] == 2.0
    failing = check_A12(recs, lambda_grid=[0.0])
    assert not failing.passed
    assert failing.witness["rho"] >= 2.0


def test_contraction_requires_backfilled_distances():
    recs = [
        LevelRecord(0, 0, "A", 1.0, 0.0, 1.0),
        LevelRecord(1, 2, "A", 0.5, 0.0, 0.5),
    ]
    with pytest.raises(ValueError):
        check_A12(recs)
    with pytest.raises(ValueError):
        check_A12(recs[:1])


def test_rlinear_fits_exact_geometric_factor():
    report = check_rlinear(geometric_records(9))
    assert report.passed
    assert abs(report.witness["q"] - 0.5) < 1e-12
    assert abs(report.witness["C"] - 1.0) < 1e-12


def test_rlinear_rejects_stagnation():
    recs = [LevelRecord(k, k, "A", 1.0, 0.0, 1.0, delta2=0.0) for k in range(6)]
    report = check_rlinear(recs)
    assert not report.passed
    assert abs(report.witness["q"] - 1.0) < 1e-12
    with pytest.raises(ValueError):
        check_rlinear(recs[:2])
    bad = [LevelRecord(0, 0, "A", 0.0, 0.0, 0.0, delta2=0.0)] + recs[:3]
    with pytest.raises(ValueError):
        check_rlinear(bad)


def test_telescope_on_synthetic_ls_records():
    totals = [8.0, 4.0, 1.0, 0.25]
    recs = []
    for k, t in enumerate(totals):
        recs.append(
            LevelRecord(k, 2**k, "A", t, 0.0, t, extra={"ls_total": t})
        )
    for a, b in zip(recs[:-1], recs[1:]):
        a.delta2 = a.extra["ls_total"] - b.extra["ls_total"]
    report = check_A4_telescope(recs)
    assert report.passed
    assert report.witness["telescope_mismatch"] == 0.0
    assert report.witness["delta2_sum"] == 8.0 - 0.25

    recs[0].delta2 = recs[0].delta2 + 1.0
    assert not check_A4_telescope(recs).passed

    plain = geometric_records(4)
    with pytest.raises(ValueError):
        check_A4_telescope(plain)


def test_telescope_on_live_least_squares_run():
    f = field_from_name("radial-alpha:0.6")
    res = safem_run(LeastSquaresPoisson(f), l_shape(),
                    SafemParams(max_elements=500, sigma_tol=1e-9))
    report = check_A4_telescope(res.records)
    assert report.passed
    assert report.witness["telescope_mismatch"] <= 1e-8 * report.witness["ls_first"]


def test_data_monotonicity_on_random_hierarchies():
    f = field_from_name("radial-alpha:0.6")
    meshes = random_hierarchy(l_shape(), 5, seed=11)
    report = check_B2(MixedPoisson(f), meshes)
    assert report.passed
    assert report.pairs == 15
    assert report.witness["worst_ratio"] <= 1.0 + 1e-9
    assert report.witness["mu_last"] <= report.witness["mu_first"]


def test_data_monotonicity_trivial_for_data_only_problem():
    meshes = random_hierarchy(unit_square_criss(), 3, seed=0)
    report = check_B2(DataApproximationProblem(field_from_name("one")), meshes)
    assert report.passed
    assert report.witness["worst_ratio"] == 1.0


class TotalsProblem:
    """Stub least-squares problem whose meshes are its squared data totals."""

    kind = "ls"

    def mu(self, total2):
        return IndicatorField([0], [total2])

    def eta(self, total2, sol):
        return IndicatorField([0], [0.0])


def test_worst_ratio_takes_zero_to_zero_as_one_and_zero_to_positive_as_inf():
    problem = TotalsProblem()
    flat = [0.0, 0.0]
    b2 = check_B2(problem, flat)
    qm = check_QM(problem, flat, [SimpleNamespace(ls_total=t) for t in flat])
    assert b2.passed and qm.passed and b2.pairs == qm.pairs == 1
    assert b2.witness["worst_ratio"] == qm.witness["worst_ls_ratio"] == 1.0
    assert b2.witness["worst_pair"] == qm.witness["worst_pair"] == "0->1"
    # unsquared totals 2, 0, 0, 1: the first zero-to-positive pair is 1->3
    totals = [4.0, 0.0, 0.0, 1.0]
    b2 = check_B2(problem, totals)
    qm = check_QM(problem, totals, [SimpleNamespace(ls_total=t) for t in totals])
    assert not b2.passed and not qm.passed and b2.pairs == qm.pairs == 6
    assert b2.witness["worst_ratio"] == qm.witness["worst_sigma_ratio"] == math.inf
    assert qm.witness["worst_ls_ratio"] == math.inf
    assert b2.witness["worst_pair"] == qm.witness["worst_pair"] == "1->3"


def test_total_estimator_quasimonotone_on_hierarchies():
    f = field_from_name("one")
    meshes = random_hierarchy(l_shape(), 4, seed=5)
    mixed = check_QM(MixedPoisson(f), meshes)
    assert mixed.passed
    assert mixed.witness["worst_sigma_ratio"] < 10.0
    ls = check_QM(LeastSquaresPoisson(f), meshes)
    assert ls.passed
    assert ls.witness["worst_ls_ratio"] <= 1.0 + 1e-9


def test_approximation_rate_for_smooth_data():
    # piecewise constants approximate a smooth field at first order in
    # the squared total, so growth ~ 1/tol and the potential-theory rate
    # exponent is one half
    f = field_from_name("linear-x")
    tols = [1e-2 / 4.0**k for k in range(5)]
    report = check_B1_rate(f, tols)
    assert report.passed
    assert report.witness["certificate"] == 1
    assert abs(report.witness["beta"] - 1.0) < 0.15
    assert abs(report.witness["s"] - 0.5) < 0.1


def test_approximation_rate_for_constant_data_is_free():
    report = check_B1_rate(field_from_name("one"), [1e-3, 1e-4, 1e-5, 1e-6])
    assert report.passed
    assert report.witness["beta"] == 0.0
    assert report.witness["N"] == [0, 0, 0, 0]


def test_adaptive_beats_uniform_for_singular_data():
    f = field_from_name("radial-alpha:0.6")
    tols = [0.03 / 4.0**k for k in range(5)]
    report = check_B1_rate(f, tols)
    assert report.passed
    assert report.witness["beta"] < report.witness["beta_uniform"]
    assert all(m <= t for m, t in zip(report.witness["mu2"], sorted(tols, reverse=True)))


def test_rate_check_input_validation():
    f = field_from_name("one")
    with pytest.raises(ValueError):
        check_B1_rate(f, [1e-2, 1e-3, 1e-4])
    with pytest.raises(ValueError):
        check_B1_rate(f, [1e-2, 1e-3, 1e-4, 0.0])


def test_random_hierarchy_is_seeded_and_nested():
    T0 = unit_square_criss()
    a = random_hierarchy(T0, 4, seed=9)
    b = random_hierarchy(T0, 4, seed=9)
    assert len(a) == 5
    for Ta, Tb in zip(a, b):
        assert np.array_equal(Ta.leaf_ids, Tb.leaf_ids)
    for coarse, fine in zip(a[:-1], a[1:]):
        assert fine.refines(coarse)
        assert fine.n_elements > coarse.n_elements
    c = random_hierarchy(T0, 4, seed=10)
    assert not all(np.array_equal(x.leaf_ids, y.leaf_ids) for x, y in zip(a, c))
    with pytest.raises(ValueError):
        random_hierarchy(T0, 0)
    with pytest.raises(ValueError):
        random_hierarchy(T0, 2, frac=0.0)


def test_report_formatting():
    rep = AxiomReport("B1", True, {"beta": 0.5, "N": [1, 2], "note": "ok"}, pairs=3)
    text = str(rep)
    assert "B1: pass pairs=3" in text
    assert "beta=0.5" in text
    assert "N=" not in text
    flat = dict(rep.items())
    assert flat["B1.pass"] == 1
    assert flat["B1.N"] == "1.0;2.0"
    assert flat["B1.note"] == "ok"

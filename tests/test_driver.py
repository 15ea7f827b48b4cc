"""Adaptive loop bookkeeping tests: cases, records, CSV, rate fitting."""

import math

import numpy as np
import pytest

from sepfem import (
    CSV_HEADER,
    DataApproximationProblem,
    LevelRecord,
    MixedPoisson,
    SafemParams,
    Triangulation,
    cafem_run,
    doerfler_select,
    field_from_name,
    fit_rate,
    l_shape,
    safem_run,
    uniform_run,
    unit_square_criss,
    write_csv,
)

import sepfem.ls_fem
import sepfem.marking
import sepfem.mixed_fem
from sepfem import sparse_direct
from sepfem.cli import main
from sepfem.ls_fem import LeastSquaresPoisson
from sepfem.mixed_fem import SolverError


def small_params(**kw):
    base = dict(max_elements=400, sigma_tol=1e-9)
    base.update(kw)
    return SafemParams(**base)


def test_params_validation():
    with pytest.raises(ValueError):
        SafemParams(theta_a=0.0)
    with pytest.raises(ValueError):
        SafemParams(theta_a=1.5)
    with pytest.raises(ValueError):
        SafemParams(kappa=0.0)
    with pytest.raises(ValueError):
        SafemParams(rho_b=1.0)
    with pytest.raises(ValueError):
        SafemParams(sigma_tol=-1.0)
    with pytest.raises(ValueError):
        SafemParams(max_elements=0)
    nan = float("nan")
    for name in ("theta_a", "kappa", "rho_b", "sigma_tol"):
        with pytest.raises(ValueError):
            SafemParams(**{name: nan})


def test_smooth_data_runs_in_case_a_and_replays_exactly():
    f = field_from_name("one")
    prob = MixedPoisson(f)
    params = small_params()
    res = safem_run(prob, l_shape(), params)
    assert res.stop_reason == "element-cap"
    assert all(r.case == "A" for r in res.records[:-1])
    # replay each marking decision from scratch
    for i, rec in enumerate(res.records[:-1]):
        T = res.meshes[i]
        sol = prob.solve(T)
        marked = doerfler_select(params.theta_a, prob.eta(T, sol))
        assert rec.marked == len(marked)
        assert np.array_equal(T.refine(marked).leaf_ids, res.meshes[i + 1].leaf_ids)


def test_rough_data_with_tiny_kappa_runs_in_case_b():
    f = field_from_name("radial-alpha:0.6")
    prob = MixedPoisson(f)
    res = safem_run(prob, l_shape(), small_params(kappa=1e-12))
    assert res.stop_reason == "element-cap"
    cases = [r.case for r in res.records[:-1]]
    assert cases and all(c == "B" for c in cases)
    for i, rec in enumerate(res.records[:-1]):
        assert rec.marked == res.meshes[i + 1].n_elements - res.meshes[i].n_elements


def test_both_cases_appear_and_sigma_decays():
    f = field_from_name("radial-alpha:0.6")
    prob = MixedPoisson(f)
    res = safem_run(prob, l_shape(), small_params(kappa=0.38, max_elements=2000))
    cases = {r.case for r in res.records[:-1]}
    assert cases == {"A", "B"}
    sig = [r.sigma2 for r in res.records]
    assert all(b < a for a, b in zip(sig[2:], sig[3:]))
    assert res.final_sigma == math.sqrt(sig[-1])


def test_case_b_tightens_the_tolerance_when_an_overlay_adds_no_element(monkeypatch):
    stalled = []
    overlay = Triangulation.overlay

    def spy(T, other):
        out = overlay(T, other)
        stalled.append(out.n_elements == T.n_elements)
        return out

    monkeypatch.setattr(Triangulation, "overlay", spy)
    prob = MixedPoisson(field_from_name("checkerboard:5"))
    res = safem_run(prob, l_shape(), SafemParams(kappa=100.0, max_elements=4000))
    assert any(stalled)
    case_b = [r for r in res.records if r.case == "B"]
    assert case_b and all(r.marked > 0 for r in case_b)
    assert res.stop_reason == "element-cap"


def test_a_completion_over_the_tolerance_aims_the_greedy_lower(monkeypatch):
    # checkerboard data: completing the partition often overshoots the
    # tolerance, and each retry must bisect ahead by the overshoot rather
    # than complete the whole partition again after every pass
    completions = []
    complete = sepfem.marking.complete_partition

    def counted(*args):
        completions.append(1)
        return complete(*args)

    monkeypatch.setattr(sepfem.marking, "complete_partition", counted)
    prob = MixedPoisson(field_from_name("checkerboard:5"))
    params = SafemParams(kappa=0.1, max_elements=5000)
    res = safem_run(prob, unit_square_criss(), params)
    case_b = [k for k, r in enumerate(res.records) if r.case == "B"]
    assert len(case_b) >= 3
    assert len(completions) <= 12
    recs = res.records
    assert all(recs[k + 1].mu2 <= params.rho_b * recs[k].mu2 for k in case_b)


def test_record_bookkeeping_invariants():
    f = field_from_name("radial-alpha:0.6")
    prob = LeastSquaresPoisson(f)
    res = safem_run(prob, l_shape(), small_params(max_elements=800))
    assert [r.level for r in res.records] == list(range(len(res.records)))
    for rec, T in zip(res.records, res.meshes):
        assert rec.N == T.n_elements - res.meshes[0].n_elements
        assert rec.sigma2 == rec.eta2 + rec.mu2
        assert rec.seconds >= 0.0
        assert "ls_total" in rec.extra
    assert math.isnan(res.records[-1].delta2)
    assert all(not math.isnan(r.delta2) for r in res.records[:-1])
    assert all(r.delta2 >= 0.0 for r in res.records[:-1])
    assert len(res.meshes) == len(res.records)
    assert len(res.solutions) == len(res.records)


@pytest.mark.parametrize("cls", [MixedPoisson, LeastSquaresPoisson])
def test_records_carry_the_factored_size_and_fill(cls, monkeypatch):
    factored = []
    splu = sparse_direct.spla.splu

    def counting_splu(A, **kwargs):
        lu = splu(A, **kwargs)
        factored.append((A.shape[0], lu.nnz))
        return lu

    monkeypatch.setattr(sparse_direct.spla, "splu", counting_splu)
    res = safem_run(cls(field_from_name("one")), l_shape(), small_params())
    assert len(factored) == len(res.records)
    assert [(r.extra["unknowns"], r.extra["lu_nnz"]) for r in res.records] == factored


@pytest.mark.parametrize(
    "cls, module", [(MixedPoisson, sepfem.mixed_fem), (LeastSquaresPoisson, sepfem.ls_fem)]
)
def test_residual_gates_reject_a_perturbed_solve_and_name_the_level(cls, module, monkeypatch):
    # every solve from the (first + 1)-th on returns x (1 + 1e-6)
    calls, first = [0], [0]
    solve_spd = module.solve_spd

    def perturbed(*args):
        x, lu_nnz = solve_spd(*args)
        calls[0] += 1
        return (x * (1.0 + 1e-6) if calls[0] > first[0] else x), lu_nnz

    monkeypatch.setattr(module, "solve_spd", perturbed)
    problem = cls(field_from_name("one"))
    with pytest.raises(SolverError, match="residual"):
        problem.solve(l_shape().uniform_refine())

    calls[0], first[0] = 0, 2
    with pytest.raises(SolverError) as err:
        safem_run(problem, l_shape(), small_params())
    assert err.value.level == 2
    assert calls[0] == 3


@pytest.mark.parametrize(
    "cls, module, kind",
    [(MixedPoisson, sepfem.mixed_fem, "mixed"), (LeastSquaresPoisson, sepfem.ls_fem, "ls")],
)
def test_residual_gates_reject_a_nan_solve_and_name_the_level(cls, module, kind, monkeypatch, capsys):
    # a NaN residual compares false with the bound, so it must not pass the gate
    solve_spd = module.solve_spd

    def nan_solve(*args):
        x, lu_nnz = solve_spd(*args)
        return np.full_like(x, np.nan), lu_nnz

    monkeypatch.setattr(module, "solve_spd", nan_solve)
    with pytest.raises(SolverError, match="residual nan") as err:
        safem_run(cls(field_from_name("one")), l_shape(), small_params())
    assert err.value.level == 0
    assert main(["--problem", kind, "--max-elements", "60"]) == 3
    assert "solver failure at level 0: " in capsys.readouterr().err


def test_any_error_leaving_a_level_names_it():
    class FailingMu(DataApproximationProblem):
        def mu(self, T):
            if T.n_elements > 8:
                raise ValueError("data term failed")
            return super().mu(T)

    # two uniform levels take the criss square from 2 to 8 to 32 elements
    with pytest.raises(ValueError, match="data term failed") as err:
        uniform_run(FailingMu(field_from_name("one")), unit_square_criss(), small_params())
    assert type(err.value) is ValueError
    assert err.value.level == 2


def test_safem_equals_cafem_when_data_term_vanishes():
    f = field_from_name("one")
    pa = small_params()
    res_s = safem_run(MixedPoisson(f), l_shape(), pa)
    res_c = cafem_run(MixedPoisson(f), l_shape(), pa)
    assert len(res_s.records) == len(res_c.records)
    for Ts, Tc in zip(res_s.meshes, res_c.meshes):
        assert np.array_equal(Ts.leaf_ids, Tc.leaf_ids)
    assert all(r.case == "C" for r in res_c.records[:-1])


def test_collective_marking_with_full_bulk_is_a_single_sweep():
    f = field_from_name("one")
    prob = MixedPoisson(f)
    res = cafem_run(prob, unit_square_criss(), small_params(theta_a=1.0, max_elements=60))
    T = unit_square_criss()
    for mesh in res.meshes[1:]:
        T = T.refine(T.leaf_ids)
        assert np.array_equal(mesh.leaf_ids, T.leaf_ids)


def test_uniform_run_doubles_twice_per_level():
    f = field_from_name("one")
    res = uniform_run(MixedPoisson(f), unit_square_criss(), small_params(max_elements=100))
    sizes = [T.n_elements for T in res.meshes]
    assert sizes == [2, 8, 32, 128]
    assert all(r.case == "U" for r in res.records[:-1])
    assert [r.marked for r in res.records[:-1]] == sizes[:-1]
    assert res.stop_reason == "element-cap"


def test_stop_reasons():
    f0 = lambda x, y: np.zeros_like(x)
    res = safem_run(MixedPoisson(f0), unit_square_criss(), small_params())
    assert res.stop_reason == "sigma-zero"
    assert len(res.records) == 1
    assert res.records[0].case == "-"

    f = field_from_name("one")
    res = safem_run(MixedPoisson(f), unit_square_criss(), small_params(sigma_tol=100.0))
    assert res.stop_reason == "tolerance"
    assert len(res.records) == 1

    res = safem_run(MixedPoisson(f), unit_square_criss(), small_params(max_elements=2))
    assert res.stop_reason == "element-cap"
    assert len(res.records) == 1


def test_fit_rate_recovers_synthetic_exponent():
    records = []
    for k in range(8):
        n = 4 * 2**k
        records.append(LevelRecord(k, n, "A", 0.0, 0.0, (1.0 + n) ** -1.0))
    assert abs(fit_rate(records) - 0.5) < 1e-12

    flat = [LevelRecord(k, 4 * 2**k, "A", 0.0, 0.0, 2.0) for k in range(6)]
    assert abs(fit_rate(flat)) < 1e-12

    with pytest.raises(ValueError):
        fit_rate(records[:3])
    zero = [LevelRecord(k, k, "A", 0.0, 0.0, 0.0) for k in range(9)]
    with pytest.raises(ValueError):
        fit_rate(zero)


def test_fitted_rate_skips_initial_records():
    records = [LevelRecord(k, 2**k, "A", 0.0, 0.0, 100.0 if k == 0 else (1.0 + 2**k) ** -2.0)
               for k in range(9)]
    from sepfem import RunResult

    res = RunResult(records, [], [], "element-cap")
    assert abs(fit_rate(res.records[1:]) - 1.0) < 1e-9
    # the level-0 outlier drags the all-records fit well away from 1
    assert abs(res.fitted_rate() - 1.0) > 0.1


def test_csv_is_deterministic_and_round_trips(tmp_path):
    f = field_from_name("radial-alpha:0.6")
    paths = []
    for tag in ("a", "b"):
        res = safem_run(MixedPoisson(f), l_shape(), small_params(kappa=0.5))
        path = tmp_path / f"{tag}.csv"
        write_csv(res.records, path)
        paths.append(path)
    rows_a = paths[0].read_text().splitlines()
    rows_b = paths[1].read_text().splitlines()
    assert rows_a[0] == CSV_HEADER
    assert len(rows_a) == len(rows_b)
    for ra, rb in zip(rows_a[1:], rows_b[1:]):
        assert ra.split(",")[:8] == rb.split(",")[:8]  # seconds may differ

    res = safem_run(MixedPoisson(f), l_shape(), small_params(kappa=0.5))
    path = tmp_path / "c.csv"
    write_csv(res.records, path)
    for line, rec in zip(path.read_text().splitlines()[1:], res.records):
        parts = line.split(",")
        assert int(parts[0]) == rec.level
        assert int(parts[1]) == rec.N
        assert parts[2] == rec.case
        assert float(parts[3]) == rec.eta2
        assert float(parts[4]) == rec.mu2
        assert float(parts[5]) == rec.sigma2
        assert float(parts[6]) == rec.delta2 or (
            math.isnan(float(parts[6])) and math.isnan(rec.delta2)
        )
        assert int(parts[7]) == rec.marked


def test_data_only_problem_contract():
    f = field_from_name("linear-x")
    prob = DataApproximationProblem(f)
    T = unit_square_criss()
    assert prob.kind == "data"
    assert prob.solve(T) is None
    assert prob.mu(T).total == 0.0
    eta2 = prob.eta(T, None)
    areas = T.areas()
    from sepfem import integrate_many

    l2sq = integrate_many(lambda x, y: x * x, T.tri_coords())
    assert np.allclose(eta2.values, areas**2 * l2sq, rtol=1e-13)

    Tf = T.uniform_refine()
    # every child has half the parent area, so the weight gap is 1/4 and
    # delta = (1/4)^2 * int f^2 over the whole square
    got = prob.delta(T, Tf, None, None)
    assert abs(got - (1.0 / 16.0) * (1.0 / 3.0)) < 1e-14
    with pytest.raises(ValueError):
        prob.delta(Tf, T, None, None)


def test_data_only_adaptive_run_reduces_the_indicator():
    f = field_from_name("radial-alpha:0.6")
    prob = DataApproximationProblem(f)
    res = cafem_run(prob, unit_square_criss(), small_params(max_elements=600))
    sig = [r.sigma2 for r in res.records]
    assert sig[-1] < sig[0] / 10.0
    assert all(r.mu2 == 0.0 for r in res.records)
    assert res.records[0].eta2 > 0.0

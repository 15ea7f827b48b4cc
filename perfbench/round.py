"""One round of one workload, in a fresh process: set up, run, check.

Started by ``run.py`` as

    python3 perfbench/round.py WORKLOAD SEED TRACE TRACE_FILE CHECKED

With TRACE 1 the run is traced and its spans go to TRACE_FILE.  CHECKED
is the fingerprint of a round of the same workload and seed whose
outputs passed every check, or ``-``: a round whose own fingerprint
equals it skips the checks, and any other round runs them.  Prints one
JSON object.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402
import scipy.sparse as sp  # noqa: E402
import scipy.sparse.linalg as spla  # noqa: E402

from checks import div_gap, ls_value, mesh_errors, nested_errors, p1_energy, rt0_norm2  # noqa: E402
from sepfem import (  # noqa: E402
    LeastSquaresPoisson,
    MixedPoisson,
    SafemParams,
    field_from_name,
    initial_mesh,
    l_shape,
    safem_run,
)
from sepfem.axioms import check_A12, check_rlinear  # noqa: E402
from spans import Tracer  # noqa: E402

# name -> (discretization, field, theta_a, kappa, rho_b, element cap)
WORKLOADS = {
    "mixed-adaptive": ("mixed", "one", 0.3, 1.0, 0.5, 30_000),
    "ls-adaptive": ("ls", "one", 0.5, 1.0, 0.5, 30_000),
    "separate-marking": ("mixed", "radial-alpha:0.6", 0.3, 0.1, 0.5, 10_000),
}


# CPU seconds the calibration takes at the reference speed, close to
# its time on the 2-core machine of README.md (0.41 to 0.49 s)
CAL_REF_S = 0.4


def calibrate():
    """CPU seconds of a fixed computation that shares no code with ``sepfem``.

    Its mix follows the loop's: interpreter work on a set and a worklist
    (as in refinement and APPROX), numpy sorting and gathering (as in
    the ordering and the edge tables), sparse LU factorizations, and
    streaming and random reads of an array larger than the CPU caches
    (as in the factorizations of the finest levels).
    Times scaled by ``CAL_REF_S / calibrate()`` are times at the
    reference speed, which takes out most of the drift of a shared
    machine's speed between runs.  Its inputs are small and repeated,
    so that it adds little to the round's peak memory.
    """
    n, m, grid = 30_000, 50_000, 60
    rng = np.random.default_rng(0)
    values = rng.random(m)
    picks = rng.integers(0, m, 2 * m)
    lap = sp.diags([-np.ones(grid - 1), 2.0 * np.ones(grid), -np.ones(grid - 1)], [-1, 0, 1])
    lap = (sp.kron(lap, sp.eye(grid)) + sp.kron(sp.eye(grid), lap)).tocsc()
    big = rng.random(1_000_000)
    scattered = rng.integers(0, len(big), len(big) // 2)
    start = time.process_time()
    for _ in range(5):
        seen, work = {0}, [0]
        while work:
            k = work.pop()
            for j in ((k + 1) % n, (2 * k) % n):
                if j not in seen:
                    seen.add(j)
                    work.append(j)
    for _ in range(8):
        order = np.argsort(values)
        values[picks][order].sum()
        np.unique(picks // 3)
    for _ in range(8):
        spla.splu(lap).solve(np.ones(grid * grid))
    for _ in range(10):
        (big * 1.0001).sum()
        big[scattered].sum()
    return time.process_time() - start


def seeded_l_shape(seed):
    """``l_shape()`` with its vertices and triangles numbered in a seeded order.

    The geometry and the refinement edges are those of ``l_shape()``; the
    element and vertex identifiers, and so the order of every table the
    program builds from them, depend on the seed.
    """
    T = l_shape()
    coords, tris = T.forest.coords(), T.tris()
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(coords))  # new vertex k is old vertex order[k]
    new_index = np.argsort(order)
    tris = new_index[tris][rng.permutation(len(tris))]
    tris = np.array([np.roll(t, s) for t, s in zip(tris, rng.integers(0, 3, len(tris)))])
    return initial_mesh(coords[order], tris)


def setup(workload, seed):
    kind, field, theta, kappa, rho_b, cap = WORKLOADS[workload]
    cls = MixedPoisson if kind == "mixed" else LeastSquaresPoisson
    problem = cls(field_from_name(field))
    params = SafemParams(theta_a=theta, kappa=kappa, rho_b=rho_b, sigma_tol=0.0, max_elements=cap)
    return problem, seeded_l_shape(seed), params


def check(workload, res, params):
    """Output checks; returns a list of (level, message)."""
    errors = []
    records, meshes = res.records, res.meshes
    last = len(records) - 1
    forest = meshes[-1].forest
    coords = forest.coords()
    parent = np.array([forest.parent(n) for n in range(forest.n_nodes)], dtype=np.int64)
    for k, T in enumerate(meshes):
        errors += [(k, e) for e in mesh_errors(T.tris(), coords)]
        if k:
            errors += [(k - 1, e) for e in nested_errors(parent, meshes[k - 1].leaf_ids, T.leaf_ids)]
    if res.stop_reason != "element-cap":
        errors.append((last, f"stopped by {res.stop_reason}, not by the element cap"))

    if workload in ("mixed-adaptive", "ls-adaptive"):
        for name, rep in (("A12", check_A12(records)), ("R-linear", check_rlinear(records))):
            if not rep.passed:
                errors.append((last, f"{name} certificate fails: {rep.witness}"))

    if workload == "mixed-adaptive":
        # f is constant, so every level minimizes ||q|| over a larger
        # admissible set {q in RT0 : div q = -f}
        norms = []
        for k, (T, sol) in enumerate(zip(meshes, res.solutions)):
            norms.append(rt0_norm2(T.tris(), coords, sol.conn.edges, sol.p))
            # the program's own residual gate is 1e-10, relative
            gap = div_gap(T.tris(), coords, sol.conn.edges, sol.p, 1.0)
            if not gap <= 1e-10:
                errors.append((k, f"div p_h + f reaches {gap!r} of the divergence's terms"))
        for k in range(1, len(norms)):
            if norms[k] > norms[k - 1] * (1.0 + 1e-12):
                errors.append((k, f"||p_h||^2 rose from {norms[k - 1]!r} to {norms[k]!r}"))
        # the conforming P1 energy bounds the exact one from below and the
        # mixed flux norm bounds it from above
        energy = p1_energy(meshes[-1].tris(), coords, lambda x, y: np.ones_like(x))
        if not energy <= norms[-1]:
            errors.append((last, f"P1 energy {energy!r} above ||p_h||^2 = {norms[-1]!r}"))

    if workload == "ls-adaptive":
        # the functional recomputed from (p, u), f = 1, against the reported one
        ls = []
        for k, (T, sol) in enumerate(zip(meshes, res.solutions)):
            u = np.zeros(len(coords))
            u[sol.conn.node_vertices] = sol.u
            ls.append(ls_value(T.tris(), coords, sol.conn.edges, sol.p, u, 1.0))
            reported = records[k].extra["ls_total"]
            if abs(ls[k] - reported) > 1e-10 * ls[k]:
                errors.append((k, f"LS functional is {ls[k]!r}, reported {reported!r}"))
            if k and ls[k] > ls[k - 1] * (1.0 + 1e-12):
                errors.append((k, f"LS functional rose from {ls[k - 1]!r} to {ls[k]!r}"))
        drop = ls[0] - ls[-1]
        deltas = math.fsum(r.delta2 for r in records[:-1])
        if abs(deltas - drop) > 1e-10 * ls[0]:
            errors.append((last, f"sum of delta^2 {deltas!r} differs from the LS drop {drop!r}"))

    if workload == "separate-marking":
        for k, (a, b) in enumerate(zip(records, records[1:])):
            if a.case == "B" and not b.mu2 <= params.rho_b * a.mu2:
                errors.append((k, f"case B: mu^2 went from {a.mu2!r} to {b.mu2!r}"))
        if not any(r.case == "B" for r in records):
            errors.append((last, "no level took case B"))
    return errors


def fingerprint(res):
    """Digest of every level's record and mesh; equal digests, equal outputs."""
    h = hashlib.sha256()
    for rec, T, sol in zip(res.records, res.meshes, res.solutions):
        h.update(repr((rec.N, rec.case, rec.eta2, rec.mu2, rec.delta2, rec.marked, sorted(rec.extra.items()))).encode())
        h.update(np.ascontiguousarray(T.tris()).tobytes())
        for coefficients in (sol.p, getattr(sol, "u", None)):
            if coefficients is not None:
                h.update(np.ascontiguousarray(coefficients).tobytes())
    h.update(res.stop_reason.encode())
    return h.hexdigest()


def main(argv):
    workload, seed, traced, trace_file, checked_digest = argv
    seed, traced = int(seed), traced == "1"
    cal_began = time.process_time()
    cal_s = calibrate()
    cal_spent = time.process_time() - cal_began
    scale = CAL_REF_S / cal_s
    problem, T0, params = setup(workload, seed)
    tracer = None
    if traced:
        tracer = Tracer()
        tracer.install(problem)
    # CPU time of this process so far, less the calibration: interpreter,
    # imports, field, problem and T0
    setup_cpu_s = time.process_time() - cal_spent
    cpu_start = time.process_time()
    start = time.perf_counter()
    try:
        res = safem_run(problem, T0, params)
    except Exception as err:  # a level failed: report it, do not measure
        level = getattr(err, "level", None)
        print(f"{workload}: {type(err).__name__}: {err}", file=sys.stderr)
        attempted = level + 1 if level is not None else (tracer.level + 1 if tracer else 1)
        print(json.dumps({"attempted": attempted, "failed": 1, "errors": [str(err)]}))
        return
    end = time.perf_counter()
    run_cpu_s = time.process_time() - cpu_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    run_s = end - start

    digest = fingerprint(res)
    checked = digest != checked_digest
    errors = check(workload, res, params) if checked else []
    elements_total = sum(T.n_elements for T in res.meshes)
    out = {
        "attempted": len(res.records),
        "failed": len({level for level, _ in errors}),
        "errors": [f"level {level}: {msg}" for level, msg in errors],
        "fingerprint": digest,
        "checked": checked,
        "run_s": run_s,
        "run_cpu_s": run_cpu_s,
        "setup_cpu_s": setup_cpu_s,
        "cal_s": cal_s,
        "run_ref_s": run_cpu_s * scale,
        "setup_s": setup_cpu_s * scale,
        "peak_rss_mb": peak_rss_mb,
        "elements_total": elements_total,
        "fitted_s": res.fitted_rate(),
    }
    if tracer is not None:
        levels, totals = tracer.summary(start, end)
        with open(trace_file, "w") as fh:
            for row in levels:
                fh.write(json.dumps(row) + "\n")
            fh.write(json.dumps({"totals": totals}) + "\n")
        out["layers"] = totals
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])

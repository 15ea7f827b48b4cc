"""Command-line front end for the adaptive runs.

One invocation configures a problem (mixed flux FEM, div least squares,
or pure data approximation), a domain, a data field, and a refinement
mode, then runs the loop, writes the per-level CSV and an optional
axiom report, and prints a one-line summary.  A plain-text key=value
config file can hold any flag; explicit flags win.  --sweep expands
comma-separated values of a flag into independent runs executed on
worker threads.

Exit codes: 0 success, 2 bad usage or invalid configuration, 3 solver
failure (the message names the level), 1 any other internal error.
"""

from __future__ import annotations

import argparse
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from .axioms import (
    check_A4_telescope,
    check_A12,
    check_B1_rate,
    check_B2,
    check_rlinear,
    random_hierarchy,
)
from .driver import (
    DataApproximationProblem,
    SafemParams,
    cafem_run,
    fit_rate,
    safem_run,
    uniform_run,
    write_csv,
)
from .ls_fem import LeastSquaresPoisson
from .marking import ApproxState, ElementOscillation
from .mesh import MeshError, l_shape, read_mesh, unit_square_criss, write_mesh
from .mixed_fem import MixedPoisson, SolverError
from .quadrature import field_from_name, triangle_rule

__all__ = ["main", "build_parser"]

_PROBLEMS = ("mixed", "ls", "data-only")
_DOMAINS = ("unit-square", "l-shape")
_MODES = ("safem", "cafem", "uniform", "approx-only")

# long flag name -> (namespace dest, converter); shared by the config
# file parser and --sweep value parsing
_FLAG_TYPES = {
    "problem": ("problem", str),
    "domain": ("domain", str),
    "mesh": ("mesh", str),
    "field": ("field", str),
    "mode": ("mode", str),
    "theta-a": ("theta_a", float),
    "kappa": ("kappa", float),
    "rho-b": ("rho_b", float),
    "sigma-tol": ("sigma_tol", float),
    "max-elements": ("max_elements", int),
    "quad-degree": ("quad_degree", int),
    "approx-tol": ("approx_tol", float),
    "seed": ("seed", int),
    "out": ("out", str),
    "report": ("report", str),
    "dump-solution": ("dump_solution", str),
}
# output paths, which --sweep derives per run instead of sweeping
_OUTPUT_FLAGS = ("out", "report", "dump-solution")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="sepfem",
        description="Adaptive mesh refinement runs with separate or collective marking.",
    )
    p.add_argument("--problem", default="mixed", help="mixed | ls | data-only")
    p.add_argument("--domain", default="unit-square", help="unit-square | l-shape")
    p.add_argument("--mesh", default=None, help="mesh file to use as the initial mesh")
    p.add_argument("--field", default="one",
                   help="data field: one | linear-x | radial-alpha:<a> | checkerboard:<k>")
    p.add_argument("--mode", default="safem", help="safem | cafem | uniform | approx-only")
    p.add_argument("--theta-a", dest="theta_a", type=float, default=0.3,
                   help="bulk fraction for the marking step")
    p.add_argument("--kappa", type=float, default=1.0,
                   help="case split: case A while mu2 <= kappa * eta2")
    p.add_argument("--rho-b", dest="rho_b", type=float, default=0.5,
                   help="case B drives the data term below rho_b * mu2")
    p.add_argument("--sigma-tol", dest="sigma_tol", type=float, default=1e-6,
                   help="stop when sigma falls below this")
    p.add_argument("--max-elements", dest="max_elements", type=int, default=200_000,
                   help="stop once the mesh reaches this many elements")
    p.add_argument("--quad-degree", dest="quad_degree", type=int, default=5,
                   help="quadrature exactness degree (1..5)")
    p.add_argument("--approx-tol", dest="approx_tol", type=float, default=1e-4,
                   help="target for --mode approx-only")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for the randomized hierarchy in the report")
    p.add_argument("--out", default=None, help="CSV path (approx-only: mesh path)")
    p.add_argument("--report", default=None, help="axiom report path")
    p.add_argument("--dump-solution", dest="dump_solution", default=None,
                   help="write the final discrete solution to this path")
    p.add_argument("--sweep", action="append", default=None, metavar="FLAG=V1,V2,...",
                   help="run the cartesian product over comma-separated flag values")
    p.add_argument("--config", default=None, help="key=value file with flag defaults")
    return p


def _read_config(path, parser):
    """Flag defaults from a key=value file; unknown keys are usage errors."""
    out = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as err:
        parser.error(f"cannot read config file: {err}")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        if not sep or key not in _FLAG_TYPES:
            parser.error(f"config line {lineno}: expected <flag>=<value>, got {raw!r}")
        dest, conv = _FLAG_TYPES[key]
        try:
            out[dest] = conv(value.strip())
        except ValueError:
            parser.error(f"config line {lineno}: bad value for {key}: {value.strip()!r}")
    return out


def _validate(args, parser):
    """Check the flags; returns the loop parameters and the initial mesh."""
    if args.problem not in _PROBLEMS:
        parser.error(f"--problem must be one of {', '.join(_PROBLEMS)}")
    if args.domain not in _DOMAINS:
        parser.error(f"--domain must be one of {', '.join(_DOMAINS)}")
    if args.mode not in _MODES:
        parser.error(f"--mode must be one of {', '.join(_MODES)}")
    try:
        params = SafemParams(
            theta_a=args.theta_a,
            kappa=args.kappa,
            rho_b=args.rho_b,
            sigma_tol=args.sigma_tol,
            max_elements=args.max_elements,
        )
        triangle_rule(args.quad_degree)
        field_from_name(args.field)
    except ValueError as err:
        parser.error(str(err))
    if args.mode == "approx-only" and not args.approx_tol > 0.0:
        parser.error("--approx-tol must be positive")
    if args.seed < 0:
        parser.error(f"--seed must be nonnegative, got {args.seed}")
    if args.dump_solution and (args.mode == "approx-only" or args.problem == "data-only"):
        parser.error("--dump-solution needs a problem with a discrete solution")
    return params, _initial_mesh(args, parser)


def _initial_mesh(args, parser):
    if args.mesh is not None:
        try:
            return read_mesh(args.mesh)
        except (OSError, MeshError) as err:
            parser.error(f"--mesh {args.mesh}: {err}")
    if args.domain == "l-shape":
        return l_shape()
    return unit_square_criss()


def _make_problem(args, data_field):
    if args.problem == "mixed":
        return MixedPoisson(data_field, quad_degree=args.quad_degree)
    if args.problem == "ls":
        return LeastSquaresPoisson(data_field, quad_degree=args.quad_degree)
    return DataApproximationProblem(data_field, quad_degree=args.quad_degree)


def _write_report(path, reports):
    lines = [str(r) for r in reports]
    lines.append("")
    for r in reports:
        for key, val in r.items():
            lines.append(f"{key}={val}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _dump_solution(path, problem, T, sol):
    conn = sol.conn
    coords = T.forest.coords()[conn.node_vertices]
    edge_nodes = np.searchsorted(conn.node_vertices, conn.edges)
    lines = [f"solution {problem.kind}", f"vertices {conn.n_nodes}"]
    for x, y in coords:
        lines.append(f"{float(x)!r} {float(y)!r}")
    lines.append(f"edges {conn.n_edges}")
    for (a, b), flux in zip(edge_nodes, sol.p):
        lines.append(f"{a} {b} {float(flux)!r}")
    if problem.kind == "mixed":
        lines.append(f"elements {len(conn.tris)}")
        lines.extend(f"{float(u)!r}" for u in sol.u)
    else:
        lines.append(f"nodes {conn.n_nodes}")
        lines.extend(f"{float(u)!r}" for u in sol.u)
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def _approx_only(args, T0) -> str:
    f = field_from_name(args.field)
    rule = triangle_rule(args.quad_degree)
    values = ElementOscillation(f, rule)
    state = ApproxState(T0, values)
    T = state.run(args.approx_tol)
    mu2 = values.mesh_values2(T).total
    if args.out:
        write_mesh(T, args.out)
    if args.report:
        tols = [args.approx_tol * 4.0 ** k for k in range(6, -1, -1)]
        _write_report(args.report, [check_B1_rate(f, tols, T0, args.quad_degree)])
    return f"n_elements={T.n_elements} mu2={mu2!r} tol={args.approx_tol!r}"


def _single_run(args, params, T0) -> str:
    """One complete run from what ``_validate`` returned; returns the one-line summary."""
    if args.mode == "approx-only":
        return _approx_only(args, T0)
    data_field = field_from_name(args.field)
    problem = _make_problem(args, data_field)
    runner = {"safem": safem_run, "cafem": cafem_run, "uniform": uniform_run}[args.mode]
    result = runner(problem, T0, params)
    records = result.records
    if args.out:
        write_csv(records, args.out)
    if args.report:
        reports = []
        if len(records) >= 2:
            reports.append(check_A12(records))
        if len(records) >= 3:
            reports.append(check_rlinear(records))
        if problem.kind == "ls" and len(records) >= 2:
            reports.append(check_A4_telescope(records))
        reports.append(check_B2(problem, random_hierarchy(T0, 6, seed=args.seed)))
        _write_report(args.report, reports)
    if args.dump_solution:
        _dump_solution(args.dump_solution, problem, result.meshes[-1], result.solutions[-1])
    try:
        fitted = fit_rate(records)
    except ValueError:
        fitted = math.nan
    return f"fitted_s={fitted!r} levels={len(records)} final_sigma={result.final_sigma!r}"


def _suffix_path(path, label):
    if not path:
        return path
    p = Path(path)
    return str(p.with_name(f"{p.stem}-{label}{p.suffix}"))


def _expand_sweep(args, parser):
    """One validated run per sweep combination: (label, (args, params, T0))."""
    combos = [(args, "")]
    for spec in args.sweep:
        key, sep, values = spec.partition("=")
        key = key.strip().lstrip("-")
        if not sep or key not in _FLAG_TYPES:
            parser.error(f"--sweep expects <flag>=<v1>,<v2>,... with a known flag, got {spec!r}")
        if key in _OUTPUT_FLAGS:
            parser.error(f"--sweep {spec!r}: each run suffixes --{key} with its label; set it once")
        dest, conv = _FLAG_TYPES[key]
        try:
            vals = [conv(v.strip()) for v in values.split(",") if v.strip()]
        except ValueError:
            parser.error(f"--sweep {spec!r}: bad value")
        if not vals:
            parser.error(f"--sweep {spec!r}: no values")
        nxt = []
        for base, label in combos:
            for v in vals:
                ns = argparse.Namespace(**vars(base))
                setattr(ns, dest, v)
                tag = f"{key}{v}".replace(":", "_").replace(",", "_").replace("/", "_")
                nxt.append((ns, f"{label}-{tag}" if label else tag))
        combos = nxt
    out = []
    for ns, label in combos:
        ns.sweep = None
        ns.out = _suffix_path(args.out, label)
        ns.report = _suffix_path(args.report, label)
        ns.dump_solution = _suffix_path(args.dump_solution, label)
        out.append((label, (ns, *_validate(ns, parser))))
    return out


def main(argv=None) -> int:
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config", default=None)
    known, _ = pre.parse_known_args(argv)
    parser = build_parser()
    if known.config is not None:
        parser.set_defaults(**_read_config(known.config, parser))
    args = parser.parse_args(argv)
    run = (args, *_validate(args, parser))
    try:
        if args.sweep:
            runs = _expand_sweep(args, parser)
            with ThreadPoolExecutor(max_workers=min(4, len(runs))) as pool:
                summaries = list(pool.map(lambda r: _single_run(*r[1]), runs))
            for (label, _), summary in zip(runs, summaries):
                print(f"[{label}] {summary}")
            return 0
        print(_single_run(*run))
        return 0
    except SolverError as err:
        where = "unknown" if err.level is None else err.level
        print(f"solver failure at level {where}: {err}", file=sys.stderr)
        return 3
    except Exception as err:  # noqa: BLE001 - the CLI boundary reports, not raises
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

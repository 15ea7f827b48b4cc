"""Command-line front end for the adaptive runs.

One invocation configures a problem (mixed flux FEM, div least squares,
or pure data approximation), a domain, a data field, and a refinement
mode, then runs the loop, writes the per-level CSV and an optional
axiom report, and prints a one-line summary.  A plain-text key=value
config file can hold any flag that sets a value; explicit flags win.
--sweep expands comma-separated values of a flag into independent runs
executed on worker threads.  The parser is the one table of flags:
config lines and swept values go through its type and choice checks.

Exit codes: 0 success, 2 bad usage or invalid configuration, 3 solver
failure, 1 any other internal error; the message of 3 and 1 names the
level that failed and, in a sweep, starts with the failed run's label.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

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
from .quadrature import field_from_name

__all__ = ["main", "build_parser"]

# output paths, which --sweep derives per run instead of sweeping; each
# must name a file in an existing directory before any level runs
_OUTPUT_FLAGS = ("out", "report", "dump-solution")


def build_parser() -> argparse.ArgumentParser:
    loop = SafemParams()
    p = argparse.ArgumentParser(
        prog="sepfem",
        description="Adaptive mesh refinement runs with separate or collective marking.",
    )
    p.add_argument("--problem", default="mixed", choices=("mixed", "ls", "data-only"))
    p.add_argument("--domain", default="unit-square", choices=("unit-square", "l-shape"))
    p.add_argument("--mesh", default=None, help="mesh file to use as the initial mesh")
    p.add_argument("--field", default="one",
                   help="data field: one | linear-x | radial-alpha:<a> | checkerboard:<k>")
    p.add_argument("--mode", default="safem",
                   choices=("safem", "cafem", "uniform", "approx-only"))
    p.add_argument("--theta-a", dest="theta_a", type=float, default=loop.theta_a,
                   help="bulk fraction for the marking step")
    p.add_argument("--kappa", type=float, default=loop.kappa,
                   help="case split: case A while mu2 <= kappa * eta2")
    p.add_argument("--rho-b", dest="rho_b", type=float, default=loop.rho_b,
                   help="case B drives the data term below rho_b * mu2")
    p.add_argument("--sigma-tol", dest="sigma_tol", type=float, default=loop.sigma_tol,
                   help="stop when sigma falls below this")
    p.add_argument("--max-elements", dest="max_elements", type=int, default=loop.max_elements,
                   help="stop once the mesh reaches this many elements")
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


def _setting(parser, flag, value, where):
    """``--flag=value`` through the parser's own type and choice checks.

    Returns (dest, parsed value).  ``flag`` must be the full name of a
    flag that sets a value; argparse alone would take an abbreviation.
    """
    dest = flag.replace("-", "_")
    if dest in ("sweep", "config") or dest not in vars(parser.parse_args([])):
        parser.error(f"{where}: {flag!r} is not the full name of a flag that sets a value")
    return dest, getattr(parser.parse_args([f"--{flag}={value}"]), dest)


def _read_config(path, parser):
    """Flag defaults from a key=value file, checked like the command line."""
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
        if not sep:
            parser.error(f"config line {lineno}: expected <flag>=<value>, got {raw!r}")
        dest, val = _setting(parser, key.strip(), value.strip(), f"config line {lineno}")
        out[dest] = val
    return out


def _validate(args, parser):
    """Check the flags; returns the loop parameters and the initial mesh."""
    try:
        params = SafemParams(
            theta_a=args.theta_a,
            kappa=args.kappa,
            rho_b=args.rho_b,
            sigma_tol=args.sigma_tol,
            max_elements=args.max_elements,
        )
        field_from_name(args.field)
    except ValueError as err:
        parser.error(str(err))
    if args.mode == "approx-only" and not args.approx_tol > 0.0:
        parser.error("--approx-tol must be positive")
    if args.seed < 0:
        parser.error(f"--seed must be nonnegative, got {args.seed}")
    if args.dump_solution and (args.mode == "approx-only" or args.problem == "data-only"):
        parser.error("--dump-solution needs a problem with a discrete solution")
    for flag in _OUTPUT_FLAGS:
        path = getattr(args, flag.replace("-", "_"))
        # the dirname of "d/" is "d", so a trailing slash names a directory
        if path and (os.path.isdir(path) or not os.path.isdir(os.path.dirname(path) or ".")):
            parser.error(f"--{flag} {path}: not a file path in an existing directory")
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
        return MixedPoisson(data_field)
    if args.problem == "ls":
        return LeastSquaresPoisson(data_field)
    return DataApproximationProblem(data_field)


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
    edge_nodes = conn.edge_nodes()
    lines = [f"solution {problem.kind}", f"vertices {conn.n_nodes}"]
    for x, y in coords:
        lines.append(f"{float(x)!r} {float(y)!r}")
    lines.append(f"edges {conn.n_edges}")
    for (a, b), flux in zip(edge_nodes, sol.p):
        lines.append(f"{a} {b} {float(flux)!r}")
    # the mixed potential is per element, the LS potential per node
    lines.append(f"{'elements' if problem.kind == 'mixed' else 'nodes'} {len(sol.u)}")
    lines.extend(f"{float(u)!r}" for u in sol.u)
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def _approx_only(args, T0) -> str:
    f = field_from_name(args.field)
    values = ElementOscillation(f)
    state = ApproxState(T0, values)
    T = state.run(args.approx_tol)
    mu2 = values.mesh_values2(T).total
    if args.out:
        write_mesh(T, args.out)
    if args.report:
        tols = [args.approx_tol * 4.0 ** k for k in range(6, -1, -1)]
        _write_report(args.report, [check_B1_rate(f, tols, T0)])
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
    """One validated run per sweep combination: (label, (args, params, T0)).

    A flag may be swept once, and its values must parse to distinct
    settings: a repeat would start runs that repeat each other and
    write the same output files.
    """
    combos = [(args, "")]
    swept = set()
    for spec in args.sweep:
        key, sep, values = spec.partition("=")
        key = key.strip().lstrip("-")
        if not sep:
            parser.error(f"--sweep expects <flag>=<v1>,<v2>,..., got {spec!r}")
        if key in _OUTPUT_FLAGS:
            parser.error(f"--sweep {spec!r}: each run suffixes --{key} with its label; set it once")
        vals = [_setting(parser, key, v.strip(), f"--sweep {spec!r}")
                for v in values.split(",") if v.strip()]
        if not vals:
            parser.error(f"--sweep {spec!r}: no values")
        dest = vals[0][0]
        if dest in swept:
            parser.error(f"--sweep {spec!r}: --{key} is swept more than once")
        swept.add(dest)
        parsed = [v for _, v in vals]
        for i, v in enumerate(parsed):
            if v in parsed[:i]:
                parser.error(f"--sweep {spec!r}: two values give --{key}={v}")
        nxt = []
        for base, label in combos:
            for v in parsed:
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


def _labelled_run(run):
    """``_single_run`` of one sweep combination; an error leaving it gets the label."""
    label, fields = run
    try:
        return _single_run(*fields)
    except Exception as err:
        err.label = label
        raise


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config is not None:
        parser.set_defaults(**_read_config(args.config, parser))
        args = parser.parse_args(argv)
    run = (args, *_validate(args, parser))
    try:
        if args.sweep:
            runs = _expand_sweep(args, parser)
            with ThreadPoolExecutor(max_workers=min(4, len(runs))) as pool:
                summaries = list(pool.map(_labelled_run, runs))
            for (label, _), summary in zip(runs, summaries):
                print(f"[{label}] {summary}")
            return 0
        print(_single_run(*run))
        return 0
    except Exception as err:  # noqa: BLE001 - the CLI boundary reports, not raises
        label = getattr(err, "label", None)
        tag = "" if label is None else f"[{label}] "
        level = getattr(err, "level", None)
        if isinstance(err, SolverError):
            where = "unknown" if level is None else level
            print(f"{tag}solver failure at level {where}: {err}", file=sys.stderr)
            return 3
        where = "" if level is None else f" at level {level}"
        print(f"{tag}error{where}: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

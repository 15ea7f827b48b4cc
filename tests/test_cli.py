"""End-to-end command-line tests, in process via main(argv)."""

import math

import pytest

import sepfem.mixed_fem
from sepfem import read_mesh, safem_run, unit_square_criss, write_mesh
from sepfem.cli import build_parser, main
from sepfem.driver import CSV_HEADER, SafemParams
from sepfem.mixed_fem import SolverError


def run_ok(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    return out


SMALL = ["--max-elements", "60", "--sigma-tol", "1e-12"]


def test_parser_defaults():
    args = build_parser().parse_args([])
    assert args.problem == "mixed"
    assert args.domain == "unit-square"
    assert args.field == "one"
    assert args.mode == "safem"
    # the loop's defaults are declared once, in SafemParams
    for name, value in vars(SafemParams()).items():
        assert getattr(args, name) == value, name
    assert args.theta_a == 0.3
    assert args.kappa == 1.0
    assert args.rho_b == 0.5
    assert args.max_elements == 200_000
    assert args.out is None and args.report is None and args.sweep is None


GOOD_MESH = """vertices 4
0 0
1 0
1 1
0 1
triangles 2
0 1 2 2
0 2 3 0
boundary 4
0 1
1 2
2 3
0 3
"""

# each bad mesh file is GOOD_MESH with one piece of text replaced
BAD_MESHES = {
    "refedge-flag-7.mesh": ("0 1 2 2", "0 1 2 7"),
    "vertex-out-of-range.mesh": ("0 2 3 0", "0 2 9 0"),
    "non-finite-coordinate.mesh": ("1 1\n", "1 inf\n"),
    "non-numeric-token.mesh": ("1 0\n", "1 x\n"),
    "boundary-edge-missing.mesh": ("boundary 4\n0 1\n", "boundary 3\n"),
    "not-text.mesh": ("0 3\n", "0 3\xff\n"),
    "repeated-triangle.mesh": (
        "0 2 3 0\nboundary 4\n0 1\n1 2\n2 3\n0 3\n", "0 1 2 2\nboundary 0\n"
    ),
    "interior-edge-in-boundary.mesh": ("boundary 4\n", "boundary 5\n0 2\n"),
}
# the message each bad boundary block gets
BOUNDARY_MESSAGES = {
    "boundary-edge-missing.mesh": "the triangles and the boundary block do not form a conforming mesh",
    "interior-edge-in-boundary.mesh": "a boundary edge is not an edge of exactly one triangle",
}
# an output path must name a file in an existing directory; the small
# cap keeps a run that misses the check short
BAD_OUTPUTS = [
    [f"--{flag}", path, "--max-elements", "60"]
    for flag in ("out", "report", "dump-solution")
    for path in ("missing/run.txt", ".", "missing/")
] + [["--out", "sweep.csv", "--max-elements", "60", "--sweep", "kappa=0.5,1"]]


@pytest.mark.parametrize(
    "argv",
    [
        ["--problem", "bogus"],
        ["--domain", "triangle"],
        ["--mode", "fast"],
        ["--field", "mystery"],
        ["--theta-a", "0"],
        ["--theta-a", "1.5"],
        ["--kappa", "-1"],
        ["--rho-b", "1"],
        ["--quad-degree", "5"],  # one fixed quadrature rule: no such flag
        ["--max-elements", "0"],
        ["--mode", "approx-only", "--approx-tol", "-2"],
        ["--dump-solution", "x", "--mode", "approx-only"],
        ["--dump-solution", "x", "--problem", "data-only"],
        ["--kappa", "nan"],
        ["--sigma-tol", "nan"],
        ["--mesh", "missing.mesh"],
        *(["--mesh", name] for name in BAD_MESHES),
        ["--seed", "-1", "--report", "r.txt"],
        ["--field", "radial-alpha:0.5@nan,0"],
        ["--field", "radial-alpha:0.5@1"],
        ["--field", "radial-alpha:abc"],
        ["--field", "checkerboard:x"],
        *BAD_OUTPUTS,
    ],
)
def test_bad_usage_exits_2(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for name, (old, new) in BAD_MESHES.items():
        assert old in GOOD_MESH
        (tmp_path / name).write_bytes(GOOD_MESH.replace(old, new, 1).encode("latin-1"))
    # the path the sweep derives for its first run is a directory
    (tmp_path / "sweep-kappa0.5.csv").mkdir()
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    err = capsys.readouterr().err
    if argv[0] == "--mesh":
        assert f"--mesh {argv[1]}:" in err
        assert BOUNDARY_MESSAGES.get(argv[1], "") in err
    if argv in BAD_OUTPUTS:
        label = "-kappa0.5" if "--sweep" in argv else ""
        path = argv[1].replace(".csv", f"{label}.csv")
        assert f"{argv[0]} {path}: not a file path in an existing directory" in err
        assert not (tmp_path / "sweep-kappa1.csv").exists()
    if argv[0] == "--field":
        assert repr(argv[1]) in err


def test_data_infinite_at_a_quadrature_point_exits_1_naming_the_field(capsys):
    # bisection puts a centroid, a quadrature point, on the dyadic centre
    field = "radial-alpha:0.9@-0.5,0.5"
    argv = ["--problem", "mixed", "--domain", "l-shape", "--field", field]
    assert main(argv + ["--kappa", "0.1", "--max-elements", "20000"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error at level 8: ")
    assert f"ScalarField({field!r}) is not finite" in err and "(-0.5, 0.5)" in err


def test_good_mesh_file_runs(tmp_path, capsys):
    # the base of every bad mesh file in test_bad_usage_exits_2
    path = tmp_path / "good.mesh"
    path.write_text(GOOD_MESH)
    assert run_ok(["--mesh", str(path)] + SMALL, capsys).startswith("fitted_s=")


def test_single_run_summary_and_csv(tmp_path, capsys):
    out_path = tmp_path / "run.csv"
    out = run_ok(SMALL + ["--out", str(out_path)], capsys)
    assert out.startswith("fitted_s=")
    assert "levels=" in out and "final_sigma=" in out
    lines = out_path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    rows = [ln.split(",") for ln in lines[1:]]
    assert len(rows) == int(out.split("levels=")[1].split()[0])
    assert [r[0] for r in rows] == [str(k) for k in range(len(rows))]
    assert all(len(r) == len(CSV_HEADER.split(",")) for r in rows)


def test_data_only_problem_runs_from_the_command_line(capsys):
    argv = ["--problem", "data-only", "--field", "radial-alpha:0.6", "--max-elements", "3000"]
    out = run_ok(argv, capsys)
    assert math.isfinite(float(out.split("fitted_s=")[1].split()[0]))
    assert int(out.split("levels=")[1].split()[0]) > 4


def test_summary_of_fewer_than_four_records_has_no_fitted_rate(capsys):
    # the initial mesh already meets the tolerance
    out = run_ok(["--sigma-tol", "10"], capsys)
    assert out.startswith("fitted_s=nan levels=1 ")


def test_runs_are_deterministic_apart_from_timings(tmp_path, capsys):
    argv = SMALL + ["--field", "radial-alpha:0.6", "--domain", "l-shape"]
    a = run_ok(argv + ["--out", str(tmp_path / "a.csv")], capsys)
    b = run_ok(argv + ["--out", str(tmp_path / "b.csv")], capsys)
    assert a == b
    rows_a = (tmp_path / "a.csv").read_text().splitlines()
    rows_b = (tmp_path / "b.csv").read_text().splitlines()
    assert len(rows_a) == len(rows_b)
    for ra, rb in zip(rows_a, rows_b):
        assert ra.split(",")[:8] == rb.split(",")[:8]


def test_report_file_contents(tmp_path, capsys):
    rep = tmp_path / "axioms.txt"
    run_ok(SMALL + ["--problem", "ls", "--report", str(rep)], capsys)
    text = rep.read_text()
    assert "A12: " in text
    assert "Rlinear: " in text
    assert "A4: " in text
    assert "B2: " in text
    assert "A12.pass=" in text
    kv = dict(
        ln.split("=", 1) for ln in text.splitlines() if "=" in ln and ":" not in ln
    )
    assert float(kv["A12.rho"]) < 1.0
    assert kv["B2.pass"] == "1"


def test_mixed_run_has_no_telescope_section(tmp_path, capsys):
    rep = tmp_path / "axioms.txt"
    run_ok(SMALL + ["--report", str(rep)], capsys)
    text = rep.read_text()
    assert "A12: " in text
    assert "A4: " not in text


def test_dump_solution_formats(tmp_path, capsys):
    mixed = tmp_path / "mixed.txt"
    run_ok(SMALL + ["--dump-solution", str(mixed)], capsys)
    lines = mixed.read_text().splitlines()
    assert lines[0] == "solution mixed"
    n_vertices = int(lines[1].split()[1])
    for ln in lines[2 : 2 + n_vertices]:
        x, y = ln.split()
        assert math.isfinite(float(x)) and math.isfinite(float(y))
        assert "(" not in ln
    edge_hdr = lines[2 + n_vertices].split()
    assert edge_hdr[0] == "edges"
    n_edges = int(edge_hdr[1])
    for ln in lines[3 + n_vertices : 3 + n_vertices + n_edges]:
        a, b, flux = ln.split()
        assert 0 <= int(a) < n_vertices and 0 <= int(b) < n_vertices
        assert math.isfinite(float(flux))
    elem_hdr = lines[3 + n_vertices + n_edges].split()
    assert elem_hdr[0] == "elements"
    assert len(lines) == 4 + n_vertices + n_edges + int(elem_hdr[1])
    for ln in lines[4 + n_vertices + n_edges :]:
        assert math.isfinite(float(ln))

    ls = tmp_path / "ls.txt"
    run_ok(SMALL + ["--problem", "ls", "--dump-solution", str(ls)], capsys)
    ls_lines = ls.read_text().splitlines()
    assert ls_lines[0] == "solution ls"
    assert any(ln.startswith("nodes ") for ln in ls_lines)


def test_approx_only_summary_and_mesh_out(tmp_path, capsys):
    mesh_path = tmp_path / "approx.mesh"
    out = run_ok(
        [
            "--mode", "approx-only",
            "--field", "radial-alpha:0.6",
            "--approx-tol", "1e-3",
            "--out", str(mesh_path),
        ],
        capsys,
    )
    assert out.startswith("n_elements=")
    assert "mu2=" in out and "tol=0.001" in out
    T = read_mesh(str(mesh_path))
    assert T.n_elements == int(out.split("n_elements=")[1].split()[0])
    assert float(out.split("mu2=")[1].split()[0]) <= 1e-3


def test_approx_only_report_has_rate_line(tmp_path, capsys):
    rep = tmp_path / "b1.txt"
    run_ok(
        ["--mode", "approx-only", "--field", "linear-x",
         "--approx-tol", "1e-4", "--report", str(rep)],
        capsys,
    )
    text = rep.read_text()
    assert text.startswith("B1: ")
    assert "B1.beta=" in text


def test_initial_mesh_from_file(tmp_path, capsys):
    T1 = unit_square_criss().refine([0])
    T = T1.refine(T1.leaf_ids[:2])
    path = tmp_path / "start.mesh"
    write_mesh(T, str(path))
    out = run_ok(
        ["--mode", "approx-only", "--mesh", str(path), "--approx-tol", "1e6"],
        capsys,
    )
    assert out.startswith(f"n_elements={T.n_elements} ")


def test_config_file_defaults_and_explicit_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# comment line\n"
        "mode=approx-only\n"
        "field = radial-alpha:0.6\n"
        "approx-tol = 0.01\n"
    )
    out = run_ok(["--config", str(cfg)], capsys)
    assert "tol=0.01" in out
    out = run_ok(["--config", str(cfg), "--approx-tol", "0.04"], capsys)
    assert "tol=0.04" in out


@pytest.mark.parametrize(
    "body",
    ["mystery-key=3\n", "theta-a\n", "theta-a=abc\n",
     # only full flag names; choices as on the command line; no nesting
     "thet=0.3\n", "theta_a=0.3\n", "mode=fast\n", "sweep=kappa=1,2\n", "config=other.cfg\n",
     # one fixed quadrature rule: no such flag
     "quad-degree=5\n"],
)
def test_config_file_errors_exit_2(tmp_path, body):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(body)
    with pytest.raises(SystemExit) as err:
        main(["--config", str(cfg)])
    assert err.value.code == 2


def test_missing_config_file_exits_2(tmp_path):
    with pytest.raises(SystemExit) as err:
        main(["--config", str(tmp_path / "absent.cfg")])
    assert err.value.code == 2


def test_sweep_runs_product_and_suffixes_outputs(tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    stdout = run_ok(
        SMALL
        + ["--sweep", "theta-a=0.3,0.5", "--sweep", "kappa=1.0",
           "--out", str(out_path)],
        capsys,
    )
    lines = stdout.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("[theta-a0.3-kappa1.0] fitted_s=")
    assert lines[1].startswith("[theta-a0.5-kappa1.0] fitted_s=")
    for label in ("theta-a0.3-kappa1.0", "theta-a0.5-kappa1.0"):
        assert (tmp_path / f"sweep-{label}.csv").read_text().startswith(CSV_HEADER)
    assert not out_path.exists()


def test_sweep_labels_carry_the_parsed_value(capsys):
    stdout = run_ok(SMALL + ["--sweep", "kappa=1,2"], capsys)
    assert [ln.split()[0] for ln in stdout.splitlines()] == ["[kappa1.0]", "[kappa2.0]"]


def test_sweep_field_values_and_label_sanitizing(tmp_path, capsys):
    stdout = run_ok(
        SMALL + ["--sweep", "field=one,radial-alpha:0.6"],
        capsys,
    )
    lines = stdout.splitlines()
    assert lines[0].startswith("[fieldone] ")
    assert lines[1].startswith("[fieldradial-alpha_0.6] ")


@pytest.mark.parametrize(
    "spec",
    ["bogus=1,2", "theta-a=", "theta-a=a,b", "theta-a", "kap=1,2", "mode=fast,safem",
     "out=a.csv,b.csv", "report=r1.txt,r2.txt", "dump-solution=d1,d2", "quad-degree=4,5",
     # values that parse to one setting would repeat a run and its files
     "kappa=0.5,.5", "kappa=0.5,.5,5e-1", "field=one,one"],
)
def test_sweep_bad_specs_exit_2(spec, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as err:
        main(SMALL + ["--sweep", spec])
    assert err.value.code == 2
    assert not any(tmp_path.iterdir())


def test_sweep_of_a_flag_swept_twice_exits_2(tmp_path, capsys):
    out = tmp_path / "g.csv"
    with pytest.raises(SystemExit) as err:
        main(SMALL + ["--sweep", "theta-a=0.2,0.3", "--sweep", "theta-a=0.5", "--out", str(out)])
    assert err.value.code == 2
    assert "--theta-a is swept more than once" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_sweep_failure_names_the_failed_run(monkeypatch, capsys):
    real = safem_run

    def fail_two_kappas(problem, T0, params):
        if params.kappa == 0.1:
            err = SolverError("factorization failed")
            err.level = 4
            raise err
        if params.kappa == 0.5:
            raise ValueError("field is not finite")
        return real(problem, T0, params)

    monkeypatch.setattr("sepfem.cli.safem_run", fail_two_kappas)
    assert main(SMALL + ["--sweep", "kappa=10,0.5"]) == 1
    assert capsys.readouterr().err == "[kappa0.5] error: field is not finite\n"
    assert main(SMALL + ["--sweep", "kappa=10,0.1"]) == 3
    assert capsys.readouterr().err.startswith("[kappa0.1] solver failure at level 4: ")


def test_sweep_validates_each_combination():
    with pytest.raises(SystemExit) as err:
        main(SMALL + ["--sweep", "theta-a=0.3,2.0"])
    assert err.value.code == 2


def test_solver_failure_exits_3(monkeypatch, capsys):
    def boom(problem, T0, params):
        err = SolverError("factorization failed")
        err.level = 4
        raise err

    monkeypatch.setattr("sepfem.cli.safem_run", boom)
    code = main(SMALL)
    captured = capsys.readouterr()
    assert code == 3
    assert "solver failure at level 4" in captured.err


def test_singular_factor_exits_3_with_the_level(monkeypatch, capsys):
    # from the second level on the P1 matrix is all zeros, so SuperLU
    # meets a zero pivot
    real = sepfem.mixed_fem.assemble_spd
    calls = []

    def singular_from_level_1(*args):
        calls.append(None)
        S, perm = real(*args)
        return (S * 0.0 if len(calls) > 1 else S), perm

    monkeypatch.setattr(sepfem.mixed_fem, "assemble_spd", singular_from_level_1)
    code = main(SMALL)
    captured = capsys.readouterr()
    assert code == 3
    assert "solver failure at level 1: " in captured.err
    assert "exactly singular" in captured.err


def test_internal_error_exits_1(monkeypatch, capsys):
    def boom(problem, T0, params):
        raise RuntimeError("disk on fire")

    monkeypatch.setattr("sepfem.cli.safem_run", boom)
    code = main(SMALL)
    captured = capsys.readouterr()
    assert code == 1
    assert "error: disk on fire" in captured.err

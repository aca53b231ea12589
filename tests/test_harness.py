"""Harness and CLI tests: descriptor parsing, config files, artifacts, exit codes.

Solver settings here are deliberately tiny (m around 16, a few dozen
iterations); these tests exercise plumbing, not convergence.
"""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import levelgeo
from levelgeo import harness
from levelgeo.cli import build_parser, main, parse_args
from levelgeo.curve import curve_from_json, init_straight_line
from levelgeo.diagnostics import TraceRow, read_records
from levelgeo.harness import (
    ConfigError,
    ExperimentSpec,
    parse_point,
    parse_surface,
    sample_endpoint_pairs,
)
from levelgeo.levelset import (
    Plane,
    PointCloud,
    SphereQuadratic,
    SphereSDF,
    Torus,
)
from levelgeo.planar import ErgodicRecord
from levelgeo.schemes import DivergenceError, SolverConfig, run


def _cli_process(tmp_path, *argv, timeout=None):
    """levelgeo argv in a fresh interpreter, run in tmp_path; TimeoutExpired
    after timeout seconds."""
    src = Path(levelgeo.__file__).resolve().parents[1]
    return subprocess.run([sys.executable, "-m", "levelgeo.cli", *argv],
                          cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=timeout)


def write_cloud(path, n=200, seed=0):
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(n, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    with open(path, "w") as fh:
        fh.write("# unit sphere samples\n")
        for x, y, z in pts:
            fh.write(f"{float(x)!r} {float(y)!r} {float(z)!r}\n")
    return pts


def fmt_point(p):
    return ",".join(repr(float(v)) for v in p)


# ---------------------------------------------------------------------------
# parse_surface / parse_point
# ---------------------------------------------------------------------------


def test_parse_surface_kinds():
    s = parse_surface("sphere-sdf")
    assert isinstance(s, SphereSDF) and s.radius == 1.0
    s = parse_surface("sphere-sdf:2.5")
    assert s.radius == 2.5
    s = parse_surface("sphere-quadratic:2")
    assert isinstance(s, SphereQuadratic) and s.radius == 2.0
    t = parse_surface("torus")
    assert isinstance(t, Torus)
    assert t.major_radius == 2.0 and t.minor_radius == 1.0
    t = parse_surface("torus:3,0.5")
    assert t.major_radius == 3.0 and t.minor_radius == 0.5
    pl = parse_surface("plane")
    assert isinstance(pl, Plane)
    assert np.array_equal(pl.normal, [0.0, 0.0, 1.0])
    pl = parse_surface("plane:1,2,3")
    assert np.array_equal(pl.normal, [1.0, 2.0, 3.0])


def test_parse_surface_normalizes_kind():
    s = parse_surface("  Sphere-SDF : 2.0 ")
    assert isinstance(s, SphereSDF) and s.radius == 2.0


def test_parse_surface_point_cloud(tmp_path):
    path = tmp_path / "cloud.txt"
    write_cloud(path, n=50)
    surface = parse_surface("point-cloud", points_path=str(path))
    assert isinstance(surface, PointCloud)
    assert len(surface.points) == 50


def test_parse_surface_errors(tmp_path):
    with pytest.raises(ConfigError, match="unknown surface kind"):
        parse_surface("ellipsoid")
    with pytest.raises(ConfigError, match="bad surface descriptor"):
        parse_surface("sphere-sdf:abc")
    with pytest.raises(ConfigError, match="bad surface descriptor"):
        parse_surface("torus:3")
    with pytest.raises(ConfigError, match="requires --points"):
        parse_surface("point-cloud")
    with pytest.raises(ConfigError, match="no inline parameters"):
        parse_surface("point-cloud:5", points_path=str(tmp_path / "x"))


@pytest.mark.parametrize("radii", ["2", "3,1,1"])
def test_a_torus_takes_two_radii(radii, tmp_path, capsys):
    descriptor = f"torus:{radii}"
    rc = main(["run", "--surface", descriptor, "--out", str(tmp_path / "out")])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err == (f"error: bad surface descriptor {descriptor!r}: "
                            "expected torus:R,r\n")
    assert captured.out == ""


def test_parse_point():
    surface = SphereSDF(2.0)
    assert np.array_equal(parse_point("antipodal-z", surface, role="p"),
                          [0.0, 0.0, 2.0])
    assert np.array_equal(parse_point("antipodal-z", surface, role="q"),
                          [0.0, 0.0, -2.0])
    assert np.array_equal(parse_point(" 1 , -2.5 , 3e-1 "), [1.0, -2.5, 0.3])


def test_parse_point_errors():
    with pytest.raises(ConfigError, match="must be x,y,z"):
        parse_point("1,2")
    with pytest.raises(ConfigError, match="three reals"):
        parse_point("1,2,z")
    with pytest.raises(ConfigError, match="needs a sphere"):
        parse_point("antipodal-z", Plane())


# ---------------------------------------------------------------------------
# config files
# ---------------------------------------------------------------------------


def test_parse_config_file(tmp_path):
    path = tmp_path / "conf"
    path.write_text(
        "# a comment line\n"
        "\n"
        "tau-lambda = 0.9   # trailing comment\n"
        "scheme=var1\n"
        "  iters =  12\n"
    )
    args = parse_args(["run", "--config", str(path)])
    assert (args.tau_lambda, args.scheme, args.iters) == (0.9, "var1", 12)


def test_parse_config_file_errors(tmp_path):
    path = tmp_path / "conf"
    path.write_text("tau-lambda 0.9\n")
    with pytest.raises(ConfigError, match="line 1"):
        parse_args(["run", "--config", str(path)])

    path.write_text("tau-lambda =\n")
    with pytest.raises(ConfigError, match="line 1: empty key or value"):
        parse_args(["run", "--config", str(path)])

    path.write_text("m = 10\ntau-r = 1\nm = 20\n")
    with pytest.raises(ConfigError,
                       match="line 3: duplicate key 'm'.*line 1"):
        parse_args(["run", "--config", str(path)])


def test_a_config_file_reports_its_first_faulty_line(tmp_path):
    # one pass over the file: an unknown key above a malformed line is the
    # fault reported, and a malformed line above an unknown key is
    path = tmp_path / "conf"
    path.write_text("pairs = 3\ntau-lambda 0.9\n")
    with pytest.raises(ConfigError, match="line 1: unknown key 'pairs' for command run"):
        parse_args(["run", "--config", str(path)])
    path.write_text("tau-lambda 0.9\npairs = 3\n")
    with pytest.raises(ConfigError, match="line 1: expected 'key = value'"):
        parse_args(["run", "--config", str(path)])


# ---------------------------------------------------------------------------
# ExperimentSpec.build
# ---------------------------------------------------------------------------


def test_spec_build_defaults():
    spec = ExperimentSpec(p="0,0,1", q="antipodal-z", m=16)
    surface, reference, (curve, mult) = spec.build()
    assert isinstance(surface, SphereSDF)
    assert np.array_equal(curve.p, [0.0, 0.0, 1.0])
    assert np.array_equal(curve.q, [0.0, 0.0, -1.0])
    assert reference is None
    assert curve.m == 16 and mult.m == 16
    assert np.all(mult.values == 0.0)


def test_spec_build_validation():
    # a spec checks itself once, at construction, not per pair in build
    with pytest.raises(ConfigError, match="m must be at least 2"):
        ExperimentSpec(m=1)
    with pytest.raises(ConfigError, match="init must be"):
        ExperimentSpec(init="zigzag")
    with pytest.raises(ConfigError, match="tau_r must be nonnegative and finite, got nan"):
        ExperimentSpec(tau_r=float("nan"))


#: the least sphere radius whose square is a normal float
_LEAST_RADIUS = math.sqrt(np.finfo(float).tiny)
while _LEAST_RADIUS * _LEAST_RADIUS < np.finfo(float).tiny:
    _LEAST_RADIUS = math.nextafter(_LEAST_RADIUS, math.inf)
_UNIT_BOX = st.floats(-1.0, 1.0)


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from([SphereSDF, SphereQuadratic]),
       log_radius=st.one_of(st.just(math.log10(_LEAST_RADIUS)),
                            st.floats(math.log10(_LEAST_RADIUS), 154.0)),
       directions=st.tuples(*[st.tuples(_UNIT_BOX, _UNIT_BOX, _UNIT_BOX)] * 2),
       offsets=st.tuples(_UNIT_BOX, _UNIT_BOX))
def test_central_angle_scales_any_accepted_endpoints_to_a_finite_dot_product(
        kind, log_radius, directions, offsets):
    # endpoints anywhere the endpoint check accepts, |phi| <= 1e-3 R, on a
    # sphere of any accepted radius: the worst case, far off sphere-quadratic
    # at the least radius, is about 1.4e151
    radius = max(_LEAST_RADIUS, 10.0 ** log_radius)
    surface = kind(radius)
    tol = harness.ENDPOINT_SPEC_TOL * surface.scale()
    points = []
    for direction, offset in zip(directions, offsets):
        u = np.array(direction)
        assume(np.linalg.norm(u) > 1e-3)
        u /= np.linalg.norm(u)
        if kind is SphereSDF:  # phi = R - |x| = offset tol
            points.append((radius - offset * tol) * u)
        else:  # phi = (|x|^2 - R^2) / 2 = offset tol
            points.append(math.sqrt(max(0.0, radius**2 + 2.0 * offset * tol)) * u)
    spec = ExperimentSpec(m=2, reference="sphere-exact")
    try:
        reference, _ = spec._problem(surface, *points, 0)
    except ConfigError:  # rounded just past the tolerance
        assume(False)
    p, q = points
    assert math.isfinite(float(np.dot(p / radius, q / radius)))
    assert 0.0 <= reference <= math.pi * radius


def test_spec_rejects_a_fractional_m():
    with pytest.raises(ValueError, match="must be an integer"):
        ExperimentSpec(m=10.5).build()


def test_run_rejects_a_non_finite_tau_r_even_with_the_straight_init(tmp_path, capsys):
    # summary.json records tau_r even where the straight init does not use it
    out = tmp_path / "out"
    assert main(["run", "--tau-r", "inf", "--out", str(out)]) == 1
    assert "tau_r must be nonnegative and finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["run", "--iters", "5"],
    ["run", "--iters", "5", "--init", "randomized"],
    ["sweep", "--iters", "5", "--parameter", "omega", "--values", "0.5"],
    ["compare", "--iters", "5", "--init", "randomized"],
    ["benchmark", "--pairs", "2", "--checkpoints", "5"],
    ["check-surface", "--samples", "100"],
], ids=" ".join)
def test_a_negative_seed_is_rejected_up_front(argv, tmp_path, capsys):
    # numpy's generators reject it, but only deep inside a command, and a
    # straight-line run would record it
    if argv[0] != "check-surface":
        argv = argv + ["--m", "8", "--out", str(tmp_path / "out")]
    assert main(argv + ["--seed=-1"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: --seed must be nonnegative, got -1\n"
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


def test_spec_default_endpoints_are_antipodal_on_any_sphere():
    _, _, init = ExperimentSpec(surface="sphere-sdf:2").build()
    assert np.array_equal(init[0].p, [0.0, 0.0, 2.0])
    assert np.array_equal(init[0].q, [0.0, 0.0, -2.0])


def test_spec_build_rejects_off_surface_endpoint():
    spec = ExperimentSpec(p="0,0,1.1", q="antipodal-z", m=8)
    with pytest.raises(ConfigError, match=r"endpoint p is off the surface"):
        spec.build()
    # 1e-4 is inside the acceptance tolerance of 1e-3.
    ExperimentSpec(p="0,0,1.0001", q="antipodal-z", m=8).build()


def test_spec_build_point_cloud_skips_endpoint_check(tmp_path):
    path = tmp_path / "cloud.txt"
    write_cloud(path)
    spec = ExperimentSpec(surface="point-cloud", points_path=str(path),
                          p="0,0,2", q="1,0,0", m=8)
    surface, _, _ = spec.build()
    assert isinstance(surface, PointCloud)


def test_spec_reference_resolution():
    base = dict(p="0,0,1", q="antipodal-z", m=8)
    _, ref, _ = ExperimentSpec(reference="sphere-exact", **base).build()
    assert abs(ref - math.pi) < 1e-12
    _, ref, _ = ExperimentSpec(reference="3.3", **base).build()
    assert ref == 3.3
    _, ref, _ = ExperimentSpec(reference="none", **base).build()
    assert ref is None
    with pytest.raises(ConfigError, match="must be positive"):
        ExperimentSpec(reference="-1", **base).build()
    with pytest.raises(ConfigError, match="reference must be"):
        ExperimentSpec(reference="shortest", **base).build()
    with pytest.raises(ConfigError, match="needs a sphere"):
        ExperimentSpec(surface="plane", p="1,0,0", q="0,1,0", m=8,
                       reference="sphere-exact").build()


# ---------------------------------------------------------------------------
# run command
# ---------------------------------------------------------------------------

RUN_ARGS = ["run", "--surface", "sphere-sdf", "--p", "1,0,0", "--q", "0,1,0",
            "--m", "16", "--record-every", "10"]


def test_run_writes_artifacts(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(RUN_ARGS + ["--iters", "30", "--reference", "sphere-exact",
                          "--out", str(out)])
    assert rc == 0
    for name in ("curve_init.json", "curve_final.json", "trace.csv",
                 "summary.json", "run.log"):
        assert (out / name).exists(), name

    summary = json.loads((out / "summary.json").read_text())
    assert summary["scheme"] == "base-pdhg"
    assert summary["m"] == 16
    assert summary["iterations"] == 30
    assert summary["diverged"] is False
    assert summary["absolute_error"] is not None
    assert summary["config"]["tau_lambda"] == 0.7
    assert summary["config"]["epsilon"] == 0.01
    assert summary["config"]["max_iters"] == 30

    trace = read_records(out / "trace.csv", TraceRow)
    assert [r.iteration for r in trace] == [0, 10, 20, 30]

    final = curve_from_json((out / "curve_final.json").read_text())
    assert np.array_equal(final.points[0], [1.0, 0.0, 0.0])
    assert np.array_equal(final.points[-1], [0.0, 1.0, 0.0])

    stdout = capsys.readouterr().out
    assert "done: 30 iterations" in stdout


def test_run_reruns_are_byte_identical(tmp_path):
    args = RUN_ARGS + ["--iters", "25", "--init", "randomized",
                       "--tau-r", "2.0", "--seed", "5"]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    for name in ("trace.csv", "summary.json", "curve_init.json",
                 "curve_final.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


def test_run_divergence_exits_2_with_artifacts(tmp_path):
    out = tmp_path / "out"
    rc = main(RUN_ARGS + ["--iters", "50", "--tau-gamma", "0.5",
                          "--out", str(out)])
    assert rc == 2
    summary = json.loads((out / "summary.json").read_text())
    assert summary["diverged"] is True
    assert summary["iterations"] >= 1
    assert (out / "trace.csv").exists()


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_summary_json_writes_null_for_an_infinite_number(tmp_path):
    # a huge multiplier step: the gamma residual and J overflow to inf in the
    # trace; GDA's lambda residual is |phi|, at eps = 0, and stays finite
    out = tmp_path / "out"
    rc = main(["run", "--scheme", "gda", "--tau-lambda", "1e200", "--tau-gamma", "1e-300",
               "--iters", "3", "--record-every", "1", "--init", "randomized",
               "--seed", "1", "--out", str(out)])
    assert rc == 0
    assert math.isinf(read_records(out / "trace.csv", TraceRow)[-1].gamma_residual)
    summary = json.loads((out / "summary.json").read_text(),
                         parse_constant=_reject_constant)
    assert [summary[k] for k in ("gamma_residual", "lyapunov_J")] == [None, None]
    assert isinstance(summary["lambda_residual"], float)
    assert math.isfinite(summary["lambda_residual"])


def test_summary_json_records_numpy_integers_as_plain_ones(tmp_path):
    # SolverConfig and ExperimentSpec accept numpy integers and store ints,
    # which json can write
    summaries = []
    for name, whole in (("numpy", np.int64), ("plain", int)):
        solver = SolverConfig(max_iters=whole(5), record_every=whole(2))
        spec = ExperimentSpec(p="1,0,0", q="0,1,0", m=16, seed=whole(3),
                              init="randomized", solver=solver,
                              out_dir=str(tmp_path / name))
        assert harness.cmd_run(spec) == 0
        summaries.append((tmp_path / name / "summary.json").read_bytes())
    assert summaries[0] == summaries[1]
    assert json.loads(summaries[0])["config"]["max_iters"] == 5


def test_summary_json_records_numpy_floats_as_plain_ones(tmp_path):
    # SolverConfig and ExperimentSpec store every float field as a Python
    # float, which json can write, and a float32 caller runs as a float64
    # one; a numpy reference distance is a number, not sphere-exact
    summaries = []
    for name, real in (("numpy", np.float32), ("plain", lambda v: float(np.float32(v)))):
        solver = SolverConfig(scheme="var2", tau_gamma=real(1e-5), tau_lambda=real(0.7),
                              epsilon=real(1e-2), omega=real(0.5), alpha=real(3.0),
                              max_iters=5, record_every=2)
        spec = ExperimentSpec(p="1,0,0", q="0,1,0", m=16, init="randomized",
                              tau_r=real(4.0), reference=real(3.0), solver=solver,
                              out_dir=str(tmp_path / name))
        assert harness.cmd_run(spec) == 0
        summaries.append([(tmp_path / name / f).read_bytes()
                          for f in ("summary.json", "trace.csv")])
    assert summaries[0] == summaries[1]
    assert json.loads(summaries[0][0])["config"]["tau_r"] == 4.0


def test_a_fractional_seed_is_rejected():
    with pytest.raises(ConfigError, match="--seed must be an integer, got 2.5"):
        ExperimentSpec(seed=2.5)


def test_run_singularity_exits_3_with_artifacts(tmp_path, capsys):
    # the default straight chord between the poles puts node m/2 on the
    # origin, where the gradient of R - |x| is undefined: the first step
    # cannot be taken, and the trace ends at the init
    out = tmp_path / "out"
    rc = main(["run", "--m", "16", "--iters", "20", "--record-every", "5",
               "--out", str(out)])
    assert rc == 3
    stdout = capsys.readouterr().out
    assert stdout.startswith("singularity: 0 iterations in ")
    assert ("singularity at iteration 1: gradient of R - |x| undefined at the "
            "origin\n") in stdout
    (row,) = read_records(out / "trace.csv", TraceRow)
    assert row.iteration == 0
    assert row.length == 2.0
    assert math.isnan(row.gamma_residual)
    assert math.isnan(row.lyapunov_J)
    summary = json.loads((out / "summary.json").read_text())
    assert summary["iterations"] == 0 and summary["diverged"] is True
    assert summary["gamma_residual"] is None and summary["lyapunov_J"] is None
    final = curve_from_json((out / "curve_final.json").read_text())
    assert np.array_equal(final.points,
                          curve_from_json((out / "curve_init.json").read_text()).points)
    assert "stop=singularity" in (out / "run.log").read_text()


def test_run_off_surface_endpoint_exits_1(tmp_path, capsys):
    rc = main(["run", "--p", "0,0,2", "--q", "antipodal-z", "--m", "8",
               "--iters", "5", "--out", str(tmp_path / "out")])
    assert rc == 1
    captured = capsys.readouterr()
    assert "off the surface" in captured.err
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


def test_run_rejects_zero_epsilon_off_gda(tmp_path, capsys):
    rc = main(RUN_ARGS + ["--iters", "5", "--epsilon", "0",
                          "--out", str(tmp_path / "out")])
    assert rc == 1
    captured = capsys.readouterr()
    assert "requires epsilon > 0" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv", [
    ["run", "--p", "nan,0,0"],
    ["run", "--surface", "sphere-sdf:nan"],
    ["run", "--surface", "sphere-sdf:inf"],
    ["run", "--surface", "sphere-quadratic:inf"],
    ["run", "--surface", "torus:2,nan", "--p", "3,0,0", "--q=-3,0,0"],
    ["run", "--surface", "plane:0,0,inf", "--p", "1,0,0", "--q", "0,1,0"],
    ["run", "--surface", "point-cloud", "--points", "{cloud}",
     "--p", "1,0,0", "--q", "0,1,0"],
    ["run", "--p", "1,0,0", "--q", "0,1,0", "--reference", "inf"],
    # p = q: the sphere-exact reference is 0, not a positive distance
    ["run", "--p", "0,0,1", "--q", "0,0,1", "--reference", "sphere-exact"],
    ["run", "--p", "1,0,0", "--q", "0,1,0", "--init", "randomized",
     "--tau-r", "nan"],
    ["planar", "--p", "0,nan,0"],
    ["planar", "--epsilon", "nan"],
    ["planar", "--tau-gamma", "inf"],
], ids=lambda argv: " ".join(argv))
def test_non_finite_input_exits_1_and_writes_nothing(tmp_path, capsys, argv):
    cloud = tmp_path / "cloud.txt"
    write_cloud(cloud, n=20)
    with open(cloud, "a") as fh:
        fh.write("nan 0 0\n")
    out = tmp_path / "out"
    rc = main([a.format(cloud=cloud) for a in argv]
              + ["--m", "8", "--iters", "5", "--out", str(out)])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "finite" in captured.err
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "planar"])
def test_an_m_too_large_to_allocate_exits_1_with_one_error_line(tmp_path, capsys, command):
    # the grid of m + 1 nodes alone asks for 745 GiB, which numpy is refused up
    # front; the address-space cap makes that so whatever the host's overcommit
    # policy (a smaller m could be granted lazily and then touched: never try one)
    resource = pytest.importorskip("resource")
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = 64 << 30 if soft == resource.RLIM_INFINITY else min(soft, 64 << 30)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    try:
        rc = main([command, "--m", "100000000000", "--iters", "1",
                   "--out", str(tmp_path / "out")])
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: Unable to allocate 745. GiB")
    assert captured.err.count("\n") == 1
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


def test_cli_process_reports_a_bad_config_on_stderr(tmp_path):
    proc = _cli_process(tmp_path, "run", "--surface", "moebius",
                        "--out", str(tmp_path / "out"))
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == ("error: unknown surface kind 'moebius'; expected "
                           "sphere-sdf, sphere-quadratic, torus, plane, or "
                           "point-cloud\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text", ["", "# a header\n\n   # and nothing else\n"],
                         ids=["empty", "comments-only"])
def test_cli_process_reports_an_empty_cloud_on_stderr_alone(tmp_path, text):
    # numpy.loadtxt warns on a file without data; the one stderr line is the error
    (tmp_path / "cloud.xyz").write_text(text)
    proc = _cli_process(tmp_path, "run", "--surface", "point-cloud",
                        "--points", "cloud.xyz", "--out", str(tmp_path / "out"))
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == ("error: bad surface descriptor 'point-cloud': point cloud "
                           "needs at least 4 distinct points, got 0\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["run"],
    ["sweep", "--parameter", "epsilon", "--values", "0.01,0.02,0.03"],
], ids=["run", "sweep"])
def test_cli_process_prints_a_library_warning_once_on_stdout(tmp_path, argv):
    # every member of a sweep starts off the surface; the warning shows once
    cloud = Path(__file__).resolve().parent / "golden" / "run-cloud.xyz"
    proc = _cli_process(tmp_path, *argv, "--surface", "point-cloud",
                        "--points", str(cloud), "--p", "1.1,0,0", "--q", "0,1,0",
                        "--m", "16", "--iters", "3")
    assert proc.returncode == 0
    assert proc.stderr == ""
    lines = proc.stdout.splitlines()
    assert [line for line in lines if line.startswith("warning: ")] == \
        ["warning: init endpoints are off-surface: max |phi| = 0.1"]
    assert lines[0].startswith("warning: ")


def test_run_point_cloud_end_to_end(tmp_path):
    path = tmp_path / "cloud.txt"
    pts = write_cloud(path, n=300, seed=2)
    out = tmp_path / "out"
    rc = main(["run", "--surface", "point-cloud", "--points", str(path),
               "--p", fmt_point(pts[0]), "--q", fmt_point(pts[7]),
               "--m", "12", "--iters", "10", "--record-every", "5",
               "--out", str(out)])
    assert rc == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["surface"] == "point-cloud"
    assert summary["diverged"] is False


# ---------------------------------------------------------------------------
# CLI surface: version, usage errors, config files
# ---------------------------------------------------------------------------


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_no_command_prints_help(capsys):
    assert main([]) == 1
    assert "usage" in capsys.readouterr().out.lower()


def test_bad_flag_exits_1():
    with pytest.raises(SystemExit) as exc:
        main(["run", "--no-such-flag"])
    assert exc.value.code == 1


def test_bad_choice_exits_1():
    with pytest.raises(SystemExit) as exc:
        main(["run", "--scheme", "bogus"])
    assert exc.value.code == 1


@pytest.mark.parametrize("argv, flag, value", [
    (["run", "--q", "0,1,0"], "--p", "-1,0,0"),
    (["run", "--p", "0,0,1"], "--q", "-1,0,0"),
    (["sweep", "--p", "0,0,1", "--parameter", "omega"], "--values", "-0.5,0.5"),
    (["compare", "--q", "0,1,0", "--schemes", "var2"], "--p", "-1,0,0"),
    (["planar"], "--a", "-1,0,0"),
    (["planar", "--a", "0,0,1", "--q", "0,1,0"], "--p", "-1,0,0"),
    (["planar", "--a", "0,0,1"], "--q", "-1,1,0"),
], ids=["run-p", "run-q", "sweep-values", "compare-p", "planar-a", "planar-p", "planar-q"])
def test_negative_first_value_after_its_flag_reads_as_with_an_equals_sign(
        tmp_path, capsys, argv, flag, value):
    # argparse takes "-1,0,0" for an option unless the parser says otherwise
    seen = []
    for name, given in (("apart", [flag, value]), ("joined", [f"{flag}={value}"])):
        out = tmp_path / name
        rc = main([*argv, *given, "--m", "8", "--iters", "5", "--out", str(out)])
        captured = capsys.readouterr()
        files = {path.relative_to(out): path.read_bytes() for path in out.rglob("*")
                 if path.is_file() and path.name != "run.log"}  # run.log has a clock
        stdout = re.sub(r"in [0-9.]+s", "in Ts", captured.out.replace(str(out), "OUT"))
        seen.append((rc, stdout, captured.err, files))
    assert "expected one argument" not in seen[0][2]
    assert seen[0] == seen[1]


def test_config_file_precedence(tmp_path):
    conf = tmp_path / "run.conf"
    conf.write_text("iters = 7\ntau-lambda = 0.9\n")
    out = tmp_path / "out"
    rc = main(RUN_ARGS + ["--config", str(conf), "--iters", "3",
                          "--out", str(out)])
    assert rc == 0
    summary = json.loads((out / "summary.json").read_text())
    config = summary["config"]
    assert config["max_iters"] == 3        # explicit flag beats the file
    assert config["tau_lambda"] == 0.9     # file beats the default 0.7
    assert config["epsilon"] == 0.01       # untouched default


def test_config_file_unknown_key(tmp_path, capsys):
    conf = tmp_path / "run.conf"
    conf.write_text("tau-lambda = 0.9\npairs = 3\n")
    rc = main(["run", "--config", str(conf), "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "line 2" in err and "unknown key 'pairs'" in err


def test_config_file_bad_value(tmp_path, capsys):
    conf = tmp_path / "run.conf"
    conf.write_text("iters = soon\n")
    rc = main(["run", "--config", str(conf), "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "line 1" in err and "bad value 'soon'" in err


@pytest.mark.parametrize("argv,flag,value", [
    pytest.param(["sweep", "--parameter", "epsilon", "--values", "0.01",
                  "--iters", "5", "--m", "8"], "--jobs", "2", id="sweep-jobs"),
    pytest.param(["benchmark", "--pairs", "1", "--checkpoints", "5", "--m", "8"],
                 "--iters", "3", id="benchmark-iters"),
    pytest.param(["benchmark", "--pairs", "1", "--checkpoints", "5", "--m", "8"],
                 "--record-every", "7", id="benchmark-record-every"),
    pytest.param(["planar", "--m", "8", "--iters", "4"], "--seed", "1",
                 id="planar-seed"),
    pytest.param(["check-surface", "--samples", "100"], "--out", "x",
                 id="check-surface-out"),
])
def test_jobs_flag_and_key_are_unknown(tmp_path, capsys, argv, flag, value):
    # Removed flags: each exits 1 on the command line and as a config key.
    if argv[0] != "check-surface":
        argv = argv + ["--out", str(tmp_path / "out")]
    with pytest.raises(SystemExit) as exc:
        main(argv + [flag, value])
    assert exc.value.code == 1
    conf = tmp_path / "removed.conf"
    conf.write_text(f"{flag[2:]} = {value}\n")
    assert main(argv + ["--config", str(conf)]) == 1
    err = capsys.readouterr().err
    assert "line 1" in err
    assert f"unknown key {flag[2:].replace('-', '_')!r}" in err
    assert not (tmp_path / "out").exists()


def _config_settable_flags():
    for name, command in build_parser().commands.items():
        for dest, action in command.options.items():
            if dest not in ("help", "config"):
                yield pytest.param(name, action, id=f"{name}-{dest}")


def _two_texts(action):
    """Two different texts the flag accepts; the first is not its default."""
    if action.choices is not None:
        first = next(c for c in action.choices if c != action.default)
        return first, next(c for c in action.choices if c != first)
    return {int: ("7", "9"), float: ("0.375", "0.625")}.get(action.type,
                                                            ("x1", "x2"))


@pytest.mark.parametrize("command,action", _config_settable_flags())
def test_every_flag_can_be_set_from_a_config_file(tmp_path, command, action):
    # Parse level only: a file entry parses like the flag, and the flag wins.
    flag, dest = action.option_strings[-1], action.dest
    conf = tmp_path / "flag.conf"
    with_file = [command, "--config", str(conf)]
    file_text, flag_text = _two_texts(action)
    conf.write_text(f"{flag[2:]} = {file_text}\n")
    from_file = getattr(parse_args(with_file), dest)
    assert from_file == getattr(parse_args([command, flag, file_text]), dest)
    assert from_file != action.default
    explicit = getattr(parse_args([command, flag, flag_text]), dest)
    assert explicit != from_file
    assert getattr(parse_args(with_file + [flag, flag_text]), dest) == explicit


def test_help_lists_the_defaults(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--help"])
    assert exc.value.code == 0
    out = " ".join(capsys.readouterr().out.split())
    assert (f"--tau-gamma TAU_GAMMA curve step size "
            f"(default: {SolverConfig.tau_gamma})") in out


COMMANDS = ["run", "sweep", "benchmark", "compare", "planar", "check-surface"]


def test_a_named_command_alone_gets_its_flags():
    def flagged(command):
        return [name for name, parser in build_parser(command).commands.items()
                if set(parser.options) != {"help"}]

    assert flagged(None) == COMMANDS
    assert flagged("") == []
    for command in COMMANDS:
        assert flagged(command) == [command]


@pytest.mark.parametrize("command", COMMANDS)
def test_command_help_is_the_full_parsers(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == build_parser().commands[command].format_help()


@pytest.mark.parametrize("argv,unrecognized", [
    (["run", "--pairs", "3"], "--pairs 3"),
    (["planar", "--seed", "1"], "--seed 1"),
    (["--bogus", "run", "--m", "5"], "--bogus"),
    (["check-surface", "extra"], "extra"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else "")
def test_an_unrecognized_argument_lists_every_command(argv, unrecognized, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert " ".join(capsys.readouterr().err.split()) == (
        "usage: levelgeo [-h] [--version] "
        "{run,sweep,benchmark,compare,planar,check-surface} ... "
        f"levelgeo: error: unrecognized arguments: {unrecognized}")


def test_config_file_validates_choices(tmp_path, capsys):
    conf = tmp_path / "run.conf"
    conf.write_text("scheme = newton\n")
    rc = main(["run", "--config", str(conf), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "scheme must be one of" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# sweep command
# ---------------------------------------------------------------------------


def test_sweep_artifacts_and_divergence_isolation(tmp_path, capsys):
    out = tmp_path / "sweep"
    rc = main(["sweep", "--surface", "sphere-sdf", "--p", "1,0,0",
               "--q", "0,1,0", "--m", "16", "--iters", "25",
               "--record-every", "5", "--parameter", "tau-gamma",
               "--values", "1e-5,0.5", "--out", str(out)])
    assert rc == 0

    for sub in ("tau_gamma=1e-05", "tau_gamma=0.5"):
        assert (out / sub / "trace.csv").exists()
        assert (out / sub / "summary.json").exists()

    lines = (out / "sweep_summary.csv").read_text().splitlines()
    assert lines[0] == ("value,final_absolute_error,final_relative_error,"
                        "final_surface_error,diverged,unstable")
    assert len(lines) == 3
    stable_row = lines[1].split(",")
    diverged_row = lines[2].split(",")
    assert stable_row[0] == "1e-05" and stable_row[4] == "false"
    assert diverged_row[0] == "0.5"
    assert diverged_row[4] == "true" and diverged_row[5] == "true"

    stdout = capsys.readouterr().out
    assert "tau_gamma=0.5: diverged" in stdout

    bad = json.loads((out / "tau_gamma=0.5" / "summary.json").read_text())
    assert bad["diverged"] is True


def test_sweep_close_values_get_their_own_directories(tmp_path, capsys):
    # both values print as 0.0123457 under {:g}; repr keeps them apart
    out = tmp_path / "sweep"
    rc = main(["sweep", *RUN_ARGS[1:], "--iters", "10", "--parameter", "epsilon",
               "--values", "0.01234567,0.01234568", "--out", str(out)])
    assert rc == 0
    summaries = [(out / f"epsilon={v}" / "summary.json").read_text()
                 for v in ("0.01234567", "0.01234568")]
    assert summaries[0] != summaries[1]
    assert [json.loads(s)["config"]["epsilon"] for s in summaries] == \
        [0.01234567, 0.01234568]
    stdout = capsys.readouterr().out
    assert "epsilon=0.01234567: done" in stdout
    assert "epsilon=0.01234568: done" in stdout


def test_sweep_records_a_singularity_per_value(tmp_path, capsys):
    out = tmp_path / "sweep"
    rc = main(["sweep", "--m", "16", "--iters", "20", "--parameter", "tau-gamma",
               "--values", "1e-5,2e-5", "--out", str(out)])
    assert rc == 0
    stdout = capsys.readouterr().out
    lines = (out / "sweep_summary.csv").read_text().splitlines()
    assert lines[1:] == ["1e-05,,,,true,true", "2e-05,,,,true,true"]
    for label in ("tau_gamma=1e-05", "tau_gamma=2e-05"):
        assert (f"{label}: error: gradient of R - |x| undefined at the origin"
                in stdout)
        assert [r.iteration for r in read_records(out / label / "trace.csv", TraceRow)] == [0]


def test_sweep_bad_parameter(tmp_path, capsys):
    rc = main(["sweep", "--parameter", "banana", "--values", "1,2",
               "--iters", "5", "--m", "8", "--out", str(tmp_path / "out")])
    assert rc == 1
    captured = capsys.readouterr()
    assert "cannot sweep 'banana'" in captured.err
    assert captured.out == ""


def test_sweep_bad_values(tmp_path, capsys):
    rc = main(["sweep", "--parameter", "epsilon", "--values", "a,b",
               "--iters", "5", "--m", "8", "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "--values" in capsys.readouterr().err
    rc = main(["sweep", "--parameter", "epsilon", "--values", ",",
               "--iters", "5", "--m", "8", "--out", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err == "error: sweep needs at least one value\n"
    assert not (tmp_path / "out").exists()


def test_sweep_needs_parameter_and_values(tmp_path, capsys):
    rc = main(["sweep", "--values", "1,2", "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "sweep needs --parameter and --values" in capsys.readouterr().err
    conf = tmp_path / "sweep.conf"
    conf.write_text("parameter = epsilon\nvalues = 0.01\n")
    rc = main(["sweep", *RUN_ARGS[1:], "--config", str(conf), "--iters", "5",
               "--out", str(tmp_path / "out")])
    assert rc == 0
    assert (tmp_path / "out" / "epsilon=0.01" / "trace.csv").exists()


# ---------------------------------------------------------------------------
# benchmark command
# ---------------------------------------------------------------------------


def test_sample_endpoint_pairs_separation():
    pairs = sample_endpoint_pairs(SphereSDF(1.0), 25, seed=0)
    assert len(pairs) == 25
    for p, q in pairs:
        assert abs(np.linalg.norm(p) - 1.0) < 1e-12
        assert abs(np.linalg.norm(q) - 1.0) < 1e-12
        angle = math.acos(max(-1.0, min(1.0, float(np.dot(p, q)))))
        assert angle >= 0.1


def test_sample_endpoint_pairs_requires_sphere():
    with pytest.raises(ConfigError, match="sphere"):
        sample_endpoint_pairs(Torus(), 2, seed=0)


def test_benchmark_csv_deterministic(tmp_path):
    args = ["benchmark", "--pairs", "2", "--checkpoints", "10,5",
            "--m", "16", "--seed", "3"]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0

    lines = (out_a / "benchmark.csv").read_text().splitlines()
    assert lines[0] == ("checkpoint,n_pairs,avg_absolute_error,"
                        "avg_relative_error,avg_surface_error")
    assert len(lines) == 3
    # checkpoints are sorted regardless of flag order
    assert lines[1].startswith("5,2,")
    assert lines[2].startswith("10,2,")
    assert (out_a / "benchmark.csv").read_bytes() == \
        (out_b / "benchmark.csv").read_bytes()


def test_benchmark_rejects_a_fractional_checkpoint(tmp_path, capsys):
    out = tmp_path / "bench"
    rc = main(["benchmark", "--pairs", "2", "--checkpoints", "10.9,20",
               "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.splitlines() == [
        "error: checkpoints must be positive whole iteration counts"]
    assert captured.out == ""
    assert not out.exists()


def test_benchmark_isolates_diverged_pairs(tmp_path, capsys):
    out = tmp_path / "bench"
    rc = main(["benchmark", "--pairs", "2", "--checkpoints", "10,50",
               "--tau-gamma", "0.5", "--out", str(out)])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "Traceback" not in stdout
    assert [line.split(":")[0] for line in stdout.splitlines()
            if "diverged at iteration" in line] == ["pair 0", "pair 1"]
    assert (out / "benchmark.csv").read_text().splitlines() == [
        "checkpoint,n_pairs,avg_absolute_error,avg_relative_error,"
        "avg_surface_error",
        "10,0,,,",
        "50,0,,,",
    ]


def test_benchmark_counts_pairs_per_checkpoint_reached(tmp_path, capsys):
    # at this step size pair 1 diverges between the checkpoints, the others
    # after the last one
    out = tmp_path / "bench"
    rc = main(["benchmark", "--pairs", "3", "--checkpoints", "10,50",
               "--m", "16", "--tau-gamma", "0.0025", "--seed", "0",
               "--out", str(out)])
    assert rc == 0
    p, q = sample_endpoint_pairs(SphereSDF(1.0), 3, seed=0)[1]
    with pytest.raises(DivergenceError) as exc:
        run(SolverConfig(tau_gamma=0.0025, max_iters=50), SphereSDF(1.0),
            init_straight_line(p, q, 16))
    assert 10 < exc.value.iteration <= 50
    stdout = capsys.readouterr().out
    assert f"pair 1: diverged at iteration {exc.value.iteration}\n" in stdout
    assert "pair 0: diverged" not in stdout and "pair 2: diverged" not in stdout
    rows = (out / "benchmark.csv").read_text().splitlines()
    assert [row.split(",")[:2] for row in rows[1:]] == [["10", "3"], ["50", "2"]]


def test_benchmark_reports_a_singular_pair_like_a_diverged_one(
        tmp_path, capsys, monkeypatch):
    # an antipodal pair: the straight init puts node m/2 on the origin
    pairs = sample_endpoint_pairs(SphereSDF(1.0), 2, seed=0)
    pole = np.array([0.0, 0.0, 1.0])
    monkeypatch.setattr(harness, "sample_endpoint_pairs",
                        lambda surface, n, seed: [pairs[0], (pole, -pole), pairs[1]])
    out = tmp_path / "bench"
    rc = main(["benchmark", "--pairs", "3", "--checkpoints", "5,10", "--m", "16",
               "--out", str(out)])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "pair 1: singularity at iteration 1\n" in stdout
    rows = (out / "benchmark.csv").read_text().splitlines()
    assert [row.split(",")[:2] for row in rows[1:]] == [["5", "2"], ["10", "2"]]


def test_benchmark_requires_sphere(tmp_path, capsys):
    rc = main(["benchmark", "--surface", "torus", "--pairs", "2",
               "--checkpoints", "5", "--m", "8",
               "--out", str(tmp_path / "out")])
    assert rc == 1
    captured = capsys.readouterr()
    assert "sphere" in captured.err
    assert captured.out == ""


def test_benchmark_needs_a_pair(tmp_path, capsys):
    rc = main(["benchmark", "--pairs", "0", "--checkpoints", "5", "--m", "8",
               "--out", str(tmp_path / "out")])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err == "error: n_pairs must be at least 1\n"
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


def test_benchmark_non_finite_checkpoint_exits_1(tmp_path, capsys):
    rc = main(["benchmark", "--pairs", "2", "--checkpoints", "inf", "--m", "8",
               "--out", str(tmp_path / "out")])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err == ("error: --checkpoints must be comma separated "
                            "finite numbers, got 'inf'\n")
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


def test_benchmark_reads_whole_checkpoints_written_as_floats(tmp_path):
    out = tmp_path / "out"
    rc = main(["benchmark", "--pairs", "2", "--checkpoints", "2.0,1e1",
               "--m", "8", "--out", str(out)])
    assert rc == 0
    rows = (out / "benchmark.csv").read_text().splitlines()
    assert [row.split(",")[:2] for row in rows[1:]] == [["2", "2"], ["10", "2"]]


def test_benchmark_averages_past_the_largest_float_read_inf_without_a_warning(
        tmp_path, capsys):
    # the surface errors' sum overflows in np.mean: the average is inf, with
    # no numpy warning (the suite makes one an error)
    out = tmp_path / "out"
    rc = main(["benchmark", "--tau-gamma", "1e-320", "--tau-lambda", "1e308",
               "--epsilon", "0", "--m", "17", "--pairs", "17", "--checkpoints", "2,1,17",
               "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 0
    assert "warning:" not in captured.out
    assert captured.err == ""
    rows = (out / "benchmark.csv").read_text().splitlines()
    assert [row.split(",")[4] for row in rows[1:3]] == ["inf", "inf"]


# ---------------------------------------------------------------------------
# compare command
# ---------------------------------------------------------------------------


def test_compare_schemes_csv(tmp_path):
    out = tmp_path / "cmp"
    rc = main(["compare", "--surface", "sphere-sdf", "--p", "1,0,0",
               "--q", "0,1,0", "--m", "16", "--iters", "20",
               "--schemes", "gda,base-pdhg,var2", "--out", str(out)])
    assert rc == 0
    lines = (out / "comparison.csv").read_text().splitlines()
    assert lines[0] == ("scheme,final_absolute_error,final_relative_error,"
                        "final_surface_error,diverged")
    assert [row.split(",")[0] for row in lines[1:]] == \
        ["gda", "base-pdhg", "var2"]
    assert all(row.split(",")[4] == "false" for row in lines[1:])


def test_compare_records_a_singularity_per_scheme(tmp_path, capsys):
    # the default straight chord between the poles puts node m/2 on the
    # origin, where the gradient of R - |x| is undefined
    out = tmp_path / "cmp"
    rc = main(["compare", "--m", "16", "--iters", "20", "--out", str(out)])
    assert rc == 0
    stdout = capsys.readouterr().out
    lines = (out / "comparison.csv").read_text().splitlines()
    assert lines[1:] == [f"{scheme},,,,true"
                         for scheme in ("base-pdhg", "var1", "var2")]
    for scheme in ("base-pdhg", "var1", "var2"):
        assert (f"{scheme}: error: gradient of R - |x| undefined at the origin"
                in stdout)


def test_compare_unknown_scheme(tmp_path, capsys):
    rc = main(["compare", "--schemes", "gda,fancy", "--m", "8",
               "--iters", "5", "--out", str(tmp_path / "out")])
    assert rc == 1
    captured = capsys.readouterr()
    assert "fancy" in captured.err
    assert captured.out == ""
    # without the guard, an empty list writes a header-only comparison.csv
    rc = main(["compare", "--schemes", ",", "--m", "8",
               "--iters", "5", "--out", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err == "error: compare needs at least one scheme\n"
    assert not (tmp_path / "out").exists()


def test_compare_reads_scheme_as_its_schemes(tmp_path, capsys):
    # compare offers no --scheme: argparse reads the prefix as --schemes, and
    # a config file's scheme is an unknown key
    out = tmp_path / "cmp"
    rc = main(["compare", "--scheme", "var2", "--p", "1,0,0", "--q", "0,1,0",
               "--m", "8", "--iters", "20", "--out", str(out)])
    assert rc == 0
    lines = (out / "comparison.csv").read_text().splitlines()
    assert [row.split(",")[0] for row in lines[1:]] == ["var2"]
    conf = tmp_path / "cmp.conf"
    conf.write_text("scheme = var2\n")
    capsys.readouterr()
    assert main(["compare", "--config", str(conf), "--out", str(tmp_path / "x")]) == 1
    assert capsys.readouterr().err == (
        f"error: {conf}: line 1: unknown key 'scheme' for command compare\n")
    assert not (tmp_path / "x").exists()


#: for each flag of compare and benchmark, by dest: a value other than its
#: default, and the flags under which it acts.  A diverging run's last row is
#: its last record, so --record-every and --iters act there.
_DIVERGING = {"p": "1,0,0", "q": "0,1,0", "m": "8", "iters": "60", "tau_gamma": "0.01"}
_ACTING = {
    "scheme": ("var2", {}),
    "seed": ("5", {"init": "randomized"}),
    "surface": ("sphere-quadratic", {}),
    "points": ("{tmp}/cloud.xyz", {"surface": "point-cloud"}),
    "tau_gamma": ("0.001", {}),
    "tau_lambda": ("0.5", {}),
    "epsilon": ("0.1", {}),
    "m": ("9", {}),
    "omega": ("0.5", {}),
    "alpha": ("2", {"scheme": "var2"}),
    "init": ("randomized", {}),
    "tau_r": ("2", {"init": "randomized"}),
    "iters": ("7", _DIVERGING),
    "record_every": ("7", _DIVERGING),
    "p": ("0.6,0.8,0", {}),
    "q": ("0.6,0.8,0", {}),
    "reference": ("sphere-exact", {}),
    "schemes": ("var2", {}),
    "pairs": ("3", {}),
    "checkpoints": ("5,7", {}),
}
_QUICK = {"compare": {"p": "1,0,0", "q": "0,1,0", "m": "8", "iters": "10"},
          "benchmark": {"m": "8", "pairs": "2", "checkpoints": "5,10"}}


def _acting_flags():
    for name in ("compare", "benchmark"):
        for dest, action in build_parser(name).commands[name].options.items():
            if dest not in ("help", "config", "out"):
                yield pytest.param(name, action, id=f"{name}-{dest}")


@pytest.mark.parametrize("command,action", _acting_flags())
def test_no_flag_is_ignored(tmp_path, capsys, command, action):
    # the flag at its default and at another value, where it should act: the
    # two runs differ in their CSV, their exit code or their stderr
    write_cloud(tmp_path / "cloud.xyz", n=50)
    value, context = _ACTING[action.dest]
    options = build_parser(command).commands[command].options
    flags = {**_QUICK[command], **{k: v for k, v in context.items() if k in options}}
    ends = []
    for run_index, text in enumerate((action.default, value)):
        chosen = dict(flags, **{action.dest: text})
        out = tmp_path / str(run_index)
        code = main([command, "--out", str(out)] + [
            f"{options[dest].option_strings[-1]}={str(arg).format(tmp=tmp_path)}"
            for dest, arg in chosen.items() if arg is not None])
        csv = next(out.glob("*.csv"), None) if out.exists() else None
        ends.append((code, csv and csv.read_bytes(), capsys.readouterr().err))
    assert ends[0] != ends[1]


# ---------------------------------------------------------------------------
# planar command
# ---------------------------------------------------------------------------


def test_planar_command(tmp_path, capsys):
    out = tmp_path / "planar"
    rc = main(["planar", "--m", "20", "--iters", "16", "--out", str(out)])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "bound held: true" in stdout
    assert "log-log slope:" in stdout

    records = read_records(out / "planar_ergodic.csv", ErgodicRecord)
    assert [r.k for r in records] == [1, 2, 4, 8, 16]
    assert all(r.gap <= r.bound + 1e-9 for r in records)


DIVERGING_PLANAR = ["planar", "--tau-gamma", "50", "--tau-lambda", "50",
                    "--epsilon", "0", "--iters", "4000", "--m", "8"]


@pytest.mark.filterwarnings("error")  # each warning is printed once, on stdout
def test_planar_divergence_exits_2_with_the_records(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(DIVERGING_PLANAR + ["--out", str(out)])
    assert rc == 2
    stdout = capsys.readouterr().out
    assert stdout.count("warning: ") == 2
    assert "warning: step product 2.5e+03 >= 1" in stdout
    assert "warning: divergence at iteration 309: non-finite planar iterate" in stdout
    assert "bound held: false" in stdout
    records = read_records(out / "planar_ergodic.csv", ErgodicRecord)
    assert [r.k for r in records] == [2 ** i for i in range(9)]


def test_diverging_planar_process_writes_nothing_to_stderr(tmp_path):
    proc = _cli_process(tmp_path, *DIVERGING_PLANAR, "--out", str(tmp_path / "out"))
    assert proc.returncode == 2
    assert proc.stderr == ""
    assert "warning: divergence at iteration 309" in proc.stdout


def test_planar_process_at_the_step_boundary_runs(tmp_path):
    # tau_l tau_g |a|^2 is just below 1, where the A-norm's block matrix has a
    # least eigenvalue of 0.0 in floating point
    proc = _cli_process(tmp_path, "planar", "--a", "0,0,2", "--p", "0,0,0",
                        "--q", "0,1,0", "--tau-lambda", "0.7",
                        "--tau-gamma", "0.3571428571428571",
                        "--m", "8", "--iters", "8", "--out", str(tmp_path / "out"))
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert (tmp_path / "out" / "planar_ergodic.csv").exists()


@pytest.mark.parametrize("argv,code", [
    # c = tau_gamma m^2 is inf, and c times the endpoint 0 is nan
    (["--tau-gamma", "1e308", "--iters", "3", "--m", "4"], 2),
    # a is finite and nonzero, but a.a overflows
    (["--a", "1e200,0,0"], 1),
    # the bound's 1 / tau_lambda term overflows: the bound is inf
    (["--tau-lambda", "1e-320", "--iters", "3", "--m", "4"], 0),
], ids=["tau-gamma", "a", "tau-lambda"])
def test_planar_input_beyond_the_float_range_draws_no_runtime_warning(tmp_path, capsys,
                                                                      argv, code):
    # the suite turns a RuntimeWarning into an error
    rc = main(["planar", *argv, "--out", str(tmp_path / "out")])
    assert rc == code
    captured = capsys.readouterr()
    if code == 2:
        assert "warning: divergence at iteration 1: non-finite planar iterate" in captured.out
        assert captured.err == ""
    elif code == 0:
        assert captured.out.startswith("bound held: true\n")
        assert captured.err == ""
    else:
        assert captured.err == "error: plane normal must be a 3-vector with a.a finite and nonzero\n"
        assert captured.out == ""


def test_planar_bad_vector(tmp_path, capsys):
    # PlanarProblem and Plane check the vectors' lengths, and name the vector
    for flag, message in (("--a", "plane normal must be a 3-vector"),
                          ("--p", "p must be a finite 3-vector"),
                          ("--q", "q must be a finite 3-vector")):
        rc = main(["planar", flag, "1,0", "--iters", "4",
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {message}")
        assert captured.out == ""
        assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# check-surface command
# ---------------------------------------------------------------------------


def test_check_surface_report(capsys):
    rc = main(["check-surface", "--surface", "sphere-sdf",
               "--band", "0.25", "--samples", "1500", "--seed", "0"])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "surface: sphere-sdf" in stdout
    assert "nu:" in stdout and "hessian_bound:" in stdout
    assert "satisfied: true" in stdout
    assert [line.split(":")[0] for line in stdout.splitlines()] == [
        "surface", "band_half_width", "nu", "hessian_bound", "n_samples", "satisfied"]


@pytest.mark.parametrize("band,message", [
    ("1e-12", "no band samples"), ("inf", "must be positive and finite"),
    # above the float spacing at the unit sphere's scale, 2.2e-16: sampled
    ("1e-15", "no band samples"),
])
def test_check_surface_unusable_band_exits_1(capsys, band, message):
    rc = main(["check-surface", "--band", band, "--samples", "100"])
    assert rc == 1
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


def test_check_surface_rejects_a_band_below_the_resolution_up_front(tmp_path, capsys,
                                                                   monkeypatch):
    # a point cloud's million proposals took about a second before the error
    write_cloud(tmp_path / "cloud.xyz")
    monkeypatch.setattr(PointCloud, "_value", None)  # no proposal evaluated
    rc = main(["check-surface", "--surface", "point-cloud", "--points",
               str(tmp_path / "cloud.xyz"), "--band", "1e-320", "--samples", "100"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err.startswith("error: band half-width 9.99989e-321 is below the "
                                   "surface's resolution")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("band", ["1e308", "1e200"])
def test_check_surface_band_beyond_the_float_range_is_one_error_line(tmp_path, band):
    # the inflated sampling box, or its squared extent, is not finite: no
    # traceback from the sampler, no overflow warning, no million attempts
    proc = _cli_process(tmp_path, "check-surface", "--band", band)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == (f"error: band half-width {float(band):g} overflows "
                           "the sampling box\n")


@pytest.mark.parametrize("argv,code", [
    (["run", "--tau-gamma", "1e300", "--iters", "5", "--init", "randomized",
      "--seed", "1"], 2),
    (["sweep", "--parameter", "tau-gamma", "--values", "1e300", "--init",
      "randomized"], 0),
    (["benchmark", "--tau-gamma", "1e300", "--pairs", "2", "--checkpoints", "5"], 0),
    (["compare", "--tau-gamma", "1e300", "--iters", "5", "--init", "randomized"], 0),
], ids=["run", "sweep", "benchmark", "compare"])
def test_diverging_solver_process_writes_nothing_to_stderr(tmp_path, argv, code):
    proc = _cli_process(tmp_path, *argv, "--out", "out")
    assert proc.returncode == code
    assert proc.stderr == ""
    assert "diverged" in proc.stdout


def test_far_endpoints_process_writes_nothing_to_stderr(tmp_path):
    # |q - p| = 2e155: its square overflows, which the length cap must not show
    proc = _cli_process(tmp_path, "run", "--surface", "plane", "--p=-1e155,0,0",
                        "--q", "1e155,0,0", "--iters", "3", "--out", "out")
    assert proc.returncode == 0
    assert proc.stderr == ""


def test_far_endpoints_with_long_chords_run_to_their_budget(tmp_path, capsys):
    # m = 2: chords of 1e155, whose squares overflow; the still curve's
    # length is finite, so it is not read as diverged
    rc = main(["run", "--surface", "plane", "--p=-1e155,0,0", "--q", "1e155,0,0",
               "--m", "2", "--iters", "3", "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.err == ""
    assert captured.out.startswith("done: 3 iterations")
    assert "length=2e+155" in captured.out


@pytest.mark.parametrize("kind", ["sphere-quadratic", "sphere-sdf"])
@pytest.mark.parametrize("argv", [
    ["run", "--init", "randomized", "--iters", "3"],
    # before the check, no endpoint pair was ever far enough apart: it never ended
    ["benchmark", "--pairs", "1", "--checkpoints", "2"],
], ids=["run", "benchmark"])
def test_a_sphere_radius_whose_square_overflows_is_one_error_line(tmp_path, kind, argv):
    proc = _cli_process(tmp_path, *argv, "--surface", f"{kind}:1e200", "--m", "4",
                        "--out", "out", timeout=60)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == (f"error: bad surface descriptor '{kind}:1e200': "
                           "sphere radius must be positive with a finite square\n")


@pytest.mark.parametrize("argv", [
    # these ended in a singularity stop: |x| squares x, so every point read as the origin
    ["run", "--p", "1e-170,0,0", "--q", "0,1e-170,0", "--reference", "sphere-exact"],
    ["benchmark", "--pairs", "1", "--checkpoints", "1"],
], ids=["run", "benchmark"])
def test_a_sphere_radius_whose_square_underflows_is_one_error_line(tmp_path, capsys, argv):
    rc = main([*argv, "--surface", "sphere-sdf:1e-170", "--m", "4",
               "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err == ("error: bad surface descriptor 'sphere-sdf:1e-170': "
                            "sphere radius 1e-170 is too small: its square underflows\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("radius,message", [
    # a tolerance of 1e-3, absolute, passed both endpoints, 1e97 radii off
    ("1e-100", "endpoint p is off the surface: |phi| = 0.001 > 1e-103"),
    # ran, 1e297 radii off, and exited 0
    ("1e-300", "sphere radius 1e-300 is too small: its square underflows"),
    # read a nan reference distance
    ("1e-320", "sphere radius 9.99989e-321 is too small: its square underflows"),
], ids=["1e-100", "1e-300", "1e-320"])
def test_unit_size_endpoints_on_a_tiny_sphere_are_one_error_line(tmp_path, capsys,
                                                                 radius, message):
    rc = main(["run", "--surface", f"sphere-sdf:{radius}", "--p", "1e-3,0,0",
               "--q", "0,1e-3,0", "--reference", "sphere-exact", "--m", "4",
               "--iters", "2", "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.endswith(message + "\n")
    assert not (tmp_path / "out").exists()


def test_endpoints_on_a_tiny_sphere_run(tmp_path, capsys):
    rc = main(["run", "--surface", "sphere-sdf:1e-100", "--p", "1e-100,0,0",
               "--q", "0,1e-100,0", "--reference", "sphere-exact", "--m", "4",
               "--iters", "2", "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.out.startswith("done: 2 iterations")
    assert captured.err == ""


def test_an_endpoint_whose_square_overflows_is_one_error_line(tmp_path, capsys):
    # |q|^2 overflows in the field's endpoint check: no numpy warning
    rc = main(["run", "--q", "1e200,0,0", "--m", "4", "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err == "error: endpoint q is off the surface: |phi| = inf > 0.001\n"


def test_a_randomized_init_that_overflows_is_one_error_line(tmp_path, capsys):
    # tau_r r overflows: a configuration error, not a divergence, and no
    # numpy warning (the suite turns a RuntimeWarning into an error)
    rc = main(["run", "--surface", "torus:2,1", "--p", "3,0,0", "--q", "-3,0,0",
               "--init", "randomized", "--tau-r", "1e308", "--seed", "5", "--m", "3",
               "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err == "error: the randomized init with tau_r = 1e+308 is not finite\n"
    assert not (tmp_path / "out").exists()


#: what the property test below gives each flag, by dest: extremes, odd
#: shapes and plain values.  Every budget stays at 17 or below (a checkpoint
#: of 1e308 is a legal budget that never ends), so check-surface, which
#: needs 100 samples, stops at that check, or before it at the band check: a
#: band below the surface's resolution is rejected before any proposal, while
#: one above it that is never hit would cost a million proposals.  Tiny sphere
#: radii meet unit-size endpoints; --out is always under tmp_path.
_EXTREMES = ("0", "-0.0", "-1", "1e-320", "1e-300", "1e308", "inf", "nan", "0.5")
_BUDGETS = ("17", "2", "1", "0", "-1")
_ALWAYS_SET = ("m", "iters", "pairs", "samples", "checkpoints", "out", "parameter", "values")
_POINTS = ("1,0,0", "0,1,0", "0,0,-1", "-1,0,0", "3,0,0", "-3,0,0", "antipodal-z",
           "1e-170,0,0", "0,1e-300,0", "1e200,0,0", "-1e155,0,0", "1e155,0,0", "0,0,0",
           "nan,0,0", "inf,0,0", "1,2", "a,b,c", "")
_TEXTS = {
    "surface": ("sphere-sdf", "sphere-sdf:1e-300", "sphere-sdf:1e-320", "sphere-sdf:1e200",
                "sphere-sdf:1e-100", "sphere-quadratic:1e-100",
                "sphere-quadratic:1e-170", "sphere-quadratic", "torus:2,1",
                "torus:1e200,1", "torus:1e154,1", "torus:1,2", "plane", "plane:0,0,1", "plane:0,0,0",
                "plane:1e200,0,0", "point-cloud", "sphere-sdf:nan", "sphere-sdf:-1",
                "moebius"),
    "points": ("{tmp}/cloud.xyz", "{tmp}/bad.xyz", "{tmp}/missing.xyz"),
    "out": ("{tmp}/out", "{tmp}/a-file"),
    "p": _POINTS,
    "q": _POINTS,
    "a": ("1,0,0", "0,0,1", "0,0,0", "1e200,0,0", "1e-300,0,0", "nan,0,0", "1,2"),
    "reference": ("none", "sphere-exact", "3.14", "0", "-1", "nan", "1e-320", "x"),
    "checkpoints": ("2,1,17", "17", "0", "-1", "2.5", "nan", "x", ""),
    "parameter": ("epsilon", "tau-gamma", "tau_lambda", "omega", "alpha", "m"),
    "values": ("1e-5,0.5", "0", "-1", "1e-320", "1e308", "nan", "0.5,0.5", "x", ""),
    "schemes": ("base-pdhg,var1,var2", "gda,regularized", "var2", "bogus", ""),
    "seed": ("0", "5", "-1", "18446744073709551616"),
    "record_every": _BUDGETS,
    "band": (*_EXTREMES, "1e-17", "1e-100"),
}


def _flag_values(action):
    """The menu of one flag's values.  Three times in four it is the flag's
    default (None: the flag is left out) or, for a flag always set, the
    menu's first value, so that runs get past the checks too."""
    if action.choices is not None:
        menu = action.choices
    else:
        menu = _TEXTS.get(action.dest, _EXTREMES if action.type is float else _BUDGETS)
    usual = menu[0] if action.dest in _ALWAYS_SET else None
    return st.sampled_from([usual] * (3 * len(menu)) + list(menu))


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_every_command_ends_in_an_exit_code_never_a_traceback(tmp_path, capsys, data):
    # argv from each command's own flags, every value from a menu of
    # extremes: the command returns a documented exit code, stderr is one
    # error: line exactly when it returns 1, and nothing escapes
    write_cloud(tmp_path / "cloud.xyz", n=50)
    (tmp_path / "bad.xyz").write_text("1 2\n")
    (tmp_path / "a-file").write_text("")
    command = data.draw(st.sampled_from(sorted(build_parser().commands)))
    argv = [command]
    for dest, action in build_parser(command).commands[command].options.items():
        if dest in ("help", "config"):
            continue
        value = data.draw(_flag_values(action), label=dest)
        if value is not None:
            argv.append(f"{action.option_strings[-1]}={value.format(tmp=tmp_path)}")
    code = main(argv)
    err = capsys.readouterr().err
    assert code in (0, 1, 2, 3)
    if code == 1:
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
    else:
        assert err == ""


def test_check_surface_names_the_surfaces_own_box_when_it_overflows(capsys):
    # the surface's box, not the band, has an extent whose square overflows
    rc = main(["check-surface", "--surface", "torus:1e154,1", "--samples", "100"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err == ("error: the surface's sampling box overflows: its squared "
                            "extent is not finite\n")


@pytest.mark.parametrize("a", ["1,0,0", "2,0,0"])
def test_planar_endpoint_tolerance_is_a_distance_to_the_plane(tmp_path, capsys, a):
    # 6e-13 from the plane x = 0 whatever the length of its normal
    rc = main(["planar", "--a", a, "--p", "6e-13,0,0", "--q", "0,1,0", "--m", "4",
               "--iters", "2", "--out", str(tmp_path / "out")])
    assert rc == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("a,p", [("1e-20,0,0", "1e5,0,0"), ("1e150,0,0", "1e200,0,0")])
def test_planar_endpoint_far_from_a_short_or_long_normals_plane_is_one_error_line(
        tmp_path, capsys, a, p):
    # |a.p| = 1e-15 is 1e5 from the plane; 1e350 overflows a.p, with no warning
    rc = main(["planar", "--a", a, "--p", p, "--q", "0,1,0", "--m", "4",
               "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err == "error: p must lie within 1e-12 of the plane a.x = 0\n"


def test_check_surface_bad_descriptor(capsys):
    rc = main(["check-surface", "--surface", "moebius"])
    assert rc == 1
    captured = capsys.readouterr()
    assert "unknown surface kind" in captured.err
    assert captured.out == ""

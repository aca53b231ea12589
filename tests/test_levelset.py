"""Field values, gradients, Hessians and the band check for every surface kind."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from levelgeo.levelset import (
    LevelSet,
    Plane,
    PointCloud,
    PointCloudFormatError,
    SamplingError,
    SingularityError,
    SphereQuadratic,
    SphereSDF,
    Torus,
    check_assumption_a,
    load_point_cloud,
)


def fd_grad(surface, x, h=1e-5):
    g = np.zeros(3)
    for i in range(3):
        e = np.zeros(3)
        e[i] = h
        g[i] = (surface.value(x + e) - surface.value(x - e)) / (2.0 * h)
    return g


def sample_points(rng, n=40):
    """Points scattered through a box that avoids the coordinate singularities."""
    pts = rng.uniform(-3.0, 3.0, size=(n, 3))
    # keep clear of the z-axis and the origin where the distance fields blow up
    keep = np.hypot(pts[:, 0], pts[:, 1]) > 0.3
    return pts[keep]


ANALYTIC_SURFACES = [
    SphereQuadratic(),
    SphereQuadratic(radius=2.5),
    SphereSDF(),
    SphereSDF(radius=0.7),
    Torus(),
    Torus(major_radius=3.0, minor_radius=0.5),
    Plane(),
    Plane(normal=(1.0, -2.0, 0.5)),
]
#: each field's test id, its --surface descriptor
KIND = {SphereQuadratic: "sphere-quadratic", SphereSDF: "sphere-sdf", Torus: "torus",
        Plane: "plane", PointCloud: "point-cloud"}


@pytest.mark.parametrize("surface", ANALYTIC_SURFACES, ids=lambda s: KIND[type(s)])
def test_gradient_matches_finite_differences(surface):
    rng = np.random.default_rng(11)
    for x in sample_points(rng):
        g = surface.grad(x)
        ref = fd_grad(surface, x)
        scale = max(1.0, np.linalg.norm(ref))
        assert np.linalg.norm(g - ref) <= 1e-4 * scale, (type(surface).__name__, x)


@pytest.mark.parametrize("surface", ANALYTIC_SURFACES, ids=lambda s: KIND[type(s)])
def test_hessian_matches_finite_difference_gradient(surface):
    rng = np.random.default_rng(12)
    h = 1e-4
    for x in sample_points(rng, n=20):
        H = surface.hessian(x)
        assert np.allclose(H, H.T, atol=1e-12)
        for i in range(3):
            e = np.zeros(3)
            e[i] = h
            col = (surface.grad(x + e) - surface.grad(x - e)) / (2.0 * h)
            assert np.linalg.norm(H[:, i] - col) <= 5e-4 * max(1.0, np.linalg.norm(col))


def _spectrum_error(surface, x, exact):
    """Largest eigenvalue error of surface.hessian(x), relative to each
    point's largest |eigenvalue| in exact, an (n, 3) array."""
    exact = np.sort(exact, axis=1)
    eigs = np.linalg.eigvalsh(surface.hessian(x))
    return np.max(np.abs(eigs - exact) / np.abs(exact).max(axis=1, keepdims=True))


def test_hessian_spectrum_matches_the_closed_forms():
    rng = np.random.default_rng(12)
    pts = rng.uniform(-3.0, 3.0, size=(400, 3))
    r = np.linalg.norm(pts, axis=1)
    x, r = pts[r > 0.3], r[r > 0.3]
    for surface in (SphereSDF(), SphereSDF(radius=0.7)):  # D^2 = -(I - u u^T) / |x|
        assert _spectrum_error(surface, x, np.stack([-1 / r, -1 / r, 0 * r], 1)) <= 1e-9
    for surface in (Torus(), Torus(major_radius=3.0, minor_radius=0.5)):
        rho = np.hypot(pts[:, 0], pts[:, 1])
        u = rho - surface.major_radius
        w = np.hypot(u, pts[:, 2])
        away = (rho > 0.3) & (w > 0.3)  # from the z-axis and the core circle
        rho, u, w = rho[away], u[away], w[away]
        # 0 along grad, 1/w in the meridian plane, u/(rho w) azimuthally
        exact = np.stack([0 * w, 1 / w, u / (rho * w)], 1)
        assert _spectrum_error(surface, pts[away], exact) <= 1e-9
    # the distance d to the nearest sample, where the second is 1e-3 farther:
    # the stencil's step, about 1e-5 here, stays in the nearest sample's Voronoi cell
    samples = rng.normal(size=(200, 3))
    cloud = PointCloud(samples / np.linalg.norm(samples, axis=1, keepdims=True))
    x = rng.uniform(-1.5, 1.5, size=(400, 3))
    d = np.sort(np.linalg.norm(x[:, None] - cloud.points[None], axis=2), axis=1)
    clear = d[:, 1] - d[:, 0] > 1e-3
    x, d = x[clear], d[clear, 0]
    assert len(x) > 300
    assert _spectrum_error(cloud, x, np.stack([0 * d, 1 / d, 1 / d], 1)) <= 1e-6


def test_hessian_step_scales_with_the_surface():
    # spheres and tori of size 1e-6 or 1e12 read their closed forms as at unit
    # size: the step follows the surface, neither straddling a singularity nor
    # vanishing in the rounding of x
    pts = np.random.default_rng(12).uniform(-3.0, 3.0, size=(400, 3))
    x = pts[np.linalg.norm(pts, axis=1) > 0.3]
    for scale in (1e-6, 1e12):
        r = np.linalg.norm(scale * x, axis=1)
        exact = np.stack([-1 / r, -1 / r, 0 * r], 1)
        assert _spectrum_error(SphereSDF(scale), scale * x, exact) <= 1e-9
        p = scale * pts
        rho = np.hypot(p[:, 0], p[:, 1])
        u = rho - 2.0 * scale
        w = np.hypot(u, p[:, 2])
        away = (rho > 0.3 * scale) & (w > 0.3 * scale)
        rho, u, w = rho[away], u[away], w[away]
        exact = np.stack([0 * w, 1 / w, u / (rho * w)], 1)
        assert _spectrum_error(Torus(2.0 * scale, scale), p[away], exact) <= 1e-9
    # far outside a small surface, x +- h still differs from x
    r = np.linalg.norm(1e12 * x, axis=1)
    exact = np.stack([-1 / r, -1 / r, 0 * r], 1)
    assert _spectrum_error(SphereSDF(1e-6), 1e12 * x, exact) <= 1e-7


def test_surface_points_lie_on_zero_set():
    rng = np.random.default_rng(5)
    for surface in ANALYTIC_SURFACES:
        for _ in range(25):
            x = surface.surface_point(rng)
            assert abs(surface.value(x)) < 1e-12


def test_sphere_values_at_nominal_points():
    assert SphereQuadratic().value(np.array([1.0, 0.0, 0.0])) == 0.0
    assert SphereQuadratic(2.0).value(np.array([0.0, 0.0, 0.0])) == -2.0
    assert SphereSDF().value(np.array([0.0, 0.0, 0.0])) == 1.0
    assert SphereSDF().value(np.array([2.0, 0.0, 0.0])) == -1.0
    # quadratic normalization: phi = (|x|^2 - R^2)/2 so grad = x exactly
    x = np.array([0.3, -1.2, 0.4])
    assert np.allclose(SphereQuadratic().grad(x), x)


def test_sphere_sdf_unit_gradient_and_lipschitz():
    surface = SphereSDF()
    rng = np.random.default_rng(3)
    pts = rng.uniform(-2.0, 2.0, size=(200, 3))
    pts = pts[np.linalg.norm(pts, axis=1) > 1e-3]
    norms = np.linalg.norm(surface.grad(pts), axis=1)
    assert np.allclose(norms, 1.0, atol=1e-12)
    # |phi(x) - phi(y)| <= |x - y| for a distance field
    a, b = pts[: len(pts) // 2], pts[len(pts) // 2 : 2 * (len(pts) // 2)]
    gap = np.abs(surface.value(a) - surface.value(b))
    assert np.all(gap <= np.linalg.norm(a - b, axis=1) + 1e-12)


def test_singularities_raise():
    origin = np.zeros(3)
    with pytest.raises(SingularityError):
        SphereSDF().grad(origin)
    with pytest.raises(SingularityError):
        SphereSDF().hessian(origin)
    with pytest.raises(SingularityError):
        Torus().grad(np.array([0.0, 0.0, 0.5]))  # z-axis
    with pytest.raises(SingularityError):
        Torus().grad(np.array([2.0, 0.0, 0.0]))  # core circle of the default torus


@pytest.mark.parametrize("cls", [SphereQuadratic, SphereSDF])
def test_a_sphere_radius_whose_square_overflows_is_rejected(cls):
    # R^2 enters the quadratic field and the central angle of the sphere reference
    assert cls(1.3e154).radius == 1.3e154
    for radius in (1.4e154, 1e200, np.float64(1e200), -1.0, 0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="positive with a finite square"):
            cls(radius)


@pytest.mark.parametrize("cls", [SphereQuadratic, SphereSDF])
def test_a_sphere_radius_whose_square_underflows_is_rejected(cls):
    # |x| squares x: on a sphere of radius 1e-170 every point read as the origin
    assert cls(1.5e-154).radius == 1.5e-154
    for radius in (1.4e-154, 1e-170, 1e-300, 1e-320):
        with pytest.raises(ValueError, match="too small: its square underflows"):
            cls(radius)


def test_scale_is_half_the_smallest_nonzero_extent():
    assert SphereSDF(1e-100).scale() == 1e-100
    assert Torus(3.0, 0.5).scale() == 0.5
    assert Plane().scale() == 2.0
    flat = PointCloud([[0.0, 0.0, 0.0], [4.0, 0.0, 0.0], [0.0, 6.0, 0.0], [1.0, 1.0, 0.0]])
    assert flat.scale() == 2.0  # the zero z extent does not count


def test_a_band_below_the_resolution_is_rejected_before_any_proposal():
    class NoValues(_RowHooks):
        def _value(self, pts):
            raise AssertionError("a proposal was evaluated")

    with pytest.raises(ValueError, match="below the surface's resolution 2.22045e-16"):
        check_assumption_a(NoValues(), a=1e-16, n_samples=100)
    with pytest.raises(ValueError, match="below the surface's resolution 1.26897e-116"):
        check_assumption_a(SphereSDF(1e-100), a=1e-117, n_samples=100)
    assert check_assumption_a(SphereSDF(1e-100), a=1e-101, n_samples=100).n_samples == 100


@pytest.mark.parametrize("normal", [(1e200, 0.0, 0.0), (1e-200, 0.0, 0.0), (0.0, 0.0, 0.0),
                                    (np.inf, 0.0, 0.0), (np.nan, 1.0, 0.0), (1.0, 0.0)])
def test_plane_normal_needs_a_finite_nonzero_square(normal):
    # 1e200 is finite and nonzero, but a.a overflows; 1e-200's underflows
    with pytest.raises(ValueError, match=r"a\.a finite and nonzero"):
        Plane(normal)


class _RowHooks(LevelSet):
    """The unit quadratic sphere from the row hooks alone, with no Hessian hook."""

    def _value(self, pts):
        return 0.5 * (np.einsum("ij,ij->i", pts, pts) - 1.0)

    def _value_and_grad(self, pts):
        return self._value(pts), pts.copy()

    def bounding_box(self):
        return -np.ones(3), np.ones(3)


def test_a_field_of_row_hooks_takes_a_point_or_rows():
    field, rows = _RowHooks(), np.random.default_rng(2).normal(size=(6, 3))
    phi, grad = field.value_and_grad(rows)
    assert phi.shape == field.value(rows).shape == (6,)
    assert grad.shape == field.grad(rows).shape == (6, 3)
    assert field.hessian(rows).shape == (6, 3, 3)
    assert np.allclose(field.hessian(rows), np.eye(3), atol=1e-9)
    for i, x in enumerate(rows):
        assert np.ndim(field.value(x)) == np.ndim(field.value_and_grad(x)[0]) == 0
        assert field.value(x) == field.value_and_grad(x)[0] == phi[i]
        assert np.array_equal(field.grad(x), grad[i]) and field.grad(x).shape == (3,)
        assert np.array_equal(field.hessian(x), field.hessian(rows)[i])
    with pytest.raises(ValueError, match="expected shape"):
        field.value(np.zeros((2, 2)))


def test_a_field_of_row_hooks_runs_and_takes_the_band_check():
    from levelgeo.curve import init_straight_line
    from levelgeo.schemes import SolverConfig, run

    init = init_straight_line(np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0]), 8)
    cfg = SolverConfig(max_iters=20)
    (state, trace), (ref_state, ref_trace) = (run(cfg, s, init)
                                              for s in (_RowHooks(), SphereQuadratic()))
    assert state.curve.points.tobytes() == ref_state.curve.points.tobytes()
    assert [vars(r) for r in trace] == [vars(r) for r in ref_trace]
    report = check_assumption_a(_RowHooks(), a=0.2, n_samples=200, seed=0)
    assert report.satisfied and report.n_samples == 200


def test_torus_value_closed_form():
    t = Torus(major_radius=2.0, minor_radius=1.0)
    # on the outer equator: rho = 3, z = 0 -> phi = 0
    assert abs(t.value(np.array([3.0, 0.0, 0.0]))) < 1e-15
    # tube center ring is at distance -r
    assert t.value(np.array([0.0, 2.0, 0.0])) == -1.0
    assert t.value(np.array([0.0, 0.0, 0.0])) == 1.0


def test_plane_field_is_linear():
    a = np.array([1.0, -2.0, 0.5])
    p = Plane(normal=a)
    rng = np.random.default_rng(8)
    x = rng.normal(size=(10, 3))
    assert np.allclose(p.value(x), x @ a)
    assert np.allclose(p.grad(x), np.tile(a, (10, 1)))
    assert np.allclose(p.hessian(x), 0.0)


def test_batch_and_single_point_calls_agree():
    rng = np.random.default_rng(21)
    pts = sample_points(rng, n=10)
    for surface in ANALYTIC_SURFACES:
        vals = surface.value(pts)
        grads = surface.grad(pts)
        for i, x in enumerate(pts):
            assert vals[i] == surface.value(x)
            assert np.array_equal(grads[i], surface.grad(x))


# ---------------------------------------------------------------- point cloud


def test_point_cloud_value_matches_brute_force():
    rng = np.random.default_rng(17)
    cloud_pts = rng.normal(size=(300, 3))
    cloud = PointCloud(cloud_pts)
    queries = rng.normal(size=(50, 3)) * 2.0
    for x in queries:
        brute = np.min(np.linalg.norm(cloud_pts - x, axis=1))
        assert abs(cloud.value(x) - brute) < 1e-12


def test_point_cloud_gradient_points_away_from_nearest():
    rng = np.random.default_rng(18)
    cloud_pts = rng.normal(size=(100, 3))
    cloud = PointCloud(cloud_pts)
    x = np.array([5.0, 0.0, 0.0])
    nearest = cloud_pts[np.argmin(np.linalg.norm(cloud_pts - x, axis=1))]
    expected = (x - nearest) / np.linalg.norm(x - nearest)
    assert np.allclose(cloud.grad(x), expected)
    assert abs(np.linalg.norm(cloud.grad(x)) - 1.0) < 1e-12


def test_point_cloud_tie_break_lowest_index():
    # query equidistant from points 0 and 3; the gradient must use point 0
    pts = np.array(
        [
            [1.0, 0.0, 0.0],
            [5.0, 5.0, 5.0],
            [-5.0, 5.0, 5.0],
            [-1.0, 0.0, 0.0],
        ]
    )
    cloud = PointCloud(pts)
    g = cloud.grad(np.array([0.0, 2.0, 0.0]))
    expected = np.array([-1.0, 2.0, 0.0]) / np.sqrt(5.0)
    assert np.allclose(g, expected)


def test_point_cloud_gradient_singular_on_sample():
    cloud = PointCloud(np.eye(3) + 1.0)
    with pytest.raises(SingularityError):
        cloud.grad(cloud.points[1])


def test_point_cloud_dedupes_exact_duplicates():
    pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    cloud = PointCloud(pts)
    assert len(cloud.points) == 2


def _unique_rows(pts):
    """PointCloud's dedupe as it was: numpy.unique's sort of the rows, then each
    distinct row at its lowest index, in the input order."""
    _, first = np.unique(pts, axis=0, return_index=True)
    return pts[np.sort(first)]


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(st.tuples(*[st.sampled_from([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0])] * 3),
                     min_size=1, max_size=60))
def test_point_cloud_dedupe_equals_numpy_unique(rows):
    # a small grid makes repeats common; -0.0 and 0.0 are one coordinate to both
    pts = np.array(rows)
    cloud = PointCloud(pts)
    assert cloud.points.tobytes() == _unique_rows(pts).tobytes()
    assert len(cloud.points) == len(set(rows))


def _keeps_every_row(pts):
    """PointCloud(pts).points equals pts bit for bit, in a copy of its own."""
    cloud = PointCloud(pts)
    return cloud.points.tobytes() == pts.tobytes() and not np.shares_memory(cloud.points, pts)


@settings(max_examples=100, deadline=None)
@given(xs=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=40, unique=True),
       data=st.data())
def test_point_cloud_with_distinct_x_keeps_every_row(xs, data):
    # no x repeats, so no row can: nothing goes, whatever y and z repeat
    yz = data.draw(st.lists(st.tuples(*[st.sampled_from([-1.0, -0.0, 0.0, 1.0])] * 2),
                            min_size=len(xs), max_size=len(xs)))
    assert _keeps_every_row(np.column_stack([xs, np.array(yz).reshape(-1, 2)]))


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(st.tuples(st.sampled_from([-1.0, 0.0, 1.0]), st.floats(-10.0, 10.0),
                               st.floats(-10.0, 10.0)),
                     min_size=4, max_size=40, unique=True))
def test_point_cloud_with_repeated_x_but_distinct_rows_keeps_every_row(rows):
    # four rows or more on three x values: some x repeats, so the rows are sorted
    assert _keeps_every_row(np.array(rows))


def test_point_cloud_keeps_each_rows_first_occurrence():
    pts = np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 4.0], [0.0, 0.0, 0.0], [1.0, 2.0, 3.0],
                    [0.0, 0.0, 0.0], [1.0, 2.0, 4.0], [5.0, 0.0, 0.0]])
    cloud = PointCloud(pts)
    assert cloud.points.tobytes() == _unique_rows(pts).tobytes()
    assert cloud.points.tobytes() == pts[[0, 1, 2, 6]].tobytes()


@pytest.mark.parametrize("pts", [
    np.random.default_rng(3).normal(size=(30, 3)),  # distinct x: kept as it is
    np.tile(np.random.default_rng(4).normal(size=(10, 3)), (3, 1)),  # repeats go
], ids=["distinct-x", "repeated-rows"])
def test_point_cloud_copies_the_callers_array_and_freezes_its_own(pts):
    before = pts.copy()
    cloud = PointCloud(pts)
    assert pts.flags.writeable and not np.shares_memory(cloud.points, pts)
    assert not cloud.points.flags.writeable
    with pytest.raises(ValueError):
        cloud.points[0, 0] = 7.0
    pts[0] = 7.0
    assert cloud.points.tobytes() == _unique_rows(before).tobytes()


def test_point_cloud_rejects_bad_shapes():
    with pytest.raises(ValueError):
        PointCloud(np.zeros((0, 3)))
    with pytest.raises(ValueError):
        PointCloud(np.zeros((4, 2)))


def test_load_point_cloud_round_trip(tmp_path):
    path = tmp_path / "cloud.xyz"
    path.write_text(
        "# header comment\n"
        "0 0 0\n"
        "1.5 -2.25 3.125   # trailing comment\n"
        "\n"
        "1 1 1\n"
        "2 2 2\n"
    )
    cloud = load_point_cloud(path)
    assert len(cloud.points) == 4
    assert cloud.value(np.array([1.5, -2.25, 3.125])) == 0.0


def test_load_point_cloud_reports_line_numbers(tmp_path):
    path = tmp_path / "bad.xyz"
    path.write_text("0 0 0\n1 2\n")
    with pytest.raises(PointCloudFormatError) as exc:
        load_point_cloud(path)
    assert exc.value.line_number == 2

    path.write_text("0 0 0\n1 2 x\n")
    with pytest.raises(PointCloudFormatError) as exc:
        load_point_cloud(path)
    assert exc.value.line_number == 2

    path.write_text("0 0 0\n1 1 1\n0 0 0\n")  # dedupes to 2 < 4 points
    with pytest.raises(ValueError):
        load_point_cloud(path)


def _lines_loaded(path):
    """load_point_cloud's points as its line-by-line parser read them before
    it read files with numpy.loadtxt: float() on the fields of each line."""
    rows = []
    with open(path) as fh:
        for line_number, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 3:
                raise PointCloudFormatError(
                    line_number, f"expected 3 values, got {len(parts)}"
                )
            try:
                rows.append([float(v) for v in parts])
            except ValueError:
                raise PointCloudFormatError(
                    line_number, f"could not parse {line!r} as three reals"
                ) from None
    pts = _unique_rows(np.asarray(rows, dtype=float).reshape(-1, 3))
    if len(pts) < 4:
        raise ValueError(f"point cloud needs at least 4 distinct points, got {len(pts)}")
    return pts


_REAL_FORMATS = [repr, "{:.17g}".format, "{:.6e}".format]


@st.composite
def cloud_files(draw):
    """The text of a well-formed cloud file: each number in one of the formats,
    fields apart by spaces or tabs, comments and blank lines between and after
    the rows, LF, CRLF or CR line ends."""
    real = st.floats(allow_nan=False, allow_infinity=False)
    rows = draw(st.lists(st.tuples(real, real, real), min_size=1, max_size=12))
    if draw(st.booleans()):  # repeats, which the loader drops
        rows += draw(st.lists(st.sampled_from(rows), max_size=4))
    gap = st.sampled_from([" ", "\t", "  ", " \t "])
    lines = []
    for row in rows:
        lines += draw(st.lists(st.sampled_from(["", "   ", "# comment", "\t# 1 2 3"]),
                               max_size=2))
        fields = [draw(st.sampled_from(_REAL_FORMATS))(v) for v in row]
        text = draw(gap).join(fields)
        lines.append(draw(st.sampled_from(["", " ", "\t"])) + text
                     + draw(st.sampled_from(["", " ", " # trailing", "#x"])))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return end.join(lines) + draw(st.sampled_from(["", end]))


@settings(max_examples=150, deadline=None)
@given(text=cloud_files())
def test_load_point_cloud_equals_the_line_parser(text, tmp_path_factory):
    path = tmp_path_factory.mktemp("cloud") / "cloud.xyz"
    path.write_bytes(text.encode())
    try:
        expected = _lines_loaded(path)
    except ValueError as exc:  # fewer than 4 distinct points
        with pytest.raises(ValueError) as got:
            load_point_cloud(path)
        assert str(got.value) == str(exc)
        return
    points = load_point_cloud(path).points
    assert points.shape == expected.shape
    assert np.array_equal(points.view(np.uint64), expected.view(np.uint64))


@pytest.mark.parametrize("text, line_number, message", [
    ("# head\n\n0 0 0\n1 1 1\n1 2\n3 3 3\n", 5, "expected 3 values, got 2"),
    ("0 0 0\r\n1 1 1\r\n2 2 2 2\r\n", 3, "expected 3 values, got 4"),
    ("0 0 0\n1 1 1\n2 x 2\n3 3 3\n", 3, "could not parse '2 x 2' as three reals"),
    # loadtxt reads a file of one other width throughout without an error
    ("# two columns throughout\n0 0\n1 1\n2 2\n3 3\n", 2, "expected 3 values, got 2"),
    ("0 0 0 0\n1 1 1 1\n2 2 2 2\n3 3 3 3\n", 1, "expected 3 values, got 4"),
])
def test_load_point_cloud_names_the_bad_line(tmp_path, text, line_number, message):
    path = tmp_path / "bad.xyz"
    path.write_bytes(text.encode())
    with pytest.raises(PointCloudFormatError) as exc:
        load_point_cloud(path)
    assert exc.value.line_number == line_number
    assert str(exc.value) == f"line {line_number}: {message}"
    assert repr(exc.value) == repr(pytest.raises(PointCloudFormatError, _lines_loaded,
                                                 path).value)


@pytest.mark.parametrize("token", ["1_0", "\u0661", "\uff11.5"])
def test_load_point_cloud_rejects_what_only_float_reads(tmp_path, token):
    # float() reads underscores and non-ASCII digits, numpy.loadtxt does not:
    # the loader reads fewer files than its line parser did
    path = tmp_path / "cloud.xyz"
    path.write_text(f"0 0 0\n1 1 1\n2 2 2\n3 {token} 3\n", encoding="utf-8")
    assert len(_lines_loaded(path)) == 4
    with pytest.raises(PointCloudFormatError) as exc:
        load_point_cloud(path)
    assert exc.value.line_number == 4
    assert str(exc.value) == f"line 4: could not parse '3 {token} 3' as three reals"


# ------------------------------------------------------------ band condition


def test_assumption_a_sphere_sdf_at_third():
    report = check_assumption_a(SphereSDF(), a=1.0 / 3.0, n_samples=20000, seed=0)
    # |grad| = 1 exactly, so nu = 1 up to rounding in the norm
    assert abs(report.nu - 1.0) <= 1e-12
    assert report.satisfied
    # ||D^2|| = 1/|x| <= 1/(1 - a) = 1.5 on the band
    assert report.hessian_bound <= 1.0 / (1.0 - 1.0 / 3.0) + 1e-9
    assert 2.0 * report.band_half_width * report.hessian_bound <= report.nu


def test_assumption_a_sphere_quadratic_at_quarter():
    report = check_assumption_a(SphereQuadratic(), a=0.25, n_samples=20000, seed=0)
    # phi = (|x|^2 - 1)/2: band |phi| <= 1/4 is sqrt(1/2) <= |x| <= sqrt(3/2),
    # nu = min |x|^2 = 1/2 and ||D^2|| = 1 exactly, so 2 a * 1 = 1/2 <= nu.
    assert report.hessian_bound == 1.0
    assert report.nu >= 0.5 - 1e-3
    assert report.satisfied


def test_assumption_a_tightens_with_smaller_band():
    nus = []
    for a in (0.1, 0.05, 0.01):
        report = check_assumption_a(SphereQuadratic(), a=a, n_samples=2000, seed=1)
        assert report.satisfied
        nus.append(report.nu)
    # shrinking the band can only raise the worst-case |grad|^2
    assert nus[0] <= nus[1] <= nus[2]


def test_assumption_a_can_fail():
    # a = 0.6 on the quadratic sphere: nu = max(0, 1 - 2a) -> 2a*1 > nu
    report = check_assumption_a(SphereQuadratic(), a=0.6, n_samples=2000, seed=2)
    assert not report.satisfied


def test_assumption_a_torus_plane_and_cloud():
    # nu = 1 on the torus, whose Hessian's eigenvalues 1/w and u/(rho w) are at
    # most 1/(r - a) on the band |w - r| <= a when R >= 2r: 2a/(r - a) > 1 for
    # r = 0.5, a = 0.2.  The point-cloud field is not C^2 across Voronoi ridges
    torus = check_assumption_a(Torus(2.0, 1.0), a=0.3, seed=0)
    assert torus.satisfied
    assert torus.hessian_bound <= 1.0 / (1.0 - 0.3) + 1e-9
    assert not check_assumption_a(Torus(3.0, 0.5), a=0.2, seed=0).satisfied
    plane = check_assumption_a(Plane((1.0, -2.0, 0.5)), a=0.5, seed=0)
    assert plane.satisfied
    assert plane.hessian_bound == 0.0
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(2000, 3))
    cloud = PointCloud(pts / np.linalg.norm(pts, axis=1, keepdims=True))
    assert not check_assumption_a(cloud, a=0.05, n_samples=2000, seed=0).satisfied


def test_assumption_a_is_scale_free():
    # ||D^2 phi|| <= 1/(R - a) on the band of the sphere and 1/(r - a) on the
    # torus's, at any size; the sampled bound reaches it within 0.2 %
    cases = [(SphereSDF(radius), frac * radius, radius, 2 * frac < 1 - frac)
             for radius in (1e-6, 1e12) for frac in (0.1, 0.4)]
    cases.append((Torus(2e-6, 1e-6), 3e-7, 1e-6, True))
    for surface, a, size, satisfied in cases:
        report = check_assumption_a(surface, a=a, n_samples=2000, seed=0)
        exact = 1.0 / (size - a)
        assert exact * (1.0 - 2e-3) <= report.hessian_bound <= exact * (1.0 + 1e-9)
        assert report.satisfied is satisfied


def test_assumption_a_validates_arguments():
    with pytest.raises(ValueError):
        check_assumption_a(SphereSDF(), a=0.0)
    with pytest.raises(ValueError):
        check_assumption_a(SphereSDF(), a=0.1, n_samples=10)


def test_assumption_a_sampling_error_when_band_unreachable():
    class FarField(LevelSet):
        def value(self, x):
            pts = np.atleast_2d(np.asarray(x, dtype=float))
            out = np.full(len(pts), 1e9)
            return out[0] if np.asarray(x).ndim == 1 else out

        def bounding_box(self):
            return -np.ones(3), np.ones(3)

    with pytest.raises(SamplingError):
        check_assumption_a(FarField(), a=1e-3, n_samples=100, seed=0)


# ------------------------------------------------------------ value_and_grad

FIELDS = ANALYTIC_SURFACES + [
    PointCloud(np.random.default_rng(5).normal(size=(60, 3))),
]


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def outcome(method, x):
    """method(x), or the message of the SingularityError it raised."""
    try:
        return method(x)
    except SingularityError as exc:
        return str(exc)


def reference_value_and_grad(field, x):
    """phi and grad phi by the formulas value() and grad() used before the two
    were fused, one field query each (SingularityError where grad raised)."""
    pts = np.atleast_2d(np.asarray(x, dtype=float))
    if isinstance(field, SphereQuadratic):
        phi = 0.5 * (np.einsum("ij,ij->i", pts, pts) - field.radius**2)
        grad = pts.copy()
    elif isinstance(field, SphereSDF):
        phi = field.radius - np.linalg.norm(pts, axis=1)
        r = np.linalg.norm(pts, axis=1)
        if np.any(r == 0.0):
            raise SingularityError("gradient of R - |x| undefined at the origin")
        grad = -pts / r[:, None]
    elif isinstance(field, Torus):
        rho = np.hypot(pts[:, 0], pts[:, 1])
        u = rho - field.major_radius
        w = np.hypot(u, pts[:, 2])
        phi = w - field.minor_radius
        if np.any(rho == 0.0) or np.any(w == 0.0):
            raise SingularityError(
                "torus field gradient undefined on the axis or core circle")
        grad = np.stack([(u / w) * (pts[:, 0] / rho), (u / w) * (pts[:, 1] / rho),
                         pts[:, 2] / w], axis=1)
    elif isinstance(field, Plane):
        phi = pts @ field.normal
        grad = np.broadcast_to(field.normal, (len(pts), 3)).copy()
    else:
        phi, _ = field._tree.query(pts)
        d, idx = field._tree.query(pts, k=2)
        near, second = d[:, 0], d[:, 1]
        if np.any(near == 0.0):
            raise SingularityError("distance gradient undefined at a cloud point")
        index = idx[:, 0].copy()
        for row in np.nonzero(second - near <= 1e-12 * (1.0 + near))[0]:
            index[row] = min(field._tree.query_ball_point(
                pts[row], near[row] * (1.0 + 1e-12)))
        grad = (pts - field.points[index]) / field._tree.query(pts)[0][:, None]
    return (phi[0], grad[0]) if np.ndim(x) == 1 else (phi, grad)


@settings(max_examples=50, deadline=None)
@given(
    field=st.sampled_from(FIELDS),
    pts=arrays(float, st.tuples(st.integers(1, 12), st.just(3)),
               elements=st.floats(-3.0, 3.0)),
    single=st.booleans(),
)
def test_value_and_grad_equals_value_and_grad_calls(field, pts, single):
    x = pts[0] if single else pts
    fused, grad = outcome(field.value_and_grad, x), outcome(field.grad, x)
    if isinstance(grad, str):
        assert fused == grad
        return
    phi, g = fused
    assert same_bits(phi, field.value(x))
    assert same_bits(g, grad)
    ref_phi, ref_g = reference_value_and_grad(field, x)
    assert same_bits(phi, ref_phi)
    assert same_bits(g, ref_g)


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: KIND[type(f)])
def test_value_and_grad_on_rows_returns_a_c_contiguous_gradient(field):
    # the step reshapes the gradient into its force rows, a view only of C
    # order; an F-ordered or strided input gives the value and gradient of a
    # C copy
    rows = np.random.default_rng(8).uniform(0.5, 1.5, size=(40, 3))
    for x in (rows, np.asfortranarray(rows), rows[::2]):
        phi, grad = field.value_and_grad(x)
        assert grad.flags.c_contiguous
        c_phi, c_grad = field.value_and_grad(np.ascontiguousarray(x))
        assert same_bits(phi, c_phi)
        assert same_bits(field.value(x), c_phi)
        assert same_bits(grad, c_grad)


@pytest.mark.parametrize("field, x", [
    (SphereSDF(), [0.0, 0.0, 0.0]),
    (Torus(), [0.0, 0.0, 0.5]),
    (FIELDS[-1], FIELDS[-1].points[7]),
], ids=["sphere-origin", "torus-axis", "cloud-sample"])
def test_value_and_grad_raises_where_grad_does(field, x):
    batch = np.array([[0.3, -1.1, 0.4], x])
    for probe in (np.asarray(x), batch):
        with pytest.raises(SingularityError) as by_grad:
            field.grad(probe)
        with pytest.raises(SingularityError) as fused:
            field.value_and_grad(probe)
        assert str(fused.value) == str(by_grad.value)


@pytest.mark.parametrize("first", [[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
def test_point_cloud_value_and_grad_breaks_exact_ties_to_lowest_index(first):
    # the query is equidistant from samples 0 and 3, in either order
    pts = np.array([first, [5.0, 5.0, 5.0], [-5.0, 5.0, 5.0],
                    [-first[0], 0.0, 0.0]])
    cloud = PointCloud(pts)
    x = np.array([0.0, 2.0, 0.0])
    phi, g = cloud.value_and_grad(x)
    assert phi == np.sqrt(5.0)
    assert np.allclose(g, (x - pts[0]) / np.sqrt(5.0))
    assert same_bits(g, cloud.grad(x))


def field_call(cloud, x):
    """cloud.value_and_grad(x) as bytes, with phi's strides, or the class and
    message of the ValueError (a SingularityError, or the tree's complaint
    about a non-finite row) it raised."""
    try:
        phi, grad = cloud.value_and_grad(x)
    except ValueError as exc:
        return type(exc), str(exc)
    return phi.tobytes(), phi.strides, grad.tobytes()


@settings(max_examples=100, deadline=None)
@given(
    scale=st.floats(-6.0, 6.0).map(lambda e: 10.0**e),
    lattice=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    nodes=st.integers(1, 12),
    moves=st.lists(st.tuples(st.sampled_from(["step", "drift", "drift", "nan", "sample",
                                              "shape"]),
                             st.floats(-12.0, 0.0), st.integers(1, 6)),
                   min_size=1, max_size=12),
)
def test_point_cloud_field_along_a_walk_equals_a_fresh_cloud(scale, lattice, seed,
                                                             nodes, moves):
    # value_and_grad skips the tree for a row its last call proves unchanged;
    # every call must still equal a fresh cloud's, at every scale and step
    rng = np.random.default_rng(seed)
    if lattice:
        # nodes start at centres of lattice edges, faces and cells: exact ties
        # at a power-of-two spacing
        scale = 2.0 ** np.round(np.log2(scale))
        grid = np.arange(3.0) * scale
        samples = np.stack(np.meshgrid(grid, grid, grid), -1).reshape(-1, 3)
        offsets = rng.integers(0, 2, size=(nodes, 3))
        offsets[offsets.sum(axis=1) == 0, 0] = 1
        x = scale * (rng.integers(0, 2, size=(nodes, 3)) + 0.5 * offsets)
    else:
        samples = rng.normal(size=(40, 3)) * scale
        x = rng.normal(size=(nodes, 3)) * scale
    cloud, heading = PointCloud(samples), rng.normal(size=(2 * nodes, 3))
    assert field_call(cloud, x) == field_call(PointCloud(samples), x)
    for move, exponent, repeats in moves:
        if move == "shape":
            x = x[:-1].copy() if len(x) > 1 else np.vstack([x, x + scale])
            assert field_call(cloud, x) == field_call(PointCloud(samples), x)
        elif move in ("nan", "sample"):  # one call a step away; the walk goes on from x
            probe = x + rng.normal(size=x.shape) * (10.0**exponent * scale)
            probe[rng.integers(len(x))] = (np.nan if move == "nan"
                                           else samples[rng.integers(len(samples))])
            assert field_call(cloud, probe) == field_call(PointCloud(samples), probe)
        for _ in range(repeats if move in ("step", "drift") else 0):
            # in place, as the solver moves its nodes; a drift keeps its heading
            direction = rng.normal(size=x.shape) if move == "step" else heading[:len(x)]
            x += direction * (10.0**exponent * scale)
            assert field_call(cloud, x) == field_call(PointCloud(samples), x)


@settings(max_examples=100, deadline=None)
@given(
    kind=st.sampled_from(["random", "lattice", "repeated-x"]),
    scale=st.floats(-6.0, 6.0).map(lambda e: 2.0 ** np.round(np.log2(10.0**e))),
    seed=st.integers(0, 2**32 - 1),
    nodes=st.integers(1, 12),
    walk=st.lists(st.tuples(st.floats(-12.0, 0.0), st.booleans()), min_size=1, max_size=8),
)
def test_point_cloud_field_does_not_see_the_tree_shape(kind, scale, seed, nodes, walk):
    # the tree splits at the midpoint; each distance is computed the same way
    # whatever the tree's shape, and ties go to the lowest index, so the field
    # equals a median-split tree's bit for bit, fresh and along a walk
    rng = np.random.default_rng(seed)
    if kind == "lattice":  # nodes at centres of edges, faces and cells: exact ties
        grid = np.arange(3.0) * scale
        samples = np.stack(np.meshgrid(grid, grid, grid), -1).reshape(-1, 3)
        offsets = rng.integers(0, 2, size=(nodes, 3))
        offsets[offsets.sum(axis=1) == 0, 0] = 1
        x = scale * (rng.integers(0, 2, size=(nodes, 3)) + 0.5 * offsets)
    else:
        samples = rng.normal(size=(60, 3)) * scale
        if kind == "repeated-x":  # four x values, and some rows repeated outright
            samples[:, 0] = rng.integers(-2, 2, size=60) * scale
            samples[40:] = samples[rng.integers(0, 40, size=20)]
        x = rng.normal(size=(nodes, 3)) * scale
    from scipy.spatial import cKDTree
    cloud, median = PointCloud(samples), PointCloud(samples)
    median._tree = cKDTree(median.points)  # median splits, scipy's default
    assert cloud.points.tobytes() == median.points.tobytes()
    assert cloud.value(x).tobytes() == median.value(x).tobytes()
    assert field_call(cloud, x) == field_call(median, x)
    heading = rng.normal(size=x.shape)
    for exponent, drift in walk:  # in place, as the solver moves its nodes
        x += (heading if drift else rng.normal(size=x.shape)) * (10.0**exponent * scale)
        assert cloud.value(x).tobytes() == median.value(x).tobytes()
        assert field_call(cloud, x) == field_call(median, x)


def test_point_cloud_node_walking_into_the_tie_band_is_queried():
    # the node leaves x0, where sample 1 is nearest and sample 0 second, and
    # walks straight toward sample 0 to 1e-13 short of the bisector: the
    # triangle inequality still puts sample 0 farther than sample 1, but only
    # by 2e-13, inside the tie band, so the tie goes to sample 0 as in a fresh cloud
    samples = np.array([[-1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 9.0, 0.0]])
    cloud = PointCloud(samples)
    cloud.value_and_grad(np.array([[0.5, 0.0, 0.0]]))
    x = np.array([[1e-13, 0.0, 0.0]])
    assert field_call(cloud, x) == field_call(PointCloud(samples), x)
    assert np.array_equal(cloud.value_and_grad(x)[1], (x - samples[0]) / (1.0 - 1e-13))


def test_point_cloud_call_that_raises_leaves_later_calls_exact():
    # node 0 drifts from x = 1 toward the bisector x = 5 of samples 0 and 1
    # without a query; then a call that moves it across and puts node 1 on a
    # sample raises, and the call back at x = 4.9 must not see that move
    samples = np.array([[0.0, 0.0, 0.0], [10.0, 0.0, 0.0], [0.0, 50.0, 0.0]])
    cloud = PointCloud(samples)
    for nodes in ([[1.0, 0.0, 0.0], [0.0, 40.0, 0.0]], [[4.9, 0.0, 0.0], [0.0, 40.0, 0.0]],
                  [[5.1, 0.0, 0.0], [0.0, 50.0, 0.0]], [[4.9, 0.0, 0.0], [0.0, 40.0, 0.0]]):
        x = np.array(nodes)
        assert field_call(cloud, x) == field_call(PointCloud(samples), x)


def test_point_cloud_node_whose_distance_overflows_is_a_singularity():
    # the tree's squared distance to a node 1e200 away overflows: value is
    # inf, value_and_grad raises without a warning and keeps its hint
    cloud = PointCloud(np.random.default_rng(0).normal(size=(20, 3)))
    near = np.array([[0.3, 0.0, 0.0], [0.5, 0.0, 0.0]])
    far = np.array([[1e200, 0.0, 0.0], [0.5, 0.0, 0.0]])
    cloud.value_and_grad(near)
    hint = cloud._hint
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cloud.value(far)[0] == np.inf
        with pytest.raises(SingularityError, match="overflows"):
            cloud.value_and_grad(far)
    assert cloud._hint is hint
    assert field_call(cloud, near) == field_call(PointCloud(cloud.points), near)

"""Error measures, residuals, the Lyapunov functional and trace serialization."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levelgeo.curve import DiscreteCurve, MultiplierField, init_straight_line, second_difference
from levelgeo.diagnostics import (
    IterationTrace,
    TraceRow,
    geodesic_defect,
    read_records,
    tangency_defect,
    trace_row,
    write_trace_csv,
)
from levelgeo.levelset import Plane, PointCloud, SphereQuadratic, SphereSDF, Torus
from levelgeo.planar import ErgodicRecord
from levelgeo.schemes import SolverConfig, SolverState, run


def planar_saddle(m=10):
    surface = Plane(normal=(0.0, 0.0, 1.0))
    p = np.array([1.0, 0.0, 0.0])
    q = np.array([0.0, 1.0, 0.0])
    curve, mult = init_straight_line(p, q, m)
    return surface, SolverState(curve=curve, multiplier=mult)


def _plane_state(phi, lam):
    """A state on the plane z = 0 whose interior nodes have the field values phi."""
    m = len(phi) + 1
    pts = np.zeros((m + 1, 3))
    pts[:, 0] = np.arange(m + 1) / m
    pts[1:-1, 2] = phi
    return SolverState(DiscreteCurve(pts), MultiplierField(np.asarray(lam, dtype=float)))


def test_surface_error_is_signed_sum_not_sum_of_magnitudes():
    surface, cfg = Plane(normal=(0.0, 0.0, 1.0)), SolverConfig()
    lam = np.array([1.0, 2.0])
    phi = np.array([0.5, -0.25])
    assert trace_row(_plane_state(phi, lam), cfg, surface).surface_error == 0.0
    assert trace_row(_plane_state(-phi, lam), cfg, surface).surface_error == 0.0
    assert trace_row(_plane_state(phi, [1.0, 1.0]), cfg, surface).surface_error == 0.25


def test_absolute_error_validates_reference():
    curve, mult = init_straight_line(np.zeros(3), np.array([2.0, 0.0, 0.0]), 10)
    state, surface, cfg = SolverState(curve, mult), Plane(normal=(0.0, 0.0, 1.0)), SolverConfig()
    assert trace_row(state, cfg, surface, 2.0).absolute_error == 0.0
    assert abs(trace_row(state, cfg, surface, 1.5).absolute_error - 0.5) < 1e-15
    with pytest.raises(ValueError):
        trace_row(state, cfg, surface, 0.0)


@pytest.mark.parametrize("d", [0.0, -1.0, math.nan, math.inf, -math.inf])
def test_run_rejects_a_bad_reference_distance_before_stepping(d):
    init = init_straight_line(np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0]), 10)
    field_calls = []

    class Counting(SphereQuadratic):
        def value_and_grad(self, x, check=True):
            field_calls.append(len(x))
            return super().value_and_grad(x, check)

    with pytest.raises(ValueError, match="reference distance"):
        run(SolverConfig(max_iters=10), Counting(), init, reference_distance=d)
    assert len(field_calls) == 1  # the iteration-0 row's field, no step


def test_effective_alpha_per_scheme():
    # the regularized scheme drops omega no matter what the config says
    for scheme, omega, alpha in [("gda", 0.0, 1e-3), ("regularized", 0.0, 1e-3),
                                 ("base-pdhg", 3.0, 4e-3), ("var1", 3.0, 4e-3),
                                 ("var2", 3.0, 42.0)]:
        cfg = SolverConfig(scheme=scheme, omega=3.0, alpha=42.0, tau_gamma=1e-3)
        assert cfg.effective_omega == omega
        # bit for bit: alpha for var2, else (1 + effective_omega) tau_gamma
        assert cfg.effective_alpha == (42.0 if scheme == "var2" else (1.0 + omega) * 1e-3)
        assert cfg.effective_alpha == pytest.approx(alpha)


def test_residuals_vanish_at_planar_saddle():
    surface, state = planar_saddle()
    row = trace_row(state, SolverConfig(), surface)
    assert row.lambda_residual == 0.0
    # the affine blend leaves ~1e-13 of stencil noise in gamma''
    assert row.gamma_residual < 1e-9
    assert row.lyapunov_J < 1e-18


def test_lambda_perturbation_scales_with_epsilon():
    # at the saddle phi = 0, so R_lambda = -eps * delta and the dt-weighted
    # norm is eps * sqrt(dt) * |delta|_2
    surface, state = planar_saddle(m=10)
    delta = np.linspace(-1.0, 1.0, 9)
    state = SolverState(curve=state.curve, multiplier=MultiplierField(delta.copy()))
    for eps in (0.01, 0.5):
        row = trace_row(state, SolverConfig(epsilon=eps), surface)
        expected = eps * math.sqrt(0.1) * np.linalg.norm(delta)
        assert row.lambda_residual == pytest.approx(expected, rel=1e-12)
        # R_gamma picks up the multiplier force against the plane normal
        assert row.gamma_residual > 0.0


def test_lyapunov_combines_residuals_with_mu_weight():
    surface = SphereQuadratic()
    p = np.array([0.0, 0.0, 1.0])
    q = np.array([1.0, 0.0, 0.0])
    curve, mult = init_straight_line(p, q, 20)
    state = SolverState(curve=curve, multiplier=mult)
    cfg = SolverConfig(scheme="var2", alpha=75.0, epsilon=0.01)  # alpha*eps = 0.75
    row = trace_row(state, cfg, surface)
    mu = 1.0 / (1.0 - 0.75)
    expected = row.lambda_residual**2 + mu * row.gamma_residual**2
    assert row.lyapunov_J == pytest.approx(expected, rel=1e-12)


def test_lyapunov_outside_regime_raises():
    surface, state = planar_saddle()
    cfg = SolverConfig(scheme="var2", alpha=200.0, epsilon=0.01)  # alpha*eps = 2
    # mu = 1/(1 - alpha*eps) is undefined or negative: J is nan, not an error
    row = trace_row(state, cfg, surface)
    assert math.isnan(row.lyapunov_J)


def test_geodesic_defect_zero_on_affine_curves():
    curve, _ = init_straight_line(np.zeros(3), np.array([1.0, 2.0, 3.0]), 30)
    assert geodesic_defect(curve) < 1e-10


def test_geodesic_defect_on_quadratic_curve():
    # gamma(t) = (t^2, 0, 0): gamma'' = 2, gamma' = 2t; the stencil and the
    # central difference are exact, so the defect is max 4t / (1 + 4t^2)
    # over the interior nodes.
    m = 10
    t = np.arange(m + 1) / m
    pts = np.zeros((m + 1, 3))
    pts[:, 0] = t**2
    curve = DiscreteCurve(pts)
    t_int = t[1:-1]
    norm_expected = np.max(4.0 * t_int / (1.0 + 4.0 * t_int**2))
    assert geodesic_defect(curve) == pytest.approx(norm_expected, rel=1e-12)


def test_geodesic_defect_rotation_invariant():
    rng = np.random.default_rng(14)
    pts = rng.normal(size=(25, 3))
    base = DiscreteCurve(pts)
    rot, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    rotated = DiscreteCurve(pts @ rot.T)
    assert geodesic_defect(rotated) == pytest.approx(geodesic_defect(base), rel=1e-9)


def test_tangency_defect_zero_for_tangent_motion():
    # uniform arc on the unit circle: central differences are exactly
    # orthogonal to the radius, which is parallel to grad phi
    surface = SphereQuadratic()
    m = 24
    t = np.arange(m + 1) / m
    theta = 0.5 * np.pi * t
    pts = np.stack([np.cos(theta), np.sin(theta), np.zeros_like(theta)], axis=1)
    state = SolverState(DiscreteCurve(pts), MultiplierField.zeros(m))
    assert tangency_defect(state, surface) < 1e-12

    # radial segment: velocity parallel to grad phi, defect = |gamma| on nodes
    seg = np.zeros((m + 1, 3))
    seg[:, 0] = 1.0 + t
    state = SolverState(DiscreteCurve(seg), MultiplierField.zeros(m))
    assert tangency_defect(state, surface) == pytest.approx(2.0 - 1.0 / m)


def test_surface_error_of_state():
    surface = SphereQuadratic()
    curve, _ = init_straight_line(
        np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, -1.0]), 4
    )
    lam = MultiplierField(np.array([1.0, 1.0, 1.0]))
    state = SolverState(curve, lam)
    phi = surface.value(curve.interior)
    assert trace_row(state, SolverConfig(), surface).surface_error == pytest.approx(
        abs(phi.sum()))


def test_trace_csv_round_trip(tmp_path):
    surface = SphereQuadratic()
    p = np.array([0.0, 0.0, 1.0])
    q = np.array([1.0, 0.0, 0.0])
    init = init_straight_line(p, q, 20)
    _, trace = run(
        SolverConfig(max_iters=40, record_every=10), surface, init,
        reference_distance=np.pi / 2,
    )
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    header = path.read_text().splitlines()[0]
    assert header == ("iteration,length,absolute_error,relative_error,surface_error,"
                      "lyapunov_J,lambda_residual,gamma_residual,geodesic_defect")

    back = read_records(path, TraceRow)
    assert len(back) == len(trace)
    for a, b in zip(trace, back):
        assert a.iteration == b.iteration
        assert a.length == b.length  # repr round-trips floats exactly
        assert a.absolute_error == b.absolute_error
        assert a.surface_error == b.surface_error


def test_trace_csv_blank_optionals(tmp_path):
    surface = SphereQuadratic()
    init = init_straight_line(np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0]), 10)
    _, trace = run(SolverConfig(max_iters=10, record_every=5), surface, init)
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    body = path.read_text().splitlines()[1]
    # no reference distance: absolute and relative error columns stay empty
    assert ",,," in body
    back = read_records(path, TraceRow)
    assert back[0].absolute_error is None
    assert back[0].relative_error is None


finite_or_not = st.floats()  # nan and +-inf included


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(st.tuples(
    st.integers(1, 1000), finite_or_not, st.none() | finite_or_not,
    st.none() | finite_or_not, *[finite_or_not] * 5), max_size=12))
def test_trace_csv_round_trip_is_exact(rows, tmp_path_factory):
    trace, iteration = IterationTrace(), 0
    for gap, *values in rows:
        iteration += gap
        trace.append(TraceRow(iteration, *values))
    path = tmp_path_factory.mktemp("trace") / "trace.csv"
    write_trace_csv(trace, path)
    # repr keeps every bit, nan and the sign of zero included; None stays None
    assert [repr(row) for row in read_records(path, TraceRow)] == [repr(row) for row in trace]


_CLOUD = PointCloud(np.random.default_rng(12345).normal(size=(500, 3)))


@settings(max_examples=80, deadline=None)
@given(surface=st.sampled_from([SphereQuadratic(), SphereSDF(), Torus(), _CLOUD]),
       scheme=st.sampled_from(["gda", "regularized", "base-pdhg", "var1", "var2"]),
       m=st.integers(2, 40), stacked=st.integers(1, 4), seed=st.integers(0, 10**6),
       reference_distance=st.none() | st.floats(0.1, 10.0))
def test_trace_row_from_a_given_field_is_bit_identical(surface, scheme, m, stacked, seed,
                                                       reference_distance):
    # the field handed in as run_batch hands it: one member's rows of a call
    # on a stack of curves, at the last row, so at an offset of the stack
    rng = np.random.default_rng(seed)
    curves = [DiscreteCurve(rng.normal(size=(m + 1, 3))) for _ in range(stacked)]
    state = SolverState(curves[-1], MultiplierField(rng.normal(size=m - 1)),
                        int(rng.integers(0, 1000)))
    cfg = SolverConfig(scheme=scheme, tau_gamma=float(rng.uniform(1e-4, 1.0)),
                       epsilon=float(rng.uniform(0.0, 0.1)), alpha=float(rng.uniform(0, 50)))
    phi, grad = surface.value_and_grad(np.concatenate([c.interior for c in curves]))
    field = phi.reshape(stacked, -1)[-1], grad.reshape(stacked, -1, 3)[-1]

    by_field = trace_row(state, cfg, surface, reference_distance, field=field)
    own = trace_row(state, cfg, surface, reference_distance)
    assert repr(by_field) == repr(own)  # repr is exact for floats and equal for nan
    assert repr(trace_row(state, cfg, surface, reference_distance,
                          field=surface.value_and_grad(state.curve.interior))) == repr(own)


@settings(max_examples=100, deadline=None)
@given(surface=st.sampled_from([SphereSDF(), Torus(), _CLOUD]),
       scheme=st.sampled_from(["gda", "regularized", "base-pdhg", "var1", "var2"]),
       m=st.integers(2, 50), seed=st.integers(0, 10**6),
       scale=st.floats(-3.0, 3.0).map(lambda e: 10.0**e))
def test_trace_row_keeps_its_defect_and_gamma_residual(surface, scheme, m, seed, scale):
    # trace_row takes one second difference for the gamma residual and the
    # geodesic defect; each must equal its own recomputation bit for bit
    rng = np.random.default_rng(seed)
    state = SolverState(DiscreteCurve(rng.normal(size=(m + 1, 3)) * scale),
                        MultiplierField(rng.normal(size=m - 1)))
    cfg = SolverConfig(scheme=scheme, tau_gamma=float(rng.uniform(1e-4, 1.0)),
                       epsilon=float(rng.uniform(0.0, 0.1)), alpha=float(rng.uniform(0, 50)))
    phi, grad = surface.value_and_grad(state.curve.interior)
    row = trace_row(state, cfg, surface, field=(phi, grad))

    pts, m = state.curve.points, state.curve.m
    sd, vel = second_difference(state.curve), (pts[2:] - pts[:-2]) * (m / 2.0)
    dots = np.abs(np.einsum("ij,ij->i", sd, vel)) / (1.0 + np.einsum("ij,ij->i", vel, vel))
    assert repr(row.geodesic_defect) == repr(geodesic_defect(state.curve))
    assert repr(row.geodesic_defect) == repr(float(dots.max()))
    alpha, lam = cfg.effective_alpha, state.multiplier.values
    coeff = (1.0 - alpha * cfg.effective_epsilon) * lam + alpha * phi
    r_gamma = sd - coeff[:, None] * grad
    expected = math.sqrt(state.curve.dt * float(np.einsum("ij,ij->", r_gamma, r_gamma)))
    assert repr(row.gamma_residual) == repr(expected)


def test_trace_column_and_final():
    surface = SphereQuadratic()
    init = init_straight_line(np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0]), 10)
    _, trace = run(SolverConfig(max_iters=20, record_every=10), surface, init)
    assert [row.iteration for row in trace] == [0, 10, 20]
    assert trace.final.iteration == 20
    # no reference distance: the absolute_error column is empty
    assert all(row.absolute_error is None for row in trace)
    with pytest.raises(IndexError):
        IterationTrace().final
    with pytest.raises(ValueError, match="trace iterations must increase: 10 after 20"):
        trace.append(trace.rows[1])
    assert len(trace) == 3


def test_read_trace_csv_rejects_foreign_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("iteration,length\n0,1.0\n")
    with pytest.raises(ValueError):
        read_records(path, TraceRow)


@pytest.mark.parametrize("text,message", [
    ("", "header: None"),
    ("k,gap\n1,2.0\n", "header"),
    ("k,gap,bound\n1,2.0\n", "line 2"),
    ("k,gap,bound\n1,2.0,3.0\n2,2.0,3.0,4.0\n", "line 3"),
    ("k,gap,bound\n1,,3.0\n", "line 2"),
    ("k,gap,bound\n1,2.0,three\n", "line 2"),
])
def test_read_records_rejects_a_malformed_table(tmp_path, text, message):
    # an empty file, a foreign header, a short row, a long row, an empty field
    # in a column that is not optional, and a field that is not a number
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=message):
        read_records(path, ErgodicRecord)


def test_read_trace_csv_rejects_an_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(ValueError, match="header"):
        read_records(path, TraceRow)

"""Planar-surface machinery: implicit solve, kernel, ergodic gap bound.

The tolerances on the implicit solve were measured against the closed-form
solutions before being frozen here; they sit a factor ~1.3 above the observed
errors and decay at second order:

    constant rhs, tau=0.01:  m=100 -> 1.54e-4   m=200 -> 3.84e-5   m=1500 -> 6.8e-7
    impulse vs kernel, tau=0.01:  m=100 -> 6.25e-5   m=200 -> 1.57e-5
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levelgeo.curve import DiscreteCurve, MultiplierField, init_straight_line
from levelgeo.planar import (
    ERGODIC_CSV_HEADER,
    ErgodicRecord,
    PlanarProblem,
    greens_function,
    implicit_gamma_solve,
    kinetic_energy,
    lagrangian_eps,
    read_ergodic_csv,
    run_planar,
    write_ergodic_csv,
)
from levelgeo.levelset import Plane


@settings(max_examples=50, deadline=None)
@given(
    m=st.integers(min_value=2, max_value=80),
    log_tau=st.floats(min_value=-6.0, max_value=2.0),
    columns=st.sampled_from([None, 1, 3]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_implicit_solve_satisfies_the_difference_equation(m, log_tau, columns, seed):
    # (I - tau D^2) x = rhs on the interior, x = rhs on the boundary, for 1-D
    # and (m+1, k) right-hand sides, against a dense solve of the same system
    tau = 10.0**log_tau
    shape = (m + 1,) if columns is None else (m + 1, columns)
    rhs = np.random.default_rng(seed).normal(size=shape)
    x = implicit_gamma_solve(rhs, tau)
    assert x.shape == rhs.shape
    assert np.array_equal(x[0], rhs[0]) and np.array_equal(x[-1], rhs[-1])

    c = tau * m * m
    A = (np.diag(np.full(m - 1, 1.0 + 2.0 * c))
         + np.diag(np.full(m - 2, -c), -1) + np.diag(np.full(m - 2, -c), 1))
    b = rhs[1:-1].copy()
    b[0] += c * rhs[0]
    b[-1] += c * rhs[-1]
    scale = 1.0 + np.max(np.abs(rhs))
    assert np.allclose(x[1:-1], np.linalg.solve(A, b), rtol=0, atol=1e-12 * scale)
    lap = (x[2:] - 2 * x[1:-1] + x[:-2]) * m * m
    residual = x[1:-1] - tau * lap - rhs[1:-1]
    assert np.max(np.abs(residual)) <= 1e-12 * (1.0 + 4.0 * c) * scale


def test_implicit_solve_validates_arguments():
    with pytest.raises(ValueError):
        implicit_gamma_solve(np.zeros(5), 0.0)
    with pytest.raises(ValueError):
        implicit_gamma_solve(np.zeros(2), 0.01)


def analytic_constant_rhs(ts, tau, c=1.0):
    root = math.sqrt(tau)
    return c * (1.0 - np.cosh((ts - 0.5) / root) / np.cosh(0.5 / root))


@pytest.mark.parametrize(
    "m,tol",
    [(100, 2e-4), (200, 5e-5), (1500, 1e-6)],
)
def test_constant_rhs_against_closed_form(m, tol):
    tau = 0.01
    ts = np.arange(m + 1) / m
    rhs = np.ones(m + 1)
    rhs[0] = rhs[-1] = 0.0
    x = implicit_gamma_solve(rhs, tau)
    err = np.max(np.abs(x - analytic_constant_rhs(ts, tau)))
    assert err <= tol


def test_greens_function_shape_and_symmetry():
    tau = 0.01
    ts = np.linspace(0.0, 1.0, 33)
    G = greens_function(ts[:, None], ts[None, :], tau)
    assert np.allclose(G, G.T, atol=1e-15)
    assert np.allclose(G[0], 0.0) and np.allclose(G[-1], 0.0)
    assert np.all(G >= 0.0)
    with pytest.raises(ValueError):
        greens_function(-0.1, 0.5, tau)
    with pytest.raises(ValueError):
        greens_function(0.5, 0.5, 0.0)


def test_greens_function_tiny_tau_no_overflow():
    # sinh(1/sqrt(tau)) overflows float64 beyond tau ~ 2e-6; the log-space
    # evaluation must survive far past that
    tau = 1e-10
    g = greens_function(0.5, 0.5, tau)
    assert np.isfinite(g)
    # for t = s in the interior, G ~ sqrt(tau)/2 when the boundary is far
    assert g == pytest.approx(math.sqrt(tau) / 2.0, rel=1e-6)
    assert greens_function(0.2, 0.8, tau) == 0.0  # underflows cleanly, not inf/nan


def test_impulse_response_matches_kernel_at_second_order():
    # the discrete delta is e_j / dt; its response times tau samples the kernel
    tau = 0.01
    errors = {}
    for m in (100, 200):
        ts = np.arange(m + 1) / m
        j = int(round(0.3 * m))
        rhs = np.zeros(m + 1)
        rhs[j] = float(m)
        x = implicit_gamma_solve(rhs, tau) * tau
        errors[m] = np.max(np.abs(x - greens_function(ts, 0.3, tau)))
    assert errors[100] <= 1e-4
    assert errors[200] <= 2.5e-5
    assert math.log2(errors[100] / errors[200]) >= 1.8


def test_kinetic_energy_closed_form():
    p = np.zeros(3)
    q = np.array([3.0, 0.0, 4.0])
    curve, _ = init_straight_line(p, q, 17)
    # straight line at constant speed |q - p|: energy = |q - p|^2 / 2
    assert kinetic_energy(curve) == pytest.approx(12.5, rel=1e-12)


def test_lagrangian_hand_check():
    # m = 2: one interior node x, dt = 1/2
    a = np.array([0.0, 0.0, 2.0])
    surface = Plane(normal=a)
    pts = np.array([[0.0, 0.0, 0.0], [0.5, 0.0, 1.0], [1.0, 0.0, 0.0]])
    curve = DiscreteCurve(pts)
    lam = MultiplierField(np.array([3.0]))
    eps = 0.1
    kinetic = 0.5 * 2.0 * (np.sum(pts[1] ** 2) + np.sum((pts[2] - pts[1]) ** 2))
    expected = kinetic + 0.5 * (3.0 * 2.0) - 0.5 * eps * 0.5 * 9.0
    assert lagrangian_eps(curve, lam, surface, eps) == pytest.approx(expected, rel=1e-12)


def test_step_condition_matches_positive_definiteness():
    a = np.array([1.0, 0.0, 0.0])
    p = np.array([0.0, 0.0, 0.0])
    q = np.array([0.0, 1.0, 0.0])
    for tl, tg in [(0.7, 0.01), (0.7, 1.0), (0.9, 1.1), (2.0, 0.499), (2.0, 0.5)]:
        problem = PlanarProblem(a=a, p=p, q=q, m=20, tau_gamma=tg, tau_lambda=tl)
        product = tl * tg  # |a| = 1
        assert problem.step_product == pytest.approx(product)
        assert problem.step_condition_ok == (product < 1.0)
        assert (problem.a_matrix_min_eig > 0) == (product < 1.0)


def test_planar_problem_validation():
    a = np.array([1.0, 0.0, 0.0])
    ok_p = np.array([0.0, 2.0, 0.0])
    with pytest.raises(ValueError):
        PlanarProblem(a=np.zeros(3), p=ok_p, q=ok_p)
    with pytest.raises(ValueError):
        PlanarProblem(a=a, p=np.array([1.0, 0.0, 0.0]), q=ok_p)  # a.p != 0
    with pytest.raises(ValueError):
        PlanarProblem(a=a, p=ok_p, q=ok_p, m=1)
    with pytest.raises(ValueError):
        PlanarProblem(a=a, p=ok_p, q=ok_p, tau_gamma=0.0)


@pytest.mark.parametrize("field,value", [
    ("a", [math.inf, 0.0, 0.0]), ("p", [0.0, math.nan, 0.0]),
    ("q", [0.0, 0.0, math.inf]), ("tau_gamma", math.inf),
    ("tau_lambda", math.nan), ("epsilon", math.nan), ("epsilon", math.inf),
])
def test_planar_problem_rejects_non_finite_input(field, value):
    ok = dict(a=[1.0, 0.0, 0.0], p=[0.0, 0.0, 0.0], q=[0.0, 1.0, 0.0])
    with pytest.raises(ValueError, match="finite"):
        PlanarProblem(**{**ok, field: value})


def test_run_planar_from_saddle_keeps_zero_gap():
    problem = PlanarProblem(
        a=np.array([1.0, 0.0, 0.0]),
        p=np.array([0.0, 0.0, 0.0]),
        q=np.array([0.0, 1.0, 0.0]),
        m=50,
        tau_gamma=0.01,
        tau_lambda=0.7,
        epsilon=0.01,
    )
    state, records = run_planar(problem, max_iters=64)
    assert [r.k for r in records] == [1, 2, 4, 8, 16, 32, 64]
    for r in records:
        assert abs(r.gap) < 1e-14  # pure floating-point noise around the saddle
        assert r.bound == 0.0
    # the straight feasible segment never moves
    t = np.arange(51) / 50
    expected = np.outer(1 - t, problem.p) + np.outer(t, problem.q)
    assert np.allclose(state.curve.points, expected, atol=1e-12)


def perturbed_init(problem):
    curve, mult = init_straight_line(problem.p, problem.q, problem.m)
    t = np.arange(problem.m + 1) / problem.m
    curve.points[1:-1] += np.outer(np.sin(np.pi * t[1:-1]), [0.4, -0.1, 0.2])
    mult = MultiplierField(0.5 * np.sin(2 * np.pi * t[1:-1]))
    return curve, mult


def test_run_planar_gap_below_bound_everywhere():
    problem = PlanarProblem(
        a=np.array([1.0, 0.0, 0.0]),
        p=np.array([0.0, 0.0, 0.0]),
        q=np.array([0.0, 1.0, 0.0]),
        m=50,
        tau_gamma=0.7143,
        tau_lambda=0.7,
        epsilon=0.0,
    )
    assert problem.step_condition_ok
    _, records = run_planar(problem, max_iters=2048, init=perturbed_init(problem))
    assert records[0].bound > 0.0
    for r in records:
        assert r.gap <= r.bound + 1e-12, f"gap exceeds bound at k={r.k}"
    # ergodic decay: the bound is O(1/k) and the recorded gap keeps shrinking
    gaps = [r.gap for r in records if r.gap > 0]
    assert gaps[-1] < gaps[0] / 100.0


def test_run_planar_warns_when_step_condition_fails():
    problem = PlanarProblem(
        a=np.array([2.0, 0.0, 0.0]),
        p=np.array([0.0, 0.0, 0.0]),
        q=np.array([0.0, 1.0, 0.0]),
        m=20,
        tau_gamma=0.5,
        tau_lambda=0.6,  # product = 1.2 >= 1
    )
    assert not problem.step_condition_ok
    with pytest.warns(UserWarning, match="step product"):
        run_planar(problem, max_iters=2)


def test_run_planar_rejects_mismatched_init():
    problem = PlanarProblem(
        a=np.array([1.0, 0.0, 0.0]),
        p=np.array([0.0, 0.0, 0.0]),
        q=np.array([0.0, 1.0, 0.0]),
        m=30,
    )
    bad = init_straight_line(problem.p, problem.q, 20)
    with pytest.raises(ValueError):
        run_planar(problem, max_iters=4, init=bad)


def test_ergodic_csv_round_trip(tmp_path):
    problem = PlanarProblem(
        a=np.array([1.0, 0.0, 0.0]),
        p=np.array([0.0, 0.0, 0.0]),
        q=np.array([0.0, 1.0, 0.0]),
        m=30,
    )
    _, records = run_planar(problem, max_iters=32, init=perturbed_init(problem))
    path = tmp_path / "ergodic.csv"
    write_ergodic_csv(records, path)
    assert path.read_text().splitlines()[0] == ERGODIC_CSV_HEADER
    back = read_ergodic_csv(path)
    assert [(r.k, r.gap, r.bound) for r in back] == [
        (r.k, r.gap, r.bound) for r in records
    ]


@settings(max_examples=100, deadline=None)
@given(records=st.lists(st.tuples(st.integers(0, 2**62), st.floats(), st.floats()),
                        max_size=12))
def test_ergodic_csv_round_trip_is_exact(records, tmp_path_factory):
    records = [ErgodicRecord(k, gap, bound) for k, gap, bound in records]
    path = tmp_path_factory.mktemp("ergodic") / "ergodic.csv"
    write_ergodic_csv(records, path)
    assert [repr(r) for r in read_ergodic_csv(path)] == [repr(r) for r in records]

"""Planar-surface machinery: implicit solve, kernel, ergodic gap bound.

The tolerances on the implicit solve were measured against the closed-form
solutions before being frozen here; they sit a factor ~1.3 above the observed
errors and decay at second order:

    constant rhs, tau=0.01:  m=100 -> 1.54e-4   m=200 -> 3.84e-5   m=1500 -> 6.8e-7
    impulse vs kernel, tau=0.01:  m=100 -> 6.25e-5   m=200 -> 1.57e-5
"""

import dataclasses
import importlib.machinery
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
import scipy.linalg
from scipy.linalg import solve_banded
from scipy.linalg.lapack import dgtsv

import levelgeo
from levelgeo.curve import DiscreteCurve, MultiplierField, init_straight_line
from levelgeo.diagnostics import read_records, write_records
from levelgeo.harness import default_planar_perturbation
from levelgeo.planar import (
    _dgtsv,
    _gtsv,
    ErgodicRecord,
    PlanarProblem,
    greens_function,
    implicit_gamma_solve,
    kinetic_energy,
    lagrangian_eps,
    run_planar,
)
from levelgeo.levelset import Plane
from levelgeo.schemes import DivergenceError


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


def _banded_solve(rhs, tau_gamma):
    """implicit_gamma_solve as it was before the direct gtsv call: the same
    system in scipy's (3, m - 1) band storage, through solve_banded."""
    b = np.asarray(rhs, dtype=float)
    squeeze = b.ndim == 1
    if squeeze:
        b = b[:, None]
    m = len(b) - 1
    c = tau_gamma * m * m
    interior = b[1:-1].copy()
    interior[0] += c * b[0]
    interior[-1] += c * b[-1]
    bands = np.empty((3, m - 1))
    bands[0] = bands[2] = -c
    bands[1] = 1.0 + 2.0 * c
    out = np.empty_like(b)
    out[0], out[-1] = b[0], b[-1]
    out[1:-1] = solve_banded((1, 1), bands, interior, check_finite=False)
    return out[:, 0] if squeeze else out


@settings(max_examples=100, deadline=None)
@given(
    m=st.integers(min_value=2, max_value=80),
    log_tau=st.floats(min_value=-6.0, max_value=2.0),
    columns=st.sampled_from([None, 1, 3]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    bad=st.lists(st.tuples(st.integers(0, 10**6),
                           st.sampled_from([np.inf, -np.inf, np.nan])), max_size=3),
)
def test_implicit_solve_equals_solve_banded_bit_for_bit(m, log_tau, columns, seed, bad):
    # the direct gtsv call (a division at m = 2) is the computation of
    # solve_banded((1, 1), ...), non-finite entries included
    tau = 10.0**log_tau
    shape = (m + 1,) if columns is None else (m + 1, columns)
    rhs = np.random.default_rng(seed).normal(size=shape)
    for index, value in bad:
        rhs.flat[index % rhs.size] = value
    with np.errstate(invalid="ignore", over="ignore"):
        got, want = implicit_gamma_solve(rhs, tau), _banded_solve(rhs, tau)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


# _dgtsv's module is scipy.linalg's in either import order: loaded first by a
# solve, scipy.linalg reuses it and solve_banded gives the solve's bits;
# loaded first by scipy.linalg, _dgtsv returns its dgtsv and loads nothing
ONE_FLAPACK = {
    "planar-first": """
import sys
import numpy as np
from levelgeo import planar
m, tau = 32, 0.01
rhs = np.random.default_rng(0).normal(size=(m + 1, 3))
got = planar.implicit_gamma_solve(rhs, tau)
assert "scipy.linalg" not in sys.modules
flapack = sys.modules["scipy.linalg._flapack"]
import scipy.linalg
assert scipy.linalg.lapack._flapack is flapack
assert scipy.linalg.lapack.dgtsv is planar._dgtsv()
c = tau * m * m
interior = rhs[1:-1].copy()
interior[0] += c * rhs[0]
interior[-1] += c * rhs[-1]
bands = np.array([[-c] * (m - 1), [1.0 + 2.0 * c] * (m - 1), [-c] * (m - 1)])
assert scipy.linalg.solve_banded((1, 1), bands, interior).tobytes() == got[1:-1].tobytes()
""",
    "scipy-linalg-first": """
import sys
import scipy.linalg
from levelgeo import planar
loaded = dict(sys.modules)
assert planar._dgtsv() is scipy.linalg.lapack.dgtsv
assert sys.modules == loaded
""",
}


@pytest.mark.parametrize("snippet", ONE_FLAPACK.values(), ids=list(ONE_FLAPACK))
def test_dgtsv_is_scipy_linalgs_in_either_import_order(tmp_path, snippet):
    src = Path(levelgeo.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", snippet], cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


FLAPACK = "scipy.linalg._flapack"


def test_scipy_extension_names_the_module_it_cannot_find(monkeypatch):
    monkeypatch.delitem(sys.modules, FLAPACK, raising=False)
    monkeypatch.setattr(importlib.machinery.PathFinder, "find_spec",
                        classmethod(lambda cls, name, path=None, target=None: None))
    with pytest.raises(ImportError, match=f"cannot find {re.escape(FLAPACK)}") as exc:
        _dgtsv()
    assert exc.value.name == FLAPACK
    assert FLAPACK not in sys.modules


def test_scipy_extension_honours_an_import_block(monkeypatch):
    # as import does, a None entry in sys.modules stops the load
    monkeypatch.setitem(sys.modules, FLAPACK, None)
    with pytest.raises(ImportError, match=rf"import of {re.escape(FLAPACK)} halted") as exc:
        _dgtsv()
    assert exc.value.name == FLAPACK
    assert sys.modules[FLAPACK] is None


def test_gtsv_reports_a_singular_matrix_as_numpys_error():
    # zero bands: gtsv meets a zero pivot and reports it through info > 0
    def solve():
        return _gtsv(dgtsv, np.zeros(2), np.zeros(3), np.ones((3, 2), order="F"))

    with pytest.raises(np.linalg.LinAlgError) as info:
        solve()
    assert type(info.value) is np.linalg.LinAlgError
    assert str(info.value) == "singular matrix"
    with pytest.raises(scipy.linalg.LinAlgError):  # the same class
        solve()


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


def _block_min_eig(a, tl, tg):
    """Least eigenvalue of the A-norm block matrix [[1/tau_l, a^T], [a, I/tau_g]]."""
    block = np.zeros((4, 4))
    block[0, 0] = 1.0 / tl
    block[0, 1:] = block[1:, 0] = a
    block[1:, 1:] = np.eye(3) / tg
    return np.linalg.eigvalsh(block).min()


def _schur_complement(a, tl, tg):
    """1/tau_l - tau_g |a|^2 in exact arithmetic on the given doubles: the
    block matrix is positive definite iff this is > 0 (I/tau_g is)."""
    return 1 / Fraction(tl) - Fraction(tg) * sum(Fraction(float(x)) ** 2 for x in a)


# The largest tau_gamma whose step product is still below 1, for each (a, tau_l);
# eigvalsh puts the block matrix's least eigenvalue at 0.0 or below on some.
_BOUNDARY_STEPS = [
    ((0.0, 0.0, 2.0), 0.7, 0.3571428571428571),
    ((1.0, 0.0, 0.0), 0.7, 1.4285714285714284),
    ((1.0, 0.0, 0.0), 0.9, 1.111111111111111),
    ((0.0, 3.0, 0.0), 0.3, 0.3703703703703703),
    ((1.0, 2.0, 2.0), 0.7, 0.15873015873015872),
    ((0.0, 0.0, 2.0), 0.3, 0.8333333333333333),
]


def test_step_condition_matches_positive_definiteness():
    a = np.array([1.0, 0.0, 0.0])
    p = np.array([0.0, 0.0, 0.0])
    q = np.array([0.0, 1.0, 0.0])
    for tl, tg in [(0.7, 0.01), (0.7, 1.0), (0.9, 1.1), (2.0, 0.499), (2.0, 0.5)]:
        problem = PlanarProblem(a=a, p=p, q=q, m=20, tau_gamma=tg, tau_lambda=tl)
        product = tl * tg  # |a| = 1
        assert problem.step_product == pytest.approx(product)
        assert problem.step_condition_ok == (product < 1.0)
        assert (_block_min_eig(a, tl, tg) > 0) == (product < 1.0)
        assert problem.step_condition_ok == (_schur_complement(a, tl, tg) > 0)
    for a, tl, tg in _BOUNDARY_STEPS:
        a = np.array(a)
        problem = PlanarProblem(a=a, p=p, q=np.cross(a, [1.0, 1.0, 1.0]), m=8,
                                tau_gamma=tg, tau_lambda=tl)
        assert problem.step_product < 1.0 <= tl * np.nextafter(tg, np.inf) * float(a @ a)
        assert problem.step_condition_ok
        assert _schur_complement(a, tl, tg) > 0


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


def test_planar_problem_rejects_a_fractional_m():
    with pytest.raises(ValueError, match="m must be an integer"):
        PlanarProblem(a=[1.0, 0.0, 0.0], p=[0.0, 0.0, 0.0], q=[0.0, 1.0, 0.0], m=10.5)


def test_run_planar_rejects_a_fractional_iteration_count():
    problem = PlanarProblem(a=[1.0, 0.0, 0.0], p=[0.0, 0.0, 0.0], q=[0.0, 1.0, 0.0], m=10)
    with pytest.raises(ValueError, match="max_iters must be a nonnegative integer"):
        run_planar(problem, 2.5)


def test_a_diverging_planar_run_raises_without_numpy_warnings():
    problem = PlanarProblem(a=[1.0, 0.0, 0.0], p=[0.0, 0.0, 0.0], q=[0.0, 1.0, 0.0], m=8,
                            tau_gamma=100.0, tau_lambda=100.0, epsilon=0.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(DivergenceError, match="iteration 235: non-finite planar"):
            run_planar(problem, 4000, init=default_planar_perturbation(problem))
    # the step-condition warning, and no overflow warning from numpy
    assert [w.category for w in caught] == [UserWarning]


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


def test_run_planar_starts_at_the_saddle_and_leaves_an_init_as_it_was():
    problem = PlanarProblem(a=np.array([1.0, 0.0, 0.0]), p=np.array([0.0, -1.0, 0.0]),
                            q=np.array([0.0, 1.0, 0.0]), m=20)
    saddle = init_straight_line(problem.p, problem.q, problem.m)
    ours = run_planar(problem, 40)
    theirs = run_planar(problem, 40, init=saddle)
    for (state, records) in (ours, theirs):
        assert state.iteration == 40
    assert ours[0].curve.points.tobytes() == theirs[0].curve.points.tobytes()
    assert ours[0].multiplier.values.tobytes() == theirs[0].multiplier.values.tobytes()
    assert [vars(r) for r in ours[1]] == [vars(r) for r in theirs[1]]

    init = default_planar_perturbation(problem)
    before = init[0].points.tobytes(), init[1].values.tobytes()
    state, _ = run_planar(problem, 40, init=init)
    assert (init[0].points.tobytes(), init[1].values.tobytes()) == before
    assert state.curve.points.tobytes() != before[0]


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


def _plane_problem(seed, m, tau_gamma, tau_lambda, epsilon, amplitude, lam_scale):
    """A random plane a.x = 0 with endpoints in it, and a perturbed init whose
    multiplier is scaled by lam_scale."""
    rng = np.random.default_rng(seed)
    a, v, w = rng.normal(size=(3, 3))
    p = v - (a @ v) / (a @ a) * a
    q = w - (a @ w) / (a @ a) * a
    assume(max(abs(a @ p), abs(a @ q)) <= 1e-12)
    problem = PlanarProblem(a=a, p=p, q=q, m=m, tau_gamma=tau_gamma,
                            tau_lambda=tau_lambda, epsilon=epsilon)
    curve, _ = init_straight_line(p, q, m)
    curve.points[1:-1] += amplitude * rng.normal(size=(m - 1, 3))
    mult = MultiplierField(lam_scale * rng.normal(size=m - 1))
    return problem, (curve, mult)


def _allocating_run_planar(problem, max_iters, init):
    """run_planar as it was before the preallocated buffers, in plain
    expressions with its operation order: fresh arrays every iteration and
    the solve_banded path above.  Returns (points, multiplier, records) or
    raises DivergenceError like run_planar."""
    a, m = problem.a, problem.m
    ref_curve, ref_mult = init_straight_line(problem.p, problem.q, m)
    field = Plane(a)
    d_lam = init[1].values - ref_mult.values
    d_gam = init[0].interior - ref_curve.interior
    bound_base = (1.0 / m) * float(
        np.dot(d_lam, d_lam) / problem.tau_lambda
        + 2.0 * np.dot(d_lam, d_gam @ a)
        + np.einsum("ij,ij->", d_gam, d_gam) / problem.tau_gamma
    )
    shrink = 1.0 / (1.0 + problem.epsilon * problem.tau_lambda)
    pts = init[0].points.copy()
    lam = init[1].values.copy()
    gamma_sum = np.zeros_like(pts[1:-1])
    lam_sum = np.zeros_like(lam)
    records = []
    next_record = 1
    for k in range(1, max_iters + 1):
        lam_new = (lam + problem.tau_lambda * (pts[1:-1] @ a)) * shrink
        rhs = pts.copy()
        rhs[1:-1] -= problem.tau_gamma * np.outer(2.0 * lam_new - lam, a)
        pts = _banded_solve(rhs, problem.tau_gamma)
        lam = lam_new
        gamma_sum += pts[1:-1]
        lam_sum += lam
        if not (np.isfinite(pts).all() and np.isfinite(lam).all()):
            raise DivergenceError(k, "non-finite planar iterate", trace=records)
        if k == next_record or k == max_iters:
            avg_pts = pts.copy()
            avg_pts[1:-1] = gamma_sum / k
            avg_mult = MultiplierField(lam_sum / k)
            eps = problem.epsilon
            gap = (lagrangian_eps(DiscreteCurve(avg_pts), ref_mult, field, eps)
                   - lagrangian_eps(ref_curve, avg_mult, field, eps))
            records.append(ErgodicRecord(k=k, gap=gap, bound=bound_base / (2.0 * k)))
            while next_record <= k:
                next_record *= 2
    return pts, lam, records


def _outcome(run):
    # bytes and repr are exact, and equal for nan, which == is not
    with warnings.catch_warnings(), np.errstate(over="ignore", invalid="ignore"):
        warnings.simplefilter("ignore")
        try:
            pts, lam, records = run()
        except DivergenceError as exc:
            return "diverged", exc.iteration, str(exc), [repr(r) for r in exc.trace]
    return "budget", pts.tobytes(), lam.tobytes(), [repr(r) for r in records]


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    m=st.integers(min_value=2, max_value=60),
    log_tau_gamma=st.floats(min_value=-4.0, max_value=2.0),
    log_tau_lambda=st.floats(min_value=-3.0, max_value=2.0),
    epsilon=st.just(0.0) | st.floats(min_value=1e-4, max_value=10.0),
    amplitude=st.floats(min_value=0.0, max_value=3.0),
    lam_scale=st.floats(min_value=0.0, max_value=5.0),
    iters=st.integers(min_value=0, max_value=400),
)
# step products far above 1: these diverge within the budget
@example(seed=0, m=8, log_tau_gamma=2.0, log_tau_lambda=2.0, epsilon=0.0,
         amplitude=1.0, lam_scale=1.0, iters=400)
@example(seed=1, m=2, log_tau_gamma=2.0, log_tau_lambda=2.0, epsilon=0.0,
         amplitude=1.0, lam_scale=1.0, iters=400)
# finite throughout, but the squares of the nodes overflow: the cheap
# finiteness test fails at every iteration and the exact one runs on
@example(seed=0, m=8, log_tau_gamma=-2.0, log_tau_lambda=-1.0, epsilon=0.0,
         amplitude=1e160, lam_scale=1.0, iters=50)
def test_run_planar_equals_the_allocating_loop(seed, m, log_tau_gamma, log_tau_lambda,
                                                epsilon, amplitude, lam_scale, iters):
    # the loop on preallocated buffers and one gtsv call per iteration does
    # the arithmetic of the loop before it, in its order: every bit of the
    # final state and records, and the same divergence
    problem, init = _plane_problem(seed, m, 10.0**log_tau_gamma, 10.0**log_tau_lambda,
                                   epsilon, amplitude, lam_scale)

    def buffered():
        state, records = run_planar(problem, iters, init=init)
        return state.curve.points, state.multiplier.values, records

    def allocating():
        return _allocating_run_planar(problem, iters, init)

    assert _outcome(buffered) == _outcome(allocating)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    m=st.integers(min_value=2, max_value=60),
    product=st.floats(min_value=1e-6, max_value=0.999),
    log_tau_gamma=st.floats(min_value=-3.0, max_value=2.0),
    epsilon=st.just(0.0) | st.floats(min_value=1e-4, max_value=10.0),
    amplitude=st.floats(min_value=0.0, max_value=3.0),
    lam_scale=st.floats(min_value=0.0, max_value=5.0),
    iters=st.integers(min_value=1, max_value=512),
)
def test_run_planar_gap_stays_below_bound(seed, m, product, log_tau_gamma, epsilon,
                                          amplitude, lam_scale, iters):
    # the Chambolle-Pock ergodic bound against the saddle, for any plane,
    # endpoints, perturbed init and steps with tau_l * tau_g * |a|^2 < 1
    tau_gamma = 10.0**log_tau_gamma
    problem, init = _plane_problem(seed, m, tau_gamma, 1.0, epsilon, amplitude,
                                   lam_scale)
    a = problem.a
    problem = dataclasses.replace(problem, tau_lambda=product / (tau_gamma * (a @ a)))
    assume(problem.step_condition_ok)
    _, records = run_planar(problem, iters, init=init)
    for r in records:
        assert r.gap <= r.bound + 1e-12 * (1.0 + r.bound), f"gap above bound at k={r.k}"


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
    write_records(path, ErgodicRecord, records)
    assert path.read_text().splitlines()[0] == "k,gap,bound"
    back = read_records(path, ErgodicRecord)
    assert [(r.k, r.gap, r.bound) for r in back] == [
        (r.k, r.gap, r.bound) for r in records
    ]


@settings(max_examples=100, deadline=None)
@given(records=st.lists(st.tuples(st.integers(0, 2**62), st.floats(), st.floats()),
                        max_size=12))
def test_ergodic_csv_round_trip_is_exact(records, tmp_path_factory):
    records = [ErgodicRecord(k, gap, bound) for k, gap, bound in records]
    path = tmp_path_factory.mktemp("ergodic") / "ergodic.csv"
    write_records(path, ErgodicRecord, records)
    assert [repr(r) for r in read_records(path, ErgodicRecord)] == [repr(r) for r in records]

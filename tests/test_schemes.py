"""Iteration schemes: fixed points, equivalences, bounds, divergence handling."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from levelgeo import diagnostics, schemes
from levelgeo.curve import (
    DiscreteCurve,
    MultiplierField,
    curve_length,
    init_randomized,
    init_straight_line,
)
from levelgeo.diagnostics import IterationTrace, trace_row, write_trace_csv
from levelgeo.levelset import (
    Plane,
    PointCloud,
    SingularityError,
    SphereQuadratic,
    SphereSDF,
)
from levelgeo.schemes import (
    DIVERGENCE_LENGTH_FACTOR,
    DivergenceError,
    Problem,
    Scheme,
    SolverConfig,
    SolverState,
    run,
    run_batch,
)


def make_state(p, q, m=40, surface=None, tau_r=0.0, seed=0):
    if tau_r > 0:
        curve, mult = init_randomized(p, q, m, surface, tau_r=tau_r, seed=seed)
    else:
        curve, mult = init_straight_line(p, q, m)
    return SolverState(curve=curve, multiplier=mult)


def one_iteration(state, cfg, surface):
    """The state one iteration after `state`, by a run of one iteration; it
    starts again at iteration 0, so the result's iteration is 1."""
    return run(dataclasses.replace(cfg, max_iters=1), surface,
               (state.curve, state.multiplier))[0]


def test_feasible_straight_line_is_a_fixed_point_on_plane():
    # both endpoints in the plane z = 0: straight segment + zero multiplier
    # is the exact saddle, so one step of any scheme changes nothing.
    surface = Plane(normal=(0.0, 0.0, 1.0))
    p = np.array([1.0, 0.0, 0.0])
    q = np.array([0.0, 1.0, 0.0])
    for scheme in Scheme:
        cfg = SolverConfig(scheme=scheme, epsilon=0.01)
        state = make_state(p, q)
        new = one_iteration(state, cfg, surface)
        assert np.array_equal(new.curve.points, state.curve.points), scheme
        assert np.array_equal(new.multiplier.values, state.multiplier.values)
        assert new.iteration == 1


def test_regularized_equals_base_with_zero_omega():
    surface = SphereQuadratic()
    p = np.array([0.0, 0.0, 1.0])
    q = np.array([0.0, 0.0, -1.0])
    init = init_randomized(p, q, 60, surface, tau_r=2.0, seed=4)

    cfg_reg = SolverConfig(scheme="regularized", max_iters=200, record_every=50)
    cfg_base = SolverConfig(scheme="base-pdhg", omega=0.0, max_iters=200, record_every=50)
    state_reg, _ = run(cfg_reg, surface, init)
    state_base, _ = run(cfg_base, surface, init)
    assert np.array_equal(state_reg.curve.points, state_base.curve.points)
    assert np.array_equal(state_reg.multiplier.values, state_base.multiplier.values)

    # the regularized scheme ignores omega entirely
    cfg_reg_w = SolverConfig(scheme="regularized", omega=123.0, max_iters=200, record_every=50)
    state_reg_w, _ = run(cfg_reg_w, surface, init)
    assert np.array_equal(state_reg_w.curve.points, state_reg.curve.points)


def test_gda_ignores_epsilon():
    surface = SphereQuadratic()
    p = np.array([0.0, 0.0, 1.0])
    q = np.array([1.0, 0.0, 0.0])
    init = init_randomized(p, q, 40, surface, tau_r=1.0, seed=2)
    out = []
    for eps in (0.0, 5.0):
        cfg = SolverConfig(scheme="gda", epsilon=eps, max_iters=100, record_every=100)
        out.append(run(cfg, surface, init))
    (state0, trace0), (state1, trace1) = out
    assert np.array_equal(state0.curve.points, state1.curve.points)
    assert np.array_equal(state0.multiplier.values, state1.multiplier.values)
    # the residuals and J too: GDA runs at effective_epsilon = 0 whatever epsilon says
    assert _rows(trace0) == _rows(trace1)


def test_multiplier_stays_inside_regularization_bound():
    # lam+ = (lam + tau*phi) / (1 + eps*tau) keeps |lam| <= max(|lam_0|, max|phi|/eps)
    surface = SphereQuadratic()
    p = np.array([0.0, 0.0, 1.0])
    q = np.array([0.0, 0.0, -1.0])
    cfg = SolverConfig(scheme="regularized", epsilon=0.01, tau_lambda=0.7, tau_gamma=1e-5)
    state = make_state(p, q, m=50, surface=surface, tau_r=3.0, seed=1)
    phi_running_max = float(np.max(np.abs(surface.value(state.curve.interior))))
    for _ in range(300):
        state = one_iteration(state, cfg, surface)
        phi_running_max = max(
            phi_running_max, float(np.max(np.abs(surface.value(state.curve.interior))))
        )
        bound = phi_running_max / cfg.epsilon
        assert np.max(np.abs(state.multiplier.values)) <= bound + 1e-9


def test_divergence_raises_with_context():
    surface = SphereQuadratic()
    p = np.array([0.0, 0.0, 1.0])
    q = np.array([0.0, 0.0, -1.0])
    cfg = SolverConfig(
        scheme="base-pdhg", tau_gamma=0.5, tau_lambda=0.7, epsilon=0.01,
        max_iters=500, record_every=1,
    )
    init = init_randomized(p, q, 40, surface, tau_r=4.0, seed=0)
    with pytest.raises(DivergenceError) as exc:
        run(cfg, surface, init)
    err = exc.value
    assert err.iteration >= 1
    assert err.state is not None and err.trace is not None
    assert np.isfinite(err.state.curve.points).all()
    assert len(err.trace) >= 1

    # chained one-iteration runs apply the same check and fail at the same iteration
    state = SolverState(curve=init[0], multiplier=init[1])
    with pytest.raises(DivergenceError) as by_step:
        for k in range(1, cfg.max_iters + 1):
            state = one_iteration(state, cfg, surface)
    assert k == err.iteration
    assert np.array_equal(by_step.value.state.curve.points, err.state.curve.points)


def test_run_is_deterministic():
    surface = SphereSDF()
    p = np.array([0.0, 0.0, 1.0])
    q = np.array([0.0, 0.0, -1.0])
    init = init_randomized(p, q, 50, surface, tau_r=4.0, seed=9)
    cfg = SolverConfig(max_iters=300, record_every=25)
    s1, t1 = run(cfg, surface, init)
    s2, t2 = run(cfg, surface, init)
    assert np.array_equal(s1.curve.points, s2.curve.points)
    assert np.array_equal(s1.multiplier.values, s2.multiplier.values)
    assert [r.iteration for r in t1] == [r.iteration for r in t2]
    assert all(a.length == b.length for a, b in zip(t1, t2))


def test_endpoints_never_move():
    surface = SphereQuadratic()
    p = np.array([0.0, 0.0, 1.0])
    q = np.array([1.0, 0.0, 0.0])
    init = init_randomized(p, q, 30, surface, tau_r=2.0, seed=3)
    for scheme in ("gda", "base-pdhg", "var1", "var2"):
        cfg = SolverConfig(scheme=scheme, max_iters=200, record_every=200)
        state, _ = run(cfg, surface, init)
        assert np.array_equal(state.curve.p, p)
        assert np.array_equal(state.curve.q, q)


def test_trace_records_expected_iterations():
    surface = SphereQuadratic()
    p = np.array([0.0, 0.0, 1.0])
    q = np.array([1.0, 0.0, 0.0])
    init = init_straight_line(p, q, 20)
    cfg = SolverConfig(max_iters=95, record_every=30)
    _, trace = run(cfg, surface, init)
    assert [r.iteration for r in trace] == [0, 30, 60, 90, 95]

    _, trace0 = run(SolverConfig(max_iters=0), surface, init)
    assert [r.iteration for r in trace0] == [0]


def test_var1_second_update_differs_from_base():
    surface = SphereQuadratic()
    p = np.array([0.0, 0.0, 1.0])
    q = np.array([0.0, 0.0, -1.0])
    init = init_randomized(p, q, 40, surface, tau_r=2.0, seed=6)
    cfg1 = SolverConfig(scheme="var1", omega=10.0, max_iters=1, record_every=1)
    cfg2 = SolverConfig(scheme="base-pdhg", omega=10.0, max_iters=1, record_every=1)
    s1, _ = run(cfg1, surface, init)
    s2, _ = run(cfg2, surface, init)
    # the curves agree after one step (same lam~) but the committed multipliers differ
    assert np.array_equal(s1.curve.points, s2.curve.points)
    assert not np.array_equal(s1.multiplier.values, s2.multiplier.values)


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(tau_gamma=0.0)
    with pytest.raises(ValueError):
        SolverConfig(tau_lambda=-1.0)
    with pytest.raises(ValueError):
        SolverConfig(epsilon=-0.1)
    with pytest.raises(ValueError):
        SolverConfig(omega=float("nan"))
    with pytest.raises(ValueError, match="alpha must be nonnegative and finite"):
        SolverConfig(alpha=-1.0)
    with pytest.raises(ValueError):
        SolverConfig(record_every=0)
    with pytest.raises(ValueError):
        SolverConfig(scheme="not-a-scheme")

    SolverConfig(scheme="gda", epsilon=0.0).validate_strict()
    SolverConfig(epsilon=0.0)  # permissive construction for sweeps
    with pytest.raises(ValueError):
        SolverConfig(epsilon=0.0).validate_strict()
    with pytest.raises(ValueError):
        SolverConfig(scheme="var2", epsilon=0.0).validate_strict()


def test_config_rejects_a_fractional_max_iters():
    with pytest.raises(ValueError, match="max_iters must be a nonnegative integer"):
        SolverConfig(max_iters=2.5)


def test_config_rejects_a_fractional_record_every():
    with pytest.raises(ValueError, match="record_every must be an integer"):
        SolverConfig(record_every=2.5)


def test_state_validates_resolution_match():
    curve, _ = init_straight_line(np.zeros(3), np.ones(3), 10)
    from levelgeo.curve import MultiplierField

    with pytest.raises(ValueError):
        SolverState(curve=curve, multiplier=MultiplierField.zeros(20))


@settings(max_examples=50, deadline=None)
@given(
    scheme=st.sampled_from(list(Scheme)),
    m=st.integers(2, 60),
    courant=st.floats(0.01, 0.4),
    n=st.integers(0, 30),
    record_every=st.integers(1, 10),
    seed=st.integers(0, 1000),
    diverge=st.booleans(),
)
def test_run_equals_chained_steps(scheme, m, courant, n, record_every, seed,
                                  diverge):
    # tau_gamma = courant / m^2 is inside the explicit stability limit
    # 1 / (2 m^2); tau_gamma = 0.5 is far outside it for every m >= 2
    surface = SphereQuadratic()
    p = np.array([0.0, 0.0, 1.0])
    q = np.array([1.0, 0.0, 0.0])
    init = init_randomized(p, q, m, surface, tau_r=1.0, seed=seed)
    init_points = init[0].points.copy()
    cfg = SolverConfig(scheme=scheme, tau_gamma=0.5 if diverge else courant / m**2,
                       max_iters=200 if diverge else n, record_every=record_every)

    try:
        by_run, run_error = run(cfg, surface, init)[0], None
    except DivergenceError as exc:
        by_run, run_error = exc.state, exc
    # chained one-iteration runs, each from iteration 0: the loop counter k
    # is the iteration of the chain, and `done` the iterations it completed
    by_step, step_error, done = SolverState(curve=init[0], multiplier=init[1]), None, 0
    try:
        for k in range(1, cfg.max_iters + 1):
            by_step = one_iteration(by_step, cfg, surface)
            done = k
    except DivergenceError as exc:
        by_step, step_error = exc.state, exc

    assert (run_error is not None) == diverge
    assert (step_error is not None) == diverge
    if diverge:
        assert run_error.iteration == k
        assert str(run_error) == str(step_error).replace("iteration 1:", f"iteration {k}:", 1)
        assert by_run.iteration == run_error.iteration - 1
    assert by_run.iteration == done
    assert np.array_equal(by_run.curve.points, by_step.curve.points)
    assert np.array_equal(by_run.multiplier.values, by_step.multiplier.values)
    for state in (by_run, by_step):
        assert np.array_equal(state.curve.p, p)
        assert np.array_equal(state.curve.q, q)
    assert np.array_equal(init[0].points, init_points)


def test_run_builds_states_only_at_record_points(monkeypatch):
    # the loop steps on preallocated buffers: states are built for the
    # initial row, at record points and for the return, never per iteration
    built = {"DiscreteCurve": 0, "SolverState": 0}
    for name in built:
        cls = getattr(schemes, name)

        def counted(*args, _cls=cls, _name=name, **kwargs):
            built[_name] += 1
            return _cls(*args, **kwargs)

        monkeypatch.setattr(schemes, name, counted)

    surface = SphereQuadratic()
    init = init_randomized(np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0]),
                           30, surface, tau_r=1.0, seed=0)
    counts = []
    for iters in (1000, 2000):
        built.update(dict.fromkeys(built, 0))
        run(SolverConfig(max_iters=iters, record_every=iters // 2), surface, init)
        counts.append(dict(built))
    assert counts[0] == counts[1]
    assert counts[0]["DiscreteCurve"] <= 4
    assert counts[0]["SolverState"] <= 3


def _rows(trace):
    # repr is exact for floats and equal for nan, which == is not
    return [repr(row) for row in trace]


def _unstacked_run(cfg, surface, init, reference_distance, record_at):
    """The single-curve kernel as it was before the stacked workspace, in plain
    expressions with its operation order: one problem, (m+1, 3) points, scalar
    step sizes.  Returns (state, trace) or raises DivergenceError like run()."""
    pts, lam, m = init[0].points.copy(), init[1].values.copy(), init[1].m
    shrink = 1.0 / (1.0 + cfg.epsilon * cfg.tau_lambda)
    cap = DIVERGENCE_LENGTH_FACTOR * max(float(np.linalg.norm(pts[-1] - pts[0])), 1e-6)

    def state(k):
        return SolverState(DiscreteCurve(pts.copy()), MultiplierField(lam.copy()), k)

    trace = IterationTrace()
    trace.append(trace_row(state(0), cfg, surface, reference_distance))
    for k in range(1, cfg.max_iters + 1):
        phi, grad = surface.value_and_grad(pts[1:-1])
        new_lam = lam + phi * cfg.tau_lambda
        tilde = new_lam
        if cfg.scheme is not Scheme.GDA:
            new_lam = new_lam * shrink
            if cfg.scheme is Scheme.VAR2:
                tilde = new_lam * (1.0 - cfg.alpha * cfg.epsilon) + phi * cfg.alpha
            else:
                omega = 0.0 if cfg.scheme is Scheme.REGULARIZED else cfg.omega
                tilde = new_lam + (new_lam - lam) * omega
                if cfg.scheme is Scheme.VAR1:
                    new_lam = (tilde + phi * cfg.tau_lambda) * shrink
        sd = (pts[2:] - pts[1:-1] * 2.0 + pts[:-2]) * m**2
        new_pts = pts.copy()
        new_pts[1:-1] = pts[1:-1] - (tilde[:, None] * grad - sd) * cfg.tau_gamma
        finite = np.isfinite(new_pts).all() and np.isfinite(new_lam).all()
        if not finite or np.linalg.norm(np.diff(new_pts, axis=0), axis=1).sum() > cap:
            reason = (f"curve length exceeded {cap:.3g}" if finite
                      else "non-finite value in update")
            raise DivergenceError(k, reason, trace, state(k - 1))
        pts, lam = new_pts, new_lam
        if k in record_at or k % cfg.record_every == 0 or k == cfg.max_iters:
            trace.append(trace_row(state(k), cfg, surface, reference_distance))
    return state(cfg.max_iters), trace


@settings(max_examples=60, deadline=None)
@given(
    scheme=st.sampled_from(list(Scheme)),
    m=st.integers(2, 40),
    steps=st.lists(st.tuples(st.floats(0.01, 3.0), st.floats(0.05, 2.0),
                             st.floats(0.0, 0.5), st.floats(0.0, 3.0),
                             st.floats(0.0, 50.0), st.integers(0, 1000)),
                   min_size=1, max_size=5),
    n=st.integers(0, 60),
    record_every=st.integers(1, 12),
    record_at=st.lists(st.integers(-2, 70), max_size=6),
    sdf=st.booleans(),
)
def test_batch_equals_serial_runs(scheme, m, steps, n, record_every, record_at, sdf):
    # courant = tau_gamma * m^2 above 1/2 is outside the explicit stability
    # limit, so members with different courant numbers diverge at different
    # iterations (or not at all within n)
    surface = SphereSDF() if sdf else SphereQuadratic()
    p = np.array([0.0, 0.0, 1.0])
    q = np.array([1.0, 0.0, 0.0])
    problems = [
        Problem(SolverConfig(scheme=scheme, tau_gamma=courant / m**2,
                             tau_lambda=tau_lambda, epsilon=epsilon, omega=omega,
                             alpha=alpha, max_iters=n, record_every=record_every),
                init_randomized(p, q, m, surface, tau_r=1.0, seed=seed),
                math.pi / 2 if seed % 2 else None)
        for courant, tau_lambda, epsilon, omega, alpha, seed in steps]
    init_points = [problem.init[0].points.copy() for problem in problems]

    batch, outcomes = run_batch(problems, surface, record_at=sorted(record_at))

    # each member against the unstacked kernel on its own problem: the numbers
    # do not depend on B and are those of the kernel before stacking
    executed = 0
    for problem, outcome in zip(problems, outcomes):
        try:
            state, trace = _unstacked_run(problem.cfg, surface, problem.init,
                                          problem.reference_distance, record_at)
            error = None
            executed += n
        except DivergenceError as exc:
            state, trace, error = exc.state, exc.trace, exc
            executed += exc.iteration
        assert outcome.stop == ("budget" if error is None else "diverged")
        assert str(outcome.error) == str(error)
        if error is not None:
            assert outcome.error.iteration == error.iteration
            assert outcome.error.state is outcome.state
        assert outcome.state.iteration == state.iteration
        assert np.array_equal(outcome.state.curve.points, state.curve.points)
        assert np.array_equal(outcome.state.multiplier.values, state.multiplier.values)
        assert _rows(outcome.trace) == _rows(trace)
        if error is None:
            assert {row.iteration for row in trace} == (
                {0, n} | set(range(record_every, n + 1, record_every))
                | {k for k in record_at if 0 <= k <= n})
    assert batch.iteration == executed
    # the batch reads its inputs and never writes them
    for problem, points in zip(problems, init_points):
        assert np.array_equal(problem.init[0].points, points)


@settings(max_examples=40, deadline=None)
@given(
    scheme=st.sampled_from(list(Scheme)),
    m=st.integers(2, 30),
    courants=st.lists(st.floats(0.01, 3.0), min_size=1, max_size=6),
    n=st.integers(1, 40),
    seed=st.integers(0, 1000),
)
def test_batch_keeps_every_endpoint_pinned(scheme, m, courants, n, seed):
    surface = SphereQuadratic()
    rng = np.random.default_rng(seed)
    problems = []
    for courant in courants:
        p, q = (v / np.linalg.norm(v) for v in rng.normal(size=(2, 3)))
        problems.append(Problem(
            SolverConfig(scheme=scheme, tau_gamma=courant / m**2, max_iters=n,
                         record_every=1),
            init_randomized(p, q, m, surface, tau_r=1.0, seed=seed)))
    _, outcomes = run_batch(problems, surface)
    for problem, outcome in zip(problems, outcomes):
        for points in (outcome.state.curve.points, problem.init[0].points):
            assert np.array_equal(points[0], problem.init[0].p)
            assert np.array_equal(points[-1], problem.init[0].q)


def test_batch_names_each_members_divergence():
    # one member overflows to inf at once, one outgrows its length cap, one
    # runs to its budget
    surface = SphereQuadratic()
    init = init_randomized(np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0]),
                           20, surface, tau_r=1.0, seed=0)
    problems = [Problem(SolverConfig(tau_gamma=tau, max_iters=50), init)
                for tau in (1.7e308, 0.5, 1e-4)]
    with np.errstate(over="ignore", invalid="ignore"):
        batch, outcomes = run_batch(problems, surface)
    assert [outcome.stop for outcome in outcomes] == ["diverged", "diverged", "budget"]
    assert str(outcomes[0].error) == "divergence at iteration 1: non-finite value in update"
    assert outcomes[1].error.iteration > 1
    assert str(outcomes[1].error).endswith("curve length exceeded 1.41e+03")
    assert outcomes[2].state.iteration == 50
    assert batch.iteration == 1 + outcomes[1].error.iteration + 50


def _workspace(inits, cfgs, surface):
    """A _Workspace of (DiscreteCurve, MultiplierField) inits, stacked as
    run_batch stacks them."""
    return schemes._Workspace(np.stack([curve.points for curve, _ in inits]),
                              np.stack([mult.values for _, mult in inits]), cfgs, surface)


_CLEAR = 2**40  # a cap 2^-12 above the length
_TWICE = 2**52 + 2**40  # a cap of twice the length, 2^-12 above it


@settings(max_examples=150, deadline=None)
@given(
    m=st.integers(2, 1000),
    members=st.lists(st.tuples(
        st.sampled_from(["nodes", "equal chords"]),
        st.sampled_from([1e-3, 1.0, 1e154, 1e300]),  # of the nodes or chords
        st.integers(-4500, 4500) | st.sampled_from([_CLEAR, _TWICE]),  # cap = length (1 + k 2^-52)
        st.sampled_from([None, math.nan, math.inf, -math.inf]),  # at one coordinate
        st.sampled_from([None, math.nan, math.inf, 1e200])),  # at one multiplier
        min_size=1, max_size=4),
    seed=st.integers(0, 2**32 - 1),
)
@example(m=500, members=[("equal chords", 1.0, -1, None, None)], seed=14)  # needs the margin
@example(m=1000, members=[("equal chords", 1.0, _CLEAR, None, None)] * 4, seed=0)
@example(m=3, members=[("equal chords", 1.0, _CLEAR, None, math.inf)], seed=0)
# shared scales: four members at the edge of the stack's test (sum S = 4 m,
# each cap^2 / m just above it); two whose sum S is within the sum of their
# chord_bounds, one cap 2^-52 below its length; and two such pairs
@example(m=100, members=[("equal chords", 1.0, _TWICE, None, None)] * 4, seed=0)
@example(m=100, members=[("equal chords", 1.0, _CLEAR, None, None),
                         ("equal chords", 1.0, -1, None, None)], seed=0)
@example(m=100, members=[("equal chords", 1e-3, _TWICE, None, None),
                         ("equal chords", 1e-3, -1, None, None)] * 2, seed=1)
# the smallest cap bounds the stack's sum, not the largest
@example(m=100, members=[("equal chords", 1e-3, -1, None, None),
                         ("equal chords", 1.0, _CLEAR, None, None)], seed=0)
def test_cheap_length_test_passes_only_what_the_exact_test_passes(m, members, seed):
    # hand-built (B, m+1, 3) stacks against the step's cheap test: when it
    # passes, every curve_length is within its cap and every multiplier finite
    rng = np.random.default_rng(seed)
    points, multipliers, inits = [], [], []
    for kind, scale, k, bad_node, bad_lam in members:
        if kind == "nodes":
            x = rng.normal(size=(m + 1, 3)) * scale
        else:  # where Cauchy-Schwarz is tight: m sum |chord|^2 = length^2
            u = rng.normal(size=(m, 3))
            x = np.cumsum(np.vstack([np.zeros(3), scale * u / np.linalg.norm(
                u, axis=1, keepdims=True)]), axis=0)
        lam = rng.normal(size=m - 1)
        if bad_node is not None:
            x[rng.integers(m + 1), rng.integers(3)] = bad_node
        if bad_lam is not None:
            lam[rng.integers(m - 1)] = bad_lam
        with np.errstate(over="ignore", invalid="ignore"):
            length = curve_length(x[None])[0]
        cap = length * (1 + k * 2.0**-52) if 0 < length < 1e300 else 10.0 * scale
        # a straight init from 0 to (cap / 1e3, 0, 0) has (about) this cap
        init = init_straight_line(np.zeros(3), np.array([cap / 1e3, 0.0, 0.0]), m)
        inits.append(init)
        points.append(x)
        multipliers.append(lam)
    points, multipliers = np.stack(points), np.stack(multipliers)
    work = _workspace(inits, [SolverConfig()] * len(inits), SphereQuadratic())
    with np.errstate(over="ignore", invalid="ignore"):
        flat = points.reshape(-1)  # the operands of a buffer, as _buffer views them
        cheap = work._within_caps(flat[3:], flat[:-3], schemes._block(multipliers, m))
        exact = (np.count_nonzero(curve_length(points) <= work.length_cap) == len(points)
                 and np.isfinite(multipliers).all())
    assert exact or not cheap
    # and it passes equal chords of moderate size 2^-12 below their caps
    if all(kind == "equal chords" and scale <= 1.0 and k == _CLEAR
           and bad_node is None and bad_lam is None
           for kind, scale, k, bad_node, bad_lam in members):
        assert cheap


def test_a_stack_whose_caps_differ_by_1e6_passes_by_each_members_bound(monkeypatch):
    # two still members on the plane z = 0 with caps of 1 and 1e6: the long
    # one's sum |chord|^2 is far beyond the short one's bound, so the stack's
    # test fails, and each member passes its own, at every step of the run
    inits = [init_straight_line(np.zeros(3), np.array([d, 0.0, 0.0]), 50) for d in (1e-3, 1e3)]
    cfg = SolverConfig(max_iters=20)
    work = _workspace(inits, [cfg] * 2, Plane())
    assert work.length_cap[1] / work.length_cap[0] == pytest.approx(1e6)
    assert work._within_caps(*work.buffers[0][4:])
    assert work.chord_run @ work.chord_run > work.stack_bound
    lengths = _count_lengths(monkeypatch, schemes)
    _, outcomes = run_batch([Problem(cfg, init) for init in inits], Plane())
    assert [outcome.stop for outcome in outcomes] == ["budget"] * 2
    assert lengths == [(2, 2, 3)]  # the caps' call alone: no exact tier


def test_far_apart_members_pass_the_stack_test_without_their_junctions(monkeypatch):
    # three still members of length 1 on the plane z = 0, 1e4 apart: the
    # chord from each one's q to the next one's p is beyond every cap (1e3),
    # and the cheap test leaves it out, so the stack's test passes
    inits = [init_straight_line(np.array([x, 0.0, 0.0]), np.array([x + 1.0, 0.0, 0.0]), 50)
             for x in (0.0, 1e4, 2e4)]
    cfg = SolverConfig(max_iters=20)
    work = _workspace(inits, [cfg] * 3, Plane())
    assert work._within_caps(*work.buffers[0][4:])
    assert work.chord_run @ work.chord_run <= work.stack_bound
    assert not work.chords[:, -3:].any()
    lengths = _count_lengths(monkeypatch, schemes)
    _, outcomes = run_batch([Problem(cfg, init) for init in inits], Plane())
    assert [outcome.stop for outcome in outcomes] == ["budget"] * 3
    assert lengths == [(3, 2, 3)]


def test_a_stack_sum_beyond_the_stacks_margin_goes_to_each_members_bound(monkeypatch):
    # two members whose chords' sum of squares lies between stack_bound and
    # the smallest chord_bound: each member is at half its own bound, yet
    # the stack's test must fail, for its margin covers the sum's rounding,
    # and the per-member tier passes them
    m = 4
    inits = [init_straight_line(np.zeros(3), np.array([1.0, 0.0, 0.0]), m)] * 2
    work = _workspace(inits, [SolverConfig()] * 2, Plane())
    bound = work.chord_bound.min()
    # one chord per member, each of square about bound (1 - margin) / 2:
    # the sum falls midway in the stack's margin, about 75 ulps from each end
    margin = 16 * (m + 1) * 2.0**-53
    points = np.zeros((2, m + 1, 3))
    points[:, 1:, 0] = math.sqrt(bound * (1 - margin) / 2)
    flat = points.reshape(-1)
    calls = []
    vecdot = np.vecdot
    monkeypatch.setattr(np, "vecdot", lambda *args: calls.append(args) or vecdot(*args))
    assert work._within_caps(flat[3:], flat[:-3], schemes._block(np.zeros((2, m - 1)), m))
    assert work.stack_bound < work.chord_run @ work.chord_run <= bound
    assert len(calls) == 1  # the per-member tier decided it


def test_a_diverging_run_raises_without_numpy_warnings():
    # the member of test_batch_names_each_members_divergence that overflows,
    # alone; the suite turns a RuntimeWarning into an error, so record them
    surface = SphereQuadratic()
    init = init_randomized(np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0]),
                           20, surface, tau_r=1.0, seed=0)
    cfg = SolverConfig(tau_gamma=1.7e308, max_iters=50)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(DivergenceError, match="iteration 1: non-finite value"):
            run(cfg, surface, init)
    assert [str(w.message) for w in caught] == []


def test_far_endpoints_keep_a_finite_length_cap():
    # |q - p| = 2e155 overflows |q - p|^2: the cap is still 1e3 |q - p|, and
    # an update that sends the one interior node to inf (the curve's length is
    # then inf, not nan) stops the run at that iteration
    p, q = np.array([-1e155, 0.0, 0.0]), np.array([1e155, 0.0, 0.0])
    curve, multiplier = init_straight_line(p, q, 2)
    curve.points[1, 2] = 1.0  # off the plane z = 0, so that the force is not 0
    work = _workspace([(curve, multiplier)], [SolverConfig()], Plane())
    assert work.length_cap[0] == 2e158
    cfg = SolverConfig(tau_gamma=1.7e308, max_iters=5)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(DivergenceError, match="iteration 1: non-finite value") as exc:
            run(cfg, Plane(), (curve, multiplier))
    assert [str(w.message) for w in caught] == []
    assert exc.value.state.iteration == 0
    assert np.isfinite(exc.value.state.curve.points).all()


def test_one_pass_stops_exactly_the_rows_that_stop():
    # three rows of one stack on the plane z = 0, m = 2: two chords of 1e154,
    # the sum of whose squares overflows, so the cheap test fails, yet the row
    # is finite and still, and goes on; an update of inf; and a node sent 8e6 out
    def row(p, q, node, tau_gamma):
        points = np.array([p, node, q], dtype=float)
        return (DiscreteCurve(points), MultiplierField(np.zeros(1))), \
            SolverConfig(tau_gamma=tau_gamma)

    inits, cfgs = zip(row((-1e154, 0, 0), (1e154, 0, 0), (0, 0, 0), 1e-5),
                      row((-1, 0, 0), (1, 0, 0), (0, 1, 0), 1.7e308),
                      row((-1, 0, 0), (1, 0, 0), (0, 1, 0), 1e6))
    work = _workspace(inits, list(cfgs), Plane())
    with np.errstate(over="ignore", invalid="ignore"):
        field = work.evaluate()
        assert not work._within_caps(*work.buffers[0][4:])
        stops = work.advance(1, field)
    assert [(row, reason) for row, _, reason in stops] == [
        (1, "non-finite value in update"), (2, "curve length exceeded 2e+03")]
    for row, state, _ in stops:  # the state before the step
        assert state.iteration == 0
        assert state.curve.points.tobytes() == inits[row][0].points.tobytes()
    assert work.state(0, 1).curve.points.tobytes() == inits[0][0].points.tobytes()


def test_length_caps_are_the_norm_of_q_minus_p():
    # one curve_length call on the endpoint rows: 1e3 |q - p| with
    # numpy.linalg.norm's bits over the last axis, in a stack of 2000 rows
    rng = np.random.default_rng(3)
    p, q = rng.normal(size=(2, 2000, 3)) * 10.0 ** rng.uniform(-3, 3, size=(2, 2000, 1))
    inits = [init_straight_line(a, b, 2) for a, b in zip(p, q)]
    work = _workspace(inits, [SolverConfig()] * len(inits), Plane())
    reference = DIVERGENCE_LENGTH_FACTOR * np.linalg.norm(q - p, axis=-1)
    assert work.length_cap.tobytes() == reference.tobytes()
    # finite where |q - p|^2 overflows, the largest float where q - p does,
    # and exact along an axis; no numpy warning (the suite makes one an error)
    ends = [((-1e155, 0.0, 1e155), (1e155, 0.0, -1e155)),
            ((-1e308, -1e308, -1e308), (1e308, 1e308, 1e308)),
            ((0.0, 0.0, 0.0), (0.0, 3.0, 0.0))]
    inits = [(DiscreteCurve(np.array([a, np.zeros(3), b])), MultiplierField(np.zeros(1)))
             for a, b in ends]
    with np.errstate(over="ignore", invalid="ignore"):  # as run_batch builds it
        caps = _workspace(inits, [SolverConfig()] * 3, Plane()).length_cap
    assert caps[0] == pytest.approx(2e158 * math.sqrt(2), rel=1e-15)
    assert caps[1] == np.finfo(float).max
    assert caps[2] == 3e3


def test_batch_stops_only_a_singular_member():
    # the straight chord between the poles puts node m/2 of the middle member
    # on the origin, where the gradient of R - |x| is undefined
    surface = SphereSDF()
    pole = np.array([0.0, 0.0, 1.0])
    equator = np.array([1.0, 0.0, 0.0])
    cfg = SolverConfig(max_iters=30, record_every=10)
    inits = [init_straight_line(pole, equator, 16), init_straight_line(pole, -pole, 16),
             init_randomized(pole, -pole, 16, surface, tau_r=1.0, seed=2)]
    batch, outcomes = run_batch([Problem(cfg, init) for init in inits], surface)

    singular = outcomes[1]
    assert singular.stop == "singularity"
    assert str(singular.error) == "gradient of R - |x| undefined at the origin"
    assert singular.state.iteration == 0
    assert np.array_equal(singular.state.curve.points, inits[1][0].points)
    assert [row.iteration for row in singular.trace] == [0]
    assert math.isnan(singular.trace.final.gamma_residual)
    with pytest.raises(SingularityError, match="origin"):
        run(cfg, surface, inits[1])
    for i in (0, 2):
        state, trace = run(cfg, surface, inits[i])
        assert outcomes[i].stop == "budget"
        assert np.array_equal(outcomes[i].state.curve.points, state.curve.points)
        assert _rows(outcomes[i].trace) == _rows(trace)
    assert batch.iteration == 60


def test_a_singular_state_costs_one_stacked_call():
    # test_batch_stops_only_a_singular_member's problem: state 0 makes one
    # call on the stacked block, 3 (m + 1) - 2 rows, whose nan gradient
    # marks the singular member; the 30 states after it one call each on
    # the block of the two that go on
    calls = []

    class CountingSDF(SphereSDF):
        def value_and_grad(self, x, check=True):
            calls.append(len(x))
            return super().value_and_grad(x, check)

    surface, m = CountingSDF(), 16
    pole, equator = np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0])
    inits = [init_straight_line(pole, equator, m), init_straight_line(pole, -pole, m),
             init_randomized(pole, -pole, m, surface, tau_r=1.0, seed=2)]
    _, outcomes = run_batch([Problem(SolverConfig(max_iters=30, record_every=10), init)
                             for init in inits], surface)
    assert [outcome.stop for outcome in outcomes] == ["budget", "singularity", "budget"]
    assert calls == [3 * (m + 1) - 2] + [2 * (m + 1) - 2] * 30


def test_a_singular_and_a_diverging_member_stop_at_the_same_iteration():
    # test_batch_stops_only_a_singular_member's first two chords and a third
    # whose curve step outgrows its length cap at once: both stop at
    # iteration 1, each with its own reason, and the first goes on alone
    surface, m = SphereSDF(), 16
    pole, equator = np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0])
    cfg = SolverConfig(max_iters=30, record_every=10)
    problems = [Problem(cfg, init_straight_line(pole, equator, m)),
                Problem(cfg, init_straight_line(pole, -pole, m)),
                Problem(SolverConfig(tau_gamma=1e300, max_iters=30, record_every=10),
                        init_straight_line(pole, equator, m))]
    batch, outcomes = run_batch(problems, surface)

    assert [outcome.stop for outcome in outcomes] == ["budget", "singularity", "diverged"]
    assert [outcome.state.iteration for outcome in outcomes] == [30, 0, 0]
    assert str(outcomes[1].error) == "gradient of R - |x| undefined at the origin"
    assert str(outcomes[2].error) == "divergence at iteration 1: curve length exceeded 1.41e+03"
    assert batch.iteration == 31
    state, trace = run(cfg, surface, problems[0].init)
    assert outcomes[0].state.curve.points.tobytes() == state.curve.points.tobytes()
    assert outcomes[0].state.multiplier.values.tobytes() == state.multiplier.values.tobytes()
    assert _rows(outcomes[0].trace) == _rows(trace)


def test_cloud_batch_stops_only_the_member_on_a_sample(tmp_path):
    # the middle member's chord has node 25 exactly on a sample; the others
    # start with nonzero multipliers, so the surface error of the rows at the
    # singular state depends on the order in which phi is summed
    points, cfg, (curve, _) = _straight_cloud_problem()
    m, rng = curve.m, np.random.default_rng(5)
    chord = init_straight_line(curve.p, points[7], m)
    cloud = PointCloud(np.vstack([points, chord[0].points[25]]))
    inits = [(curve, MultiplierField(rng.normal(size=m - 1))), chord,
             (init_randomized(curve.p, curve.q, m, cloud, tau_r=0.05, seed=3)[0],
              MultiplierField(rng.normal(size=m - 1)))]
    _, outcomes = run_batch([Problem(cfg, init, 0.3) for init in inits], cloud)

    assert [outcome.stop for outcome in outcomes] == ["budget", "singularity", "budget"]
    assert outcomes[1].state.iteration == 0
    with pytest.raises(SingularityError, match="cloud point"):
        run(cfg, cloud, inits[1])
    for i in (0, 2):
        state, trace = run(cfg, cloud, inits[i], 0.3)
        write_trace_csv(outcomes[i].trace, tmp_path / "batch.csv")
        write_trace_csv(trace, tmp_path / "serial.csv")
        assert (tmp_path / "batch.csv").read_bytes() == (tmp_path / "serial.csv").read_bytes()
        assert outcomes[i].state.curve.points.tobytes() == state.curve.points.tobytes()


@pytest.mark.parametrize("members", [1, 3])
def test_a_workspace_hands_the_field_a_view_of_its_block(members):
    # the block, rows 1 to B(m+1) - 2 of the flat points, is contiguous at
    # every B (at B = 1 it is the interior): evaluate() copies nothing per
    # iteration, from either buffer
    seen = []

    class Recording(SphereQuadratic):
        def value_and_grad(self, x, check=True):
            seen.append(x)
            return super().value_and_grad(x, check)

    m = 20
    inits = [init_randomized(np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0]),
                             m, SphereQuadratic(), tau_r=1.0, seed=seed)
             for seed in range(members)]
    work = _workspace(inits, [SolverConfig()] * members, Recording())
    for k in (1, 2, 3):
        field = work.evaluate()
        assert seen[-1] is work.buffers[0][1]
        assert seen[-1].shape == (members * (m + 1) - 2, 3)
        assert np.shares_memory(seen[-1], work.buffers[0][0])
        assert not work.advance(k, field)


class _CountingSphere(SphereQuadratic):
    """The quadratic sphere, counting its field calls and their sizes."""

    def __init__(self):
        super().__init__()
        self.calls = []

    def value_and_grad(self, x, check=True):
        self.calls.append(len(x))
        return super().value_and_grad(x, check)


def _count_lengths(monkeypatch, module):
    """Replace module.curve_length by a wrapper; returns the shape of each call's
    argument: a (B, m+1, 3) stack or a DiscreteCurve's (m+1, 3) points."""
    shapes = []

    def counted(curve):
        shapes.append(np.shape(getattr(curve, "points", curve)))
        return curve_length(curve)

    monkeypatch.setattr(module, "curve_length", counted)
    return shapes


@pytest.mark.parametrize("members", [1, 3])
@pytest.mark.parametrize("record_every", [1, 7, 25])
@pytest.mark.parametrize("record_at", [(), (3, 4, 11, 24)])
def test_one_field_call_per_state(members, record_every, record_at, monkeypatch):
    # a record point's call feeds its rows and the next step: max_iters + 1
    # calls on the stacked block, B(m+1) - 2 rows, whatever the schedule
    surface, m = _CountingSphere(), 12
    problems = [Problem(SolverConfig(tau_gamma=0.2 / m**2, max_iters=25,
                                     record_every=record_every),
                        init_randomized(np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0]),
                                        m, surface, tau_r=1.0, seed=seed), math.pi / 2)
                for seed in range(members)]
    # the workspace, the step and trace_row look curve_length up by these
    # names at call time, which is where the benchmark's tracer wraps it: the
    # workspace calls it once on the (B, 2, 3) endpoint rows for its length
    # caps, the step only when its cheap length test fails, which a budget
    # run's never does, and trace_row once per row
    stacked = _count_lengths(monkeypatch, schemes)
    per_row = _count_lengths(monkeypatch, diagnostics)
    _, outcomes = run_batch(problems, surface, record_at=record_at)
    assert [outcome.stop for outcome in outcomes] == ["budget"] * members
    assert surface.calls == [members * (m + 1) - 2] * 26
    assert stacked == [(members, 2, 3)]
    assert per_row == [(m + 1, 3)] * sum(len(outcome.trace) for outcome in outcomes)
    for problem, outcome in zip(problems, outcomes):  # and the rows are those of run()
        assert _rows(outcome.trace) == _rows(
            _unstacked_run(problem.cfg, SphereQuadratic(), problem.init,
                           problem.reference_distance, record_at)[1])


def _straight_cloud_problem(n=500, m=100, seed=0):
    """A jittered Fibonacci lattice of n points on the unit sphere, with the
    endpoints of a 0.3 rad chord in place of their nearest lattice points, and
    a straight-init run of 50 iterations that records every state."""
    rng = np.random.default_rng(seed)
    i = np.arange(n) + 0.5
    z = 1.0 - 2.0 * i / n
    azimuth = math.pi * (3.0 - math.sqrt(5.0)) * i
    rho = np.sqrt(1.0 - z * z)
    cloud = np.column_stack([rho * np.cos(azimuth), rho * np.sin(azimuth), z])
    cloud += rng.uniform(-0.2, 0.2, size=cloud.shape) * math.sqrt(4.0 * math.pi / n)
    cloud /= np.linalg.norm(cloud, axis=1, keepdims=True)
    p = np.array([1.0, 2.0, 3.0]) / math.sqrt(14.0)
    q = math.cos(0.3) * p + math.sin(0.3) * np.array([3.0, 0.0, -1.0]) / math.sqrt(10.0)
    for end in (p, q):
        cloud[np.argmax(cloud @ end)] = end
    cfg = SolverConfig(tau_gamma=0.2 / m**2, max_iters=50, record_every=1)
    return cloud, cfg, init_straight_line(p, q, m)


class _QueryLog:
    """A point cloud's index that logs the rows of each query."""

    def __init__(self, index):
        self.index, self.queries = index, []

    def __getattr__(self, name):
        return getattr(self.index, name)

    def query(self, x):
        self.queries.append(len(x))
        return self.index.query(x)


class _UnhintedCloud(PointCloud):
    """A point cloud that forgets its last field call: every row is queried."""

    def __init__(self, points):
        super().__init__(points)
        self._cleared = self._hint

    def value_and_grad(self, x, check=True):
        self._hint = self._cleared
        return super().value_and_grad(x, check)


def test_straight_cloud_run_queries_the_tree_once():
    # the explicit step moves each node far less than its distance to the
    # nearest bisector of two samples, so the first field call's nearest
    # samples serve the other 50 (the 2-row query is the endpoint check)
    points, cfg, init = _straight_cloud_problem()
    cloud = PointCloud(points)
    cloud._index = _QueryLog(cloud._index)
    run(cfg, cloud, init)
    assert cloud._index.queries == [2, init[1].m - 1]


def test_straight_cloud_run_equals_the_run_that_queries_every_row(tmp_path):
    # phi keeps the tree's strided layout on both paths: trace_row's dot
    # product sums a strided vector in another order than a contiguous one
    points, cfg, init = _straight_cloud_problem()
    runs = [run(cfg, cls(points), init) for cls in (PointCloud, _UnhintedCloud)]
    for (_, trace), name in zip(runs, ("hinted.csv", "unhinted.csv")):
        write_trace_csv(trace, tmp_path / name)
    assert (tmp_path / "hinted.csv").read_bytes() == (tmp_path / "unhinted.csv").read_bytes()
    assert runs[0][0].curve.points.tobytes() == runs[1][0].curve.points.tobytes()


def test_a_cloud_batch_whose_endpoints_are_samples_runs_as_its_members_alone(tmp_path):
    # the cloud-run cloud with two chords whose four endpoints are samples: the
    # step's block holds the two endpoint rows between the members, where the
    # unsigned field's gradient is undefined (nan), and the batch still runs
    # to its budget, each member bit for bit as its own run
    points, cfg, (curve, mult) = _straight_cloud_problem()
    other = init_straight_line(curve.q, points[11], curve.m)
    inits = [(curve, mult), other]
    cloud = PointCloud(points)
    assert (cloud.value(np.array([curve.p, curve.q, points[11]])) == 0.0).all()
    _, outcomes = run_batch([Problem(cfg, init, 0.3) for init in inits], cloud)
    assert [outcome.stop for outcome in outcomes] == ["budget"] * 2
    for i, init in enumerate(inits):
        state, trace = run(cfg, PointCloud(points), init, 0.3)
        write_trace_csv(outcomes[i].trace, tmp_path / "batch.csv")
        write_trace_csv(trace, tmp_path / "alone.csv")
        assert (tmp_path / "batch.csv").read_bytes() == (tmp_path / "alone.csv").read_bytes()
        assert outcomes[i].state.curve.points.tobytes() == state.curve.points.tobytes()
        assert (outcomes[i].state.multiplier.values.tobytes()
                == state.multiplier.values.tobytes())


def test_endpoint_rows_between_members_stay_pinned_with_a_zero_multiplier():
    # three var2 members of mixed, then shared, step sizes on the cloud, their
    # endpoints samples with a nan gradient: after every step each endpoint
    # row inside the block is its init, bit for bit, and each multiplier there
    # exactly 0, also where shared step sizes are 0-d and so not 0 there
    points, _, (curve, _) = _straight_cloud_problem()
    m = curve.m
    inits = [(curve, MultiplierField(np.random.default_rng(1).normal(size=m - 1))),
             init_straight_line(curve.q, points[11], m),
             init_straight_line(points[11], curve.p, m)]
    steps = ((0.2, 0.7, 10.0), (0.05, 7.0, 1000.0), (0.3, 0.1, 1.0))
    ends = np.stack([init[0].points[::m] for init in inits])
    pads = [b * (m + 1) + m - 1 + j for b in range(2) for j in (0, 1)]
    for shared in (False, True):
        cfgs = [SolverConfig(scheme="var2", tau_gamma=c / m**2, tau_lambda=t, alpha=a,
                             epsilon=1e-3, max_iters=30)
                for c, t, a in (steps[:1] * 3 if shared else steps)]
        work = _workspace(inits, cfgs, PointCloud(points))
        assert work.tau_gamma.shape == (() if shared else (3 * (m + 1) - 2, 3))
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(1, 31):
                field = work.evaluate()
                assert np.isnan(field[1][pads]).all()  # the samples' nan gradient
                assert not work.advance(k, field)
                pts, *_, lam = work.buffers[0]
                assert pts[:, ::m].tobytes() == ends.tobytes()
                assert lam[pads].tobytes() == np.zeros(len(pads)).tobytes()


class _BelowPlane(Plane):
    """phi = -z, so that phi is -0.0 exactly where z is 0.0."""

    def __init__(self):
        super().__init__((0.0, 0.0, -1.0))

    def _value_and_grad(self, pts):
        return -pts[:, 2], super()._value_and_grad(pts)[1]


def _shared_steps_stacks():
    """(surface factory, problems, the operands that are 0-d) of four stacks:
    var2 members sharing every step size on the sphere; members sharing every
    one on the cloud, their endpoints samples, whose nan gradients fall at
    the endpoint rows between members; var2 members sharing only some; and
    var1 members whose omegas are 0.0 and -0.0 from multipliers of -0.0
    where phi is -0.0, which keep the two signs apart."""
    pole, operands = np.array([0.0, 0.0, 1.0]), ("tau_lambda", "shrink", "omega",
                                                  "keep", "alpha", "tau_gamma")
    m = 16
    cfg = SolverConfig(scheme="var2", tau_gamma=0.2 / m**2, alpha=10.0, epsilon=1e-3,
                       max_iters=40, record_every=3)
    sphere = [Problem(cfg, init_randomized(pole, np.array([1.0, 0.0, 0.0]), m, SphereSDF(),
                                           tau_r=1.0, seed=seed), math.pi / 2)
              for seed in range(3)]
    points, cloud_cfg, (curve, mult) = _straight_cloud_problem()
    cloud = [Problem(cloud_cfg, init, 0.3)
             for init in ((curve, mult), init_straight_line(curve.q, points[11], curve.m))]
    some = [Problem(dataclasses.replace(cfg, tau_lambda=t, alpha=a), problem.init)
            for problem, t, a in zip(sphere, (0.7, 7.0, 0.1), (10.0, 10.0, 1.0))]
    line = init_straight_line(np.array([0.25, 0.5, 0.0]), np.array([1.0, 1.5, 0.0]), m)
    signed = [Problem(SolverConfig(scheme="var1", omega=omega, tau_gamma=0.2 / m**2,
                                   max_iters=20), (line[0], MultiplierField(np.full(m - 1, -0.0))))
              for omega in (0.0, -0.0)]
    return [(SphereSDF, sphere, operands), (lambda: PointCloud(points), cloud, operands),
            (SphereSDF, some, ("omega", "tau_gamma")),
            (_BelowPlane, signed, ("tau_lambda", "shrink", "keep", "alpha", "tau_gamma"))]


@pytest.mark.parametrize("case", range(4), ids=["shared", "shared-on-cloud", "some-shared",
                                              "signed-zero-omegas"])
def test_shared_step_sizes_are_0d_and_each_member_runs_as_alone(case):
    # a step size that every member shares bit for bit is a 0-d operand; the
    # others hold each member's value per node, and every member's numbers are
    # its run alone, byte for byte (array_equal would take -0.0 for 0.0)
    surface, problems, scalars = _shared_steps_stacks()[case]
    work = _workspace([problem.init for problem in problems],
                      [problem.cfg for problem in problems], surface())
    for name in ("tau_lambda", "shrink", "omega", "keep", "alpha", "tau_gamma"):
        assert (getattr(work, name).ndim == 0) == (name in scalars), name
    _, outcomes = run_batch(problems, surface())
    for problem, outcome in zip(problems, outcomes):
        state, trace = run(problem.cfg, surface(), problem.init, problem.reference_distance)
        assert outcome.stop == "budget"
        assert outcome.state.curve.points.tobytes() == state.curve.points.tobytes()
        assert outcome.state.multiplier.values.tobytes() == state.multiplier.values.tobytes()
        assert _rows(outcome.trace) == _rows(trace)
    if case == 3:  # the two omegas leave multipliers of -0.0 and 0.0 apart
        first, second = (outcome.state.multiplier.values for outcome in outcomes)
        assert first.tobytes() == np.zeros(len(first)).tobytes()
        assert second.tobytes() == np.full(len(second), -0.0).tobytes()


class _UnboundedPastTwo(SphereQuadratic):
    """The quadratic sphere with value inf at x >= 2, as if it overflowed there."""

    def _value_and_grad(self, pts):
        phi, grad = super()._value_and_grad(pts)
        phi[pts[:, 0] >= 2.0] = math.inf
        return phi, grad


def test_an_endpoint_of_infinite_value_keeps_the_batch_in_the_cheap_tier(monkeypatch):
    # the first member ends at (2, 0, 0), where phi is inf: it draws the
    # off-surface warning, and its endpoint row inside the block would make
    # the multiplier there 0 inf = nan, yet every step passes the cheap
    # length test (curve_length runs only for the caps) and each member is
    # bit for bit its run alone
    surface, m = _UnboundedPastTwo(), 16
    pole = np.array([0.0, 0.0, 1.0])
    inits = [init_straight_line(pole, np.array([2.0, 0.0, 0.0]), m),
             init_straight_line(pole, np.array([0.0, 1.0, 0.0]), m),
             init_randomized(pole, np.array([0.0, -1.0, 0.0]), m, surface, tau_r=1.0, seed=4)]
    problems = [Problem(SolverConfig(scheme="var2", tau_gamma=0.2 / m**2, alpha=10.0,
                                     epsilon=1e-3, max_iters=40, record_every=1), init)
                for init in inits]
    lengths = _count_lengths(monkeypatch, schemes)
    with pytest.warns(UserWarning, match="off-surface: max .phi. = inf") as caught:
        _, outcomes = run_batch(problems, surface)
    assert len(caught) == 1
    assert lengths == [(3, 2, 3)]
    assert [outcome.stop for outcome in outcomes] == ["budget"] * 3
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        alone = [run(problem.cfg, surface, problem.init) for problem in problems]
    for outcome, (state, trace) in zip(outcomes, alone):
        assert outcome.state.curve.points.tobytes() == state.curve.points.tobytes()
        assert outcome.state.multiplier.values.tobytes() == state.multiplier.values.tobytes()
        assert _rows(outcome.trace) == _rows(trace)


class _SingularPastPlane(SphereQuadratic):
    """The quadratic sphere with its gradient undefined at any node past the
    plane x + z = 1.05."""

    singular_message = "past the plane"

    def _value_and_grad(self, pts):
        phi, grad = super()._value_and_grad(pts)
        grad[pts[:, 0] + pts[:, 2] > 1.05] = math.nan
        return phi, grad


def test_batch_stops_a_member_that_turns_singular_at_a_record_point():
    # the chord from the pole to (1, 0, 0) bulges across the plane after a
    # few iterations; the one to (0, 1, 0) stays clear of it
    surface, m = _SingularPastPlane(), 8
    cfg = SolverConfig(tau_gamma=0.25 / m**2, max_iters=30, record_every=1)
    pole = np.array([0.0, 0.0, 1.0])
    inits = [init_straight_line(pole, np.array([1.0, 0.0, 0.0]), m),
             init_straight_line(pole, np.array([0.0, 1.0, 0.0]), m)]
    state, crossing, k = SolverState(*inits[0]), None, 0
    while crossing is None:
        state, k = one_iteration(state, cfg, SphereQuadratic()), k + 1
        if np.any(state.curve.interior[:, 0] + state.curve.interior[:, 2] > 1.05):
            crossing = state
    assert 0 < k < cfg.max_iters

    batch, outcomes = run_batch([Problem(cfg, init) for init in inits], surface)

    singular = outcomes[0]
    assert singular.stop == "singularity"
    assert str(singular.error) == "past the plane"
    assert singular.state.iteration == k
    assert np.array_equal(singular.state.curve.points, crossing.curve.points)
    assert [row.iteration for row in singular.trace] == list(range(k + 1))
    assert math.isnan(singular.trace.final.gamma_residual)
    assert not any(math.isnan(row.gamma_residual) for row in singular.trace.rows[:-1])
    state, trace = run(cfg, surface, inits[1])
    assert outcomes[1].stop == "budget"
    assert np.array_equal(outcomes[1].state.curve.points, state.curve.points)
    assert np.array_equal(outcomes[1].state.multiplier.values, state.multiplier.values)
    assert _rows(outcomes[1].trace) == _rows(trace)
    assert batch.iteration == k + cfg.max_iters


def test_batch_members_must_share_scheme_and_schedule():
    surface = SphereQuadratic()
    init = init_straight_line(np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0]), 8)
    base = SolverConfig(max_iters=5)
    for other in (SolverConfig(scheme="var2", max_iters=5), SolverConfig(max_iters=6),
                  SolverConfig(max_iters=5, record_every=3)):
        with pytest.raises(ValueError, match="share"):
            run_batch([Problem(base, init), Problem(other, init)], surface)
    with pytest.raises(ValueError, match="share"):
        run_batch([Problem(base, init), Problem(base, init_straight_line(
            np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0]), 9))], surface)


def test_an_empty_batch_is_rejected():
    with pytest.raises(ValueError, match="at least one problem"):
        run_batch([], SphereQuadratic())


def test_off_surface_warning_names_the_callers_line():
    surface = SphereQuadratic()
    init = init_straight_line(np.array([0.0, 0.0, 2.0]), np.array([2.0, 0.0, 0.0]), 8)
    cfg = SolverConfig(max_iters=1)
    with pytest.warns(UserWarning, match="off-surface") as by_run:
        run(cfg, surface, init)
    with pytest.warns(UserWarning, match="off-surface") as by_batch:
        run_batch([Problem(cfg, init), Problem(cfg, init)], surface)
    assert [w.filename for w in by_run] == [__file__]
    assert [w.filename for w in by_batch] == [__file__] * 2


def test_a_far_endpoint_draws_only_the_off_surface_warning():
    # |p|^2 overflows in the field's endpoint value, which runs under the
    # solver's np.errstate: the caller sees the off-surface warning alone
    init = init_straight_line([1e200, 0, 0], [0, 0, 1], 4)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(DivergenceError, match="iteration 1: non-finite value"):
            run(SolverConfig(max_iters=1), SphereSDF(), init)
    assert [str(w.message) for w in caught] == [
        "init endpoints are off-surface: max |phi| = inf"]
    assert [w.filename for w in caught] == [__file__]


def test_a_multiplier_of_another_m_is_rejected():
    curve, _ = init_straight_line(np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0]), 8)
    with pytest.raises(ValueError, match="curve m=8 and a multiplier.s m differ"):
        run(SolverConfig(max_iters=1), SphereQuadratic(), (curve, MultiplierField.zeros(9)))


def test_a_batch_evaluates_every_endpoint_in_one_value_call():
    # the off-surface check is one value call on the 2B endpoint rows, and a
    # restack after a stop makes none; each off member draws its own warning
    calls = []

    class Logged(SphereQuadratic):
        def value(self, x):
            calls.append(np.shape(x))
            return super().value(x)

    pole, equator = np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0])
    problems = [Problem(SolverConfig(tau_gamma=tau_gamma, max_iters=20),
                        init_straight_line(pole * scale, equator, 8))
                for tau_gamma, scale in ((1e-4, 1.0), (1e6, 1.0), (1e-4, 1.5))]
    with pytest.warns(UserWarning, match="off-surface") as caught:
        _, outcomes = run_batch(problems, Logged())
    assert calls == [(6, 3)]
    assert [str(w.message) for w in caught] == [
        "init endpoints are off-surface: max |phi| = 0.625"]  # (|x|^2 - 1) / 2
    assert [outcome.stop for outcome in outcomes] == ["budget", "diverged", "budget"]

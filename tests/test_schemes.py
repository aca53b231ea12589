"""Iteration schemes: fixed points, equivalences, bounds, divergence handling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levelgeo import schemes
from levelgeo.curve import init_randomized, init_straight_line
from levelgeo.levelset import Plane, SphereQuadratic, SphereSDF
from levelgeo.schemes import (
    DivergenceError,
    Scheme,
    SolverConfig,
    SolverState,
    run,
    step,
)


def make_state(p, q, m=40, surface=None, tau_r=0.0, seed=0):
    if tau_r > 0:
        curve, mult = init_randomized(p, q, m, surface, tau_r=tau_r, seed=seed)
    else:
        curve, mult = init_straight_line(p, q, m)
    return SolverState(curve=curve, multiplier=mult)


def test_feasible_straight_line_is_a_fixed_point_on_plane():
    # both endpoints in the plane z = 0: straight segment + zero multiplier
    # is the exact saddle, so one step of any scheme changes nothing.
    surface = Plane(normal=(0.0, 0.0, 1.0))
    p = np.array([1.0, 0.0, 0.0])
    q = np.array([0.0, 1.0, 0.0])
    for scheme in Scheme:
        cfg = SolverConfig(scheme=scheme, epsilon=0.01)
        state = make_state(p, q)
        new = step(state, cfg, surface)
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
        state, _ = run(cfg, surface, init)
        out.append(state)
    assert np.array_equal(out[0].curve.points, out[1].curve.points)
    assert np.array_equal(out[0].multiplier.values, out[1].multiplier.values)


def test_multiplier_stays_inside_regularization_bound():
    # lam+ = (lam + tau*phi) / (1 + eps*tau) keeps |lam| <= max(|lam_0|, max|phi|/eps)
    surface = SphereQuadratic()
    p = np.array([0.0, 0.0, 1.0])
    q = np.array([0.0, 0.0, -1.0])
    cfg = SolverConfig(scheme="regularized", epsilon=0.01, tau_lambda=0.7, tau_gamma=1e-5)
    state = make_state(p, q, m=50, surface=surface, tau_r=3.0, seed=1)
    phi_running_max = float(np.max(np.abs(surface.value(state.curve.interior))))
    for _ in range(300):
        state = step(state, cfg, surface)
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

    # step() applies the same check: stepping by hand fails at the same iteration
    state = SolverState(curve=init[0], multiplier=init[1])
    with pytest.raises(DivergenceError) as by_step:
        for _ in range(cfg.max_iters):
            state = step(state, cfg, surface)
    assert by_step.value.iteration == err.iteration
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
    by_step, step_error = SolverState(curve=init[0], multiplier=init[1]), None
    try:
        for _ in range(cfg.max_iters):
            by_step = step(by_step, cfg, surface)
    except DivergenceError as exc:
        by_step, step_error = exc.state, exc

    assert (run_error is not None) == diverge
    assert (step_error is not None) == diverge
    if diverge:
        assert run_error.iteration == step_error.iteration
        assert str(run_error) == str(step_error)
        assert by_run.iteration == run_error.iteration - 1
    assert by_run.iteration == by_step.iteration
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

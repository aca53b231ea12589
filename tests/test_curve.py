"""Discrete curves, initializers and serialization."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from levelgeo.curve import (
    DiscreteCurve,
    MultiplierField,
    _row_norms,
    curve_from_json,
    curve_length,
    curve_to_json,
    init_randomized,
    init_straight_line,
    second_difference,
    speed_profile,
)
from levelgeo.levelset import SphereSDF


P = np.array([0.0, 0.0, 1.0])
Q = np.array([0.0, 0.0, -1.0])


def test_straight_line_endpoints_exact():
    curve, mult = init_straight_line(P, Q, 100)
    assert np.array_equal(curve.p, P)
    assert np.array_equal(curve.q, Q)
    assert curve.m == 100
    assert curve.dt == 0.01
    assert np.array_equal(mult.values, np.zeros(99))


def test_straight_line_rejects_a_fractional_m():
    with pytest.raises(ValueError, match="must be an integer"):
        init_straight_line(P, Q, 10.5)


def test_straight_line_is_affine_in_t():
    curve, _ = init_straight_line(P, Q, 10)
    t = np.arange(11) / 10
    expected = P[None] * (1 - t[:, None]) + Q[None] * t[:, None]
    assert np.allclose(curve.points, expected)
    # interior second difference of an affine curve vanishes identically
    assert np.allclose(second_difference(curve), 0.0)


def test_second_difference_on_cubic():
    # gamma(t) = (t^3, 0, 0) has gamma'' = 6t; the 3-point stencil is exact
    # for cubics at interior nodes.
    m = 20
    t = np.arange(m + 1) / m
    pts = np.zeros((m + 1, 3))
    pts[:, 0] = t**3
    curve = DiscreteCurve(pts)
    sd = second_difference(curve)
    assert np.allclose(sd[:, 0], 6.0 * t[1:-1], atol=1e-9)
    assert np.allclose(sd[:, 1:], 0.0)


def test_curve_length_closed_forms():
    curve, _ = init_straight_line(P, Q, 37)
    assert abs(curve_length(curve) - 2.0) < 1e-14

    # polygon inscribed in the unit circle: length = 2m sin(pi / (2m))
    m = 50
    t = np.arange(m + 1) / m
    pts = np.stack([np.cos(np.pi * t), np.sin(np.pi * t), np.zeros_like(t)], axis=1)
    semi = DiscreteCurve(pts)
    assert abs(curve_length(semi) - 2 * m * np.sin(np.pi / (2 * m))) < 1e-12


def test_speed_profile_constant_on_straight_line():
    curve, _ = init_straight_line(P, Q, 25)
    speeds = speed_profile(curve)
    assert speeds.shape == (25,)
    assert np.allclose(speeds, 2.0)


def test_randomized_init_deterministic_and_pinned():
    surface = SphereSDF()
    c1, m1 = init_randomized(P, Q, 100, surface, tau_r=4.0, seed=7)
    c2, _ = init_randomized(P, Q, 100, surface, tau_r=4.0, seed=7)
    assert np.array_equal(c1.points, c2.points)
    assert np.array_equal(m1.values, np.zeros(99))
    # endpoints never move
    assert np.array_equal(c1.p, P)
    assert np.array_equal(c1.q, Q)

    c3, _ = init_randomized(P, Q, 100, surface, tau_r=4.0, seed=8)
    assert not np.array_equal(c1.points, c3.points)


def test_randomized_init_zero_amplitude_is_straight():
    surface = SphereSDF()
    bumped, _ = init_randomized(P, Q, 60, surface, tau_r=0.0, seed=3)
    straight, _ = init_straight_line(P, Q, 60)
    assert np.array_equal(bumped.points, straight.points)


def test_randomized_init_bump_shape():
    surface = SphereSDF()
    curve, _ = init_randomized(P, Q, 100, surface, tau_r=2.0, seed=5)
    straight, _ = init_straight_line(P, Q, 100)
    t = (np.arange(101) / 100)[:, None]
    bump = curve.points - straight.points
    r = surface.surface_point(np.random.default_rng(5))
    assert np.allclose(bump, 2.0 * r * t * (1 - t), atol=1e-12)


def test_curve_validation():
    with pytest.raises(ValueError):
        DiscreteCurve(np.zeros((1, 3)))
    with pytest.raises(ValueError):
        DiscreteCurve(np.zeros((5, 2)))
    with pytest.raises(ValueError):
        init_straight_line(P, Q, 1)
    with pytest.raises(ValueError):
        init_randomized(P, Q, 10, SphereSDF(), tau_r=-1.0)


def test_multiplier_field_validation():
    field = MultiplierField(np.ones(9))
    assert field.m == 10
    with pytest.raises(ValueError):
        MultiplierField(np.ones((3, 3)))
    assert MultiplierField.zeros(10).values.shape == (9,)


@settings(max_examples=100, deadline=None)
@given(points=hnp.arrays(float, st.tuples(st.integers(3, 40), st.just(3)),
                         elements=st.floats(allow_nan=False)))
def test_json_round_trip_is_exact(points):
    curve = DiscreteCurve(points)
    restored = curve_from_json(curve_to_json(curve))
    # the bytes, so that -0.0 and 0.0 count as different
    assert restored.points.tobytes() == curve.points.tobytes()


def test_json_rejects_inconsistent_m():
    curve, _ = init_straight_line(P, Q, 5)
    text = curve_to_json(curve).replace('"m": 5', '"m": 7')
    with pytest.raises(ValueError):
        curve_from_json(text)


@settings(max_examples=100, deadline=None)
@given(points=hnp.arrays(float, st.tuples(st.integers(1, 6), st.integers(3, 60),
                                          st.just(3)),
                         elements=st.floats(-1e100, 1e100)))
def test_stacked_lengths_are_each_curves_own(points):
    lengths = curve_length(points)
    assert lengths.shape == (len(points),)
    for curve_points, length in zip(points, lengths):
        assert length == curve_length(DiscreteCurve(curve_points))
        chords = np.diff(curve_points, axis=0)
        assert length == np.linalg.norm(chords, axis=1).sum()


_SPECIALS = st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan])
_SHAPES = st.one_of(st.tuples(st.integers(1, 40), st.just(3)),
                    st.tuples(st.integers(1, 5), st.integers(1, 20), st.just(3)))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), scale=st.integers(-584, 477))
def test_row_norms_are_numpy_norms_bit_for_bit(data, scale):
    # whole 53-bit mantissas within a few binades of 2**scale, so that the sums
    # of a row's squares round, from 1e-160 to 1e160, where the squares run
    # from subnormal to overflow
    magnitude = st.builds(math.ldexp, st.integers(2**52, 2**53 - 1),
                          st.integers(scale, scale + 2))
    entries = st.one_of(magnitude, magnitude.map(lambda v: -v), _SPECIALS)
    x = data.draw(hnp.arrays(float, data.draw(_SHAPES), elements=entries))
    with np.errstate(over="ignore", invalid="ignore"):
        assert _row_norms(x).tobytes() == np.linalg.norm(x, axis=-1).tobytes()


def test_a_chord_whose_square_overflows_has_a_finite_length():
    # the chord from node 2 to node 3, about 1.7e155 long, has a square that
    # overflows: hypot measures it, every other chord and every curve of the
    # stack without one keeps linalg.norm's bits, and no numpy warning is
    # raised (the suite makes one an error); speed_profile measures its
    # chords the same way
    ordinary = np.random.default_rng(0).normal(size=(6, 3))
    far = ordinary.copy()
    far[3:] += 1e155
    lengths = curve_length(np.stack([ordinary, far]))
    chords = np.diff(far, axis=0)
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(chords, axis=1)
    assert np.isinf(norms).tolist() == [False, False, True, False, False]
    norms[2] = np.hypot.reduce(chords[2])
    assert lengths[0] == np.linalg.norm(np.diff(ordinary, axis=0), axis=1).sum()
    assert lengths[1] == norms.sum() == curve_length(DiscreteCurve(far))
    assert lengths[1] == pytest.approx(math.sqrt(3) * 1e155)
    assert speed_profile(DiscreteCurve(far)).tobytes() == (norms * 5).tobytes()
    still, _ = init_straight_line([-1e155, 0, 0], [1e155, 0, 0], 2)
    assert speed_profile(still).tolist() == [2e155, 2e155]
    # beyond the float range a length is inf, and a nan node's is nan
    assert curve_length(DiscreteCurve([[-1e308, 0, 0], [0, 0, 0], [1e308, 0, 0]])) == np.inf
    assert curve_length(DiscreteCurve([[0, 0, 0], [np.inf, 0, 0], [-np.inf, 0, 0]])) == np.inf
    assert math.isnan(curve_length(DiscreteCurve([[0, 0, 0], [np.nan, 0, 0], [1e200, 0, 0]])))

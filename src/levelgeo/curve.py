"""Discrete curves gamma: [0,1] -> R^3 on a uniform grid, and their multipliers.

The grid is t_i = i/m for i = 0..m.  Endpoints points[0] = p and points[m] = q
are pinned: no operation in this package ever rewrites them.  The Lagrange
multiplier lambda lives at the m-1 interior nodes only, because phi(p) =
phi(q) = 0 by problem setup.
"""

from __future__ import annotations

import json

import numpy as np

__all__ = [
    "DiscreteCurve",
    "MultiplierField",
    "init_straight_line",
    "init_randomized",
    "second_difference",
    "curve_length",
    "speed_profile",
    "curve_to_json",
    "curve_from_json",
]


class DiscreteCurve:
    """m+1 points in R^3 with pinned endpoints; Delta t = 1/m."""

    __slots__ = ("points",)

    def __init__(self, points):
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError(f"curve points must be (m+1, 3), got {pts.shape}")
        if len(pts) < 3:
            raise ValueError("curve needs m >= 2 (at least 3 points)")
        self.points = pts

    @property
    def m(self) -> int:
        return len(self.points) - 1

    @property
    def dt(self) -> float:
        return 1.0 / self.m

    @property
    def p(self):
        return self.points[0]

    @property
    def q(self):
        return self.points[-1]

    @property
    def interior(self):
        return self.points[1:-1]


class MultiplierField:
    """Scalar multiplier values at the m-1 interior grid nodes."""

    __slots__ = ("values",)

    def __init__(self, values):
        vals = np.asarray(values, dtype=float)
        if vals.ndim != 1:
            raise ValueError("multiplier values must be a 1-d array")
        self.values = vals

    @property
    def m(self) -> int:
        return len(self.values) + 1

    @classmethod
    def zeros(cls, m: int) -> "MultiplierField":
        return cls(np.zeros(m - 1))


def _row_norms(x):
    """Euclidean norm over the last axis of an (..., 3) array, as (x^2 + y^2) + z^2.

    That is the order in which numpy's add.reduce sums a row of three, so the
    result is bit for bit numpy.linalg.norm over the last axis; the two column
    adds cost a fraction of the reduce, which numpy runs as a short loop per row.
    """
    sq = x * x
    return np.sqrt((sq[..., 0] + sq[..., 1]) + sq[..., 2])


def _grid(m: int):
    return np.arange(m + 1) / m


def init_straight_line(p, q, m: int):
    """gamma_0(t) = p(1-t) + q t with a zero multiplier."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if not isinstance(m, (int, np.integer)) or m < 2:
        raise ValueError("grid resolution m must be an integer of at least 2")
    t = _grid(m)[:, None]
    pts = p * (1.0 - t) + q * t
    pts[0], pts[-1] = p, q  # exact endpoints, no roundoff from the blend
    return DiscreteCurve(pts), MultiplierField.zeros(m)


def init_randomized(p, q, m: int, surface, tau_r: float = 4.0, seed: int = 0):
    """gamma_0(t) = p(1-t) + tau_r * r * (1-t) t + q t, r random on the surface.

    The bump term vanishes at the endpoints, so they stay exact.  Deterministic
    for a fixed seed.  Raises ValueError, without a numpy warning, if the
    curve is not finite (a tau_r so large that the bump overflows).
    """
    if not 0 <= tau_r < np.inf:
        raise ValueError("tau_r must be nonnegative and finite")
    curve, mult = init_straight_line(p, q, m)
    r = surface.surface_point(np.random.default_rng(seed))
    t = _grid(m)[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        curve.points[1:-1] += tau_r * np.asarray(r) * ((1.0 - t) * t)[1:-1]
    if not np.isfinite(curve.points).all():
        raise ValueError(f"the randomized init with tau_r = {tau_r:g} is not finite")
    return curve, mult


def second_difference(curve: DiscreteCurve):
    """Central second differences (gamma_{i+1} - 2 gamma_i + gamma_{i-1}) / dt^2
    at the interior nodes, as an (m-1, 3) array."""
    pts = curve.points
    return (pts[2:] - 2.0 * pts[1:-1] + pts[:-2]) * curve.m**2


def _chord_norms(pts):
    """The chord lengths of (..., m+1, 3) points and their (...) sums.  A
    chord's length is numpy.linalg.norm's over the last axis, or hypot's,
    which scales, where its square overflows; no numpy warning is raised."""
    with np.errstate(over="ignore", invalid="ignore"):
        chords = pts[..., 1:, :] - pts[..., :-1, :]
        norms = _row_norms(chords)
        lengths = norms.sum(axis=-1)
        if not np.isfinite(lengths).all():  # else no chord's square overflowed
            big = np.isinf(norms)
            norms[big] = np.hypot.reduce(chords[big], axis=-1)
            lengths = norms.sum(axis=-1)
    return norms, lengths


def curve_length(curve):
    """Piecewise-linear length, the sum of the chord lengths (_chord_norms): a
    float for a DiscreteCurve, or for a (B, m+1, 3) stack of curve points the
    (B,) lengths, each bit for bit that curve's own length."""
    lengths = _chord_norms(curve.points if isinstance(curve, DiscreteCurve) else curve)[1]
    return float(lengths) if lengths.ndim == 0 else lengths


def speed_profile(curve: DiscreteCurve):
    """Forward-difference speeds |gamma_{i+1} - gamma_i| / dt, length m (_chord_norms);
    a speed past the float range reads inf, with no numpy warning."""
    with np.errstate(over="ignore"):
        return _chord_norms(curve.points)[0] * curve.m


def curve_to_json(curve: DiscreteCurve) -> str:
    """Serialize as {"m": int, "points": [[x, y, z], ...]}; exact round-trip."""
    return json.dumps({"m": curve.m, "points": curve.points.tolist()})


def curve_from_json(text: str) -> DiscreteCurve:
    data = json.loads(text)
    pts = np.asarray(data["points"], dtype=float)
    if len(pts) != data["m"] + 1:
        raise ValueError(
            f"curve JSON claims m={data['m']} but has {len(pts)} points"
        )
    return DiscreteCurve(pts)

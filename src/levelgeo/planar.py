"""The planar special case phi(gamma) = a . gamma, where everything is exact.

With a linear constraint the curve update can be made semi-implicit: taking
relaxation omega = 1,

    lambda_{k+1} = (lambda_k + tau_l * (a . gamma_k)) / (1 + eps * tau_l)
    (I - tau_g * D^2) gamma_{k+1} = gamma_k - tau_g * (2 lambda_{k+1} - lambda_k) a

with D^2 the three-point second-difference matrix under Dirichlet endpoint
data.  The continuous inverse of (1 - tau_g d^2/dt^2) on [0,1] with zero
boundary is the kernel

    G(t,s) = sqrt(tau_g)/sinh(1/sqrt(tau_g)) * sinh(min(t,s)/sqrt(tau_g))
                                             * sinh((1-max(t,s))/sqrt(tau_g)),

which serves as the analytic oracle for the discrete solver.  That solver
is one direct call of LAPACK's tridiagonal gtsv; run_planar makes it once per
iteration, and builds its buffers, views and step-size operands once per run.
scipy, which wraps gtsv, is imported by the two solving functions, so
importing this module does not load it.

This scheme is an exact proximal primal-dual iteration for the discrete
Lagrangian, so the classical ergodic rate applies: whenever
tau_l * tau_g * |a|^2 < 1, the running averages over iterates 1..k satisfy

    L_eps(avg gamma_k, lam) - L_eps(gamma, avg lambda_k)
        <= ||xi_0 - xi||_A^2 / (2k)

for ANY comparison pair xi = (lambda, gamma), where the A-norm is the
dt-weighted block form  sum_i [dl_i^2/tau_l + 2 dl_i (a . dg_i) + |dg_i|^2/tau_g] * dt.
run_planar records the gap and this bound at dyadic iteration counts, as
ErgodicRecord rows; a diverging iterate raises DivergenceError, with numpy's
overflow warnings off.  Its finiteness test has two tiers: a finite sum of
the squares of the points and multipliers passes the iterate, and only when
that sum is not finite does an exact count decide, so a finite iterate whose
squares overflow runs on.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .curve import DiscreteCurve, MultiplierField, init_straight_line
from .levelset import Plane
from .schemes import SolverState, DivergenceError

__all__ = [
    "PlanarProblem",
    "ErgodicRecord",
    "implicit_gamma_solve",
    "greens_function",
    "run_planar",
    "lagrangian_eps",
    "kinetic_energy",
]


def _tridiagonal(m: int, tau_gamma: float):
    """c = tau_gamma m^2 and the bands (off, diag) of I - tau_gamma D^2 inside."""
    c = tau_gamma * m * m
    return c, np.full(m - 2, -c), np.full(m - 1, 1.0 + 2.0 * c)


def _gtsv(dgtsv, off, diag, b):
    """Solve (off, diag, off) x = b into the Fortran-ordered (n, k) b.

    scipy's solve_banded((1, 1), ...) without its argument checks: the same
    LAPACK gtsv, passed in as scipy.linalg.lapack.dgtsv, or a division at
    n = 1, where the gtsv wrapper rejects empty off-diagonals.  gtsv gets
    copies of the bands, which it overwrites.
    """
    if len(diag) == 1:
        b /= diag[0]
        return b
    x, info = dgtsv(off, diag, off, b, overwrite_b=1)[3:]
    if info > 0:
        raise np.linalg.LinAlgError("singular matrix")
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal gtsv")
    return x


def implicit_gamma_solve(rhs, tau_gamma: float):
    """Solve (I - tau_gamma * D^2) x = rhs with Dirichlet data rhs[0], rhs[-1].

    rhs is (m+1,) or (m+1, k) grid data whose first and last entries are the
    boundary values of the solution.  The system is symmetric positive
    definite for tau_gamma > 0; solved by one call of LAPACK's tridiagonal
    solver gtsv (a division at m = 2), as in run_planar's loop.  Non-finite
    data is not rejected: a diverging iterate comes back non-finite.
    """
    if not tau_gamma > 0:
        raise ValueError("tau_gamma must be positive")
    from scipy.linalg.lapack import dgtsv
    b = np.asarray(rhs, dtype=float)
    squeeze = b.ndim == 1
    if squeeze:
        b = b[:, None]
    m = len(b) - 1
    if m < 2:
        raise ValueError("need at least m = 2 intervals")
    c, off, diag = _tridiagonal(m, tau_gamma)
    interior = np.array(b[1:-1], order="F")
    interior[0] += c * b[0]
    interior[-1] += c * b[-1]
    out = b.copy()
    out[1:-1] = _gtsv(dgtsv, off, diag, interior)
    return out[:, 0] if squeeze else out


def _logsinh(z: np.ndarray) -> np.ndarray:
    """log(sinh(z)) for z >= 0, overflow-free; -inf at z = 0."""
    out = np.full(np.shape(z), -np.inf)
    pos = z > 0
    zp = np.asarray(z)[pos]
    with np.errstate(divide="ignore"):
        out[pos] = zp + np.log1p(-np.exp(-2.0 * zp)) - math.log(2.0)
    return out


def greens_function(t, s, tau_gamma: float):
    """Analytic kernel of (1 - tau_gamma d^2)^{-1} on [0,1], zero boundary.

    Vectorized over broadcastable t, s in [0,1].  Evaluated in log space so
    tiny tau_gamma (huge sinh arguments) cannot overflow.
    """
    if not tau_gamma > 0:
        raise ValueError("tau_gamma must be positive")
    t = np.asarray(t, dtype=float)
    s = np.asarray(s, dtype=float)
    if np.any(t < 0) or np.any(t > 1) or np.any(s < 0) or np.any(s > 1):
        raise ValueError("t and s must lie in [0, 1]")
    root = math.sqrt(tau_gamma)
    lo = np.minimum(t, s)
    hi = np.maximum(t, s)
    log_g = (
        math.log(root)
        + _logsinh(lo / root)
        + _logsinh((1.0 - hi) / root)
        - _logsinh(np.asarray(1.0 / root))
    )
    g = np.exp(log_g)
    return float(g) if g.ndim == 0 else g


@dataclass
class PlanarProblem:
    """Endpoints in the plane a.x = 0 (each within 1e-12 of it: the distance
    |a.x| / |a|, whatever the length of a) plus step sizes.

    step_condition_ok is the one test of the rate condition
    tau_l tau_g |a|^2 < 1, under which the A-norm is positive definite.
    """

    a: np.ndarray
    p: np.ndarray
    q: np.ndarray
    m: int = 100
    tau_gamma: float = 0.01
    tau_lambda: float = 0.7
    epsilon: float = 0.01

    def __post_init__(self):
        self.a = Plane(self.a).normal  # the field's own check of a
        self.p = np.asarray(self.p, dtype=float)
        self.q = np.asarray(self.q, dtype=float)
        for name, pt in (("p", self.p), ("q", self.q)):
            if pt.shape != (3,) or not np.isfinite(pt).all():
                raise ValueError(f"{name} must be a finite 3-vector")
            with np.errstate(over="ignore"):  # an a.x that overflows is inf: far off
                if abs(float(self.a @ pt)) / math.sqrt(self.a @ self.a) > 1e-12:
                    raise ValueError(f"{name} must lie within 1e-12 of the plane a.x = 0")
        if not isinstance(self.m, (int, np.integer)) or self.m < 2:
            raise ValueError("m must be an integer of at least 2")
        if not (0 < self.tau_gamma < np.inf and 0 < self.tau_lambda < np.inf):
            raise ValueError("step sizes must be positive and finite")
        if not 0 <= self.epsilon < np.inf:
            raise ValueError("epsilon must be nonnegative and finite")

    @property
    def step_product(self) -> float:
        return self.tau_lambda * self.tau_gamma * float(self.a @ self.a)

    @property
    def step_condition_ok(self) -> bool:
        return self.step_product < 1.0


@dataclass
class ErgodicRecord:
    k: int
    gap: float
    bound: float


def kinetic_energy(curve: DiscreteCurve) -> float:
    """(1/2) sum |gamma_{i+1} - gamma_i|^2 / dt."""
    diffs = np.diff(curve.points, axis=0)
    return 0.5 * float(np.einsum("ij,ij->", diffs, diffs)) * curve.m


def lagrangian_eps(curve: DiscreteCurve, multiplier: MultiplierField, surface,
                   epsilon: float) -> float:
    """Discrete L_eps = kinetic + dt sum lam*phi(gamma) - (eps/2) dt sum lam^2."""
    lam = multiplier.values
    phi = surface.value(curve.interior)
    dt = curve.dt
    return (
        kinetic_energy(curve)
        + dt * float(np.dot(lam, phi))
        - 0.5 * epsilon * dt * float(np.dot(lam, lam))
    )


def _a_norm_sq(problem: PlanarProblem, d_lam: np.ndarray, d_gam: np.ndarray) -> float:
    """dt-weighted ||(d_lam, d_gam)||_A^2 over the interior nodes."""
    a = problem.a
    dt = 1.0 / problem.m
    cross = d_gam @ a
    return dt * float(
        np.dot(d_lam, d_lam) / problem.tau_lambda
        + 2.0 * np.dot(d_lam, cross)
        + np.einsum("ij,ij->", d_gam, d_gam) / problem.tau_gamma
    )


def run_planar(problem: PlanarProblem, max_iters: int, init=None):
    """Iterate the semi-implicit planar scheme, recording the ergodic gap.

    init : optional (DiscreteCurve, MultiplierField), left unchanged; defaults
        to the saddle itself (straight segment, zero multiplier).

    Returns (final SolverState, list of ErgodicRecord at k = 1, 2, 4, ...).
    A violated step condition only warns; iteration proceeds and divergence,
    if it happens, raises DivergenceError with the records gathered so far.
    An iterate diverges when an entry is not finite, which two dot products
    rule out and an isfinite count decides only when their sum is not finite.
    """
    if not isinstance(max_iters, (int, np.integer)) or max_iters < 0:
        raise ValueError("max_iters must be a nonnegative integer")
    if not problem.step_condition_ok:
        warnings.warn(
            f"step product {problem.step_product:.3g} >= 1, "
            "the ergodic bound does not apply",
            stacklevel=2,
        )

    # the gap is measured against the saddle, which is exact here because
    # a.p = a.q = 0 makes the straight segment feasible with lambda = 0
    ref_curve, ref_mult = init_straight_line(problem.p, problem.q, problem.m)
    curve, mult = (ref_curve, ref_mult) if init is None else init  # copied below
    if curve.m != problem.m or mult.m != problem.m:
        raise ValueError("init resolution does not match problem.m")
    field = Plane(problem.a)

    with np.errstate(over="ignore", invalid="ignore"):  # a tiny step makes it inf
        bound_base = _a_norm_sq(
            problem,
            mult.values - ref_mult.values,
            curve.interior - ref_curve.interior,
        )

    # lam_new = (lam + tau_l (x @ a)) shrink and (I - tau_g D^2) x_new =
    # x - tau_g outer(2 lam_new - lam, a), in this operation order on operands
    # built once: x_new is bit for bit implicit_gamma_solve's solution
    from scipy.linalg.lapack import dgtsv
    a = problem.a
    # 0-d operands: numpy converts a Python number at every call
    tau_lambda, tau_gamma = np.array(problem.tau_lambda), np.array(problem.tau_gamma)
    shrink = np.array(1.0 / (1.0 + problem.epsilon * problem.tau_lambda))
    c, off, diag = _tridiagonal(problem.m, problem.tau_gamma)
    pts = curve.points.copy()
    x, flat = pts[1:-1], pts.reshape(-1)
    lam = mult.values.copy()
    lam_new = np.empty_like(lam)
    lam_tilde = np.empty_like(lam)
    tilde_col = lam_tilde[:, None]
    prod = np.empty_like(x)
    rhs = np.empty(x.shape, order="F")
    # c p and c q go into views of rhs's end rows: adding a whole boundary
    # array would add +0.0 to the other rows and turn a -0.0 into +0.0
    first, last = rhs[0], rhs[-1]
    gamma_sum = np.zeros_like(x)
    lam_sum = np.zeros_like(lam)
    records: list[ErgodicRecord] = []
    next_record = 1

    with np.errstate(over="ignore", invalid="ignore"):
        c_p, c_q = c * pts[0], c * pts[-1]  # inf * 0 where c overflowed
        for k in range(1, max_iters + 1):
            np.matmul(x, a, lam_new)
            np.multiply(lam_new, tau_lambda, lam_new)
            np.add(lam_new, lam, lam_new)
            np.multiply(lam_new, shrink, lam_new)
            np.add(lam_new, lam_new, lam_tilde)  # 2 lam_new, exactly
            np.subtract(lam_tilde, lam, lam_tilde)
            np.multiply(tilde_col, a, prod, order="F")  # down the rows, same bits
            np.multiply(prod, tau_gamma, prod)
            np.subtract(x, prod, rhs)
            np.add(first, c_p, first)
            np.add(last, c_q, last)
            x[...] = _gtsv(dgtsv, off, diag, rhs)
            lam, lam_new = lam_new, lam
            np.add(gamma_sum, x, gamma_sum)
            np.add(lam_sum, lam, lam_sum)

            # two tiers, as in the curve solver: a finite sum of squares proves
            # every entry finite; count_nonzero is numpy's cheapest reduction
            if not math.isfinite(flat.dot(flat) + lam.dot(lam)) and (
                    np.count_nonzero(np.isfinite(pts)) + np.count_nonzero(np.isfinite(lam))
                    != pts.size + lam.size):
                raise DivergenceError(k, "non-finite planar iterate", trace=records)

            if k == next_record or k == max_iters:
                avg_pts = pts.copy()
                avg_pts[1:-1] = gamma_sum / k
                avg_curve = DiscreteCurve(avg_pts)
                avg_mult = MultiplierField(lam_sum / k)
                gap = lagrangian_eps(
                    avg_curve, ref_mult, field, problem.epsilon
                ) - lagrangian_eps(ref_curve, avg_mult, field, problem.epsilon)
                records.append(ErgodicRecord(k=k, gap=gap, bound=bound_base / (2.0 * k)))
                while next_record <= k:
                    next_record *= 2

    return SolverState(DiscreteCurve(pts), MultiplierField(lam), max_iters), records


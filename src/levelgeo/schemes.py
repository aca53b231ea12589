"""Primal-dual iterations for on-surface curve shortening.

All schemes alternate a multiplier (ascent) update with a curve (descent)
update for the saddle problem

    min_gamma max_lambda  1/2 int |gamma'|^2 + int lambda phi(gamma)
                          - eps/2 int lambda^2,

discretized on the uniform grid of `curve`.  Per interior node i:

GDA            lam <- lam + tau_l * phi(g_i)
Regularized    lam <- (lam + tau_l * phi(g_i)) / (1 + eps * tau_l)
BasePDHG       lam+ as Regularized; lam~ = lam+ + omega (lam+ - lam);
               gamma step uses lam~; commit lam+
Var1           lam+, lam~ as BasePDHG; lam_bar = (lam~ + tau_l phi(g_i)) / (1+eps tau_l);
               gamma step uses lam~; commit lam_bar
Var2           lam+ as Regularized; lam~ = (1 - alpha eps) lam+ + alpha phi(g_i);
               gamma step uses lam~; commit lam+

and every gamma step is

    g_i <- g_i - tau_g * ( -(g_{i+1} - 2 g_i + g_{i-1}) / dt^2 + lam~ grad phi(g_i) )

with all stencils read from the OLD curve (Jacobi sweep, not Gauss-Seidel)
and the endpoints never touched.  Regularized is exactly BasePDHG with
omega = 0 and shares its code path.

step() and run() share one kernel and one divergence check.  It evaluates
the field once per iteration (value_and_grad) and updates preallocated
buffers in place; run() copies them into a SolverState only at record points.
"""

from __future__ import annotations

import logging
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .curve import DiscreteCurve, MultiplierField, curve_length
from . import diagnostics

logger = logging.getLogger(__name__)

__all__ = [
    "Scheme",
    "SolverConfig",
    "SolverState",
    "DivergenceError",
    "step",
    "run",
]

#: curve_length beyond this multiple of |p - q| counts as divergence
DIVERGENCE_LENGTH_FACTOR = 1e3
#: endpoint |phi| above this draws a warning from run()
ENDPOINT_WARN_TOL = 1e-6


class Scheme(Enum):
    GDA = "gda"
    REGULARIZED = "regularized"
    BASE_PDHG = "base-pdhg"
    VAR1 = "var1"
    VAR2 = "var2"


@dataclass
class SolverConfig:
    """Step sizes and scheme selection for one solver run.

    epsilon >= 0 is accepted here so sweeps can probe the unregularized
    regime; validate_strict() additionally demands epsilon > 0 for every
    scheme except GDA (which ignores it), and is what the single-run CLI
    applies.
    """

    scheme: Scheme = Scheme.BASE_PDHG
    tau_gamma: float = 1e-5
    tau_lambda: float = 0.7
    epsilon: float = 0.01
    omega: float = 1.0
    alpha: float = 1.0
    max_iters: int = 5000
    record_every: int = 10

    def __post_init__(self):
        self.scheme = Scheme(self.scheme)
        if not (np.isfinite(self.tau_gamma) and self.tau_gamma > 0):
            raise ValueError("tau_gamma must be positive and finite")
        if not (np.isfinite(self.tau_lambda) and self.tau_lambda > 0):
            raise ValueError("tau_lambda must be positive and finite")
        if not (np.isfinite(self.epsilon) and self.epsilon >= 0):
            raise ValueError("epsilon must be nonnegative and finite")
        if not (np.isfinite(self.omega) and self.omega >= 0):
            raise ValueError("omega must be nonnegative and finite")
        if not (np.isfinite(self.alpha) and self.alpha >= 0):
            raise ValueError("alpha must be nonnegative and finite")
        if self.max_iters < 0:
            raise ValueError("max_iters must be nonnegative")
        if self.record_every < 1:
            raise ValueError("record_every must be at least 1")

    def validate_strict(self):
        """Raise unless the regularization invariant holds (epsilon > 0 off GDA)."""
        if self.scheme is not Scheme.GDA and not self.epsilon > 0:
            raise ValueError(
                f"scheme {self.scheme.value} requires epsilon > 0, got {self.epsilon}"
            )
        return self


@dataclass
class SolverState:
    curve: DiscreteCurve
    multiplier: MultiplierField
    iteration: int = 0

    def __post_init__(self):
        if self.curve.m != self.multiplier.m:
            raise ValueError(
                f"curve m={self.curve.m} and multiplier m={self.multiplier.m} differ"
            )


class DivergenceError(RuntimeError):
    """The iteration produced non-finite values or a runaway curve."""

    def __init__(self, iteration: int, message: str = "", trace=None, state=None):
        super().__init__(
            f"divergence at iteration {iteration}" + (f": {message}" if message else "")
        )
        self.iteration = iteration
        self.trace = trace
        self.state = state


class _Workspace:
    """Two point and two multiplier buffers that swap after every iteration;
    only interior rows are written, so the endpoints stay pinned."""

    def __init__(self, state: SolverState, cfg: SolverConfig, surface):
        self.cfg, self.surface, self.m = cfg, surface, state.multiplier.m
        pts, lam = state.curve.points, state.multiplier.values
        self.buffers = [(DiscreteCurve(pts.copy()), lam.copy()),
                        (DiscreteCurve(pts.copy()), np.empty_like(lam))]
        self.sd, self.force = np.empty((len(lam), 3)), np.empty((len(lam), 3))
        self.tilde, self.tmp = np.empty_like(lam), np.empty_like(lam)
        self.shrink = 1.0 / (1.0 + cfg.epsilon * cfg.tau_lambda)
        self.length_cap = DIVERGENCE_LENGTH_FACTOR * max(
            float(np.linalg.norm(pts[-1] - pts[0])), 1e-6)

    def state(self, iteration: int) -> SolverState:
        curve, lam = self.buffers[0]
        return SolverState(DiscreteCurve(curve.points.copy()),
                           MultiplierField(lam.copy(), self.m), iteration)

    def advance(self, iteration: int, trace=None):
        """Step to `iteration`; on a non-finite update or a runaway curve, raise
        DivergenceError carrying trace and the state at iteration - 1."""
        cfg, sd, force, tilde, tmp = self.cfg, self.sd, self.force, self.tilde, self.tmp
        (curve, lam), (new_curve, new_lam) = self.buffers
        pts, new_interior = curve.points, new_curve.points[1:-1]
        phi, grad = self.surface.value_and_grad(pts[1:-1])

        # in place: one ufunc per operation, in the order of (lam + tau_l phi) * shrink
        np.multiply(phi, cfg.tau_lambda, out=new_lam)
        np.add(lam, new_lam, out=new_lam)
        if cfg.scheme is Scheme.GDA:
            tilde = new_lam
        else:
            np.multiply(new_lam, self.shrink, out=new_lam)  # lam+
            if cfg.scheme is Scheme.VAR2:
                np.multiply(new_lam, 1.0 - cfg.alpha * cfg.epsilon, out=tilde)
                np.multiply(phi, cfg.alpha, out=tmp)
                np.add(tilde, tmp, out=tilde)
            else:
                omega = 0.0 if cfg.scheme is Scheme.REGULARIZED else cfg.omega
                np.subtract(new_lam, lam, out=tilde)
                np.multiply(tilde, omega, out=tilde)
                np.add(new_lam, tilde, out=tilde)
                if cfg.scheme is Scheme.VAR1:  # commit lam_bar
                    np.multiply(phi, cfg.tau_lambda, out=new_lam)
                    np.add(tilde, new_lam, out=new_lam)
                    np.multiply(new_lam, self.shrink, out=new_lam)

        np.multiply(pts[1:-1], 2.0, out=sd)  # second difference
        np.subtract(pts[2:], sd, out=sd)
        np.add(sd, pts[:-2], out=sd)
        np.multiply(sd, self.m**2, out=sd)
        # -sd + lam~ grad, formed as lam~ grad - sd: b - a is b + (-a) exactly
        np.multiply(tilde[:, None], grad, out=force)
        np.subtract(force, sd, out=force)
        np.multiply(force, cfg.tau_gamma, out=force)
        np.subtract(pts[1:-1], force, out=new_interior)

        finite = np.isfinite(new_interior).all() and np.isfinite(new_lam).all()
        if not finite or curve_length(new_curve) > self.length_cap:
            reason = (f"curve length exceeded {self.length_cap:.3g}" if finite
                      else "non-finite value in update")
            raise DivergenceError(iteration, reason, trace, self.state(iteration - 1))
        self.buffers.reverse()


def step(state, cfg, surface) -> SolverState:
    """One iteration of whichever scheme cfg selects, with run()'s divergence check."""
    work = _Workspace(state, cfg, surface)
    work.advance(state.iteration + 1)
    return work.state(state.iteration + 1)


def run(cfg: SolverConfig, surface, init, reference_distance: float | None = None):
    """Iterate cfg.max_iters times from init, recording a diagnostics trace.

    Parameters
    ----------
    cfg : SolverConfig
    surface : LevelSet
    init : (DiscreteCurve, MultiplierField)
    reference_distance : true geodesic distance d, enabling absolute and
        relative error columns in the trace.

    Returns (final SolverState, IterationTrace).  Deterministic for fixed
    inputs.  Raises DivergenceError (with the trace so far and the last finite
    state attached) when an update produces non-finite values or the length
    exceeds 1e3 times the endpoint separation.
    """
    curve0, mult0 = init
    state = SolverState(curve=curve0.copy(), multiplier=mult0.copy(), iteration=0)

    endpoint_phi = max(abs(float(surface.value(curve0.p))),
                       abs(float(surface.value(curve0.q))))
    if endpoint_phi > ENDPOINT_WARN_TOL:
        warnings.warn(
            f"init endpoints are off-surface: max |phi| = {endpoint_phi:.3g}",
            stacklevel=2,
        )

    if cfg.scheme not in (Scheme.GDA, Scheme.VAR2):
        tau_implied = cfg.tau_lambda / (1.0 + cfg.epsilon * cfg.tau_lambda)
        if abs(cfg.tau_gamma - tau_implied) > 1e-12 * max(1.0, tau_implied):
            logger.info(
                "tau_gamma=%g differs from tau_lambda/(1+eps*tau_lambda)=%g; "
                "diagnostics reconstruct alpha as (1+omega)*tau_gamma",
                cfg.tau_gamma,
                tau_implied,
            )

    trace = diagnostics.IterationTrace()
    trace.append(diagnostics.trace_row(state, cfg, surface, reference_distance))

    work = _Workspace(state, cfg, surface)
    for k in range(1, cfg.max_iters + 1):
        work.advance(k, trace)
        if k % cfg.record_every == 0 or k == cfg.max_iters:
            state = work.state(k)
            trace.append(diagnostics.trace_row(state, cfg, surface, reference_distance))

    return state, trace

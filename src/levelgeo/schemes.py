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
"""

from __future__ import annotations

import logging
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .curve import DiscreteCurve, MultiplierField, curve_length, second_difference
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


def _step_arrays(curve: DiscreteCurve, lam, cfg: SolverConfig, surface):
    """One iteration on raw arrays; returns (new interior points, new lambda)."""
    interior = curve.interior
    phi = surface.value(interior)
    grad = surface.grad(interior)

    if cfg.scheme is Scheme.GDA:
        lam_new = lam + cfg.tau_lambda * phi
        lam_tilde = lam_new
    else:
        shrink = 1.0 / (1.0 + cfg.epsilon * cfg.tau_lambda)
        lam_plus = (lam + cfg.tau_lambda * phi) * shrink
        if cfg.scheme is Scheme.VAR2:
            lam_tilde = (1.0 - cfg.alpha * cfg.epsilon) * lam_plus + cfg.alpha * phi
            lam_new = lam_plus
        else:
            omega = 0.0 if cfg.scheme is Scheme.REGULARIZED else cfg.omega
            lam_tilde = lam_plus + omega * (lam_plus - lam)
            if cfg.scheme is Scheme.VAR1:
                lam_new = (lam_tilde + cfg.tau_lambda * phi) * shrink
            else:
                lam_new = lam_plus

    force = -second_difference(curve) + lam_tilde[:, None] * grad
    return interior - cfg.tau_gamma * force, lam_new


def _length_cap(curve: DiscreteCurve) -> float:
    return DIVERGENCE_LENGTH_FACTOR * max(float(np.linalg.norm(curve.q - curve.p)), 1e-6)


def _advance(state: SolverState, cfg: SolverConfig, surface,
             length_cap: float, trace=None) -> SolverState:
    """The next state; DivergenceError (carrying state and trace) if it diverged."""
    new_interior, lam_new = _step_arrays(state.curve, state.multiplier.values, cfg, surface)
    new_pts = state.curve.points.copy()
    new_pts[1:-1] = new_interior
    new = SolverState(
        curve=DiscreteCurve(new_pts),
        multiplier=MultiplierField(lam_new, state.multiplier.m),
        iteration=state.iteration + 1,
    )
    finite = np.isfinite(new_interior).all() and np.isfinite(lam_new).all()
    if not finite or curve_length(new.curve) > length_cap:
        reason = "non-finite value in update" if not finite else (
            f"curve length exceeded {length_cap:.3g}"
        )
        raise DivergenceError(new.iteration, reason, trace=trace, state=state)
    return new


def step(state, cfg, surface) -> SolverState:
    """One iteration of whichever scheme cfg selects, with run()'s divergence check."""
    return _advance(state, cfg, surface, _length_cap(state.curve))


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

    length_cap = _length_cap(curve0)
    for k in range(1, cfg.max_iters + 1):
        state = _advance(state, cfg, surface, length_cap, trace)
        if k % cfg.record_every == 0 or k == cfg.max_iters:
            trace.append(diagnostics.trace_row(state, cfg, surface, reference_distance))

    return state, trace

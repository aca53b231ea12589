"""Error metrics, optimality residuals, and the Lyapunov functional.

trace_row is the one place that computes a state's numbers: length, error
against a reference distance, surface error, the two equilibrium residuals,
J and the geodesic defect.  Everything here is a pure function of a solver
state; nothing mutates.

The equilibrium residuals discretize the stationary conditions of the
primal-dual flow:

    R_lambda(t_i) = -eps * lambda_i + phi(gamma_i)
    R_gamma(t_i)  = gamma''_i - ((1 - alpha*eps) * lambda_i
                                 + alpha * phi(gamma_i)) * grad phi(gamma_i)

with alpha reconstructed from the config: cfg.alpha for Var2, and
(1 + omega) * tau_gamma otherwise (tau_gamma stands in for
tau_lambda / (1 + eps*tau_lambda); when the two differ the solver logs the
mismatch once and diagnostics proceed with tau_gamma).

The Lyapunov functional of the convergence theory is

    J = dt * sum R_lambda^2 + mu * dt * sum |R_gamma|^2,   mu = 1/(1 - alpha*eps),

defined only in the regime alpha*eps < 1; outside it J is nan.

Surface error |sum_i lambda_i phi(gamma_i)| is kept unweighted (no dt) to
match its usual inner-product form; the Lyapunov terms are dt-weighted
because they discretize integrals.  Signed cancellation inside surface error
is possible and intentional.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from . import schemes
from .curve import DiscreteCurve, _row_norms, curve_length, second_difference
from .levelset import SingularityError

__all__ = [
    "TraceRow",
    "IterationTrace",
    "effective_alpha",
    "geodesic_defect",
    "tangency_defect",
    "first_difference",
    "trace_row",
    "write_csv",
    "write_trace_csv",
    "read_trace_csv",
    "TRACE_CSV_HEADER",
]

TRACE_CSV_HEADER = (
    "iteration,length,absolute_error,relative_error,surface_error,"
    "lyapunov_J,lambda_residual,gamma_residual,geodesic_defect"
)


@dataclass
class TraceRow:
    iteration: int
    length: float
    absolute_error: float | None
    relative_error: float | None
    surface_error: float
    lyapunov_J: float
    lambda_residual: float
    gamma_residual: float
    geodesic_defect: float


class IterationTrace:
    """Diagnostics rows ordered by strictly increasing iteration."""

    def __init__(self, rows=None):
        self.rows: list[TraceRow] = []
        for row in rows or []:
            self.append(row)

    def append(self, row: TraceRow):
        if self.rows and row.iteration <= self.rows[-1].iteration:
            raise ValueError(
                f"trace iterations must increase: {row.iteration} after "
                f"{self.rows[-1].iteration}"
            )
        self.rows.append(row)

    def __len__(self):
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    @property
    def final(self) -> TraceRow:
        return self.rows[-1]

    def column(self, name: str) -> np.ndarray:
        """Column as a float array; missing optionals become nan."""
        vals = [getattr(r, name) for r in self.rows]
        return np.array(
            [math.nan if v is None else float(v) for v in vals], dtype=float
        )


def effective_alpha(cfg) -> float:
    """Relaxation alpha implied by a config: cfg.alpha for Var2, else (1+omega)*tau_gamma."""
    if cfg.scheme is schemes.Scheme.VAR2:
        return cfg.alpha
    if cfg.scheme is schemes.Scheme.GDA:
        return cfg.tau_gamma
    omega = 0.0 if cfg.scheme is schemes.Scheme.REGULARIZED else cfg.omega
    return (1.0 + omega) * cfg.tau_gamma


def _residual_terms(state, cfg, phi, grad):
    """(norm R_lambda, norm R_gamma, J) from the field at the interior nodes;
    J is nan outside the regime alpha*eps < 1."""
    lam = state.multiplier.values
    alpha = effective_alpha(cfg)
    eps = cfg.epsilon
    r_lambda = -eps * lam + phi
    coeff = (1.0 - alpha * eps) * lam + alpha * phi
    r_gamma = second_difference(state.curve) - coeff[:, None] * grad
    sum_l = float(np.dot(r_lambda, r_lambda))
    sum_g = float(np.einsum("ij,ij->", r_gamma, r_gamma))
    dt, ae = state.curve.dt, alpha * eps
    J = dt * sum_l + 1.0 / (1.0 - ae) * dt * sum_g if ae < 1.0 else math.nan
    return math.sqrt(dt * sum_l), math.sqrt(dt * sum_g), J


def first_difference(curve: DiscreteCurve) -> np.ndarray:
    """Velocity estimates at all m+1 nodes: central interior, one-sided at the ends."""
    pts = curve.points
    m = curve.m
    vel = np.empty_like(pts)
    vel[1:-1] = (pts[2:] - pts[:-2]) * (m / 2.0)
    vel[0] = (pts[1] - pts[0]) * m
    vel[-1] = (pts[-1] - pts[-2]) * m
    return vel


def geodesic_defect(curve: DiscreteCurve, normalized: bool = True) -> float:
    """max_i |gamma''_i . gamma'_i|, over interior nodes.

    Geodesics run at constant speed, so this inner product vanishes along
    them.  The normalized form divides by (1 + |gamma'_i|^2) to stay finite
    on degenerate curves.
    """
    sd = second_difference(curve)
    vel = first_difference(curve)[1:-1]
    dots = np.abs(np.einsum("ij,ij->i", sd, vel))
    if normalized:
        dots = dots / (1.0 + np.einsum("ij,ij->i", vel, vel))
    return float(dots.max())


def tangency_defect(state, surface) -> float:
    """max_i |gamma'_i . grad phi(gamma_i)| / |gamma'_i|: 0 when the velocity is tangent."""
    vel = first_difference(state.curve)[1:-1]
    grad = surface.grad(state.curve.interior)
    speed = _row_norms(vel)
    dots = np.abs(np.einsum("ij,ij->i", vel, grad))
    mask = speed > 0
    if not mask.any():
        return 0.0
    return float((dots[mask] / speed[mask]).max())


def trace_row(state, cfg, surface, reference_distance: float | None = None,
              field=None) -> TraceRow:
    """Assemble one diagnostics row for the current state.

    field, if given, is surface.value_and_grad(state.curve.interior) as the
    caller already has it; the row is then made without a field call.
    Where the field's gradient is undefined at a node (a SingularityError),
    the gamma residual and J are nan and the other columns are as usual.
    Raises ValueError unless reference_distance is None or finite and > 0.
    """
    if reference_distance is not None and not 0 < reference_distance < math.inf:
        raise ValueError(
            f"reference distance must be positive and finite, got {reference_distance!r}")
    length = curve_length(state.curve)
    if reference_distance is not None:
        abs_err = abs(length - reference_distance)
        rel_err = abs_err / reference_distance
    else:
        abs_err = rel_err = None
    # one field evaluation feeds the residuals, J and the surface error
    try:
        phi, grad = field or surface.value_and_grad(state.curve.interior)
    except SingularityError:  # grad phi is undefined at a node: R_gamma and J are nan
        phi = surface.value(state.curve.interior)
        grad = np.full((len(phi), 3), math.nan)
    norm_l, norm_g, J = _residual_terms(state, cfg, phi, grad)
    return TraceRow(
        iteration=state.iteration,
        length=length,
        absolute_error=abs_err,
        relative_error=rel_err,
        surface_error=float(abs(np.dot(state.multiplier.values, phi))),
        lyapunov_J=J,
        lambda_residual=norm_l,
        gamma_residual=norm_g,
        geodesic_defect=geodesic_defect(state.curve),
    )


def _csv_field(value) -> str:
    """One artifact CSV field: None empty, bools lowercase, ints and strings as
    they are, other numbers as the repr of a float (exact round-trip)."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, str)):
        return str(value)
    return repr(float(value))


def write_csv(path, header: str, rows):
    """Write header and rows, every field through _csv_field."""
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerows([_csv_field(v) for v in row] for row in rows)


def write_trace_csv(trace: IterationTrace, path):
    """Write the pinned CSV schema; optional columns serialize as empty fields."""
    write_csv(path, TRACE_CSV_HEADER, (
        [r.iteration, r.length, r.absolute_error, r.relative_error,
         r.surface_error, r.lyapunov_J, r.lambda_residual, r.gamma_residual,
         r.geodesic_defect]
        for r in trace
    ))


def read_trace_csv(path) -> IterationTrace:
    trace = IterationTrace()
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if ",".join(header) != TRACE_CSV_HEADER:
            raise ValueError(f"unexpected trace header: {header}")
        for fields in reader:
            it, length, a, r, s, j, rl, rg, gd = fields
            trace.append(
                TraceRow(
                    iteration=int(it),
                    length=float(length),
                    absolute_error=float(a) if a else None,
                    relative_error=float(r) if r else None,
                    surface_error=float(s),
                    lyapunov_J=float(j),
                    lambda_residual=float(rl),
                    gamma_residual=float(rg),
                    geodesic_defect=float(gd),
                )
            )
    return trace

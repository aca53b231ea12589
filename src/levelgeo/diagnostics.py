"""Error metrics, optimality residuals, and the Lyapunov functional.

trace_row is the one place that computes a state's numbers: length, error
against a reference distance, surface error, the two equilibrium residuals,
J and the geodesic defect.  Everything here is a pure function of a solver
state; nothing mutates.

write_records and read_records write and read every record table (trace.csv
of TraceRow, planar_ergodic.csv of planar.ErgodicRecord), exactly.

The equilibrium residuals discretize the stationary conditions of the
primal-dual flow:

    R_lambda(t_i) = -eps * lambda_i + phi(gamma_i)
    R_gamma(t_i)  = gamma''_i - ((1 - alpha*eps) * lambda_i
                                 + alpha * phi(gamma_i)) * grad phi(gamma_i)

with alpha reconstructed from the config as SolverConfig.effective_alpha:
cfg.alpha for Var2, and (1 + omega) * tau_gamma otherwise, omega being 0 for
GDA and Regularized (tau_gamma stands in for tau_lambda / (1 + eps*tau_lambda),
whether or not the two agree).

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
from dataclasses import dataclass, fields

import numpy as np

from .curve import DiscreteCurve, _row_norms, curve_length, second_difference
from .levelset import SingularityError

__all__ = [
    "TraceRow",
    "IterationTrace",
    "geodesic_defect",
    "tangency_defect",
    "trace_row",
    "write_csv",
    "write_records",
    "read_records",
    "write_trace_csv",
]


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


def _residual_terms(state, cfg, phi, grad, sd):
    """(norm R_lambda, norm R_gamma, J) from the field at the interior nodes and
    sd = second_difference(state.curve); J is nan outside the regime alpha*eps < 1."""
    lam = state.multiplier.values
    alpha = cfg.effective_alpha
    eps = cfg.epsilon
    r_lambda = -eps * lam + phi
    coeff = (1.0 - alpha * eps) * lam + alpha * phi
    r_gamma = sd - coeff[:, None] * grad
    sum_l = float(np.dot(r_lambda, r_lambda))
    sum_g = float(np.einsum("ij,ij->", r_gamma, r_gamma))
    dt, ae = state.curve.dt, alpha * eps
    J = dt * sum_l + 1.0 / (1.0 - ae) * dt * sum_g if ae < 1.0 else math.nan
    return math.sqrt(dt * sum_l), math.sqrt(dt * sum_g), J


def _velocity(curve: DiscreteCurve) -> np.ndarray:
    """Central-difference velocities at the interior nodes."""
    return (curve.points[2:] - curve.points[:-2]) * (curve.m / 2.0)


def geodesic_defect(curve: DiscreteCurve) -> float:
    """max_i |gamma''_i . gamma'_i| / (1 + |gamma'_i|^2), over interior nodes.

    Geodesics run at constant speed, so this inner product vanishes along
    them; the divisor keeps it finite on degenerate curves.
    """
    return _geodesic_defect(curve, second_difference(curve))


def _geodesic_defect(curve, sd):
    """geodesic_defect(curve) from sd = second_difference(curve)."""
    vel = _velocity(curve)
    dots = np.abs(np.einsum("ij,ij->i", sd, vel))
    return float((dots / (1.0 + np.einsum("ij,ij->i", vel, vel))).max())


def tangency_defect(state, surface) -> float:
    """max_i |gamma'_i . grad phi(gamma_i)| / |gamma'_i|: 0 when the velocity is tangent."""
    vel = _velocity(state.curve)
    grad = surface.grad(state.curve.interior)
    speed = _row_norms(vel)
    dots = np.abs(np.einsum("ij,ij->i", vel, grad))
    mask = speed > 0
    if not mask.any():
        return 0.0
    return float((dots[mask] / speed[mask]).max())


def _field(surface, x):
    """(phi, grad, None) from surface.value_and_grad(x); where the gradient is
    undefined at a node, (value(x), a nan gradient, the SingularityError)."""
    try:
        return (*surface.value_and_grad(x), None)
    except SingularityError as error:
        phi = surface.value(x)
        return phi, np.full((len(phi), 3), math.nan), error


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
    # one field evaluation feeds the residuals, J and the surface error, and one
    # second difference the gamma residual and the geodesic defect
    phi, grad = field or _field(surface, state.curve.interior)[:2]
    sd = second_difference(state.curve)
    norm_l, norm_g, J = _residual_terms(state, cfg, phi, grad, sd)
    return TraceRow(
        iteration=state.iteration,
        length=length,
        absolute_error=abs_err,
        relative_error=rel_err,
        surface_error=float(abs(np.dot(state.multiplier.values, phi))),
        lyapunov_J=J,
        lambda_residual=norm_l,
        gamma_residual=norm_g,
        geodesic_defect=_geodesic_defect(state.curve, sd),
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


def write_records(path, cls, records):
    """Write records of the dataclass cls, one column per field, in field order."""
    names = [field.name for field in fields(cls)]
    write_csv(path, ",".join(names), ([getattr(r, name) for name in names] for r in records))


#: each column's parser, by its field's annotation (a string: annotations are postponed)
_PARSERS = {"int": int, "float": float, "float | None": lambda s: float(s) if s else None}


def read_records(path, cls) -> list:
    """The cls records of a write_records file, each field parsed by its annotation
    (empty is None only in a `float | None` column).  ValueError for another
    header (an empty file has none), another row width or an unparsable field."""
    names = [field.name for field in fields(cls)]
    parsers = [_PARSERS[field.type] for field in fields(cls)]
    records = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if (header := next(reader, None)) != names:
            raise ValueError(f"unexpected {cls.__name__} header: {header}")
        for values in reader:
            try:
                records.append(cls(*(parse(v) for parse, v in zip(parsers, values, strict=True))))
            except ValueError as exc:
                raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
    return records


def write_trace_csv(trace: IterationTrace, path):
    """Write trace.csv; optional columns serialize as empty fields."""
    write_records(path, TraceRow, trace)


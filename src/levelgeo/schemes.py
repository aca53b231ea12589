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

One kernel serves every path: run_batch() stacks B >= 1 problems that
share scheme and m, makes one field call (value_and_grad) per state on all
their interior nodes, and updates preallocated buffers in place, each
member with its own step sizes.  A recorded state's field call feeds both
its trace rows and the next step.  The operations and their order do not
depend on B, so every member's numbers are bit for bit those of its run
alone.  run() is a batch of one and step() one iteration of it.  States are
copied out only at record points.  A member stops at its iteration budget,
on divergence, or at a field singularity; the others go on.
"""

from __future__ import annotations

import logging
import time
import warnings
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .curve import DiscreteCurve, MultiplierField, curve_length
from .levelset import SingularityError
from . import diagnostics

logger = logging.getLogger(__name__)

__all__ = [
    "Scheme",
    "SolverConfig",
    "SolverState",
    "DivergenceError",
    "Problem",
    "Outcome",
    "BatchRun",
    "step",
    "run_batch",
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
    """The stacked state of a batch whose members share scheme and m.

    Points are (B, m+1, 3) and multipliers (B, m-1), each in two buffers that
    swap after every iteration; only interior rows are written, so the
    endpoints stay pinned.  Each step size holds every member's own value at
    each of its nodes, a (B, 1) column spread to the shape it multiplies:
    numpy's loop over two contiguous operands of one shape is faster than a
    broadcast, at B = 1 too, and the products are the same.  `members` maps
    each row to its member.  A member that stops leaves the stack: every
    stacked array drops its row.  `field` holds the field of the current
    state once a record point has evaluated it; the next advance takes it,
    and a member leaving clears it.
    """

    _STACKED = ("tau_lambda", "shrink", "omega", "keep", "alpha", "tau_gamma",
                "length_cap", "sd", "force", "tilde", "tmp")

    def __init__(self, states, cfgs, surface):
        self.scheme, self.surface, self.m = cfgs[0].scheme, surface, states[0].multiplier.m
        pts = np.stack([s.curve.points for s in states])
        lam = np.stack([s.multiplier.values for s in states])
        self.buffers = [_buffer(pts, lam), _buffer(pts.copy(), np.empty_like(lam))]
        self.members = list(range(len(states)))

        def per_node(values, shape=lam.shape):
            column = np.array(values, dtype=float).reshape(-1, *[1] * (len(shape) - 1))
            return np.broadcast_to(column, shape).copy()

        self.tau_lambda = per_node([c.tau_lambda for c in cfgs])
        self.shrink = per_node([1.0 / (1.0 + c.epsilon * c.tau_lambda) for c in cfgs])
        self.omega = per_node([0.0 if c.scheme is Scheme.REGULARIZED else c.omega
                               for c in cfgs])
        self.keep = per_node([1.0 - c.alpha * c.epsilon for c in cfgs])  # var2's weight of lam+
        self.alpha = per_node([c.alpha for c in cfgs])
        self.tau_gamma = per_node([c.tau_gamma for c in cfgs], (*lam.shape, 3))
        self.length_cap = np.array([DIVERGENCE_LENGTH_FACTOR * max(
            float(np.linalg.norm(s.curve.q - s.curve.p)), 1e-6) for s in states])
        self.sd, self.force = np.empty((*lam.shape, 3)), np.empty((*lam.shape, 3))
        self.tilde, self.tmp = np.empty_like(lam), np.empty_like(lam)
        self.field = None

    def evaluate(self):
        """phi (B, m-1) and grad (B, m-1, 3) at every member's interior nodes of
        the current state, from one field call."""
        rows = len(self.members)
        phi, grad = self.surface.value_and_grad(self.buffers[0][1].reshape(-1, 3))
        return phi.reshape(rows, -1), grad.reshape(rows, -1, 3)

    def state(self, row: int, iteration: int) -> SolverState:
        pts, lam = self.buffers[0][0], self.buffers[0][-1]
        return SolverState(DiscreteCurve(pts[row].copy()),
                           MultiplierField(lam[row].copy(), self.m), iteration)

    def _leave(self, rows, iteration: int, reasons, stops):
        """Rows stop at `iteration` (their state is the one before it) and
        leave the stack; appends (member, state, reason) to stops."""
        stops.extend((self.members[row], self.state(row, iteration - 1), reason)
                     for row, reason in zip(rows, reasons))
        kept = np.ones(len(self.members), dtype=bool)
        kept[rows] = False
        self.members = [member for member, k in zip(self.members, kept) if k]
        self.field = None
        self.buffers = [_buffer(buf[0][kept], buf[-1][kept]) for buf in self.buffers]
        for name in self._STACKED:
            setattr(self, name, getattr(self, name)[kept])

    def _singular(self, error: SingularityError, iteration: int, stops):
        """The rare path after the stacked field call raised `error`: the
        members go through the field one by one, and each that raises stops.
        Returns evaluate() for the members left, or None when no member is
        left."""
        interior = self.buffers[0][1]
        singular = {}
        for row in range(len(self.members)):
            try:
                self.surface.value_and_grad(interior[row])
            except SingularityError as exc:
                singular[row] = exc
        if not singular:
            raise error
        self._leave(list(singular), iteration, singular.values(), stops)
        if not self.members:
            return None
        return self.evaluate()

    def advance(self, iteration: int):
        """Step every member to `iteration`.

        Returns the members that stopped, as (member, state at iteration - 1,
        reason); they have left the stack.  The reason is the field's
        SingularityError or the message of a divergence: a non-finite update
        or a curve longer than its length cap.
        """
        stops = []
        # the field of the state being left: the one a record point evaluated
        # (taken, so that no later state reads it) or one field call
        field, self.field = self.field, None
        if field is None:
            try:
                field = self.evaluate()
            except SingularityError as exc:
                field = self._singular(exc, iteration, stops)
                if field is None:
                    return stops
        phi, grad = field
        rows = len(phi)
        sd, force, tmp = self.sd, self.force, self.tmp
        (_, interior, ahead, behind, lam), (new_pts, new_interior, _, _, new_lam) = self.buffers

        # in place: one ufunc per operation, in the order of (lam + tau_l phi) * shrink
        np.multiply(phi, self.tau_lambda, out=new_lam)
        np.add(lam, new_lam, out=new_lam)
        if self.scheme is Scheme.GDA:
            tilde = new_lam
        else:
            tilde = self.tilde
            np.multiply(new_lam, self.shrink, out=new_lam)  # lam+
            if self.scheme is Scheme.VAR2:
                np.multiply(new_lam, self.keep, out=tilde)
                np.multiply(phi, self.alpha, out=tmp)
                np.add(tilde, tmp, out=tilde)
            else:
                np.subtract(new_lam, lam, out=tilde)
                np.multiply(tilde, self.omega, out=tilde)
                np.add(new_lam, tilde, out=tilde)
                if self.scheme is Scheme.VAR1:  # commit lam_bar
                    np.multiply(phi, self.tau_lambda, out=new_lam)
                    np.add(tilde, new_lam, out=new_lam)
                    np.multiply(new_lam, self.shrink, out=new_lam)

        np.multiply(interior, 2.0, out=sd)  # second difference
        np.subtract(ahead, sd, out=sd)
        np.add(sd, behind, out=sd)
        np.multiply(sd, self.m**2, out=sd)
        # -sd + lam~ grad, formed as lam~ grad - sd: b - a is b + (-a) exactly
        np.multiply(tilde[:, :, None], grad, out=force)
        np.subtract(force, sd, out=force)
        np.multiply(force, self.tau_gamma, out=force)
        np.subtract(interior, force, out=new_interior)

        # one test of the whole stack, and the failing members located only
        # when it fails: a length within its cap (nan is not) implies finite
        # points, and count_nonzero is numpy's cheapest reduction
        lengths = curve_length(new_pts)
        if (np.count_nonzero(lengths <= self.length_cap) + np.count_nonzero(
                np.isfinite(new_lam)) != rows + new_lam.size):
            finite = (np.isfinite(new_interior).all(axis=(1, 2))
                      & np.isfinite(new_lam).all(axis=1))
            stopped = np.flatnonzero(~finite | (lengths > self.length_cap))
            self._leave(stopped, iteration, [
                f"curve length exceeded {self.length_cap[row]:.3g}" if finite[row]
                else "non-finite value in update" for row in stopped], stops)
        self.buffers.reverse()
        return stops


def _buffer(pts, lam):
    """A (B, m+1, 3) point buffer with views of its interior and of each interior
    node's next and previous neighbours, and a (B, m-1) multiplier buffer."""
    return pts, pts[:, 1:-1], pts[:, 2:], pts[:, :-2], lam


def _stop_error(reason, iteration: int, trace, state):
    """The exception behind a stop: the field's SingularityError as it was
    raised, or a DivergenceError carrying the trace and the last finite state."""
    if isinstance(reason, SingularityError):
        return reason
    return DivergenceError(iteration, reason, trace, state)


def step(state, cfg, surface) -> SolverState:
    """One iteration of whichever scheme cfg selects, with run()'s divergence check."""
    work = _Workspace([state], [cfg], surface)
    iteration = state.iteration + 1
    stops = work.advance(iteration)
    if stops:
        _, last, reason = stops[0]
        raise _stop_error(reason, iteration, None, last)
    return work.state(0, iteration)


class Problem(NamedTuple):
    """One member of a batch: its config, its (DiscreteCurve, MultiplierField)
    init, and the true geodesic distance, which enables the trace's error
    columns."""

    cfg: SolverConfig
    init: tuple
    reference_distance: float | None = None


@dataclass
class Outcome:
    """How one member of a batch ended."""

    state: SolverState  # the last finite state
    trace: diagnostics.IterationTrace
    error: Exception | None = None  # the DivergenceError or SingularityError of an early stop
    seconds: float = 0.0  # from the start of the batch to this member's stop

    @property
    def stop(self) -> str:
        """Why the member stopped: budget, diverged or singularity."""
        if self.error is None:
            return "budget"
        return "diverged" if isinstance(self.error, DivergenceError) else "singularity"


class BatchRun(NamedTuple):
    """What a batch did as a whole."""

    iteration: int  # member-iterations executed, summed over the members
    seconds: dict  # record_at iteration -> seconds from the start until the batch reached it


def _initial_state(problem: Problem, surface, stacklevel: int) -> SolverState:
    """The state at iteration 0.  Warns if the init's endpoints are off the
    surface (stacklevel as the caller would pass it to warnings.warn), and
    logs a tau_gamma that differs from the one the diagnostics assume."""
    (curve0, mult0), cfg = problem.init, problem.cfg
    endpoint_phi = max(abs(float(surface.value(curve0.p))),
                       abs(float(surface.value(curve0.q))))
    if endpoint_phi > ENDPOINT_WARN_TOL:
        warnings.warn(
            f"init endpoints are off-surface: max |phi| = {endpoint_phi:.3g}",
            stacklevel=stacklevel + 1,
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
    return SolverState(curve=curve0.copy(), multiplier=mult0.copy(), iteration=0)


def run_batch(problems, surface, record_at=(), *, _stacklevel=2):
    """Iterate several problems as one stack, with one field call per state.

    The problems share scheme, m, max_iters and record_every; each has its
    own step sizes, init and reference distance, and every member's numbers
    are bit for bit those of its own run().  Each member's trace has a row at
    iteration 0, every record_every iterations, at max_iters and at each
    iteration in record_at.  A member that diverges or meets a field
    singularity stops there with its last finite state and its trace so
    far; the others go on.  A record point's field call feeds every
    member's row and the next step, so a batch without stops makes
    max_iters + 1 field calls whatever it records.

    Returns (BatchRun, [Outcome of each problem, in order]).  The warning
    about off-surface endpoints names the caller's line (run() passes
    _stacklevel=3 so that it names its own caller's).
    """
    if not problems:
        raise ValueError("a batch needs at least one problem")
    cfg, m = problems[0].cfg, problems[0].init[0].m
    shared = (cfg.scheme, cfg.max_iters, cfg.record_every, m)
    if any((p.cfg.scheme, p.cfg.max_iters, p.cfg.record_every, p.init[0].m) != shared
           for p in problems):
        raise ValueError("a batch must share scheme, max_iters, record_every and m")
    start = time.monotonic()
    states = []
    for problem in problems:  # a loop, not a comprehension: its frame would count
        states.append(_initial_state(problem, surface, _stacklevel))
    outcomes = [Outcome(state, diagnostics.IterationTrace()) for state in states]
    work = _Workspace(states, [p.cfg for p in problems], surface)

    def record(k):
        try:
            work.field = work.evaluate()
        except SingularityError:  # each row evaluates its own; advance stops the culprit
            pass
        for row, member in enumerate(work.members):
            out, problem = outcomes[member], problems[member]
            if k:
                out.state = work.state(row, k)
            field = work.field and (work.field[0][row], work.field[1][row])
            out.trace.append(diagnostics.trace_row(
                out.state, problem.cfg, surface, problem.reference_distance, field=field))

    record(0)
    record_at, seconds = frozenset(record_at), {}
    for k in range(1, cfg.max_iters + 1):
        stops = work.advance(k)
        if stops:
            for member, state, reason in stops:
                out = outcomes[member]
                out.state, out.seconds = state, time.monotonic() - start
                out.error = _stop_error(reason, k, out.trace, state)
            if not work.members:
                break
        wanted = k in record_at
        if wanted:
            seconds[k] = time.monotonic() - start
        if wanted or k % cfg.record_every == 0 or k == cfg.max_iters:
            record(k)

    elapsed = time.monotonic() - start
    for member in work.members:
        outcomes[member].seconds = elapsed
    # a diverged member executed the iteration it diverged at; a singular one did not
    executed = sum(out.state.iteration + (out.stop == "diverged") for out in outcomes)
    return BatchRun(executed, seconds), outcomes


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
    inputs: a batch of one in run_batch().  Raises DivergenceError (with the
    trace so far and the last finite state attached) when an update produces
    non-finite values or the length exceeds 1e3 times the endpoint
    separation, and the field's SingularityError where its gradient is
    undefined at a node.
    """
    _, (outcome,) = run_batch([Problem(cfg, init, reference_distance)], surface,
                              _stacklevel=3)
    if outcome.error is not None:
        raise outcome.error
    return outcome.state, outcome.trace

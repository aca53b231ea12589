"""Primal-dual iterations for on-surface curve shortening.

All schemes alternate a multiplier (ascent) update with a curve (descent)
update for the saddle problem

    min_gamma max_lambda  1/2 int |gamma'|^2 + int lambda phi(gamma)
                          - eps/2 int lambda^2,

discretized on the uniform grid of `curve`.  Per interior node i:

Regularized    lam <- (lam + tau_l * phi(g_i)) / (1 + eps * tau_l)
GDA            Regularized at eps = 0: lam <- lam + tau_l * phi(g_i)
BasePDHG       lam+ as Regularized; lam~ = lam+ + omega (lam+ - lam);
               gamma step uses lam~; commit lam+
Var1           lam+, lam~ as BasePDHG; lam_bar = (lam~ + tau_l phi(g_i)) / (1+eps tau_l);
               gamma step uses lam~; commit lam_bar
Var2           lam+ as Regularized; lam~ = (1 - alpha eps) lam+ + alpha phi(g_i);
               gamma step uses lam~; commit lam+

and every gamma step is

    g_i <- g_i - tau_g * ( -(g_{i+1} - 2 g_i + g_{i-1}) / dt^2 + lam~ grad phi(g_i) )

with all stencils read from the OLD curve (Jacobi sweep, not Gauss-Seidel)
and the endpoints never touched.  GDA and Regularized are exactly
BasePDHG with omega = 0, GDA also at eps = 0, and share its code path:
SolverConfig alone says each scheme's omega and eps.

One kernel serves every path: run_batch() stacks B >= 1 problems that
share scheme and m and updates preallocated buffers in place, each member
with its own step sizes.  It evaluates each state once, right after it
exists: one field call (value_and_grad) on all the members' interior nodes,
which feeds both the state's trace rows and the next step.  Only when that
call raises are the members evaluated one by one.  The operations and their
order do not depend on B, so every member's numbers are bit for bit those of
its run alone.  run() is a batch of one.
A stack keeps its rows for its whole life and every view a step reads is
built once, with it; each (n, 1) by (n, 3) row broadcast runs in F order
into C-order rows, so numpy's loop runs down the rows, with the same bits.
States are copied out only at record points.  A member stops at its
iteration budget, on divergence (reported by the stop alone: numpy's overflow
warnings are off), or at a field singularity, both decided in the step's
divergence check; the others go on, in a stack of their own.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .curve import DiscreteCurve, MultiplierField, curve_length
from .levelset import SingularityError
from . import diagnostics

__all__ = [
    "Scheme",
    "SolverConfig",
    "SolverState",
    "DivergenceError",
    "Problem",
    "Outcome",
    "BatchRun",
    "run_batch",
    "run",
]

#: curve_length beyond this multiple of |p - q| counts as divergence
DIVERGENCE_LENGTH_FACTOR = 1e3
#: endpoint |phi| above this times the surface's scale draws a warning from run()
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
    scheme except GDA (which runs at effective_epsilon = 0), and is what the
    single-run CLI applies.
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
        if not isinstance(self.max_iters, (int, np.integer)) or self.max_iters < 0:
            raise ValueError("max_iters must be a nonnegative integer")
        if not isinstance(self.record_every, (int, np.integer)) or self.record_every < 1:
            raise ValueError("record_every must be an integer of at least 1")
        # Python ints and floats, as summary.json records them
        self.max_iters, self.record_every = int(self.max_iters), int(self.record_every)
        self.tau_gamma, self.tau_lambda, self.epsilon, self.omega, self.alpha = map(
            float, (self.tau_gamma, self.tau_lambda, self.epsilon, self.omega, self.alpha))

    @property
    def effective_omega(self) -> float:
        """The extrapolation weight the scheme applies: 0 for GDA and Regularized."""
        return 0.0 if self.scheme in (Scheme.GDA, Scheme.REGULARIZED) else self.omega

    @property
    def effective_epsilon(self) -> float:
        """The regularization weight the scheme applies: 0 for GDA."""
        return 0.0 if self.scheme is Scheme.GDA else self.epsilon

    @property
    def effective_alpha(self) -> float:
        """The relaxation alpha of the residuals: alpha for Var2, else
        (1 + effective_omega) tau_gamma, tau_gamma standing in for
        tau_lambda / (1 + eps tau_lambda)."""
        if self.scheme is Scheme.VAR2:
            return self.alpha
        return (1.0 + self.effective_omega) * self.tau_gamma

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

    def __init__(self, iteration: int, message: str, trace=None, state=None):
        super().__init__(f"divergence at iteration {iteration}: {message}")
        self.iteration = iteration
        self.trace = trace
        self.state = state


class _Workspace:
    """The stacked state of a batch whose members share scheme and m.

    Its (B, m+1, 3) points and (B, m-1) multipliers, arrays of its own, are
    the first of two buffers that swap after every iteration; only interior
    rows are written, so the endpoints stay pinned.  The length caps come from
    them, pts[:, ::m], under the caller's np.errstate.  Each step size holds
    every member's own value at each of its nodes, a (B, 1) column spread to
    the shape it multiplies: numpy's loop over two contiguous operands of one
    shape is faster than a broadcast, at B = 1 too, and the products are the
    same.  lam~ has one buffer of its own, for every scheme.  Its rows are
    fixed for its life: advance() steps them all and reports those that stop.
    Each state is evaluated once, by one stacked call or, only if that raises,
    one call per member (evaluate()).
    """

    def __init__(self, pts, lam, cfgs, surface):
        self.scheme, self.surface, self.m = cfgs[0].scheme, surface, pts.shape[1] - 1
        self.buffers = [_buffer(pts, lam), _buffer(pts.copy(), np.empty_like(lam))]

        def per_node(values, shape=lam.shape):
            column = np.array(values, dtype=float).reshape(-1, *[1] * (len(shape) - 1))
            return np.broadcast_to(column, shape).copy()

        self.tau_lambda = per_node([c.tau_lambda for c in cfgs])
        self.shrink = per_node([1.0 / (1.0 + c.effective_epsilon * c.tau_lambda)
                                for c in cfgs])
        self.omega = per_node([c.effective_omega for c in cfgs])
        # var2's weight of lam+
        self.keep = per_node([1.0 - c.alpha * c.effective_epsilon for c in cfgs])
        self.alpha = per_node([c.alpha for c in cfgs])
        self.tau_gamma = per_node([c.tau_gamma for c in cfgs], (*lam.shape, 3))
        # 0-d operands: numpy converts a Python number at every call
        self.two, self.m_squared = np.array(2.0), np.array(float(self.m**2))
        # 1e3 max(|q - p|, 1e-6), at most the largest float: an inf length exceeds it
        self.length_cap = np.minimum(DIVERGENCE_LENGTH_FACTOR * np.maximum(
            curve_length(pts[:, ::self.m]), 1e-6), np.finfo(float).max)
        # _within_caps's bound on sum |chord|^2: cap^2 (1 - margin) / m.  The
        # margin exceeds the (5m + 7) 2^-53 that rounding can take; a cap beyond
        # 1e150 counts as 1e150, so every sum that passes stays far from overflow
        margin = 16 * (self.m + 1) * 2.0**-53
        self.chord_bound = np.minimum(self.length_cap, 1e150) ** 2 * (1 - margin) / self.m
        self.chords = np.empty((len(pts), 3 * self.m))  # flat, a row per member
        self.sd, self.force = np.empty((*lam.shape, 3)), np.empty((*lam.shape, 3))
        self.tilde, self.tmp = np.empty_like(lam), np.empty_like(lam)
        # lam~ as a (B(m-1), 1) column and the force as (B(m-1), 3) rows
        self.tilde_col, self.force_rows = self.tilde.reshape(-1, 1), self.force.reshape(-1, 3)

    def evaluate(self):
        """(phi, grad, {row: SingularityError}) for the current state's interior
        nodes: (B, m-1) and (B, m-1, 3) from one field call or, if it raises,
        each member's own call as it returns them, uncopied, since trace_row
        sums a strided phi in another order (nan gradient where singular)."""
        interior = self.buffers[0][1]
        try:
            phi, grad = self.surface.value_and_grad(interior.reshape(-1, 3))
        except SingularityError:
            rows = [diagnostics._field(self.surface, x) for x in interior]
            singular = {row: error for row, (_, _, error) in enumerate(rows) if error}
            if not singular:
                raise
            phi, grad, _ = zip(*rows)
            return phi, grad, singular
        return phi.reshape(self.tilde.shape), grad.reshape(self.force.shape), {}

    def state(self, row: int, iteration: int) -> SolverState:
        pts, lam = self.buffers[0][0], self.buffers[0][-1]
        return SolverState(DiscreteCurve(pts[row].copy()), MultiplierField(lam[row].copy()),
                           iteration)

    def advance(self, iteration: int, field):
        """Step every row to `iteration` from `field`, the current state's evaluate().

        Returns the rows that stopped, as (row, state at iteration - 1,
        reason).  The reason is the row's SingularityError, or the message of
        a divergence: a non-finite update or a curve longer than its length
        cap.  A stopped row is stepped like the others; the caller drops it.
        The stops are decided in two tiers: _within_caps, which can only pass
        the whole stack, and, when it fails or a row is singular, one pass per
        row (finite points and multipliers, curve_length within length_cap)
        that names the stopped rows and their messages.
        """
        phi, grad, singular = field
        if singular:  # each member's own results, stacked; nan gradient where singular
            phi, grad = np.stack(phi), np.stack(grad)
        sd, force, force_rows, tilde, tmp = (self.sd, self.force, self.force_rows,
                                             self.tilde, self.tmp)
        (_, interior, ahead, behind, _, _, lam), new = self.buffers
        new_pts, new_interior, _, _, new_after, new_before, new_lam = new

        # in place: one ufunc per operation, in the order of (lam + tau_l phi) * shrink
        np.multiply(phi, self.tau_lambda, new_lam)
        np.add(lam, new_lam, new_lam)
        np.multiply(new_lam, self.shrink, new_lam)  # lam+
        if self.scheme is Scheme.VAR2:
            np.multiply(new_lam, self.keep, tilde)
            np.multiply(phi, self.alpha, tmp)
            np.add(tilde, tmp, tilde)
        else:
            np.subtract(new_lam, lam, tilde)
            np.multiply(tilde, self.omega, tilde)
            np.add(new_lam, tilde, tilde)
            if self.scheme is Scheme.VAR1:  # commit lam_bar
                np.multiply(phi, self.tau_lambda, new_lam)
                np.add(tilde, new_lam, new_lam)
                np.multiply(new_lam, self.shrink, new_lam)

        np.multiply(interior, self.two, sd)  # second difference
        np.subtract(ahead, sd, sd)
        np.add(sd, behind, sd)
        np.multiply(sd, self.m_squared, sd)
        # -sd + lam~ grad, formed as lam~ grad - sd: b - a is b + (-a) exactly
        np.multiply(self.tilde_col, grad.reshape(force_rows.shape), force_rows, order="F")
        np.subtract(force, sd, force)
        np.multiply(force, self.tau_gamma, force)
        np.subtract(interior, force, new_interior)

        # a singular row's nan gradient makes its update nan, so it stops here too
        stops = []
        if singular or not self._within_caps(new_after, new_before, new_lam):
            lengths = curve_length(new_pts)
            finite = (np.isfinite(new_interior).all(axis=(1, 2))
                      & np.isfinite(new_lam).all(axis=1))
            stops = [(row, self.state(row, iteration - 1), singular.get(row) or (
                f"curve length exceeded {self.length_cap[row]:.3g}" if finite[row]
                else "non-finite value in update"))
                for row in np.flatnonzero(~finite | (lengths > self.length_cap))]
        self.buffers.reverse()
        return stops

    def _within_caps(self, after, before, lam) -> bool:
        """True only if every member's curve_length is within its length_cap and
        all of lam is finite, from one dot product S = sum |chord|^2 per member,
        the chords after - before from a buffer's flat pts[:, 1:] and pts[:, :-1],
        and one over lam.reshape(-1).

        By Cauchy-Schwarz a length is at most sqrt(m S), and the margin in
        chord_bound covers the rounding of S and of curve_length in any
        summation order.  A finite S implies finite points: nan, inf and
        overflow all fail, and lam's sum of squares is finite only if every
        multiplier is.  False says nothing: finite values whose squares
        overflow fail too, and the exact test decides; count_nonzero is
        numpy's cheapest reduction.
        """
        chords = np.subtract(after, before, self.chords)
        lam = lam.reshape(-1)
        return (np.count_nonzero(np.vecdot(chords, chords) <= self.chord_bound)
                == len(chords) and math.isfinite(lam.dot(lam)))


def _buffer(pts, lam):
    """One buffer: (B, m+1, 3) points, their interior, each interior node's next
    and previous neighbours, the chords' heads and tails as (B, 3m) rows and
    the (B, m-1) multipliers."""
    flat = pts.reshape(len(pts), 3 * pts.shape[1])
    return pts, pts[:, 1:-1], pts[:, 2:], pts[:, :-2], flat[:, 3:], flat[:, :-3], lam


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


def run_batch(problems, surface, record_at=(), *, _stacklevel=2):
    """Iterate several problems as one stack, with one field call per state.

    The problems share scheme, m, max_iters and record_every; each has its
    own step sizes, init and reference distance, and every member's numbers
    are bit for bit those of its own run().  Each member's trace has a row at
    iteration 0, every record_every iterations, at max_iters and at each
    iteration in record_at.  A member that diverges or meets a field
    singularity stops there with its last finite state and its trace so
    far; the others go on.  Each state is evaluated once, and that field
    call feeds its trace rows and the next step, so a batch without stops
    makes max_iters + 1 field calls whatever it records.

    The stack is np.stack of the inits, which stay as they were; the members
    that go on after a stop are restacked from their rows.  A member whose
    endpoints, from one value call on all of them, are further off the
    surface than ENDPOINT_WARN_TOL times surface.scale() draws a warning
    naming the caller's line (run() passes _stacklevel=3 for its caller's).

    Returns (BatchRun, [Outcome of each problem, in order]).
    """
    if not problems:
        raise ValueError("a batch needs at least one problem")
    cfg, m = problems[0].cfg, problems[0].init[0].m
    shared = (cfg.scheme, cfg.max_iters, cfg.record_every, m)
    if any((p.cfg.scheme, p.cfg.max_iters, p.cfg.record_every, p.init[0].m) != shared
           for p in problems):
        raise ValueError("a batch must share scheme, max_iters, record_every and m")
    if any(p.init[1].m != m for p in problems):
        raise ValueError(f"curve m={m} and a multiplier's m differ")
    start = time.monotonic()
    outcomes = [Outcome(None, diagnostics.IterationTrace()) for _ in problems]
    members = list(range(len(problems)))  # the problem of each row of work

    def record(k, field):
        phi, grad, _ = field
        for row, member in enumerate(members):
            out, problem = outcomes[member], problems[member]
            out.state = work.state(row, k)
            out.trace.append(diagnostics.trace_row(out.state, problem.cfg, surface,
                                                   problem.reference_distance,
                                                   field=(phi[row], grad[row])))

    record_at, seconds = frozenset(record_at), {}
    with np.errstate(over="ignore", invalid="ignore"):
        work = _Workspace(np.stack([p.init[0].points for p in problems]),
                          np.stack([p.init[1].values for p in problems]),
                          [p.cfg for p in problems], surface)
        ends = work.buffers[0][0][:, ::m].reshape(-1, 3)
        off = np.abs(surface.value(ends)).reshape(-1, 2).max(axis=1)
        for value in off[off > ENDPOINT_WARN_TOL * surface.scale()]:  # in this frame
            warnings.warn(f"init endpoints are off-surface: max |phi| = {value:.3g}",
                          stacklevel=_stacklevel)
        field = work.evaluate()
        record(0, field)
        for k in range(1, cfg.max_iters + 1):
            stops = work.advance(k, field)
            if stops:
                for row, state, reason in stops:
                    out = outcomes[members[row]]
                    out.state, out.seconds = state, time.monotonic() - start
                    out.error = (reason if isinstance(reason, SingularityError)
                                 else DivergenceError(k, reason, out.trace, state))
                going = sorted(set(range(len(members))) - {row for row, _, _ in stops})
                members = [members[row] for row in going]
                if not members:
                    break
                pts, *_, lam = work.buffers[0]
                work = _Workspace(pts[going], lam[going],
                                  [problems[member].cfg for member in members], surface)
            wanted = k in record_at
            if wanted:
                seconds[k] = time.monotonic() - start
            field = work.evaluate()
            if wanted or k % cfg.record_every == 0 or k == cfg.max_iters:
                record(k, field)

    elapsed = time.monotonic() - start
    for member in members:
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

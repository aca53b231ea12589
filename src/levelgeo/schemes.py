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
with its own step sizes (0-d operands where all members share one), on one
contiguous block of rows: the interior nodes and the endpoint rows between
members, pinned again after each step.
It evaluates each state once, right after it exists: one field call on the
block (value_and_grad, unchecked: nan where singular), which feeds both the
state's trace rows and the next step.  The operations and their order do
not depend on B, so every member's numbers are bit for bit those of its run
alone.  run() is a batch of one.
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
        for name in ("tau_gamma", "tau_lambda", "epsilon", "omega", "alpha"):
            value, step = getattr(self, name), name.startswith("tau_")  # a step is > 0
            if not (np.isfinite(value) and (value > 0 if step else value >= 0)):
                raise ValueError(f"{name} must be {'positive' if step else 'nonnegative'} "
                                 "and finite")
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

    Its (B, m+1, 3) points, arrays of its own, are the first of two buffers
    that swap after every iteration.  A step runs on one contiguous block,
    rows 1 to B(m+1) - 2 of the flat points: the interior rows and the
    2(B - 1) endpoint rows between members, which are pinned again after each
    step, their multipliers 0 again (tau_l phi is not finite where phi is inf).
    A step size that every member shares bit for bit (0.0 and -0.0 differ) is
    a 0-d operand, for the endpoint rows too; otherwise it holds each member's
    value at each of its nodes, 0 at the endpoint rows: numpy's loop over two
    contiguous operands of one shape is faster than a broadcast of members'
    values, with the same products.  lam~ has one buffer of its own, for every
    scheme.  Its rows are fixed for its life: advance() steps them all and
    reports those that stop.  Each state is evaluated once, by one field call
    on the block (evaluate()).
    """

    def __init__(self, pts, lam, cfgs, surface):
        self.scheme, self.surface, self.m = cfgs[0].scheme, surface, pts.shape[1] - 1
        rows, m = pts.shape[0], self.m
        self.buffers = [_buffer(pts, lam), _buffer(pts.copy(), lam)]

        def per_node(values, width=()):
            if len({v.hex() for v in values}) == 1:  # bit for bit: 0.0 and -0.0 differ
                return np.array(values[0])
            return _block(np.reshape(values, (-1, 1, *[1] * len(width))), m, width)

        self.tau_lambda = per_node([c.tau_lambda for c in cfgs])
        self.shrink = per_node([1.0 / (1.0 + c.effective_epsilon * c.tau_lambda)
                                for c in cfgs])
        self.omega = per_node([c.effective_omega for c in cfgs])
        # var2's weight of lam+
        self.keep = per_node([1.0 - c.alpha * c.effective_epsilon for c in cfgs])
        self.alpha = per_node([c.alpha for c in cfgs])
        self.tau_gamma = per_node([c.tau_gamma for c in cfgs], (3,))
        # the endpoint rows between members: a (B - 1, 2, ...) view of each
        # buffer's block of points and of multipliers, which swap with the buffers
        self.joints = [[a[m - 1:].reshape(-1, m + 1, *a.shape[1:])[:, :2] for a in (b[1], b[-1])]
                       for b in self.buffers] if rows > 1 else None
        # 0-d operands: numpy converts a Python number at every call
        self.two, self.m_squared = np.array(2.0), np.array(float(m**2))
        # 1e3 max(|q - p|, 1e-6), at most the largest float: an inf length exceeds it
        self.length_cap = np.minimum(DIVERGENCE_LENGTH_FACTOR * np.maximum(
            curve_length(pts[:, ::m]), 1e-6), np.finfo(float).max)
        # _within_caps's bound on sum |chord|^2: cap^2 (1 - margin) / m.  The
        # margin exceeds the (5m + 7) 2^-53 that rounding can take; a cap beyond
        # 1e150 counts as 1e150, so every sum that passes stays far from overflow
        margin = 16 * (m + 1) * 2.0**-53
        self.chord_bound = np.minimum(self.length_cap, 1e150) ** 2 * (1 - margin) / m
        self.stack_bound = self.chord_bound.min() * (1 - rows * margin)
        # a row per member: its 3m chords, then the 3 entries where one subtract
        # over the flat points puts the junction to the next p, set back to 0
        self.chords = np.zeros((rows, 3 * (m + 1)))
        self.chord_run = self.chords.reshape(-1)[:-3]
        self.junctions = self.chords[:-1, 3 * m:] if rows > 1 else None
        block, lam = self.buffers[0][1], self.buffers[0][-1]
        self.sd, self.force = np.empty(block.shape), np.empty(block.shape)
        self.tilde, self.tmp = np.empty(lam.shape), np.empty(lam.shape)
        self.tilde_col = self.tilde.reshape(-1, 1)

    def rows(self, block, row: int):
        """A member's interior rows of a block array: an offset slice."""
        return block[row * (self.m + 1):][:self.m - 1]

    def evaluate(self):
        """(phi, grad) of the current state's block, from one unchecked field call."""
        return self.surface.value_and_grad(self.buffers[0][1], check=False)

    def state(self, row: int, iteration: int) -> SolverState:
        pts, lam = self.buffers[0][0], self.buffers[0][-1]
        return SolverState(DiscreteCurve(pts[row].copy()),
                           MultiplierField(self.rows(lam, row).copy()), iteration)

    def advance(self, iteration: int, field):
        """Step every row to `iteration` from `field`, the current state's evaluate().

        Returns the rows that stopped, as (row, state at iteration - 1,
        reason).  The reason is the field's SingularityError where a row's
        gradient is nan at its finite nodes, or the message of a divergence:
        a non-finite update or a curve longer than its length cap.  A stopped
        row is stepped like the others; the caller drops it.  The stops are
        decided in two tiers: _within_caps, which can only pass the whole
        stack, and, when it fails, one pass per row (finite points and
        multipliers, curve_length within length_cap) that names the stopped
        rows and their messages.
        """
        phi, grad = field
        sd, force, tilde, tmp = self.sd, self.force, self.tilde, self.tmp
        (pts, block, ahead, behind, _, _, lam), new = self.buffers
        new_pts, new_block, _, _, new_after, new_before, new_lam = new

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

        np.multiply(block, self.two, sd)  # second difference
        np.subtract(ahead, sd, sd)
        np.add(sd, behind, sd)
        np.multiply(sd, self.m_squared, sd)
        # -sd + lam~ grad, formed as lam~ grad - sd: b - a is b + (-a) exactly
        np.multiply(self.tilde_col, grad, force, order="F")
        np.subtract(force, sd, force)
        np.multiply(force, self.tau_gamma, force)
        np.subtract(block, force, new_block)
        if self.joints:  # pin the endpoint rows between members again, from pts
            self.joints.reverse()
            (joints, joint_lam), (pinned, _) = self.joints
            joints[...], joint_lam[...] = pinned, 0.0

        # a singular row's nan gradient makes its update nan, so it stops here too
        stops = []
        if not self._within_caps(new_after, new_before, new_lam):
            lengths = curve_length(new_pts)
            finite = np.logical_and.reduceat(  # each member's rows start at row (m + 1) b
                np.isfinite(new_block).all(axis=1) & np.isfinite(new_lam),
                np.arange(len(pts)) * (self.m + 1))
            for row in np.flatnonzero(~finite | (lengths > self.length_cap)):
                reason = self.surface._singularity(
                    pts[row, 1:-1], self.rows(phi, row), self.rows(grad, row)) or (
                    f"curve length exceeded {self.length_cap[row]:.3g}" if finite[row]
                    else "non-finite value in update")
                stops.append((row, self.state(row, iteration - 1), reason))
        self.buffers.reverse()
        return stops

    def _within_caps(self, after, before, lam) -> bool:
        """True only if every member's curve_length is within its length_cap and
        all of lam is finite, from the chords after - before of a buffer's flat
        points, less the junctions from each q to the next member's p.  Its
        tiers are dot products: the stack's S = sum |chord|^2 within
        stack_bound; if that fails and B > 1, each member's S within its
        chord_bound (the stack's is weak where caps differ widely); lam . lam.

        By Cauchy-Schwarz a length is at most sqrt(m S), and the margin in
        chord_bound covers the rounding of S and of curve_length in any
        summation order.  Rounding moves a sum of k squares, in any order, by
        at most k 2^-53 / (1 - k 2^-53) of itself (Higham, Accuracy and
        Stability of Numerical Algorithms, 3.1), a 0 term by nothing: a
        member's S and the stack's sum, 3m and 3B(m+1) terms, by less than
        8 B(m+1) 2^-53 together, so a stack sum within stack_bound =
        min(chord_bound) (1 - 16 B(m+1) 2^-53) puts each S within its
        chord_bound.  A finite S implies finite points: nan, inf and overflow
        all fail, and lam's sum of squares is finite only if every multiplier
        is.  False says nothing: finite values whose squares overflow fail
        too, and the exact test decides; count_nonzero is numpy's cheapest
        reduction.
        """
        chords, run = self.chords, np.subtract(after, before, self.chord_run)
        if self.junctions is not None:
            self.junctions.fill(0.0)
        return ((run.dot(run) <= self.stack_bound or len(chords) > 1 and np.count_nonzero(
                    np.vecdot(chords, chords) <= self.chord_bound) == len(chords))
                and math.isfinite(lam.dot(lam)))


def _buffer(pts, lam):
    """One buffer: (B, m+1, 3) points, their block and its rows' next and previous
    rows, the chords' heads and tails as 1-D views of the flat points, and the
    block's multipliers."""
    flat, coords = pts.reshape(-1, 3), pts.reshape(-1)
    return (pts, flat[1:-1], flat[2:], flat[:-2], coords[3:], coords[:-3],
            _block(lam, pts.shape[1] - 1))


def _block(interior, m, width=()):
    """Rows 1 to B(m+1) - 2 of a flat (B, m+1, *width) array, 0 but for interior."""
    full = np.zeros((len(interior), m + 1, *width))
    full[:, 1:-1] = interior
    return full.reshape(-1, *width)[1:-1]


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
        phi, grad = field
        for row, member in enumerate(members):
            out, problem = outcomes[member], problems[member]
            out.state = work.state(row, k)
            out.trace.append(diagnostics.trace_row(
                out.state, problem.cfg, surface, problem.reference_distance,
                field=(work.rows(phi, row), work.rows(grad, row))))

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
                work = _Workspace(pts[going], np.stack([work.rows(lam, row) for row in going]),
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

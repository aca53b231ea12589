"""Experiment orchestration: single runs, sweeps, benchmarks, comparisons.

Commands raise and the CLI reports: a command returns EXIT_CODES[stop] for
a single requested run (0 at its budget, 2 on divergence in ``run`` and
``planar``, 3 at a field singularity in ``run``), and raises ConfigError,
ValueError, OSError or SamplingError for an unusable configuration, which
``cli.main`` turns into one ``error:`` line on stderr and exit 1.  The
library's warnings pass through untouched, for ``cli.main`` to show each
once on stdout.  A run that stops early writes its trace so far and its
last finite state.  Sweeps, benchmarks and comparisons record such a stop
per value, pair or scheme and exit 0.

Every solve goes through ``run`` (schemes.run_batch), looked up at call
time: a sweep runs all its values and a benchmark all its pairs as one
stack; a comparison runs one scheme at a time, as a stack shares its scheme.
A planar solve goes through ``run_planar``, likewise, which imports
levelgeo.planar, so that only ``planar`` compiles it.

Determinism contract: every CSV/JSON artifact is byte-identical across
re-runs with the same inputs.  Wall-clock times therefore never enter those
files; they go to stdout and to `run.log` next to the artifacts.
diagnostics.write_records writes trace.csv and planar_ergodic.csv, write_csv the
sweep, benchmark and comparison tables; summary.json has null for inf and nan.
"""

from __future__ import annotations

import dataclasses
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import diagnostics
from .curve import curve_to_json, init_randomized, init_straight_line
from .levelset import (
    LevelSet,
    Plane,
    PointCloud,
    SphereQuadratic,
    SphereSDF,
    Torus,
    check_assumption_a,
    load_point_cloud,
)
from .schemes import DivergenceError, Problem, Scheme, SolverConfig
from .schemes import run_batch as run

__all__ = [
    "ConfigError",
    "ExperimentSpec",
    "parse_surface",
    "parse_point",
    "cmd_run",
    "cmd_sweep",
    "cmd_benchmark",
    "cmd_compare_schemes",
    "cmd_planar",
    "cmd_check_surface",
    "SWEEP_CSV_HEADER",
    "BENCHMARK_CSV_HEADER",
    "COMPARISON_CSV_HEADER",
]

#: endpoints further off an analytic surface than this times its scale are a hard error
ENDPOINT_SPEC_TOL = 1e-3
#: the least central angle, in radians, between a sampled pair's endpoints
_MIN_PAIR_ANGLE = 0.1

SWEEP_CSV_HEADER = (
    "value,final_absolute_error,final_relative_error,final_surface_error,"
    "diverged,unstable"
)
BENCHMARK_CSV_HEADER = (
    "checkpoint,n_pairs,avg_absolute_error,avg_relative_error,avg_surface_error"
)
COMPARISON_CSV_HEADER = (
    "scheme,final_absolute_error,final_relative_error,final_surface_error,diverged"
)
#: exit code of ``run`` for each way a run stops
EXIT_CODES = {"budget": 0, "diverged": 2, "singularity": 3}

SWEEPABLE_PARAMETERS = ("epsilon", "tau_lambda", "tau_gamma", "omega", "alpha")
INIT_KINDS = ("straight", "randomized")


class ConfigError(ValueError):
    """A spec or config file could not be turned into a runnable experiment."""


def parse_surface(descriptor: str, points_path=None) -> LevelSet:
    """Build a LevelSet from a CLI descriptor.

    Forms: ``sphere-sdf[:R]``, ``sphere-quadratic[:R]``, ``torus[:R,r]``,
    ``plane[:ax,ay,az]``, ``point-cloud`` (requires a points file).
    """
    kind, _, params = descriptor.partition(":")
    kind = kind.strip().lower()
    try:
        if kind == "sphere-sdf":
            return SphereSDF(float(params) if params else 1.0)
        if kind == "sphere-quadratic":
            return SphereQuadratic(float(params) if params else 1.0)
        if kind == "torus":
            if not params:
                return Torus()
            radii = params.split(",")
            if len(radii) != 2:
                raise ConfigError(f"bad surface descriptor {descriptor!r}: "
                                  "expected torus:R,r")
            return Torus(*(float(v) for v in radii))
        if kind == "plane":
            if params:
                return Plane([float(v) for v in params.split(",")])
            return Plane()
        if kind == "point-cloud":
            if params:
                raise ConfigError("point-cloud takes no inline parameters")
            if points_path is None:
                raise ConfigError("point-cloud surface requires --points FILE")
            return load_point_cloud(points_path)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"bad surface descriptor {descriptor!r}: {exc}") from exc
    raise ConfigError(
        f"unknown surface kind {kind!r}; expected sphere-sdf, sphere-quadratic, "
        "torus, plane, or point-cloud"
    )


def parse_point(text: str, surface: LevelSet | None = None,
                role: str = "p") -> np.ndarray:
    """Parse ``x,y,z`` into a point.

    The sphere shorthand ``antipodal-z`` maps to (0, 0, R) in the ``p`` slot
    and (0, 0, -R) in the ``q`` slot.
    """
    text = text.strip()
    if text == "antipodal-z":
        radius = getattr(surface, "radius", None)
        if radius is None:
            raise ConfigError("antipodal-z shorthand needs a sphere surface")
        sign = -1.0 if role == "q" else 1.0
        return np.array([0.0, 0.0, sign * radius])
    parts = text.split(",")
    if len(parts) != 3:
        raise ConfigError(f"point {text!r} must be x,y,z")
    try:
        point = np.array([float(v) for v in parts])
    except ValueError as exc:
        raise ConfigError(f"point {text!r} must be three reals: {exc}") from exc
    if not np.isfinite(point).all():
        raise ConfigError(f"point {text!r} must be finite")
    return point


def _central_angle(p, q, radius: float) -> float:
    """Angle between p and q on the sphere of the given radius about the origin.

    p and q are scaled by the radius before their dot product, which keeps it
    near 1 on a sphere of any radius.  The callers pass sampled surface
    points, or endpoints that ``_problem`` accepted: |phi| <= 1e-3 R on a
    sphere whose R^2 is a normal float, so the scaled product stays finite.
    """
    cosang = float(np.dot(p / radius, q / radius))
    return math.acos(max(-1.0, min(1.0, cosang)))


def _check_seed(seed) -> int:
    """seed as an int, or ConfigError for a fractional or negative one."""
    if not isinstance(seed, (int, np.integer)):
        raise ConfigError(f"--seed must be an integer, got {seed!r}")
    if seed < 0:
        raise ConfigError(f"--seed must be nonnegative, got {seed}")
    return int(seed)


@dataclass
class ExperimentSpec:
    """Everything needed to execute one solver run and persist its artifacts.
    Its seed, m, init and tau_r (recorded, used or not) are checked once, here."""

    surface: str = "sphere-sdf"
    points_path: str | None = None
    p: str = "antipodal-z"
    q: str = "antipodal-z"
    m: int = 100
    init: str = "straight"
    tau_r: float = 4.0
    seed: int = 0
    solver: SolverConfig = dataclasses.field(default_factory=SolverConfig)
    reference: str | float | None = None
    out_dir: str = "out"

    def __post_init__(self):
        self.seed = _check_seed(self.seed)
        self.tau_r = float(self.tau_r)  # a Python float, as summary.json records it
        if not isinstance(self.m, (int, np.integer)):
            raise ConfigError(f"m must be an integer, got {self.m!r}")
        self.m = int(self.m)  # a Python int, as summary.json records it
        if self.m < 2:
            raise ConfigError(f"m must be at least 2, got {self.m}")
        if self.init not in INIT_KINDS:
            raise ConfigError(f"init must be one of {', '.join(INIT_KINDS)}, got {self.init!r}")
        if not 0 <= self.tau_r < math.inf:
            raise ConfigError(f"tau_r must be nonnegative and finite, got {self.tau_r}")

    def build(self):
        """Materialize (surface, reference_distance, init pair).

        Raises ConfigError for unusable specs, including endpoints more than
        1e-3 times surface.scale() off an analytic surface (point clouds only
        warn, via run()).
        """
        surface = parse_surface(self.surface, self.points_path)
        p = parse_point(self.p, surface, role="p")
        q = parse_point(self.q, surface, role="q")
        return (surface, *self._problem(surface, p, q, self.seed))

    def _problem(self, surface, p, q, seed: int):
        """(reference_distance, init pair) for endpoints p, q on surface: one
        pair's work, a ConfigError for an endpoint off an analytic surface."""
        if not isinstance(surface, PointCloud):
            tol = ENDPOINT_SPEC_TOL * surface.scale()
            for name, pt in (("p", p), ("q", q)):
                with np.errstate(over="ignore", invalid="ignore"):  # a far point
                    off = abs(float(surface.value(pt)))
                if off > tol:
                    raise ConfigError(
                        f"endpoint {name} is off the surface: |phi| = {off:.3g} > {tol:g}")
        reference = self._resolve_reference(surface, p, q)
        if self.init == "randomized":
            init = init_randomized(p, q, self.m, surface, tau_r=self.tau_r, seed=seed)
        else:
            init = init_straight_line(p, q, self.m)
        return reference, init

    def _resolve_reference(self, surface, p, q):
        ref = self.reference
        if ref is None or ref == "" or ref == "none":
            return None
        if ref == "sphere-exact":
            radius = getattr(surface, "radius", None)
            if radius is None:
                raise ConfigError("sphere-exact reference needs a sphere surface")
            return radius * _central_angle(p, q, radius)
        try:  # a number of any type, numpy's too, or its text
            ref = float(ref)
        except (TypeError, ValueError):
            raise ConfigError(
                f"reference must be a number, 'sphere-exact', or 'none'; got {ref!r}"
            ) from None
        if not 0 < ref < math.inf:
            raise ConfigError("reference distance must be positive and finite")
        return ref


def _summary_payload(spec, outcome):
    """summary.json of one run: `diverged` is true for any early stop, and a
    non-finite diagnostic (nan J out of its regime or at a singularity, an
    infinite residual of a diverging run) is null."""
    state, cfg = outcome.state, spec.solver
    final = {name: None if isinstance(value, float) and not math.isfinite(value) else value
             for name, value in dataclasses.asdict(outcome.trace.final).items()}
    del final["iteration"]
    config = dataclasses.asdict(cfg)
    del config["scheme"]  # a top-level key
    return {
        "scheme": cfg.scheme.value,
        "surface": spec.surface,
        "m": state.curve.m,
        "iterations": state.iteration,
        "diverged": outcome.error is not None,
        **final,
        "config": {**config, "init": spec.init, "tau_r": spec.tau_r, "seed": spec.seed},
    }


def _write_run(spec, outcome, out: Path):
    """trace.csv and summary.json (serialized before its file opens) into out."""
    out.mkdir(parents=True, exist_ok=True)
    diagnostics.write_trace_csv(outcome.trace, out / "trace.csv")
    summary = json.dumps(_summary_payload(spec, outcome), indent=2, sort_keys=True,
                         allow_nan=False)
    (out / "summary.json").write_text(summary + "\n")


def cmd_run(spec) -> int:
    """Single run: writes trace.csv, curve_init.json, curve_final.json, summary.json.

    Returns EXIT_CODES[stop]: 0 at the iteration budget, 2 on divergence, 3
    at a field singularity.  The artifacts are written in every case, up to
    the last finite state.
    """
    spec.solver.validate_strict()
    surface, reference, init = spec.build()
    _, (outcome,) = run([Problem(spec.solver, init, reference)], surface)
    state, final = outcome.state, outcome.trace.final

    out = Path(spec.out_dir)
    _write_run(spec, outcome, out)
    (out / "curve_init.json").write_text(curve_to_json(init[0]) + "\n")
    (out / "curve_final.json").write_text(curve_to_json(state.curve) + "\n")
    with open(out / "run.log", "a") as fh:
        fh.write(
            f"{time.strftime('%Y-%m-%dT%H:%M:%S')} iterations="
            f"{state.iteration} wall_time={outcome.seconds:.3f}s "
            f"stop={outcome.stop}\n"
        )

    status = "done" if outcome.error is None else outcome.stop
    print(
        f"{status}: {state.iteration} iterations in {outcome.seconds:.3f}s, "
        f"length={final.length:.6g} {_errors(final)} -> {out}"
    )
    if outcome.stop == "singularity":
        print(f"singularity at iteration {state.iteration + 1}: {outcome.error}")
    return EXIT_CODES[outcome.stop]


def _report(label: str, outcome) -> list:
    """Print one member's status line; return its CSV fields [absolute_error,
    relative_error, surface_error, stopped], the errors None (empty fields)
    after a singularity and `stopped` true for any early stop."""
    stopped = outcome.error is not None
    if outcome.stop == "singularity":
        print(f"{label}: error: {outcome.error}")
        return [None, None, None, stopped]
    final = outcome.trace.final
    print(f"{label}: {'diverged' if stopped else 'done'} "
          f"in {outcome.seconds:.3f}s {_errors(final)}")
    return [final.absolute_error, final.relative_error, final.surface_error, stopped]


def _errors(final) -> str:
    """The absolute error, if there is a reference, and the surface error of a row."""
    abs_part = ("" if final.absolute_error is None
                else f"absolute_error={final.absolute_error:.6g} ")
    return f"{abs_part}surface_error={final.surface_error:.6g}"


def cmd_sweep(spec, parameter: str, values) -> int:
    """All parameter values as one batch; an early stop is recorded, never fatal.

    Writes per-value artifact directories plus sweep_summary.csv with an
    `unstable` flag: stopped early, or final surface error above the first
    recorded positive surface error of that run.  A value that met a field
    singularity gets empty error columns.  The time printed per value runs
    from the start of the batch to that value's stop.
    """
    if parameter not in SWEEPABLE_PARAMETERS:
        raise ConfigError(f"cannot sweep {parameter!r}; "
                          f"choose one of {', '.join(SWEEPABLE_PARAMETERS)}")
    if not values:
        raise ConfigError("sweep needs at least one value")
    solvers = [dataclasses.replace(spec.solver, **{parameter: value})
               for value in values]
    surface, reference, init = spec.build()
    _, outcomes = run([Problem(solver, init, reference) for solver in solvers], surface)

    out = Path(spec.out_dir)
    rows = []
    for value, solver, outcome in zip(values, solvers, outcomes):
        # repr, as in the value column: distinct values never share a directory
        label = f"{parameter}={value!r}"
        _write_run(dataclasses.replace(spec, solver=solver), outcome, out / label)
        absolute, relative, surface_error, stopped = _report(label, outcome)
        baseline = next((row.surface_error for row in outcome.trace
                         if row.surface_error > 0), 0.0)
        unstable = stopped or (baseline > 0 and surface_error > baseline)
        rows.append([value, absolute, relative, surface_error, stopped, unstable])

    out.mkdir(parents=True, exist_ok=True)
    diagnostics.write_csv(out / "sweep_summary.csv", SWEEP_CSV_HEADER, rows)
    return 0


def sample_endpoint_pairs(surface, n_pairs: int, seed: int):
    """Seeded endpoint pairs on a sphere, rejecting angular separation < _MIN_PAIR_ANGLE."""
    radius = getattr(surface, "radius", None)
    if radius is None:
        raise ConfigError("endpoint sampling requires a sphere surface")
    rng = np.random.default_rng(seed)
    pairs = []
    while len(pairs) < n_pairs:
        p, q = surface.surface_point(rng), surface.surface_point(rng)
        if _central_angle(p, q, radius) >= _MIN_PAIR_ANGLE:
            pairs.append((p, q))
    return pairs


def cmd_benchmark(spec, n_pairs: int, checkpoints) -> int:
    """Multi-pair sphere benchmark; writes benchmark.csv of per-checkpoint averages.

    All pairs run as one batch up to the last checkpoint, each with a trace
    row at every checkpoint.  A pair that diverges or meets a field
    singularity is reported and counts only at the checkpoints it reached;
    a checkpoint no pair reached gets empty averages.  The time printed for
    a checkpoint is the batch's elapsed time to reach it, all pairs
    together.  Times go to stdout only; benchmark.csv depends only on the
    seed.
    """
    surface = parse_surface(spec.surface, spec.points_path)
    if not checkpoints or any(c < 1 or not float(c).is_integer() for c in checkpoints):
        raise ConfigError("checkpoints must be positive whole iteration counts")
    checkpoints = sorted(set(int(c) for c in checkpoints))
    if n_pairs < 1:
        raise ConfigError("n_pairs must be at least 1")
    pairs = sample_endpoint_pairs(surface, n_pairs, spec.seed)
    exact = dataclasses.replace(spec, reference="sphere-exact")
    cfg = dataclasses.replace(spec.solver, max_iters=checkpoints[-1],
                              record_every=checkpoints[-1])
    problems = []
    for pair_index, (p, q) in enumerate(pairs):
        d, init = exact._problem(surface, p, q, spec.seed + 97 * pair_index)
        problems.append(Problem(cfg, init, d))
    batch, outcomes = run(problems, surface, record_at=checkpoints)

    for pair_index, outcome in enumerate(outcomes):
        if outcome.error is not None:
            print(f"pair {pair_index}: {outcome.stop} at iteration "
                  f"{outcome.state.iteration + 1}")
    rows = []
    for checkpoint in checkpoints:
        finals = [row for outcome in outcomes for row in outcome.trace
                  if row.iteration == checkpoint]
        if not finals:
            rows.append([checkpoint, 0, None, None, None])
            print(f"checkpoint {checkpoint}: n=0")
            continue
        with np.errstate(over="ignore"):  # a sum past the largest float reads inf
            avg_abs, avg_rel, avg_surf = (
                float(np.mean([getattr(f, name) for f in finals]))
                for name in ("absolute_error", "relative_error", "surface_error")
            )
        rows.append([checkpoint, len(finals), avg_abs, avg_rel, avg_surf])
        print(
            f"checkpoint {checkpoint}: n={len(finals)} "
            f"avg_absolute_error={avg_abs:.6g} avg_relative_error={avg_rel:.6g} "
            f"time={batch.seconds[checkpoint]:.3f}s"
        )
    out = Path(spec.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    diagnostics.write_csv(out / "benchmark.csv", BENCHMARK_CSV_HEADER, rows)
    return 0


def cmd_compare_schemes(spec, schemes) -> int:
    """Run each scheme on the identical problem and init; writes comparison.csv.

    One run per scheme (a batch shares its scheme), which takes its scheme
    from `schemes` alone: spec.solver.scheme is not read.  A scheme that met
    a field singularity gets empty error columns.
    """
    scheme_list = [Scheme(s) for s in schemes]
    if not scheme_list:
        raise ConfigError("compare needs at least one scheme")
    surface, reference, init = spec.build()

    rows = []
    for scheme in scheme_list:
        cfg = dataclasses.replace(spec.solver, scheme=scheme)
        _, (outcome,) = run([Problem(cfg, init, reference)], surface)
        rows.append([scheme.value, *_report(scheme.value, outcome)])
    out = Path(spec.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    diagnostics.write_csv(out / "comparison.csv", COMPARISON_CSV_HEADER, rows)
    return 0


def default_planar_perturbation(problem):
    """Deterministic off-saddle init of a planar.PlanarProblem: a sine bump on
    the curve, a sine multiplier."""
    curve, mult = init_straight_line(problem.p, problem.q, problem.m)
    t = np.arange(problem.m + 1) / problem.m
    bump = np.array([0.3, -0.2, 0.5])
    curve.points[1:-1] += np.outer(np.sin(np.pi * t[1:-1]), bump)
    mult.values[:] = 0.8 * np.sin(2.0 * np.pi * t[1:-1])
    return curve, mult


def run_planar(problem, max_iters: int, init=None):
    """planar.run_planar, with levelgeo.planar imported at the first call, so
    that no other command compiles it.  cmd_planar calls the solve by this
    name, which the benchmark's tracer wraps and its set-up probe replaces."""
    from .planar import run_planar

    return run_planar(problem, max_iters, init=init)


def cmd_planar(problem, max_iters: int, out_dir) -> int:
    """Run the planar scheme on a planar.PlanarProblem from
    default_planar_perturbation, write planar_ergodic.csv, report the rate
    check.

    Returns EXIT_CODES["diverged"] if the iteration diverged (the records up
    to then are written).
    """
    from .planar import ErgodicRecord, _dgtsv

    out = Path(out_dir)
    init = default_planar_perturbation(problem)
    _dgtsv()  # load run_planar's gtsv before the clock starts
    start = time.monotonic()
    try:
        _, records = run_planar(problem, max_iters, init=init)
        diverged = False
    except DivergenceError as exc:
        records, diverged = list(exc.trace or []), True
        print(f"warning: {exc}")
    elapsed = time.monotonic() - start
    out.mkdir(parents=True, exist_ok=True)
    diagnostics.write_records(out / "planar_ergodic.csv", ErgodicRecord, records)

    held = all(r.gap <= r.bound + 1e-9 for r in records) and not diverged
    print(f"bound held: {str(held).lower()}")
    positive = [(r.k, r.gap) for r in records if r.gap > 0 and r.k > 1]
    if len(positive) >= 2:
        ks = np.log([k for k, _ in positive])
        gaps = np.log([g for _, g in positive])
        slope = float(np.polyfit(ks, gaps, 1)[0])
        print(f"log-log slope: {slope:.3f}")
    else:
        print("log-log slope: undefined (too few positive gaps)")
    print(f"{len(records)} records in {elapsed:.3f}s -> {out / 'planar_ergodic.csv'}")
    return EXIT_CODES["diverged"] if diverged else 0


def cmd_check_surface(surface_desc: str, points_path, band: float,
                      n_samples: int, seed: int) -> int:
    """Print the band-sampling report for the convergence assumptions."""
    _check_seed(seed)
    surface = parse_surface(surface_desc, points_path)
    report = check_assumption_a(surface, band, n_samples=n_samples, seed=seed)
    print(f"surface: {surface_desc}")
    print(f"band_half_width: {report.band_half_width:g}")
    print(f"nu: {report.nu:.6g}")
    print(f"hessian_bound: {report.hessian_bound:.6g}")
    print(f"n_samples: {report.n_samples}")
    print(f"satisfied: {str(report.satisfied).lower()}")
    return 0

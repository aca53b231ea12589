"""Experiment orchestration: single runs, sweeps, benchmarks, comparisons.

Commands here return process exit codes: 0 for success (budget reached or
convergence), 1 for configuration problems, 2 for divergence of a single
requested run.  Sweeps, benchmarks and comparisons tolerate divergence of
individual runs (fault isolation), sweeps and comparisons a field singularity
too, and record it instead.

Determinism contract: every CSV/JSON artifact is byte-identical across
re-runs with the same inputs.  Wall-clock times therefore never enter those
files; they go to stdout and to `run.log` next to the artifacts.
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
from .planar import PlanarProblem, run_planar, write_ergodic_csv
from .schemes import DivergenceError, Scheme, SolverConfig, run

__all__ = [
    "ConfigError",
    "ExperimentSpec",
    "parse_surface",
    "parse_point",
    "parse_config_file",
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

#: endpoints further off an analytic surface than this are a hard error
ENDPOINT_SPEC_TOL = 1e-3

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

SWEEPABLE_PARAMETERS = ("epsilon", "tau_lambda", "tau_gamma", "omega", "alpha")


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
            if params:
                major, minor = (float(v) for v in params.split(","))
                return Torus(major, minor)
            return Torus()
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
        return np.array([float(v) for v in parts])
    except ValueError as exc:
        raise ConfigError(f"point {text!r} must be three reals: {exc}") from exc


@dataclass
class ExperimentSpec:
    """Everything needed to execute one solver run and persist its artifacts."""

    surface: str = "sphere-sdf"
    points_path: str | None = None
    p: str = "0,0,1"
    q: str = "antipodal-z"
    m: int = 100
    init: str = "straight"
    tau_r: float = 4.0
    seed: int = 0
    solver: SolverConfig = dataclasses.field(default_factory=SolverConfig)
    reference: str | float | None = None
    out_dir: str = "out"

    def build(self):
        """Materialize (surface, p, q, reference_distance, init pair).

        Raises ConfigError for unusable specs, including endpoints more than
        1e-3 off an analytic surface (point clouds only warn, via run()).
        """
        surface = parse_surface(self.surface, self.points_path)
        p = parse_point(self.p, surface, role="p")
        q = parse_point(self.q, surface, role="q")
        if self.m < 2:
            raise ConfigError(f"m must be at least 2, got {self.m}")
        if self.init not in ("straight", "randomized"):
            raise ConfigError(f"init must be straight or randomized, got {self.init!r}")
        if not isinstance(surface, PointCloud):
            for name, pt in (("p", p), ("q", q)):
                off = abs(float(surface.value(pt)))
                if off > ENDPOINT_SPEC_TOL:
                    raise ConfigError(
                        f"endpoint {name} is off the surface: |phi| = {off:.3g} "
                        f"> {ENDPOINT_SPEC_TOL:g}"
                    )
        reference = self._resolve_reference(surface, p, q)
        if self.init == "randomized":
            init = init_randomized(
                p, q, self.m, surface, tau_r=self.tau_r, seed=self.seed
            )
        else:
            init = init_straight_line(p, q, self.m)
        return surface, p, q, reference, init

    def _resolve_reference(self, surface, p, q):
        ref = self.reference
        if ref is None or ref == "" or ref == "none":
            return None
        if isinstance(ref, str) and ref != "sphere-exact":
            try:
                ref = float(ref)
            except ValueError:
                raise ConfigError(
                    f"reference must be a number, 'sphere-exact', or 'none'; got {ref!r}"
                ) from None
        if isinstance(ref, (int, float)):
            if not ref > 0:
                raise ConfigError("reference distance must be positive")
            return float(ref)
        radius = getattr(surface, "radius", None)
        if radius is None:
            raise ConfigError("sphere-exact reference needs a sphere surface")
        cosang = float(np.dot(p, q)) / (radius * radius)
        return radius * math.acos(max(-1.0, min(1.0, cosang)))


def parse_config_file(path):
    """Read a flat ``key = value`` config file.

    Returns {normalized_key: (value_string, line_number)}.  '#' starts a
    comment; keys may use dashes or underscores.  Raises ConfigError with the
    line number for malformed lines or duplicate keys.
    """
    entries: dict[str, tuple[str, int]] = {}
    with open(path) as fh:
        for line_number, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(
                    f"{path}: line {line_number}: expected 'key = value', got {line!r}"
                )
            key, _, value = line.partition("=")
            key = key.strip().replace("-", "_")
            value = value.strip()
            if not key or not value:
                raise ConfigError(
                    f"{path}: line {line_number}: empty key or value"
                )
            if key in entries:
                raise ConfigError(
                    f"{path}: line {line_number}: duplicate key {key!r} "
                    f"(first set on line {entries[key][1]})"
                )
            entries[key] = (value, line_number)
    return entries


def _summary_payload(spec, state, trace, diverged: bool):
    final = trace.final
    cfg = spec.solver
    return {
        "scheme": cfg.scheme.value,
        "surface": spec.surface,
        "m": state.curve.m,
        "iterations": state.iteration,
        "diverged": diverged,
        "length": final.length,
        "absolute_error": final.absolute_error,
        "relative_error": final.relative_error,
        "surface_error": final.surface_error,
        "lyapunov_J": None if math.isnan(final.lyapunov_J) else final.lyapunov_J,
        "lambda_residual": final.lambda_residual,
        "gamma_residual": final.gamma_residual,
        "geodesic_defect": final.geodesic_defect,
        "config": {
            "tau_gamma": cfg.tau_gamma,
            "tau_lambda": cfg.tau_lambda,
            "epsilon": cfg.epsilon,
            "omega": cfg.omega,
            "alpha": cfg.alpha,
            "max_iters": cfg.max_iters,
            "record_every": cfg.record_every,
            "init": spec.init,
            "tau_r": spec.tau_r,
            "seed": spec.seed,
        },
    }


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _solve(cfg, surface, init, reference):
    """run() with divergence recorded instead of raised; touches no file.

    Returns (state, trace, failure, seconds): failure is the DivergenceError
    or None, and on divergence state and trace are the last finite ones.
    """
    start = time.monotonic()
    try:
        state, trace = run(cfg, surface, init, reference_distance=reference)
        failure = None
    except DivergenceError as exc:
        state, trace, failure = exc.state, exc.trace, exc
    return state, trace, failure, time.monotonic() - start


def cmd_run(spec) -> int:
    """Single run: writes trace.csv, curve_init.json, curve_final.json, summary.json."""
    try:
        spec.solver.validate_strict()
        surface, _, _, reference, init = spec.build()
        state, trace, failure, elapsed = _solve(spec.solver, surface, init, reference)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}")
        return 1
    diverged = failure is not None

    out = Path(spec.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "curve_init.json").write_text(curve_to_json(init[0]) + "\n")
    (out / "curve_final.json").write_text(curve_to_json(state.curve) + "\n")
    diagnostics.write_trace_csv(trace, out / "trace.csv")
    _write_json(out / "summary.json", _summary_payload(spec, state, trace, diverged))
    with open(out / "run.log", "a") as fh:
        fh.write(
            f"{time.strftime('%Y-%m-%dT%H:%M:%S')} iterations="
            f"{state.iteration} wall_time={elapsed:.3f}s "
            f"diverged={diverged}\n"
        )

    final = trace.final
    status = "diverged" if diverged else "done"
    abs_part = (
        f" absolute_error={final.absolute_error:.6g}"
        if final.absolute_error is not None
        else ""
    )
    print(
        f"{status}: {state.iteration} iterations in {elapsed:.3f}s, "
        f"length={final.length:.6g}{abs_part} "
        f"surface_error={final.surface_error:.6g} -> {out}"
    )
    return 2 if diverged else 0


def _first_positive_surface_error(trace) -> float:
    for row in trace:
        if row.surface_error > 0:
            return row.surface_error
    return 0.0


def cmd_sweep(spec, parameter: str, values) -> int:
    """One run per parameter value; divergence is recorded, never fatal.

    Writes per-value artifact directories plus sweep_summary.csv with an
    `unstable` flag: diverged, or final surface error above the first
    recorded positive surface error of that run.
    """
    if parameter not in SWEEPABLE_PARAMETERS:
        print(
            f"error: cannot sweep {parameter!r}; "
            f"choose one of {', '.join(SWEEPABLE_PARAMETERS)}"
        )
        return 1
    if not values:
        print("error: sweep needs at least one value")
        return 1

    out = Path(spec.out_dir)
    try:
        solvers = [dataclasses.replace(spec.solver, **{parameter: value})
                   for value in values]
        surface, _, _, reference, init = spec.build()
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}")
        return 1

    rows = []
    for value, solver in zip(values, solvers):
        # repr, as in the value column: distinct values never share a directory
        label = f"{parameter}={value!r}"
        try:
            state, trace, failure, elapsed = _solve(solver, surface, init, reference)
        except ValueError as exc:
            print(f"{label}: error: {exc}")
            rows.append([value, None, None, None, True, True])
            continue
        diverged = failure is not None
        sub_out = out / label
        sub_out.mkdir(parents=True, exist_ok=True)
        diagnostics.write_trace_csv(trace, sub_out / "trace.csv")
        _write_json(
            sub_out / "summary.json",
            _summary_payload(dataclasses.replace(spec, solver=solver), state,
                             trace, diverged),
        )
        final = trace.final
        baseline = _first_positive_surface_error(trace)
        unstable = diverged or (baseline > 0 and final.surface_error > baseline)
        rows.append([value, final.absolute_error, final.relative_error,
                     final.surface_error, diverged, unstable])
        print(
            f"{label}: {'diverged' if diverged else 'done'} in {elapsed:.3f}s, "
            f"surface_error={final.surface_error:.6g}"
        )

    out.mkdir(parents=True, exist_ok=True)
    diagnostics.write_csv(out / "sweep_summary.csv", SWEEP_CSV_HEADER, rows)
    return 0


def sample_endpoint_pairs(surface, n_pairs: int, seed: int, min_angle: float = 0.1):
    """Seeded endpoint pairs on a sphere, rejecting angular separation < min_angle."""
    radius = getattr(surface, "radius", None)
    if radius is None:
        raise ConfigError("endpoint sampling requires a sphere surface")
    rng = np.random.default_rng(seed)
    pairs = []
    while len(pairs) < n_pairs:
        u = rng.normal(size=3)
        v = rng.normal(size=3)
        p = radius * u / np.linalg.norm(u)
        q = radius * v / np.linalg.norm(v)
        cosang = float(np.dot(p, q)) / radius**2
        if math.acos(max(-1.0, min(1.0, cosang))) < min_angle:
            continue
        pairs.append((p, q))
    return pairs


def cmd_benchmark(spec, n_pairs: int = 10, checkpoints=(100, 1000, 2000)) -> int:
    """Multi-pair sphere benchmark; writes benchmark.csv of per-checkpoint averages.

    Each pair runs once, resumed from one checkpoint to the next, and the
    time printed for a checkpoint is the average time to reach it.  A pair
    that diverges is reported and counts only at the checkpoints it reached;
    a checkpoint no pair reached gets empty averages.  Times go to stdout
    only; benchmark.csv depends only on the seed.
    """
    try:
        surface = parse_surface(spec.surface, spec.points_path)
        checkpoints = sorted(set(int(c) for c in checkpoints))
        if not checkpoints or checkpoints[0] < 1:
            raise ConfigError("checkpoints must be positive iteration counts")
        if n_pairs < 1:
            raise ConfigError("n_pairs must be at least 1")
        pairs = sample_endpoint_pairs(surface, n_pairs, spec.seed)
        radius = surface.radius
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}")
        return 1

    # checkpoint -> [(final trace row, seconds to reach it)] of the pairs that did
    reached = {checkpoint: [] for checkpoint in checkpoints}
    for pair_index, (p, q) in enumerate(pairs):
        cosang = float(np.dot(p, q)) / radius**2
        d = radius * math.acos(max(-1.0, min(1.0, cosang)))
        if spec.init == "randomized":
            init = init_randomized(
                p, q, spec.m, surface,
                tau_r=spec.tau_r, seed=spec.seed + 97 * pair_index,
            )
        else:
            init = init_straight_line(p, q, spec.m)
        done, seconds = 0, 0.0
        for checkpoint in checkpoints:
            leg = checkpoint - done
            cfg = dataclasses.replace(spec.solver, max_iters=leg, record_every=leg)
            state, trace, failure, elapsed = _solve(cfg, surface, init, d)
            seconds += elapsed
            if failure is not None:
                print(f"pair {pair_index}: diverged at iteration "
                      f"{done + failure.iteration}")
                break
            reached[checkpoint].append((trace.final, seconds))
            init, done = (state.curve, state.multiplier), checkpoint

    rows = []
    for checkpoint, finals in reached.items():
        if not finals:
            rows.append([checkpoint, 0, None, None, None])
            print(f"checkpoint {checkpoint}: n=0")
            continue
        avg_abs, avg_rel, avg_surf = (
            float(np.mean([getattr(f, name) for f, _ in finals]))
            for name in ("absolute_error", "relative_error", "surface_error")
        )
        rows.append([checkpoint, len(finals), avg_abs, avg_rel, avg_surf])
        print(
            f"checkpoint {checkpoint}: n={len(finals)} "
            f"avg_absolute_error={avg_abs:.6g} avg_relative_error={avg_rel:.6g} "
            f"avg_time={np.mean([t for _, t in finals]):.3f}s"
        )
    out = Path(spec.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    diagnostics.write_csv(out / "benchmark.csv", BENCHMARK_CSV_HEADER, rows)
    return 0


def cmd_compare_schemes(spec, schemes) -> int:
    """Run each scheme on the identical problem and init; writes comparison.csv."""
    try:
        scheme_list = [Scheme(s) for s in schemes]
        if not scheme_list:
            raise ConfigError("compare needs at least one scheme")
        surface, p, q, reference, init = spec.build()
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}")
        return 1

    rows = []
    for scheme in scheme_list:
        cfg = dataclasses.replace(spec.solver, scheme=scheme)
        try:
            _, trace, failure, elapsed = _solve(cfg, surface, init, reference)
        except ValueError as exc:
            print(f"{scheme.value}: error: {exc}")
            rows.append([scheme.value, None, None, None, True])
            continue
        final, diverged = trace.final, failure is not None
        rows.append([scheme.value, final.absolute_error, final.relative_error,
                     final.surface_error, diverged])
        abs_part = (
            f"absolute_error={final.absolute_error:.6g} "
            if final.absolute_error is not None
            else ""
        )
        print(
            f"{scheme.value}: {'diverged' if diverged else 'done'} "
            f"in {elapsed:.3f}s {abs_part}"
            f"surface_error={final.surface_error:.6g}"
        )
    out = Path(spec.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    diagnostics.write_csv(out / "comparison.csv", COMPARISON_CSV_HEADER, rows)
    return 0


def default_planar_perturbation(problem: PlanarProblem):
    """Deterministic off-saddle init: a sine bump on the curve, a sine multiplier."""
    curve, mult = init_straight_line(problem.p, problem.q, problem.m)
    t = np.arange(problem.m + 1) / problem.m
    bump = np.array([0.3, -0.2, 0.5])
    curve.points[1:-1] += np.outer(np.sin(np.pi * t[1:-1]), bump)
    mult.values[:] = 0.8 * np.sin(2.0 * np.pi * t[1:-1])
    return curve, mult


def cmd_planar(problem: PlanarProblem, max_iters: int, out_dir,
               perturbed: bool = True) -> int:
    """Run the planar scheme, write planar_ergodic.csv, report the rate check."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if not problem.step_condition_ok:
        print(
            f"warning: step product {problem.step_product:.3g} >= 1, "
            "the ergodic bound does not apply"
        )
    init = default_planar_perturbation(problem) if perturbed else None
    start = time.monotonic()
    try:
        _, records = run_planar(problem, max_iters, init=init)
        diverged = False
    except DivergenceError as exc:
        records, diverged = list(exc.trace or []), True
        print(f"warning: {exc}")
    elapsed = time.monotonic() - start
    write_ergodic_csv(records, out / "planar_ergodic.csv")

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
    return 0


def cmd_check_surface(surface_desc: str, points_path=None, band: float = 0.25,
                      n_samples: int = 20000, seed: int = 0) -> int:
    """Print the band-sampling report for the convergence assumptions."""
    try:
        surface = parse_surface(surface_desc, points_path)
        report = check_assumption_a(surface, band, n_samples=n_samples, seed=seed)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}")
        return 1
    except RuntimeError as exc:
        print(f"error: {exc}")
        return 1
    print(f"surface: {surface_desc}")
    print(f"band_half_width: {report.band_half_width:g}")
    print(f"nu: {report.nu:.6g}")
    print(f"hessian_bound: {report.hessian_bound:.6g}")
    print(f"hessian_approximate: {str(report.hessian_approximate).lower()}")
    print(f"n_samples: {report.n_samples}")
    print(f"satisfied: {str(report.satisfied).lower()}")
    return 0

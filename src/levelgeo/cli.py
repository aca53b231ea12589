"""Command line interface.

Subcommands: run, sweep, benchmark, compare, planar, check-surface.

Exit codes: 0 success, 1 configuration problem (bad flags, bad config file,
unusable surface or endpoints), 2 divergence of a single requested run.
Sweeps, benchmarks and comparisons record divergence per value, pair or
scheme instead of failing.

A flat ``key = value`` config file (--config) can supply any flag of the
chosen subcommand, with '#' comments; explicit command line flags win.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import __version__, harness
from .harness import ConfigError, ExperimentSpec
from .planar import PlanarProblem
from .schemes import SolverConfig

__all__ = ["main", "build_parser"]

_SCHEME_CHOICES = ("gda", "regularized", "base-pdhg", "var1", "var2")
_INIT_CHOICES = ("straight", "randomized")

# Hard defaults, applied after config-file merging so that file values
# override them and explicit flags override the file.
_DEFAULTS_COMMON = {
    "surface": "sphere-sdf",
    "points": None,
    "p": "antipodal-z",
    "q": "antipodal-z",
    "scheme": "base-pdhg",
    "tau_gamma": 1e-5,
    "tau_lambda": 0.7,
    "epsilon": 0.01,
    "omega": 1.0,
    "alpha": 1.0,
    "m": 100,
    "iters": 5000,
    "init": "straight",
    "tau_r": 4.0,
    "seed": 0,
    "out": "out",
    "record_every": 10,
    "reference": None,
}
_DEFAULTS_BY_COMMAND = {
    "benchmark": {"pairs": 10, "checkpoints": "100,1000,2000"},
    "compare": {"schemes": "base-pdhg,var1,var2"},
    "planar": {
        "a": "1,0,0",
        "p": "0,0,0",
        "q": "0,1,0",
        "tau_gamma": 0.01,
        "tau_lambda": 0.7,
        "epsilon": 0.01,
        "m": 100,
        "iters": 16384,
    },
    "check-surface": {"band": 0.25, "samples": 20000},
}

_CONVERTERS = {
    "tau_gamma": float,
    "tau_lambda": float,
    "epsilon": float,
    "omega": float,
    "alpha": float,
    "tau_r": float,
    "band": float,
    "m": int,
    "iters": int,
    "seed": int,
    "record_every": int,
    "pairs": int,
    "samples": int,
}


class _Parser(argparse.ArgumentParser):
    """argparse exits bad usage with status 2; here that is a config error (1)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_surface_flags(p):
    p.add_argument("--surface", help="sphere-sdf[:R], sphere-quadratic[:R], "
                   "torus[:R,r], plane[:ax,ay,az], or point-cloud")
    p.add_argument("--points", help="point cloud file (x y z per line)")


def _add_solver_flags(p):
    p.add_argument("--scheme", choices=_SCHEME_CHOICES)
    p.add_argument("--tau-gamma", type=float, dest="tau_gamma")
    p.add_argument("--tau-lambda", type=float, dest="tau_lambda")
    p.add_argument("--epsilon", type=float)
    p.add_argument("--omega", type=float)
    p.add_argument("--alpha", type=float)
    p.add_argument("--m", type=int, help="curve resolution (m+1 nodes)")
    p.add_argument("--iters", type=int, help="iteration budget")
    p.add_argument("--record-every", type=int, dest="record_every")


def _add_endpoint_flags(p):
    p.add_argument("--p", help="start point x,y,z (or antipodal-z)")
    p.add_argument("--q", help="end point x,y,z (or antipodal-z)")
    p.add_argument("--init", choices=_INIT_CHOICES)
    p.add_argument("--tau-r", type=float, dest="tau_r",
                   help="randomized init bump amplitude")
    p.add_argument("--reference",
                   help="reference distance: a number, sphere-exact, or none")


def _add_common_flags(p):
    p.add_argument("--config", help="flat key = value config file")
    p.add_argument("--out", help="output directory")
    p.add_argument("--seed", type=int)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="levelgeo",
                     description="Geodesics on implicit surfaces by "
                                 "relaxed primal-dual iteration.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    p_run = sub.add_parser("run", help="single solver run with full artifacts")
    for add in (_add_common_flags, _add_surface_flags, _add_solver_flags,
                _add_endpoint_flags):
        add(p_run)

    p_sweep = sub.add_parser("sweep", help="repeat a run across one parameter")
    for add in (_add_common_flags, _add_surface_flags, _add_solver_flags,
                _add_endpoint_flags):
        add(p_sweep)
    p_sweep.add_argument("--parameter", required=True,
                         help="one of epsilon, tau_lambda, tau_gamma, omega, alpha")
    p_sweep.add_argument("--values", required=True,
                         help="comma separated parameter values")

    p_bench = sub.add_parser("benchmark",
                             help="averaged errors over random sphere endpoint pairs")
    for add in (_add_common_flags, _add_surface_flags, _add_solver_flags):
        add(p_bench)
    p_bench.add_argument("--init", choices=_INIT_CHOICES)
    p_bench.add_argument("--tau-r", type=float, dest="tau_r")
    p_bench.add_argument("--pairs", type=int, help="number of endpoint pairs")
    p_bench.add_argument("--checkpoints",
                         help="comma separated iteration budgets")

    p_cmp = sub.add_parser("compare", help="same problem, several schemes")
    for add in (_add_common_flags, _add_surface_flags, _add_solver_flags,
                _add_endpoint_flags):
        add(p_cmp)
    p_cmp.add_argument("--schemes", help="comma separated scheme names")

    p_planar = sub.add_parser("planar",
                              help="plane-constraint model problem with the "
                                   "ergodic gap bound")
    _add_common_flags(p_planar)
    p_planar.add_argument("--a", help="plane normal ax,ay,az")
    p_planar.add_argument("--p", help="start point x,y,z in the plane")
    p_planar.add_argument("--q", help="end point x,y,z in the plane")
    p_planar.add_argument("--tau-gamma", type=float, dest="tau_gamma")
    p_planar.add_argument("--tau-lambda", type=float, dest="tau_lambda")
    p_planar.add_argument("--epsilon", type=float)
    p_planar.add_argument("--m", type=int)
    p_planar.add_argument("--iters", type=int)
    p_planar.add_argument("--saddle-init", action="store_true",
                          help="start exactly at the saddle instead of the "
                               "default perturbed curve")

    p_chk = sub.add_parser("check-surface",
                           help="sample a band around the surface and check "
                                "the gradient/curvature assumptions")
    _add_common_flags(p_chk)
    _add_surface_flags(p_chk)
    p_chk.add_argument("--band", type=float, help="band half width")
    p_chk.add_argument("--samples", type=int, help="band sample count")

    return parser


def _merge_config(args) -> None:
    """Fill unset flags from --config, then hard defaults.  Mutates args."""
    ns = vars(args)
    if getattr(args, "config", None):
        entries = harness.parse_config_file(args.config)
        for key, (text, line) in entries.items():
            if key not in ns or key in ("config", "command"):
                raise ConfigError(
                    f"{args.config}: line {line}: unknown key {key!r} "
                    f"for command {args.command}"
                )
            if ns[key] is not None:
                continue  # explicit flag wins
            conv = _CONVERTERS.get(key, str)
            try:
                value = conv(text)
            except ValueError:
                raise ConfigError(
                    f"{args.config}: line {line}: bad value {text!r} for {key}"
                ) from None
            if key == "scheme" and value not in _SCHEME_CHOICES:
                raise ConfigError(
                    f"{args.config}: line {line}: scheme must be one of "
                    f"{', '.join(_SCHEME_CHOICES)}"
                )
            if key == "init" and value not in _INIT_CHOICES:
                raise ConfigError(
                    f"{args.config}: line {line}: init must be one of "
                    f"{', '.join(_INIT_CHOICES)}"
                )
            ns[key] = value
    defaults = dict(_DEFAULTS_COMMON)
    defaults.update(_DEFAULTS_BY_COMMAND.get(args.command, {}))
    for key, value in defaults.items():
        if key in ns and ns[key] is None:
            ns[key] = value


def _solver_config(args) -> SolverConfig:
    return SolverConfig(
        scheme=args.scheme,
        tau_gamma=args.tau_gamma,
        tau_lambda=args.tau_lambda,
        epsilon=args.epsilon,
        omega=args.omega,
        alpha=args.alpha,
        max_iters=args.iters,
        record_every=args.record_every,
    )


def _experiment_spec(args) -> ExperimentSpec:
    return ExperimentSpec(
        surface=args.surface,
        points_path=args.points,
        p=getattr(args, "p", "antipodal-z"),
        q=getattr(args, "q", "antipodal-z"),
        m=args.m,
        init=args.init,
        tau_r=args.tau_r,
        seed=args.seed,
        solver=_solver_config(args),
        reference=getattr(args, "reference", None),
        out_dir=args.out,
    )


def _float_list(text: str, flag: str):
    try:
        return [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError:
        raise ConfigError(f"{flag} must be comma separated numbers, "
                          f"got {text!r}") from None


def _vector3(text: str, flag: str) -> np.ndarray:
    values = _float_list(text, flag)
    if len(values) != 3:
        raise ConfigError(f"{flag} must be x,y,z, got {text!r}")
    return np.array(values)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 1
    try:
        _merge_config(args)
        if args.command == "run":
            return harness.cmd_run(_experiment_spec(args))
        if args.command == "sweep":
            parameter = args.parameter.replace("-", "_")
            values = _float_list(args.values, "--values")
            return harness.cmd_sweep(_experiment_spec(args), parameter, values)
        if args.command == "benchmark":
            spec = _experiment_spec(args)
            checkpoints = [int(v) for v in _float_list(args.checkpoints,
                                                       "--checkpoints")]
            return harness.cmd_benchmark(spec, n_pairs=args.pairs,
                                         checkpoints=checkpoints)
        if args.command == "compare":
            schemes = [s.strip() for s in args.schemes.split(",") if s.strip()]
            return harness.cmd_compare_schemes(_experiment_spec(args), schemes)
        if args.command == "planar":
            problem = PlanarProblem(
                a=_vector3(args.a, "--a"),
                p=_vector3(args.p, "--p"),
                q=_vector3(args.q, "--q"),
                m=args.m,
                tau_gamma=args.tau_gamma,
                tau_lambda=args.tau_lambda,
                epsilon=args.epsilon,
            )
            return harness.cmd_planar(problem, args.iters, args.out,
                                      perturbed=not args.saddle_init)
        if args.command == "check-surface":
            return harness.cmd_check_surface(
                args.surface, points_path=args.points, band=args.band,
                n_samples=args.samples, seed=args.seed,
            )
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())

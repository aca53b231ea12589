"""Command line interface.

Subcommands: run, sweep, benchmark, compare, planar, check-surface.

Commands raise, the CLI reports: ``main`` is the one place that turns a
ConfigError, ValueError, OSError, SamplingError or MemoryError from parsing or
from a ``harness.cmd_*`` command into a single ``error: ...`` line on stderr,
and the one place that reports a library warning: each UserWarning once,
every shown warning as one ``warning: ...`` line on stdout.

Exit codes: 0 success, 1 configuration problem (bad flags, bad config file,
unusable surface or endpoints, an --m too large to allocate), 2 divergence of
a single requested run (``run`` or ``planar``), 3 a field singularity in
``run``.  Sweeps, benchmarks and comparisons record a divergence or a
singularity per value, pair or scheme instead of failing.

Each flag is declared once, with its type, choices and default (the
library's, where it has one); ``levelgeo CMD --help`` lists the defaults.
A flat ``key = value`` config file (--config, '#' comments) can set any flag
of the chosen subcommand: each value goes through the action of the flag it
names and becomes that flag's default, so explicit flags still win.
parse_args gives flags to the invoked command's parser alone, since building
every command's costs each cold start about a millisecond.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import re
import sys
import warnings

from . import __version__, harness
from .harness import INIT_KINDS, SWEEPABLE_PARAMETERS, ConfigError, ExperimentSpec
from .levelset import SamplingError
from .planar import PlanarProblem
from .schemes import Scheme, SolverConfig

__all__ = ["main", "build_parser", "parse_args"]


class _Parser(argparse.ArgumentParser):
    """Lists defaults in --help, keeps each flag's action in ``options`` by
    dest, reads -1,0,0 or -1e-3 after a flag as its value (argparse does so
    only for a plain number), and exits bad usage with 1 instead of 2."""

    def __init__(self, **kwargs):
        self.options = {}
        super().__init__(formatter_class=argparse.ArgumentDefaultsHelpFormatter,
                         **kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        self.options[action.dest] = action
        return action

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_surface_flags(p):
    p.add_argument("--surface", default=ExperimentSpec.surface,
                   help="sphere-sdf[:R], sphere-quadratic[:R], "
                   "torus[:R,r], plane[:ax,ay,az], or point-cloud")
    p.add_argument("--points", default=ExperimentSpec.points_path,
                   help="point cloud file (x y z per line)")


def _add_step_flags(p, lib, m):
    """Step sizes and regularization with lib's defaults, and --m."""
    p.add_argument("--tau-gamma", type=float, default=lib.tau_gamma,
                   help="curve step size")
    p.add_argument("--tau-lambda", type=float, default=lib.tau_lambda,
                   help="multiplier step size")
    p.add_argument("--epsilon", type=float, default=lib.epsilon,
                   help="multiplier regularization")
    p.add_argument("--m", type=int, default=m, help="curve resolution (m+1 nodes)")


def _add_scheme_flag(p):
    """--scheme, of run, sweep and benchmark: compare takes its --schemes."""
    p.add_argument("--scheme", choices=[s.value for s in Scheme],
                   default=SolverConfig.scheme.value, help="primal-dual scheme")


def _add_problem_flags(p):
    """The flags of run, sweep, benchmark and compare."""
    p.add_argument("--out", default=ExperimentSpec.out_dir, help="output directory")
    p.add_argument("--seed", type=int, default=ExperimentSpec.seed,
                   help="seed of the randomized init and the endpoint pairs")
    _add_surface_flags(p)
    _add_step_flags(p, SolverConfig, ExperimentSpec.m)
    p.add_argument("--omega", type=float, default=SolverConfig.omega,
                   help="extrapolation weight (base-pdhg, var1)")
    p.add_argument("--alpha", type=float, default=SolverConfig.alpha,
                   help="constraint weight (var2)")
    p.add_argument("--init", choices=INIT_KINDS, default=ExperimentSpec.init,
                   help="initial curve")
    p.add_argument("--tau-r", type=float, default=ExperimentSpec.tau_r,
                   help="randomized init bump amplitude")


def _add_run_flags(p):
    """The flags of run, sweep and compare that benchmark has no use for."""
    p.add_argument("--iters", type=int, default=SolverConfig.max_iters,
                   help="iteration budget")
    p.add_argument("--record-every", type=int, default=SolverConfig.record_every,
                   help="iterations between trace rows")
    p.add_argument("--p", default=ExperimentSpec.p,
                   help="start point x,y,z (or antipodal-z)")
    p.add_argument("--q", default=ExperimentSpec.q,
                   help="end point x,y,z (or antipodal-z)")
    p.add_argument("--reference", default=ExperimentSpec.reference,
                   help="reference distance: a number, sphere-exact, or none")


def _add_sweep_flags(p):
    p.add_argument("--parameter", help=f"one of {', '.join(SWEEPABLE_PARAMETERS)}")
    p.add_argument("--values", help="comma separated parameter values")


def _add_benchmark_flags(p):
    p.add_argument("--pairs", type=int, default=10, help="number of endpoint pairs")
    p.add_argument("--checkpoints", default="100,1000,2000",
                   help="comma separated iteration budgets")


def _add_compare_flags(p):
    p.add_argument("--schemes", default="base-pdhg,var1,var2",
                   help="comma separated scheme names")


def _add_planar_flags(p):
    p.add_argument("--out", default=ExperimentSpec.out_dir, help="output directory")
    p.add_argument("--a", default="1,0,0", help="plane normal ax,ay,az")
    p.add_argument("--p", default="0,0,0", help="start point x,y,z in the plane")
    p.add_argument("--q", default="0,1,0", help="end point x,y,z in the plane")
    _add_step_flags(p, PlanarProblem, PlanarProblem.m)
    p.add_argument("--iters", type=int, default=16384, help="iteration budget")


def _add_check_surface_flags(p):
    p.add_argument("--seed", type=int, default=ExperimentSpec.seed,
                   help="band sampling seed")
    p.add_argument("--band", type=float, default=0.25, help="band half width")
    p.add_argument("--samples", type=int, default=20000, help="band sample count")


#: each subcommand's help and the functions that add its flags, after --config
_COMMANDS = {
    "run": ("single solver run with full artifacts",
            (_add_scheme_flag, _add_problem_flags, _add_run_flags)),
    "sweep": ("repeat a run across one parameter",
              (_add_scheme_flag, _add_problem_flags, _add_run_flags, _add_sweep_flags)),
    "benchmark": ("averaged errors over random sphere endpoint pairs",
                  (_add_scheme_flag, _add_problem_flags, _add_benchmark_flags)),
    "compare": ("same problem, several schemes",
                (_add_problem_flags, _add_run_flags, _add_compare_flags)),
    "planar": ("plane-constraint model problem with the ergodic gap bound",
               (_add_planar_flags,)),
    "check-surface": ("sample a band around the surface and check the "
                      "gradient/curvature assumptions",
                      (_add_surface_flags, _add_check_surface_flags)),
}


def build_parser(command: str | None = None) -> _Parser:
    """The levelgeo parser; its ``commands`` maps each subcommand to its parser.

    Every subcommand is listed, but only `command`'s parser gets its flags
    (every parser does when `command` is None): a command never reads
    another's, and building them all is most of argparse's cost.
    """
    parser = _Parser(prog="levelgeo",
                     description="Geodesics on implicit surfaces by "
                                 "relaxed primal-dual iteration.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)
    parser.commands = sub.choices
    for name, (help, add_flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help)
        if command is None or command == name:
            p.add_argument("--config", help="flat key = value config file")
            for add in add_flags:
                add(p)
    return parser


def _config_defaults(command: _Parser, name: str, path) -> dict:
    """The entries of flat ``key = value`` config file `path`, each parsed by
    the flag it names, in one pass: '#' starts a comment, keys may use dashes
    or underscores, and the first faulty line raises ConfigError."""
    defaults, first_line = {}, {}
    with open(path) as fh:
        for line_number, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            where = f"{path}: line {line_number}"
            if "=" not in line:
                raise ConfigError(f"{where}: expected 'key = value', got {line!r}")
            key, _, text = line.partition("=")
            key, text = key.strip().replace("-", "_"), text.strip()
            if not key or not text:
                raise ConfigError(f"{where}: empty key or value")
            if key in first_line:
                raise ConfigError(f"{where}: duplicate key {key!r} "
                                  f"(first set on line {first_line[key]})")
            first_line[key] = line_number
            action = command.options.get(key)
            if action is None or key in ("help", "config"):
                raise ConfigError(f"{where}: unknown key {key!r} for command {name}")
            try:
                value = action.type(text) if action.type else text
            except ValueError:
                raise ConfigError(f"{where}: bad value {text!r} for {key}") from None
            if action.choices is not None and value not in action.choices:
                raise ConfigError(
                    f"{where}: {key} must be one of {', '.join(action.choices)}")
            defaults[key] = value
    return defaults


def parse_args(argv=None) -> argparse.Namespace:
    """Parse argv; a --config file's entries become the subcommand's defaults.

    Raises ConfigError for a malformed line, a duplicate or unknown key, or a
    bad value in that file.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    # the command is the first argument that is not an option: levelgeo's
    # own options (-h, --version) take no value
    parser = build_parser(next((a for a in argv if not a.startswith("-")), ""))
    args = parser.parse_args(argv)
    if getattr(args, "config", None):
        command = parser.commands[args.command]
        command.set_defaults(**_config_defaults(command, args.command, args.config))
        args = parser.parse_args(argv)
    return args


def _fields(cls, args, **dests) -> dict:
    """Dataclass cls's fields set by a flag of args (its own name, or dests[name])."""
    ns = vars(args)
    return {f.name: ns[dests.get(f.name, f.name)] for f in dataclasses.fields(cls)
            if dests.get(f.name, f.name) in ns}


def _experiment_spec(args) -> ExperimentSpec:
    solver = SolverConfig(**_fields(SolverConfig, args, max_iters="iters"))
    return ExperimentSpec(solver=solver, **_fields(
        ExperimentSpec, args, points_path="points", out_dir="out"))


def _float_list(text: str, flag: str):
    try:
        values = [float(v) for v in text.split(",") if v.strip() != ""]
        if all(map(math.isfinite, values)):
            return values
    except ValueError:
        pass
    raise ConfigError(f"{flag} must be comma separated finite numbers, got {text!r}")


def main(argv=None) -> int:
    with warnings.catch_warnings():
        warnings.simplefilter("default", UserWarning)
        warnings.showwarning = lambda message, *_: print(f"warning: {message}")
        return _run_command(argv)


def _run_command(argv) -> int:
    try:
        args = parse_args(argv)
        if args.command is None:
            build_parser().print_help()
            return 1
        if args.command == "run":
            return harness.cmd_run(_experiment_spec(args))
        if args.command == "sweep":
            if args.parameter is None or args.values is None:
                raise ConfigError("sweep needs --parameter and --values")
            parameter = args.parameter.replace("-", "_")
            values = _float_list(args.values, "--values")
            return harness.cmd_sweep(_experiment_spec(args), parameter, values)
        if args.command == "benchmark":
            spec = _experiment_spec(args)
            checkpoints = _float_list(args.checkpoints, "--checkpoints")
            return harness.cmd_benchmark(spec, n_pairs=args.pairs, checkpoints=checkpoints)
        if args.command == "compare":
            schemes = [s.strip() for s in args.schemes.split(",") if s.strip()]
            return harness.cmd_compare_schemes(_experiment_spec(args), schemes)
        if args.command == "planar":
            vectors = {k: _float_list(getattr(args, k), f"--{k}") for k in ("a", "p", "q")}
            problem = PlanarProblem(**{**_fields(PlanarProblem, args), **vectors})
            return harness.cmd_planar(problem, args.iters, args.out)
        if args.command == "check-surface":
            return harness.cmd_check_surface(
                args.surface, points_path=args.points, band=args.band,
                n_samples=args.samples, seed=args.seed,
            )
    except (ValueError, OSError, SamplingError, MemoryError) as exc:  # ConfigError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())

"""Byte-for-byte pins of every artifact the CLI writes.

Each case runs one small fixed-seed command and compares every file it
writes with tests/golden/<case>/, except run.log, which carries wall times.
After an intended change of the artifacts, regenerate them with

    PYTHONPATH=src python tests/test_golden.py [case ...]

and say in the change which files moved and why.  The run-cloud case reads
its input cloud from tests/golden/run-cloud.xyz, which regenerating that case
writes anew from a fixed seed.
"""

import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

from levelgeo import cli
from levelgeo.cli import build_parser, main, parse_args

GOLDEN = Path(__file__).resolve().parent / "golden"
CLOUD = GOLDEN / "run-cloud.xyz"

SMALL_ARC = ["--p", "1,0,0", "--q", "0,1,0", "--m", "16"]

# case -> (argv without --out, expected exit code)
CASES = {
    "run": (["run", "--init", "randomized", "--seed", "1", "--m", "24",
             "--iters", "60", "--record-every", "10",
             "--reference", "sphere-exact"], 0),
    "run-diverged": (["run", *SMALL_ARC, "--iters", "50", "--tau-gamma", "0.5",
                      "--record-every", "4"], 2),
    "sweep": (["sweep", *SMALL_ARC, "--iters", "25", "--record-every", "5",
               "--reference", "sphere-exact", "--parameter", "tau-gamma",
               "--values", "1e-5,0.5,1e-4"], 0),
    "benchmark": (["benchmark", "--pairs", "3", "--checkpoints", "20,5,40",
                   "--m", "16", "--seed", "3"], 0),
    "benchmark-randomized": (["benchmark", "--pairs", "2", "--checkpoints",
                              "10,30", "--m", "12", "--seed", "5", "--init",
                              "randomized", "--tau-r", "1.0",
                              "--scheme", "var2", "--alpha", "10"], 0),
    "compare": (["compare", *SMALL_ARC, "--iters", "40", "--reference",
                 "sphere-exact", "--schemes",
                 "gda,regularized,base-pdhg,var1,var2"], 0),
    "planar": (["planar", "--m", "20", "--iters", "64"], 0),
    "run-cloud": (["run", "--surface", "point-cloud", "--points", str(CLOUD),
                   "--p", "1,0,0", "--q", "0,1,0", "--m", "64", "--tau-gamma", "1e-4",
                   "--tau-lambda", "5", "--iters", "80", "--record-every", "1"], 0),
}


def write_cloud(path: Path, n: int = 400, seed: int = 17) -> None:
    """A seeded unit-sphere cloud of n samples, (1,0,0) and (0,1,0) among
    them, with no x value repeated, written as %.17g."""
    pts = np.random.default_rng(seed).normal(size=(n, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    pts[:2] = np.eye(3)[:2]
    assert len(np.unique(pts[:, 0])) == n
    np.savetxt(path, pts, fmt="%.17g", header=f"unit sphere, {n} samples, seed {seed}")


def artifacts(root: Path) -> dict:
    """relative path -> bytes of every deterministic file under root."""
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file() and path.name != "run.log"
    }


def produce(case: str, out: Path) -> None:
    argv, code = CASES[case]
    assert main(argv + ["--out", str(out)]) == code


@pytest.mark.parametrize("case", sorted(CASES))
def test_artifacts_match_golden(case, tmp_path):
    out = tmp_path / case
    produce(case, out)
    got, want = artifacts(out), artifacts(GOLDEN / case)
    assert want, f"no golden files for {case}"
    assert sorted(got) == sorted(want)
    for name in want:
        assert got[name] == want[name], f"{case}/{name} differs from the golden"


# every golden argv, and check-surface's, which writes no artifact
PARSED_ARGVS = [argv for argv, _ in CASES.values()] + [
    ["check-surface", "--surface", "torus:3,1", "--band", "0.1", "--seed", "2"]]
# one config entry per command that no argv above sets
CONFIG_ENTRY = {"run": ("tau-r", "2.5"), "sweep": ("alpha", "3.5"),
                "benchmark": ("omega", "0.5"), "compare": ("epsilon", "0.02"),
                "planar": ("epsilon", "0.5"), "check-surface": ("samples", "99")}


def _parsed_by_every_command(argv):
    """argv parsed as parse_args does, by the parser that has every command's flags."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config:
        command = parser.commands[args.command]
        command.set_defaults(**cli._config_defaults(command, args.command, args.config))
        args = parser.parse_args(argv)
    return args


@pytest.mark.parametrize("argv", PARSED_ARGVS, ids=" ".join)
def test_parse_args_reads_each_argv_as_the_parser_of_every_command(argv, tmp_path):
    # parse_args gives flags to the named command alone: the namespace is
    # the one the parser with every command's flags reads, with a file too
    assert parse_args(argv) == _parsed_by_every_command(argv)
    key, value = CONFIG_ENTRY[argv[0]]
    conf = tmp_path / "flags.conf"
    conf.write_text(f"{key} = {value}\n")
    with_file = argv + ["--config", str(conf)]
    args = parse_args(with_file)
    assert args == _parsed_by_every_command(with_file)
    assert str(getattr(args, key.replace("-", "_"))) == value


if __name__ == "__main__":
    for case in sys.argv[1:] or sorted(CASES):
        if case == "run-cloud":
            write_cloud(CLOUD)
        shutil.rmtree(GOLDEN / case, ignore_errors=True)
        produce(case, GOLDEN / case)
        (GOLDEN / case / "run.log").unlink(missing_ok=True)

"""The public surface: every exported name exists, the README's library
examples run as written, the modules import one another without a cycle,
one owner each decides a scheme's parameters and how a warning is shown,
scipy, logging and levelgeo's own planar and cells modules load only where
they are used, and each benchmarked command reaches its solve through
harness before it writes anything."""

import ast
import graphlib
import importlib
import importlib.util
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import levelgeo
from levelgeo import harness
from levelgeo.cli import main

MODULES = sorted(m.name for m in pkgutil.iter_modules(levelgeo.__path__))
README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(f"levelgeo.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def _package_imports(path, modules):
    """The levelgeo modules that the module at path imports, in a function too;
    a name of the package itself (`from . import __version__`) is __init__'s."""
    imported = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            imported.update([node.module.split(".")[0]] if node.module
                            else [alias.name for alias in node.names])
    return {name if name in modules else "__init__" for name in imported}


def test_the_modules_import_one_another_without_a_cycle():
    paths = {path.stem: path for path in Path(levelgeo.__file__).parent.glob("*.py")}
    graph = {name: _package_imports(path, paths) for name, path in paths.items()}
    assert graph["diagnostics"].isdisjoint({"schemes", "harness", "cli", "planar"})
    list(graphlib.TopologicalSorter(graph).static_order())  # CycleError on a cycle


def test_only_solver_config_names_gda_and_regularized():
    # SolverConfig alone says what omega and eps each scheme applies; the
    # kernel and the diagnostics read them through its effective_* properties
    found = []
    for path in sorted(Path(levelgeo.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        config = {id(node) for cls in ast.walk(tree)
                  if isinstance(cls, ast.ClassDef) and cls.name == "SolverConfig"
                  for node in ast.walk(cls)}
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr in ("GDA", "REGULARIZED")
                  and isinstance(node.value, ast.Name) and node.value.id == "Scheme"
                  and id(node) not in config]
    assert found == []


#: the functions that may change how a warning is filtered or shown
WARNING_OWNERS = {("cli.py", "main")}
WARNING_CONTROLS = {"catch_warnings", "simplefilter", "filterwarnings", "showwarning"}


def test_only_the_cli_controls_warnings():
    # cli.main reports every library warning; load_point_cloud hands
    # numpy.loadtxt only a file with a data line, so loadtxt has none to hide
    found = []
    for path in sorted(Path(levelgeo.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {id(node): (path.name, fn.name) for fn in tree.body
                 if isinstance(fn, ast.FunctionDef)
                 for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "warnings":
                found += [f"{path.name}:{node.lineno}" for alias in node.names
                          if alias.name in WARNING_CONTROLS]
            elif (isinstance(node, ast.Attribute) and node.attr in WARNING_CONTROLS
                    and isinstance(node.value, ast.Name) and node.value.id == "warnings"
                    and owner.get(id(node)) not in WARNING_OWNERS):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_readme_library_examples_run(capsys):
    section = README.read_text().split("## Library use", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.S)
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:  # the second block goes on from the first one's names
        exec(compile(block, str(README), "exec"), namespace)
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 1 + 3
    assert all(line.startswith("budget ") for line in printed[1:])


# Each snippet runs in a fresh interpreter (this one has scipy and logging
# loaded already) and prints which of them it loaded: no sphere run, point
# cloud or import of the library may pay for either (a cloud finds its
# nearest samples with numpy alone), and a planar run or solve loads scipy
# and its compiled LAPACK wrapper alone, not the scipy.linalg package (which
# loads logging) nor scipy.spatial.
SCIPY_AFTER = {
    "import": ("import levelgeo.schemes, levelgeo.diagnostics, levelgeo.harness,"
               " levelgeo.cli", []),
    "sphere-run-and-benchmark": (
        "from levelgeo.cli import main\n"
        "assert main(['run', '--init', 'randomized', '--m', '16', '--iters', '5',"
        " '--out', 'run']) == 0\n"
        "assert main(['benchmark', '--m', '16', '--pairs', '2',"
        " '--checkpoints', '5', '--out', 'bench']) == 0",
        []),
    "planar": (
        "from levelgeo.cli import main\n"
        "assert main(['planar', '--m', '8', '--iters', '4', '--out', 'planar']) == 0",
        ["scipy"]),
    "planar-solve": (
        "import numpy as np\n"
        "from levelgeo import planar\n"
        "assert np.isfinite(planar.implicit_gamma_solve(np.ones(9), 0.01)).all()",
        ["scipy"]),
    "point-cloud": (
        "import numpy as np\n"
        "from levelgeo.levelset import PointCloud\n"
        "rng = np.random.default_rng(0)\n"
        "cloud = PointCloud(rng.normal(size=(50, 3)))\n"
        "assert np.isfinite(cloud.value_and_grad(rng.normal(size=(8, 3)))[1]).all()",
        []),
}


def _loaded_after(tmp_path, snippet, names):
    """Those of the modules names that snippet, run in a fresh interpreter
    in tmp_path, leaves in sys.modules."""
    code = (snippet + "\nimport json, sys\nprint(json.dumps(["
            f"name for name in {tuple(names)!r} if name in sys.modules]))")
    src = Path(levelgeo.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("snippet,loaded", SCIPY_AFTER.values(), ids=list(SCIPY_AFTER))
def test_scipy_is_imported_only_where_it_is_used(tmp_path, snippet, loaded):
    names = ("logging", "scipy", "scipy.linalg", "scipy.spatial")
    assert _loaded_after(tmp_path, snippet, names) == loaded


#: writes cloud.txt, 200 samples of the unit sphere with (0, 0, 1) and (1, 0, 0)
CLOUD_FILE = (
    "import numpy as np\n"
    "pts = np.random.default_rng(0).normal(size=(200, 3))\n"
    "pts[:2] = [[0, 0, 1], [1, 0, 0]]\n"
    "np.savetxt('cloud.txt', pts / np.linalg.norm(pts, axis=1)[:, None])\n"
)
CLOUD_RUN = ["run", "--surface", "point-cloud", "--points", "cloud.txt",
             "--p", "0,0,1", "--q", "1,0,0", "--m", "16", "--iters", "5"]

# With no bytecode cached (a fresh checkout), a cold start compiles every
# module it imports, so each command imports only the levelgeo modules it
# runs: levelgeo.planar for the planar command alone, and the point cloud's
# index, levelgeo.cells, for a point cloud alone.
LEVELGEO_AFTER = {
    "import-levelset": ("import levelgeo.levelset", []),
    "sphere-run-and-benchmark": (SCIPY_AFTER["sphere-run-and-benchmark"][0], []),
    "planar": (SCIPY_AFTER["planar"][0], ["levelgeo.planar"]),
    "point-cloud-run": (
        CLOUD_FILE + "from levelgeo.cli import main\n"
        f"assert main({CLOUD_RUN + ['--out', 'cloud']!r}) == 0",
        ["levelgeo.cells"]),
}


@pytest.mark.parametrize("snippet,loaded", LEVELGEO_AFTER.values(), ids=list(LEVELGEO_AFTER))
def test_each_command_imports_only_the_levelgeo_modules_it_runs(tmp_path, snippet, loaded):
    assert _loaded_after(tmp_path, snippet, ("levelgeo.planar", "levelgeo.cells")) == loaded


class _FirstSolve(BaseException):
    """Raised by the solve stub; a BaseException, as the set-up probe's, so
    that no handler of levelgeo's catches it."""


@pytest.mark.parametrize("argv", [
    ["run", "--init", "randomized", "--m", "16", "--iters", "5"],
    ["benchmark", "--m", "16", "--pairs", "2", "--checkpoints", "5"],
    ["planar", "--m", "8", "--iters", "4"],
    CLOUD_RUN,
], ids=["run", "benchmark", "planar", "point-cloud-run"])
def test_each_benchmarked_command_calls_its_solve_through_harness_before_writing(
        tmp_path, monkeypatch, argv):
    # bench/setup_probe.py times a command's set-up by replacing harness.run
    # and harness.run_planar with a stub that stops it: each command must
    # reach one of them before it iterates, and write nothing before
    monkeypatch.chdir(tmp_path)
    exec(CLOUD_FILE, {})

    def stop(*args, **kwargs):
        raise _FirstSolve

    monkeypatch.setattr(harness, "run", stop)
    monkeypatch.setattr(harness, "run_planar", stop)
    with pytest.raises(_FirstSolve):
        main(argv + ["--out", "out"])
    assert not (tmp_path / "out").exists()


def test_every_function_the_benchmark_traces_exists():
    # bench/run.py --trace 1 wraps these by name and stops on a missing one
    path = README.parent / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [(module, name) for module, name, *_ in tracing.WRAPPED_FUNCTIONS
               if not callable(getattr(importlib.import_module(module), name, None))]
    assert missing == []


def test_the_workflow_runs_the_tier_1_command_on_the_benchmarked_versions():
    # the CI workflow's tier-1 step is ROADMAP's tier-1 verify command, and it
    # pins numpy and scipy to the versions the newest BENCH_<n>.json ran on;
    # its benchmark smoke runs, untraced and traced, in bash (so with
    # pipefail), fail unless every workload runs and the run's last line says
    # correct; its token only reads, and its last step fails unless the runs
    # left the checkout clean
    root = README.parent
    workflow = (root / ".github" / "workflows" / "tests.yml").read_text()
    verify = re.search(r"^\*\*Tier-1 verify:\*\* `(.+)`$",
                       (root / "ROADMAP.md").read_text(), flags=re.M).group(1)
    steps = dict(re.findall(r"- name: (.+)\n +run: (.+)", workflow))
    assert steps["Tier-1 tests"] == verify
    smoke = re.findall(r"- name: (.+ smoke run)\n +shell: (.+)\n(?: +#.*\n)* +run: \|\n +(.+)\n",
                       workflow)
    assert smoke == [(f"{name} smoke run", "bash",
                      f"python bench/run.py --workload all --seconds 1 --trace {trace}"
                      " | tail -n 1 | grep -F '\"correct\": true'")
                     for name, trace in (("Benchmark", 0), ("Traced benchmark", 1))]
    assert re.search(r"^permissions:\n +contents: read\n(?!  )", workflow, flags=re.M)
    assert list(steps)[-1] == "Clean checkout"
    assert steps["Clean checkout"].startswith('test -z "$(git status --porcelain)"')
    newest = max(root.glob("BENCH_*.json"), key=lambda path: int(path.stem.split("_")[1]))
    machine = json.loads(newest.read_text())["machine"]
    for package in ("numpy", "scipy"):
        pinned = re.search(rf"\b{package}==(\S+)", workflow).group(1)
        assert re.search(rf"\b{package} (\d+(?:\.\d+)*)", machine).group(1) == pinned

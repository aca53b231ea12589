"""Time one set-up of a workload in a fresh interpreter.

    python3 bench/setup_probe.py WORKLOAD INPUTS_JSON OUT_DIR

The clock starts before numpy or levelgeo is imported.  For a CLI workload
the probe runs the workload's own argv through ``levelgeo.cli.main`` with
``harness.run`` and ``harness.run_planar`` replaced by a stub that stops the
command at its first call: the time covers importing, argument parsing and
whatever the command builds before it iterates (for a point cloud: parsing
the file, removing duplicates, building the k-d tree; the init).  For the
library workload it is ``Workload.setup``.  Prints {"setup_s": seconds} as
its last line, with numpy_import_s, the time ``import numpy`` took in
it: the benchmark's gauge of how fast the machine ran this kind of work.
"""

import contextlib
import io
import json
import sys
import time
from pathlib import Path


class SetupDone(BaseException):
    """Raised by the stub; a BaseException, so levelgeo's handlers let it by."""


def cli_setup_end(workload, inputs: dict, out: Path) -> float:
    """perf_counter at the command's first solver call."""
    import levelgeo.cli
    import levelgeo.harness

    first = []

    def stop(*args, **kwargs):
        first.append(time.perf_counter())
        raise SetupDone

    levelgeo.harness.run = levelgeo.harness.run_planar = stop
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            levelgeo.cli.main(workload.argv(inputs, out))
    except SetupDone:
        pass
    if not first:
        raise RuntimeError(f"levelgeo {workload.name} ended without calling the solver")
    return first[0]


def main() -> None:
    start = time.perf_counter()
    import numpy  # noqa: F401  (first, so that levelgeo cannot affect its time)

    numpy_import_s = time.perf_counter() - start
    name, inputs_path, out = sys.argv[1], Path(sys.argv[2]), Path(sys.argv[3])
    here = Path(__file__).resolve().parent
    sys.path.insert(0, str(here.parent / "src"))
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    inputs = json.loads(inputs_path.read_text())
    if workload.cli:
        end = cli_setup_end(workload, inputs, out)
    else:
        workload.setup(inputs)
        end = time.perf_counter()
    print(json.dumps({"setup_s": end - start, "numpy_import_s": numpy_import_s}))


if __name__ == "__main__":
    main()

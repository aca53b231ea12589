"""Record the final numbers the benchmark compares each run with.

    python3 bench/make_reference.py

Runs each workload once per input seed 0..REFERENCE_SEEDS-1 (once in all for
a workload whose numbers do not depend on the seed), through the same
attempt() and verify() as bench/run.py, and writes bench/reference.json.  Run
it only at a commit whose numbers are the reference; the benchmark then flags
any later commit whose numbers move by more than its REFERENCE_RTOL.
"""

import json
import sys
import tempfile
from pathlib import Path

from run import HERE, REFERENCE_SEEDS, Tally, attempt, verify

sys.path.insert(0, str(HERE.parent / "src"))

from workloads import WORKLOADS  # noqa: E402


def reference_numbers(workload, seed: int, work: Path) -> dict:
    inputs = workload.make_inputs(seed, work)
    tally = Tally()
    attempt(workload, workload.setup(inputs), inputs, work / "out", tally)
    verify(workload, inputs, tally, reference=None)
    if tally.failed:
        raise RuntimeError(f"{workload.name} seed {seed} failed its checks")
    return {key: tally.first.numbers[key] for key in workload.reference_keys}


def main() -> None:
    table = {}
    work_root = HERE / ".work"
    work_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_root) as tmp:
        for workload in WORKLOADS.values():
            if workload.seed_dependent:
                table[workload.name] = {
                    str(seed): reference_numbers(workload, seed, Path(tmp))
                    for seed in range(REFERENCE_SEEDS)}
            else:
                table[workload.name] = reference_numbers(workload, 0, Path(tmp))
            print(f"{workload.name}: done", flush=True)
    (HERE / "reference.json").write_text(json.dumps(table, indent=1) + "\n")


if __name__ == "__main__":
    main()

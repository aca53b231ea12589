#!/usr/bin/env python3
"""Benchmark of levelgeo: end-to-end metrics, or per-layer metrics of a traced run.

Run from the repository root:

    python3 bench/run.py --workload sphere-antipodal --seed 1 --seconds 22 --trace 0

--workload is one of sphere-antipodal, cloud-run, sphere-pairs,
planar-ergodic, or ``all`` to run each in turn in this process.  The seed
picks one of REFERENCE_SEEDS input sets, each with its reference numbers
from the seed commit; --seconds is how long the timed repeats run after set-up
and one warm-up.  --trace 0 reports the end-to-end metrics; --trace 1 runs
repeats with and without tracing in turn and reports the per-layer metrics.

Output: one line per metric with its unit, a provenance line, and as the
last line one JSON object with the keys correct, attempted, failed and
metrics.  levelgeo is imported from src/ of the checkout this file sits in;
without it the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import os

# One thread of work: no BLAS thread pool may run beside the interpreter.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from metrics import (END_TO_END, NUMPY_IMPORT_REF_S, PER_LAYER, UNITS,  # noqa: E402
                     Pace, error_rate, median_by_key, upper_percentile)
from tracing import Tracer, layer_metrics, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 9
#: the inputs come in this many sets, and --seed picks one (seed modulo the
#: count); reference.json holds the seed commit's numbers for each
REFERENCE_SEEDS = 100
#: relative tolerance against the numbers recorded at the seed commit; a
#: reordered floating-point sum may change last bits, not these digits
REFERENCE_RTOL = 1e-6


class Tally:
    """Operations attempted and failed, and the first good outcome with the
    directory its artifacts were moved to."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.first = None
        self.first_dir = None


def compare(value, ref, path="") -> list[str]:
    if isinstance(ref, list):
        if not isinstance(value, list) or len(value) != len(ref):
            return [f"{path}: {value!r} != reference {ref!r}"]
        return [e for i, (v, r) in enumerate(zip(value, ref))
                for e in compare(v, r, f"{path}[{i}]")]
    if abs(value - ref) > REFERENCE_RTOL * abs(ref) + 1e-15:
        return [f"{path}: {value!r} differs from the reference {ref!r}"]
    return []


def reference_entry(workload, input_seed: int) -> dict:
    """The seed commit's numbers for these inputs; {} if there are none, which
    the comparison then reports."""
    table = json.loads((HERE / "reference.json").read_text()).get(workload.name, {})
    return table.get(str(input_seed), {}) if workload.seed_dependent else table


def fail(workload, tally: Tally, errors: list[str]) -> None:
    tally.failed += 1
    print(f"{workload.name}: operation failed: " + "; ".join(errors), file=sys.stderr)


def attempt(workload, ctx, inputs, out: Path, tally: Tally):
    """One checked operation; returns (wall seconds, outcome or None).  The
    first good one's artifacts are kept for verify(); later ones must match
    them byte for byte."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    tally.attempted += 1
    start = time.perf_counter()
    try:
        raw = workload.operate(ctx, inputs, out)
        wall = time.perf_counter() - start
        outcome = workload.outcome(raw, inputs, out)
        errors = workload.check(outcome, inputs, out, deep=False)
        if tally.first is not None and outcome.digest != tally.first.digest:
            errors.append("outputs differ from the first repeat of this run")
    except (Exception, SystemExit):
        wall = time.perf_counter() - start
        errors = [traceback.format_exc()]
    if errors:
        fail(workload, tally, errors)
        return wall, None
    if tally.first is None:
        tally.first = outcome
        tally.first_dir = out.with_name(out.name + "-first")
        shutil.rmtree(tally.first_dir, ignore_errors=True)
        out.rename(tally.first_dir)
    return wall, outcome


def verify(workload, inputs, tally: Tally, reference: dict | None) -> list[str]:
    """The expensive checks of the first good operation, and its numbers
    against the reference (None skips that, to record it).  Run after the
    timed repeats, so that they neither slow them nor raise peak memory; a
    problem counts that operation as failed."""
    if tally.first is None:
        return []
    numbers = tally.first.numbers
    try:
        errors = workload.check(tally.first, inputs, tally.first_dir, deep=True)
        if reference is not None:
            errors += [e for key in workload.reference_keys
                       for e in (compare(numbers[key], reference[key], key)
                                 if key in reference
                                 else [f"{key}: no reference number"])]
    except Exception:
        errors = [traceback.format_exc()]
    if errors:
        fail(workload, tally, errors)
    return errors


def measure_setup(workload, inputs_path: Path, out: Path) -> list[tuple[float, float]]:
    """(seconds, slowdown factor) of set-ups, each in a fresh interpreter so
    the import is paid again.  The factor is the probe's own numpy import
    time over NUMPY_IMPORT_REF_S: start-up work slows down with the host's
    load in another way than the numpy kernel of Pace does."""
    samples = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload.name,
             str(inputs_path), str(out)],
            capture_output=True, text=True, timeout=120, check=True)
        probe = json.loads(done.stdout.splitlines()[-1])
        samples.append((probe["setup_s"], probe["numpy_import_s"] / NUMPY_IMPORT_REF_S))
    return samples


def run_workload(workload, seed: int, seconds: float, traced: bool) -> dict:
    work = HERE / ".work" / f"{workload.name}-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    input_seed = seed % REFERENCE_SEEDS
    inputs = workload.make_inputs(input_seed, work)
    inputs_path = work / "inputs.json"
    inputs_path.write_text(json.dumps(inputs))
    setup = [] if traced else measure_setup(workload, inputs_path, work / "probe")

    ctx = workload.setup(inputs)
    out = work / "out"
    tally = Tally()
    attempt(workload, ctx, inputs, out, tally)  # warm-up, checked, not timed

    # good operations: (wall, slowdown factor, outcome), traced ones with
    # their op id in front
    untraced, traced_ops = [], []
    tracer = Tracer() if traced else None
    surface_class = None
    if traced and workload.surface_class:
        import levelgeo.levelset
        surface_class = getattr(levelgeo.levelset, workload.surface_class)
    pace = Pace()
    deadline = time.perf_counter() + seconds
    while True:
        cycle_start = time.perf_counter()
        op = tally.attempted
        trace_this = traced and len(traced_ops) <= len(untraced)
        if trace_this:
            tracer.op = op
            tracer.install(surface_class)
        try:
            wall, outcome = attempt(workload, ctx, inputs, out, tally)
        finally:
            if trace_this:
                tracer.close()
        factor = pace.after(wall)
        if outcome is not None and trace_this:
            traced_ops.append((op, wall, factor, outcome))
        elif outcome is not None:
            untraced.append((wall, factor, outcome))
        # Stop when another repeat would end past the deadline, so that a run
        # lasts --seconds however long one repeat takes.
        now = time.perf_counter()
        if now + (now - cycle_start) > deadline:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    verify(workload, inputs, tally, reference_entry(workload, input_seed))

    result = {"workload": workload.name, "seed": seed, "traced": traced,
              "attempted": tally.attempted, "failed": tally.failed}
    if not untraced or (traced and not traced_ops):
        result["metrics"] = None
        return result
    scaled = statistics.median(w / f for w, f, _ in untraced)
    if traced:
        spans = tracer.spans
        own = self_times(spans)
        per_op = []
        for op, op_wall, _, outcome in traced_ops:
            row = layer_metrics(spans, own, op, op_wall, outcome.requested, workload.m)
            row["schemes.iters_to_tol"] = outcome.numbers.get("iters_to_tol", 0)
            row["harness.artifact_bytes"] = outcome.artifact_bytes
            per_op.append(row)
        values = median_by_key(per_op)
        values["trace.overhead_ratio"] = (
            statistics.median(w / f for _, w, f, _ in traced_ops) / scaled - 1.0)
        tracer.write_csv(work / "spans.csv")
        result["spans_file"] = str((work / "spans.csv").relative_to(ROOT))
        result["traced_ops"] = len(traced_ops)
        names = [name for name, *_ in PER_LAYER]
    else:
        values = {
            "setup_s": statistics.median(s / f for s, f in setup),
            "wall_s": scaled,
            "iters_per_s": statistics.median(o.requested * f / w for w, f, o in untraced),
            "peak_rss_mb": peak_rss_mb,
        }
        names = [name for name, *_ in END_TO_END]
        result["extra"] = workload.report(tally.first, scaled)
        result["setup_raw"] = statistics.median(s for s, _ in setup)
    if sorted(values) != sorted(names):
        raise RuntimeError(f"metric names {sorted(values)} != declared {sorted(names)}")
    result["metrics"] = {n: {"value": float(values[n]), "unit": UNITS[n]} for n in names}
    result["walls"] = [w for w, _, _ in untraced]
    result["factors"] = [f for _, f, _ in untraced]
    return result


def print_report(r: dict) -> None:
    print(f"== {r['workload']}  seed {r['seed']}  "
          f"{'traced' if r['traced'] else 'untraced'}")
    if r["metrics"] is None:
        print("  no operation succeeded")
        return
    for name, m in r["metrics"].items():
        print(f"  {name:<36} {m['value']:<14.6g} {m['unit']}")
    for name, (value, unit) in r.get("extra", {}).items():
        print(f"  {name:<36} {value:<14.6g} {unit}")
    print(f"  {'error_rate':<36} {error_rate(r['failed'], r['attempted']):<14.6g} 1"
          f"   ({r['failed']} failed of {r['attempted']} attempted, warm-up included)")
    walls = r["walls"]
    upper = upper_percentile(walls)
    spread = f", p{upper[0]:.0f} {upper[1]:.6g} s" if upper else ""
    print(f"  untraced operations: {len(walls)}, raw wall median "
          f"{statistics.median(walls):.6g} s{spread}, slowdown factor median "
          f"{statistics.median(r['factors']):.4g}")
    if "setup_raw" in r:
        print(f"  raw setup median {r['setup_raw']:.6g} s")
    if r["traced"]:
        print(f"  traced operations: {r['traced_ops']}, spans in {r['spans_file']}")


def provenance(seed: int, traced: bool) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or commit
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "levelgeo").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"nproc": os.cpu_count(), "pinned_to_cpus": sorted(os.sched_getaffinity(0)),
            "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "git_commit": commit,
            "source_sha256": source.hexdigest(), "seed": seed, "traced": traced}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "levelgeo" / "__init__.py").is_file():
        print(f"error: no levelgeo sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import levelgeo

    if Path(levelgeo.__file__).resolve().parent != ROOT / "src" / "levelgeo":
        print(f"error: imported levelgeo from {levelgeo.__file__}", file=sys.stderr)
        return 2

    # One core: the harness runs each solve in a worker thread, and on
    # another core it saw other contention than the calibration (pace) did.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        result = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        print_report(result)
        results.append(result)
    print(json.dumps({"provenance": provenance(args.seed, bool(args.trace)),
                      "workloads": [{k: r[k] for k in ("workload", "attempted", "failed")}
                                    for r in results]}))

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    if any(r["metrics"] is None for r in results):
        print("error: a workload had no successful operation", file=sys.stderr)
        return 1
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        # Peak memory is the process's peak so far, so in this form it is
        # only exact for the first workload.
        metrics = {f"{r['workload']}.{k}": v for r in results
                   for k, v in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

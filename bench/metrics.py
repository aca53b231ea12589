"""The benchmark's metrics, and the small arithmetic shared by their reports.

BENCHMARK.json at the repository root lists the same metrics; a test keeps
the two in step.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: bound: share of the parent's median by which a metric may worsen
END_TO_END = (
    # name, unit, better, bound, meaning
    ("setup_s", "s", "lower", 0.25,
     "import levelgeo, build the surface and the init; median of 9 fresh "
     "processes, each scaled by its own numpy import time"),
    ("wall_s", "s", "lower", 0.25,
     "median wall time of one operation, scaled to the reference speed"),
    ("iters_per_s", "1/s", "higher", 0.25,
     "median of requested iterations per scaled wall second; repeats the "
     "program chooses do not count"),
    ("peak_rss_mb", "MB", "lower", 0.1, "peak resident memory of the process"),
)

PER_LAYER = (
    # name, unit, better
    ("levelset.evals_per_iter", "count", "lower"),
    ("levelset.value.us_per_call", "us", "lower"),
    ("levelset.grad.us_per_call", "us", "lower"),
    ("levelset.self_s", "s", "lower"),
    ("levelset.share", "1", "lower"),
    ("levelset.build_s", "s", "lower"),
    ("schemes.us_per_iter", "us", "lower"),
    ("schemes.node_updates_per_s", "1/s", "higher"),
    ("schemes.iters_to_tol", "count", "lower"),
    ("schemes.runs", "count", "lower"),
    ("curve.curve_length.calls_per_iter", "count", "lower"),
    ("curve.self_s", "s", "lower"),
    ("diagnostics.trace_row.calls", "count", "lower"),
    ("diagnostics.trace_row.us_per_call", "us", "lower"),
    ("diagnostics.self_s", "s", "lower"),
    ("diagnostics.share", "1", "lower"),
    ("diagnostics.csv_write_s", "s", "lower"),
    ("harness.artifact_bytes", "bytes", "lower"),
    ("planar.solve.calls", "count", "lower"),
    ("planar.solve.us_per_call", "us", "lower"),
    ("planar.self_s", "s", "lower"),
    ("planar.share", "1", "lower"),
    ("harness.executed_iters", "count", "lower"),
    ("harness.useful_iter_ratio", "1", "higher"),
    ("harness.self_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.overhead_ratio", "1", "lower"),
    ("trace.unattributed_share", "1", "lower"),
)

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def error_rate(failed: int, attempted: int) -> float:
    """Failed operations over attempted ones."""
    if attempted < 1:
        raise ValueError("no operation was attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"{failed} failed out of {attempted} attempted")
    return failed / attempted


def upper_percentile(samples) -> tuple[float, float] | None:
    """The highest percentile with at least ten samples above it, as
    (percent, value); None for ten samples or fewer."""
    n = len(samples)
    if n <= 10:
        return None
    return 100.0 * (n - 10) / n, sorted(samples)[n - 11]


def median_by_key(rows: list[dict]) -> dict:
    """Per-key median over dicts that share their keys."""
    return {k: statistics.median(row[k] for row in rows) for k in rows[0]}


# Other tenants of the host slow this machine by up to 1.7x, in episodes
# from a fraction of a second to minutes.  Raw medians of 20-second runs
# moved by 60% between runs; so every timed operation is followed by a
# fixed numpy kernel, and its time is scaled by how slow the kernel ran
# around it.  The kernel does the kind of work levelgeo does: short numpy
# calls on (100, 3) arrays driven from Python.

#: seconds per calibration step on a quiet 2-vCPU Intel Xeon VM; scaled
#: times read as if the machine ran at that speed
CALIBRATION_STEP_S = 7.2e-6
#: calibration after each operation: this share of its wall time, at least
#: CALIBRATION_MIN_S
CALIBRATION_SHARE = 0.25
CALIBRATION_MIN_S = 0.05


#: seconds ``import numpy`` takes in a fresh interpreter on that quiet VM; a
#: set-up probe's time is scaled by how much slower its own import of numpy
#: was.  In 36 runs of 9 probes the IQR / median of the run medians fell from
#: 7-12% with Pace's factor to 2-6% with this one.
NUMPY_IMPORT_REF_S = 0.066


def calibration_step_s(seconds: float) -> float:
    """Run the calibration kernel for about `seconds`; seconds per step."""
    x = np.linspace(0.5, 1.5, 300).reshape(100, 3)
    steps = 0
    start = time.perf_counter()
    while True:
        for _ in range(20):
            norm = np.sqrt(np.einsum("ij,ij->i", x, x))
            x = x + 1e-9 * (x / norm[:, None])
        steps += 20
        elapsed = time.perf_counter() - start
        if elapsed >= seconds:
            return elapsed / steps


class Pace:
    """How slow the machine runs around each timed operation."""

    def __init__(self):
        self.last = calibration_step_s(CALIBRATION_MIN_S)

    def after(self, wall: float) -> float:
        """Calibrate after an operation of `wall` seconds; returns its
        slowdown factor, the mean of the calibrations on either side of it
        over the reference step time."""
        now = calibration_step_s(max(CALIBRATION_MIN_S, CALIBRATION_SHARE * wall))
        factor = 0.5 * (self.last + now) / CALIBRATION_STEP_S
        self.last = now
        return factor

"""The repository benchmark: one command, three workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cold-flow --seed 0 --seconds 20 \\
        --trace 0

``--workload`` is ``cold-flow``, ``serve-resubmit`` or
``checker-search`` (see ``perfbench/README.md``).  ``--trace 0``
measures the end-to-end metrics; ``--trace 1`` runs the workload once
untraced and once with span wrappers installed, prints the per-layer
metrics with the tracing overhead, and writes the spans as Chrome
trace-event JSON (``--trace-out``).  The last stdout line is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  A
wrong output exits 1 without that line; a checkout without ``src/repro``
exits 2.
"""

from __future__ import annotations

import argparse
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (HERE, SETUP_REPS, SRC, WORKLOADS,  # noqa: E402
                    BenchmarkError, RssSampler, calibrate, median,
                    metric_units, result_line, stop_children)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", type=Path, default=None,
                        help="Chrome trace file of a --trace 1 run "
                             "(default perfbench/out/trace-<workload>-"
                             "<seed>.json)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def _workload(opts, manifest):
    if opts.workload == "cold-flow":
        from cold_flow import ColdFlow
        return ColdFlow(opts, manifest)
    if opts.workload == "serve-resubmit":
        from serve_resubmit import ServeResubmit
        return ServeResubmit(opts, manifest)
    from checker_search import CheckerSearch
    return CheckerSearch(opts, manifest)


#: Imports a user of the three entry points pays, timed in a child.
_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); "
    "import repro.ced, repro.serve, repro.search; "
    "print(time.perf_counter() - t)")


def import_seconds() -> float:
    """Median over fresh interpreters of importing the program."""
    times = []
    for _ in range(SETUP_REPS):
        proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE,
                               str(SRC)], capture_output=True, text=True,
                              timeout=120, check=True)
        times.append(float(proc.stdout.strip()))
    return median(times)


def run(opts) -> tuple[str, list[str]]:
    """Set up, measure and check; returns ``(result line, report)``."""
    sys.path.insert(0, str(SRC))
    from inputs import load_manifest
    import_s = import_seconds()
    manifest = load_manifest()
    calibration_s = calibrate()

    workload = _workload(opts, manifest)
    trace_mode = bool(opts.trace)
    setup_times = []
    try:
        for rep in range(SETUP_REPS):
            start = time.perf_counter()
            workload.setup(trace_mode)
            setup_times.append(time.perf_counter() - start)
            if rep < SETUP_REPS - 1:
                workload.teardown()
        setup_s = import_s + median(setup_times)
        report = [f"workload {opts.workload} seed {opts.seed} seconds "
                  f"{opts.seconds:g} trace {opts.trace}",
                  f"calibration_s {calibration_s:.6f} (fixed kernel, no "
                  f"repro import; compare machines with it)",
                  f"setup: import {import_s:.3f} s (median) + median of "
                  f"{[round(t, 3) for t in setup_times]} s"]
        if not trace_mode:
            with RssSampler() as rss:
                outcome = workload.measure()
            workload.verify(outcome)
        else:
            values, outcome = _traced(opts, workload, report)
    finally:
        # Stops every worker this run started, also when it failed.
        workload.teardown()
    if not trace_mode:
        values = dict(outcome.values, setup_s=setup_s,
                      peak_rss_mb=rss.peak_mb)
        report.append(f"peak_rss_mb: largest of {rss.samples} samples of "
                      f"the process tree's resident memory in the window")
    report += outcome.report
    line = result_line(correct=True, attempted=outcome.attempted,
                       failed=outcome.failed, values=values,
                       trace=trace_mode)
    if not trace_mode:
        units = metric_units(False)
        report.append("end-to-end metrics:")
        report += [f"  {n:24s} {values[n]:14.6g} {u}"
                   for n, u in units.items()]
    return line, report


def _traced(opts, workload, report):
    """Untraced reference, then the same window traced."""
    from layers import format_table, per_layer_metrics
    from tracing import Tracer
    reference = workload.measure(trace_mode=True)
    workload.verify(reference)
    workload.teardown()
    workload.setup(True)
    tracer = Tracer()
    with tracer:
        outcome = workload.measure(trace_mode=True)
    workload.verify(outcome)
    overhead = outcome.work_s / reference.work_s - 1.0
    values = per_layer_metrics(outcome.layers, tracer, overhead)
    out = opts.trace_out or \
        HERE / "out" / f"trace-{opts.workload}-{opts.seed}.json"
    tracer.write_chrome(out, {"workload": opts.workload,
                              "seed": opts.seed,
                              "overhead_frac": overhead})
    report += format_table(values, metric_units(True), tracer)
    report.append(f"tracing overhead {100 * overhead:.1f} % "
                  f"({reference.work_s:.3f} s untraced, "
                  f"{outcome.work_s:.3f} s traced); spans: {out}")
    return values, outcome


def main(argv=None) -> int:
    opts = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {SRC / 'repro'} is "
              f"missing", file=sys.stderr)
        return 2
    # Everything the workloads write goes to a temp dir in the checkout,
    # removed on exit.
    scratch = HERE / "out"
    scratch.mkdir(exist_ok=True)
    opts.tmp = tempfile.mkdtemp(prefix="run-", dir=scratch)
    # A SIGTERM unwinds through the clean-up below like an error.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    os.environ["TMPDIR"] = opts.tmp
    tempfile.tempdir = opts.tmp
    try:
        line, report = run(opts)
    except BenchmarkError as exc:
        print(f"perfbench: FAILED: {exc}", file=sys.stderr)
        return 1
    except Exception:
        traceback.print_exc()
        print("perfbench: FAILED: the workload raised", file=sys.stderr)
        return 1
    finally:
        # No process of this run may outlive it, on any path out.
        left = stop_children()
        tempfile.tempdir = None
        shutil.rmtree(opts.tmp, ignore_errors=True)
    if left:
        print(f"perfbench: FAILED: processes {left} survived SIGKILL",
              file=sys.stderr)
        return 1
    print("\n".join(report))
    print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Perf-regression gate over BENCH_flow.json.

Re-times the gate circuits on the current machine and fails if a gated
flow time regressed more than ``--tolerance`` (default 20%) against the
committed baseline: the cold (uncached) flow on i10, dalu and frg2, and
the warm (cached) flow on i10 (see ``GATE_TIMES``).  Raw seconds are not
comparable across machines, so every allowance is scaled by the ratio
of the two runs' ``meta.calibration_seconds`` (a fixed pure-Python
kernel that does not import ``repro``; see ``_calibration.py``)::

    scale   = fresh_calibration / baseline_calibration
    allowed = baseline_seconds * scale * (1 + tolerance)

A machine twice as slow as the baseline box gets twice the budget; a
regressed warm or cold path fails on both.  The scale never depends on
a flow time, so a slower (or faster) cold path cannot move any
allowance.

The gate also enforces a *static-discharge coverage floor* on the
fresh uncached run (see ``MIN_STATIC_DISCHARGE``): the static rung of
the proof ladder must keep resolving at least its floored share of PO
implication checks, so silently disabling or weakening the analyzer
fails CI even when timings look fine.

Run as a script (CI invokes it after the quick bench)::

    python benchmarks/bench_flowperf.py --circuits i10 dalu frg2 \
        --out /tmp/f.json
    python benchmarks/check_flow_regression.py --fresh /tmp/f.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BASELINE = ROOT / "BENCH_flow.json"

#: Timed modes: report key -> label.
COLD = {"uncached_seconds": "uncached"}
WARM = {"cached_seconds": "cached"}

#: Circuits the gate watches, and the modes it checks on each.  Warm
#: flows take well under 0.1 s, so one warm gate is enough; a circuit
#: named on the command line but not here gets both modes.
GATE_TIMES = {"i10": {**WARM, **COLD}, "dalu": COLD, "frg2": COLD}
GATE_CIRCUITS = tuple(GATE_TIMES)

#: Minimum fraction of PO implication checks the static-discharge rung
#: must resolve in the *uncached* flow, per gated circuit.  This is a
#: coverage floor, not a perf number: if a change quietly disables the
#: static rung (or weakens its relational pass), the rate collapses and
#: the gate catches it even though wall-clock barely moves.
MIN_STATIC_DISCHARGE = {"i10": 0.15}


def machine_scale(baseline: dict, fresh: dict) -> float | None:
    """Fresh/baseline calibration-kernel ratio, or None if either run
    predates the calibration record."""
    base = baseline.get("meta", {}).get("calibration_seconds")
    now = fresh.get("meta", {}).get("calibration_seconds")
    if not base or not now:
        return None
    return now / base


def check(baseline: dict, fresh: dict, tolerance: float,
          circuits=GATE_CIRCUITS) -> list[str]:
    """Return a list of failure messages (empty = gate passes)."""
    scale = machine_scale(baseline, fresh)
    if scale is None:
        return ["meta.calibration_seconds missing from the baseline or "
                "the fresh report (regenerate with current "
                "bench_flowperf.py)"]
    failures = []
    for name in circuits:
        base = baseline["circuits"].get(name)
        now = fresh["circuits"].get(name)
        if base is None:
            failures.append(f"{name}: missing from baseline")
            continue
        if now is None:
            failures.append(f"{name}: missing from fresh report")
            continue
        for key, label in GATE_TIMES.get(name, {**WARM, **COLD}).items():
            allowed = base[key] * scale * (1.0 + tolerance)
            if now[key] > allowed:
                failures.append(
                    f"{name}: {label} {now[key]:.3f}s exceeds "
                    f"allowed {allowed:.3f}s (baseline "
                    f"{base[key]:.3f}s, machine scale "
                    f"x{scale:.2f}, tolerance {tolerance:.0%})")
        floor = MIN_STATIC_DISCHARGE.get(name)
        if floor is not None:
            static = now.get("static_discharge")
            if static is None:
                failures.append(
                    f"{name}: fresh report has no static_discharge "
                    f"record (regenerate with current "
                    f"bench_flowperf.py)")
            elif static["rate"] < floor:
                failures.append(
                    f"{name}: static discharge rate "
                    f"{static['rate']:.1%} "
                    f"({static['discharged']}/{static['attempts']} PO "
                    f"implications) below the {floor:.0%} floor")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", type=Path, default=BASELINE,
                        help=f"committed baseline (default {BASELINE})")
    parser.add_argument("--fresh", type=Path, required=True,
                        help="freshly generated BENCH_flow.json")
    parser.add_argument("--tolerance", type=float, default=0.20,
                        help="allowed relative slowdown (default 0.20)")
    parser.add_argument("--circuits", nargs="*",
                        default=list(GATE_CIRCUITS),
                        help="circuits to gate on")
    args = parser.parse_args(argv)

    baseline = json.loads(args.baseline.read_text())
    fresh = json.loads(args.fresh.read_text())
    failures = check(baseline, fresh, args.tolerance, args.circuits)
    for message in failures:
        print(f"REGRESSION {message}", file=sys.stderr)
    if not failures:
        names = ", ".join(args.circuits)
        print(f"perf gate passed for {names} "
              f"(tolerance {args.tolerance:.0%})")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())

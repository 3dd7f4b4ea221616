"""Static-analysis benchmark: fixpoint costs and discharge impact.

Measures, per bundled benchmark circuit:

* **analyze** — wall time of a cold :func:`repro.analyze.analyze_network`
  pass over the mapped original, plus the per-analysis fixpoint costs
  (iterations, transfer applications, seconds) the engine reports
  about itself, and the headline facts it found (constants, dead
  cones, SDC cubes, structural duplicates).
* **static_discharge** — the share of per-PO implication checks
  (paper Sec 2.2) the static rung resolves during a real *uncached*
  CED flow, before any BDD/SAT checker is built.  This is the same
  counter :mod:`benchmarks.check_flow_regression` gates on for i10.
* **flow_delta** — uncached flow wall time with the static rung on vs
  off: the minimum of ``REPS`` runs per side, the two
  sides alternating and the leading side swapping every rep, after
  one throwaway warm-up flow.  Every run's result is asserted
  bit-identical to the first (``summary()`` equality): the rung must
  change *where proofs come from*, never what gets synthesized.

Run as a script (no PYTHONPATH needed)::

    python benchmarks/bench_analyze.py            # full suite
    python benchmarks/bench_analyze.py --quick    # CI smoke run
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from repro.analyze import NetworkAnalyses, analyze_network
from repro.approx import ApproxConfig
from repro.bdd import bdd_engine
from repro.bench.suite import TABLE2_SPECS, load_benchmark, tiny_benchmark
from repro.ced.flow import run_ced_flow
from repro.flow import AnalysisContext

DEFAULT_OUT = ROOT / "BENCH_analyze.json"

#: Flow parameters matching bench_flowperf (the identity-check config).
FLOW_KW = dict(reliability_words=2, coverage_words=2, seed=2008)

#: Timed flows per side of the static on/off A/B (min-of).
REPS = 3


def _load(name: str):
    return tiny_benchmark() if name == "tiny" else load_benchmark(name)


def _run_flow(name: str, static: bool):
    config = ApproxConfig(seed=FLOW_KW["seed"],
                          static_discharge=static)
    t0 = time.perf_counter()
    flow = run_ced_flow(_load(name), config=config,
                        ctx=AnalysisContext(enabled=False), **FLOW_KW)
    return time.perf_counter() - t0, flow


def _flow_delta(name: str):
    """Alternating on/off A/B: min seconds per side and an on-flow."""
    best = {True: None, False: None}
    flow_on = reference = None
    for rep in range(REPS):
        for static in ((True, False) if rep % 2 == 0 else (False, True)):
            seconds, flow = _run_flow(name, static)
            if reference is None:
                reference = flow.summary()
            elif flow.summary() != reference:
                raise AssertionError(
                    f"{name}: flow summary changed with static "
                    f"discharge {'on' if static else 'off'} — the "
                    f"static rung must be behavior-neutral")
            if static:
                flow_on = flow
            if best[static] is None or seconds < best[static]:
                best[static] = seconds
    return best[True], best[False], flow_on


def bench_circuit(name: str) -> dict:
    network = _load(name)

    t0 = time.perf_counter()
    bundle = NetworkAnalyses(network)
    doc = analyze_network(network, bundle)
    analyze_seconds = time.perf_counter() - t0

    t_on, t_off, flow_on = _flow_delta(name)

    static = flow_on.trace.cache_totals().get("static", {})
    attempts = static.get("hits", 0) + static.get("misses", 0)
    return {
        "nodes": int(network.num_nodes),
        "analyze_seconds": round(analyze_seconds, 4),
        "fixpoint": doc["fixpoint"],
        "facts": {
            "constants": doc["constants"]["count"],
            "dead_cones": len(doc["dead_cones"]),
            "sdc_cubes": doc["sdc_cubes"]["cubes"],
            "structural_duplicates": len(doc["structural_duplicates"]),
            "unread_fanin_positions": doc["unread_fanins"]["positions"],
        },
        "static_discharge": {
            "discharged": static.get("hits", 0),
            "attempts": attempts,
            "rate": round(static.get("hits", 0) / attempts, 3)
            if attempts else 0.0,
        },
        "flow_delta": {
            "static_on_seconds": round(t_on, 3),
            "static_off_seconds": round(t_off, 3),
            "speedup": round(t_off / t_on, 2) if t_on else 0.0,
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="small circuits only (CI smoke run)")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT,
                        help=f"output JSON path (default {DEFAULT_OUT})")
    parser.add_argument("--circuits", nargs="*", default=None,
                        help="explicit circuit list (default: suite)")
    args = parser.parse_args(argv)

    if args.circuits:
        names = args.circuits
    elif args.quick:
        names = ["tiny", "cmb", "cordic"]
    else:
        names = ["tiny"] + sorted(
            TABLE2_SPECS, key=lambda n: TABLE2_SPECS[n].target_gates)

    report = {
        "meta": {
            "python": platform.python_version(),
            "bdd_engine": bdd_engine(),
            "quick": bool(args.quick),
            "flow_kw": dict(FLOW_KW),
            "reps": REPS,
            "order": "alternating, leading side swapped every rep",
        },
        "circuits": {},
    }
    _run_flow("cmb", static=True)            # warm-up, not timed
    for name in names:
        entry = bench_circuit(name)
        report["circuits"][name] = entry
        disch = entry["static_discharge"]
        delta = entry["flow_delta"]
        print(f"{name:8s} {entry['nodes']:5d} nodes  "
              f"analyze {entry['analyze_seconds']:7.3f}s  "
              f"discharge {disch['discharged']:5d}/{disch['attempts']:5d} "
              f"({disch['rate']:.0%})  "
              f"flow {delta['static_off_seconds']:.2f}s -> "
              f"{delta['static_on_seconds']:.2f}s")

    args.out.write_text(json.dumps(report, indent=1, sort_keys=True)
                        + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

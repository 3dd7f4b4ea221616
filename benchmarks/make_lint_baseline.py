"""Regenerate the committed lint baseline.

Runs the structural linter over every bundled benchmark circuit and
writes one ``<ruleId> <fingerprint>`` line per finding to
``benchmarks/lint_baseline.txt``.  CI's analyze-smoke job lints the
same circuits against this file and fails on any finding whose stable
fingerprint is not already recorded here — so the baseline freezes the
*known* findings (bundled benchmarks ship with dead cones, unread
fanins, and the like) while letting regressions surface as ``new``.

Regenerate after intentionally changing a lint rule or a benchmark::

    python benchmarks/make_lint_baseline.py
    git add benchmarks/lint_baseline.txt
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from repro.bench.suite import load_benchmark, tiny_benchmark
from repro.lint import lint_network, write_baseline

DEFAULT_OUT = ROOT / "benchmarks" / "lint_baseline.txt"

CIRCUITS = ("tiny", "cmb", "cordic", "term1", "x1", "i2", "frg2",
            "dalu", "i10")


def lint_reports(circuits=CIRCUITS) -> list:
    reports = []
    for name in circuits:
        network = tiny_benchmark() if name == "tiny" \
            else load_benchmark(name)
        report = lint_network(network, circuit=name)
        reports.append(report)
        print(f"{name:8s} {len(report.diagnostics):4d} finding(s)")
    return reports


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT,
                        help=f"output path (default {DEFAULT_OUT})")
    args = parser.parse_args(argv)
    total = write_baseline(lint_reports(), args.out)
    print(f"wrote {args.out} ({total} baselined findings)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

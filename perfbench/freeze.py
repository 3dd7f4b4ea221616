"""Rewrite the frozen seed-0 inputs and their manifest.

Usage (from the repository root)::

    python3 perfbench/freeze.py             # circuits, serve mix, digests
    python3 perfbench/freeze.py --summaries # also re-record flow summaries

Writes ``perfbench/inputs/table2/<circuit>.blif`` (the Table 2 circuits
as ``repro.bench.load_benchmark`` builds them), the serve pool
``perfbench/inputs/serve/*.blif``, and ``inputs/MANIFEST.json`` with the
sha256 of every file, of every request of the seed-0 serve schedule
(edits included) and of each cold-flow summary.  Run it only to change
the workload on purpose: the benchmark refuses inputs that no longer
match their digests.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import SRC, sha256_text  # noqa: E402
import inputs  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--summaries", action="store_true",
                        help="re-run the seed-0 cold flows and record "
                             "their summary digests")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    from repro.bench import load_benchmark
    from repro.network import write_blif

    old = json.loads(inputs.MANIFEST_PATH.read_text()) \
        if inputs.MANIFEST_PATH.exists() else {}
    files: dict[str, str] = {}

    def put(relpath: str, text: str) -> None:
        path = inputs.INPUT_DIR / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
        files[relpath] = sha256_text(text)

    for name in dict.fromkeys(inputs.COLD_CIRCUITS + (inputs.SEARCH_CIRCUIT,)):
        put(f"table2/{name}.blif", write_blif(load_benchmark(name)))
    kinds = inputs.serve_kinds(0, inputs.SERVE_HORIZON_S)
    count = inputs.SERVE_WARM + kinds.count("cold")
    serve_files = []
    for index in range(count):
        rel = f"serve/p{index:03d}.blif"
        put(rel, inputs.small_circuit(0, index))
        serve_files.append(rel)
    manifest = {"files": files, "serve_pool": serve_files,
                "summaries": old.get("summaries", {})}
    _, requests = inputs.serve_mix(0, inputs.SERVE_HORIZON_S, manifest,
                                   check=False)
    manifest["serve_mix"] = [sha256_text(r.blif) for r in requests]
    if args.summaries:
        manifest["summaries"] = _summaries(manifest)
    inputs.MANIFEST_PATH.write_text(json.dumps(manifest, indent=1,
                                               sort_keys=True) + "\n")
    print(f"wrote {len(files)} inputs, {len(requests)} scheduled requests, "
          f"{len(manifest['summaries'])} summaries")
    return 0


def _summaries(manifest: dict) -> dict[str, str]:
    from repro.ced import run_ced_flow
    from repro.network import parse_blif
    from cold_flow import FLOW_SEED, WORDS
    out = {}
    for name, text in inputs.cold_flow_inputs(0, manifest):
        flow = run_ced_flow(parse_blif(text), reliability_words=WORDS,
                            coverage_words=WORDS, seed=FLOW_SEED)
        out[name] = sha256_text(json.dumps(flow.summary(), sort_keys=True))
        print(f"{name}: {flow.summary()}")
    return out


if __name__ == "__main__":
    sys.exit(main())

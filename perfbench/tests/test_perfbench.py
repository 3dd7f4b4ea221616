"""Tests of the benchmark itself (not collected by the repo's tier-1 run).

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from common import RssSampler, load_spec  # noqa: E402
from inputs import (edit_one_literal, isomorphic_variant,  # noqa: E402
                    load_manifest, table2_texts)
from layers import per_layer_metrics  # noqa: E402
from oracle import (check_one_sided, evaluate, exhaustive_vectors,  # noqa
                    input_vectors, random_vectors, read_circuit)

#: Left behind on purpose and ignored by git.
IGNORED_PARTS = {".git", "__pycache__", ".pytest_cache", ".hypothesis"}


def _tree_digest() -> dict[str, str]:
    out = {}
    for path in ROOT.rglob("*"):
        rel = path.relative_to(ROOT)
        if not path.is_file() or IGNORED_PARTS & set(rel.parts) or \
                rel.parts[:2] == ("perfbench", "out"):
            continue
        out[str(rel)] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=600)


# ----------------------------------------------------------------------
# Smoke runs, and the working tree after them
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def smoke_runs():
    before = _tree_digest()
    runs = {w["name"]: _run("--workload", w["name"], "--seed", "1",
                            "--seconds", "1", "--smoke")
            for w in load_spec()["workloads"]}
    return before, runs


@pytest.mark.parametrize("workload", [w["name"] for w
                                      in load_spec()["workloads"]])
def test_smoke_run_prints_every_end_to_end_metric(smoke_runs, workload):
    proc = smoke_runs[1][workload]
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert doc["correct"] is True
    assert doc["attempted"] >= 1 and doc["failed"] == 0
    names = {m["name"]: m["unit"] for m in load_spec()["end_to_end"]}
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == names
    assert all(v["value"] > 0 for v in doc["metrics"].values())


def test_run_leaves_the_working_tree_unchanged(smoke_runs):
    before, _ = smoke_runs
    assert _tree_digest() == before


def test_traced_smoke_run_reports_per_layer_metrics(tmp_path):
    out = tmp_path / "trace.json"
    proc = _run("--workload", "cold-flow", "--seed", "2", "--seconds", "1",
                "--smoke", "--trace", "1", "--trace-out", str(out))
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    names = {m["name"] for m in load_spec()["per_layer"]}
    assert set(doc["metrics"]) == names
    assert doc["metrics"]["flow.pass.synthesize.s"]["value"] > 0
    assert doc["metrics"]["cubes.minimize.calls"]["value"] > 0
    events = json.loads(out.read_text())["traceEvents"]
    assert any(e["name"] == "flow.pass.synthesize" for e in events)


def test_checkout_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("--workload", "cold-flow", "--seed", "0", "--seconds", "1",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# ----------------------------------------------------------------------
# The oracle
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def checker():
    """cordic's flow: a checker that visibly approximates two outputs."""
    from repro.bench import load_benchmark
    from repro.ced import run_ced_flow
    from repro.network import write_blif
    net = load_benchmark("cordic")
    flow = run_ced_flow(net, reliability_words=2, coverage_words=2)
    return (write_blif(net), write_blif(flow.approx_result.approx),
            dict(flow.assembly.directions))


def test_oracle_accepts_the_flow_checker(checker):
    original, approx, directions = checker
    assert check_one_sided(original, approx, directions) == []


def test_oracle_rejects_a_flipped_direction(checker):
    original, approx, directions = checker
    vectors, n_bits = input_vectors(read_circuit(original).inputs, 2048, 0)
    f = evaluate(read_circuit(original), vectors, n_bits)
    g = evaluate(read_circuit(approx), vectors, n_bits)
    differing = [po for po in directions if f[po] != g[po]]
    assert differing, "the checker approximates no output"
    po = differing[0]
    flipped = dict(directions, **{po: 1 - directions[po]})
    problems = check_one_sided(original, approx, flipped)
    assert len(problems) == 1 and po in problems[0]


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def test_variant_is_the_same_circuit():
    text = table2_texts(load_manifest())["x1"]
    variant = isomorphic_variant(text, 7)
    assert variant != text
    a, b = read_circuit(text), read_circuit(variant)
    vectors = random_vectors(a.inputs, 512, 1)
    fa, fb = evaluate(a, vectors, 512), evaluate(b, vectors, 512)
    assert all(fa[po] == fb[po] for po in a.outputs)


def test_exhaustive_vectors_enumerate_every_input_combination():
    vectors = exhaustive_vectors(["a", "b", "c"])
    rows = {tuple((vectors[pi] >> j) & 1 for pi in "abc") for j in range(8)}
    assert len(rows) == 8


def test_edit_changes_exactly_one_literal():
    text = table2_texts(load_manifest())["x1"]
    edited = edit_one_literal(text, random.Random(0))
    diff = [(x, y) for x, y in zip(text.splitlines(), edited.splitlines())
            if x != y]
    assert len(diff) == 1
    assert sum(a != b for a, b in zip(*diff[0])) == 1


def test_frozen_inputs_match_the_generator():
    """A change to repro.bench.generators must be made on purpose."""
    from repro.bench import load_benchmark
    from repro.network import write_blif
    texts = table2_texts(load_manifest())
    assert write_blif(load_benchmark("x1")) == texts["x1"]



# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def test_rss_sampler_counts_a_child_started_in_the_window():
    with RssSampler() as idle:
        pass
    hold = ("import sys, time; b = bytearray(64 << 20); "
            "sys.stdout.write('ready\\n'); sys.stdout.flush(); "
            "time.sleep(0.5)")
    with RssSampler() as busy:
        proc = subprocess.Popen([sys.executable, "-c", hold],
                                stdout=subprocess.PIPE, text=True)
        assert proc.stdout.readline() == "ready\n"
        busy.sample()
        proc.wait()
    assert busy.peak_mb - idle.peak_mb > 50


class _NoSpans:
    """A tracer that saw no call."""

    def __init__(self):
        self.counts = Counter()

    def summary(self):
        return {}

    def pass_breakdown(self):
        return {}

    def total_bdd_nodes(self):
        return 0


def test_discharge_rate_counts_po_and_node_queries():
    cache = {"static": {"hits": 3, "misses": 1},
             "static_node": {"hits": 1, "misses": 5}}
    values = per_layer_metrics({"cache": cache}, _NoSpans(), 0.0)
    assert values["analyze.static.discharge_rate"] == 4 / 10
    assert values["flow.cache.static.hit_rate"] == 3 / 4


#: Starts a spawn-context worker that never ends and, through the
#: queue's semaphore, the resource tracker; stops both and prints what
#: is left with the two pids.
_SPAWNS = """
import json, multiprocessing as mp, sys, time
from multiprocessing import resource_tracker
sys.path.insert(0, sys.argv[1])
from common import stop_children
if __name__ == "__main__":
    ctx = mp.get_context("spawn")
    queue = ctx.Queue()
    worker = ctx.Process(target=time.sleep, args=(600,), daemon=True)
    worker.start()
    tracker = resource_tracker._resource_tracker._pid
    print(json.dumps([stop_children(grace=2.0), tracker, worker.pid]))
"""


def test_stop_children_leaves_no_process(tmp_path):
    script = tmp_path / "spawns.py"
    script.write_text(_SPAWNS)
    proc = subprocess.run([sys.executable, str(script), str(HERE)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    left, tracker, worker = json.loads(proc.stdout)
    assert left == []
    assert not Path(f"/proc/{tracker}").exists()
    assert not Path(f"/proc/{worker}").exists()
    assert "leaked" not in proc.stderr, proc.stderr

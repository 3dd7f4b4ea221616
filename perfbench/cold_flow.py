"""Workload ``cold-flow``: one fresh ``run_ced_flow`` per circuit.

A process runs ``run_ced_flow(net, reliability_words=2,
coverage_words=2, seed=2008)`` on x1, i2, frg2, dalu and i10 in turn,
each with its own default ``AnalysisContext`` and no checkpoint or
proof store.  This is what a fresh sweep or a first serve submission
pays; synthesis does most of the work.

Each pass runs in a fresh child process (``python3
perfbench/cold_flow.py JOB OUT``) after a warm-up flow on a small
circuit, so every pass is equally cold.  A run measures at least
``MIN_PASSES`` passes, more while ``--seconds`` have not gone by, and
each circuit's time is its median over them.  The traced run measures
one pass in-process, so the wrappers see it.
"""

from __future__ import annotations

import gc
import json
import subprocess
import sys
import time
from pathlib import Path

from common import (SRC, BenchmarkError, Outcome, geomean, percentile,
                    sha256_text)
from inputs import cold_flow_inputs, warmup_circuit
from oracle import check_one_sided

WORDS = 2
FLOW_SEED = 2008
#: Fewest passes a run measures.
MIN_PASSES = 1
#: A flow slower than this misses the limit (goodput): about three
#: times the slowest flow measured (i10, 18-21 s on 2 vCPUs).
FLOW_LIMIT_S = 60.0
#: A pass taking longer than this fails the run.
PASS_TIMEOUT_S = 150.0
#: Smoke runs use small circuits that take a second in total.
SMOKE_CIRCUITS = ("cmb", "cordic")


class ColdFlow:
    name = "cold-flow"

    def __init__(self, opts, manifest):
        from repro.network import write_blif
        self.opts = opts
        self.manifest = manifest
        #: Taken now, before a tracer wraps it (see run_pass).
        self.write_blif = write_blif
        self.inputs: list[tuple[str, str]] = []
        #: Flow records measured but not yet checked.
        self.pending: list[dict] = []

    def setup(self, trace_mode: bool = False) -> None:
        from repro.ced import run_ced_flow
        from repro.network import parse_blif
        if self.opts.smoke:
            from repro.bench import load_benchmark
            from repro.network import write_blif
            self.inputs = [(c, write_blif(load_benchmark(c)))
                           for c in SMOKE_CIRCUITS]
        else:
            self.inputs = cold_flow_inputs(self.opts.seed, self.manifest)
        for name, text in self.inputs:
            parse_blif(text, source=name)
        # Warm-up: a small flow loads what the first flow would
        # otherwise load lazily inside its timer.
        run_ced_flow(parse_blif(warmup_circuit(self.manifest)),
                     reliability_words=WORDS, coverage_words=WORDS,
                     seed=FLOW_SEED)

    def teardown(self) -> None:
        self.inputs = []

    def measure(self, trace_mode: bool = False) -> Outcome:
        walls: dict[str, list[float]] = {n: [] for n, _ in self.inputs}
        #: Wall time of each sweep process, spawn to last result.
        sweeps: list[float] = []
        summaries: dict[str, dict] = {}
        layers = _LayerTotals()
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            records = run_pass(self.inputs, self.write_blif) \
                if trace_mode else self._child_pass()
            sweeps.append(time.perf_counter() - t0)
            for rec in records:
                walls[rec["name"]].append(rec["wall_s"])
                summaries[rec["name"]] = rec["summary"]
                layers.add(rec)
            self.pending += records
            if trace_mode or (len(sweeps) >= MIN_PASSES and
                              time.perf_counter() - start
                              >= self.opts.seconds):
                break
        per_circuit = {n: percentile(w, 50) for n, w in walls.items()}
        samples = [w for ws in walls.values() for w in ws]
        values = {
            "flow_s.total": sum(per_circuit.values()),
            "flow_s.geomean": geomean(per_circuit.values()),
            "area_overhead_pct.mean": _mean(
                s["area_overhead_pct"] for s in summaries.values()),
            "ced_coverage_pct.mean": _mean(
                s["ced_coverage_pct"] for s in summaries.values()),
            # What a user starting a fresh sweep waits for: the sweep
            # process from spawn to its last result, start-up included.
            # One sweep per run, so p50 and p95 are the same sample; a
            # single flow's time is too short to average out machine
            # noise (frg2's IQR/median over ten seeds reached 0.22).
            "latency_ms.p50": 1e3 * percentile(sweeps, 50),
            "latency_ms.p95": 1e3 * percentile(sweeps, 95),
            "goodput_rps": sum(w <= FLOW_LIMIT_S for w in samples)
            / sum(sweeps),
            # Checkers synthesized per second of the synthesize pass.
            "candidates_per_s": len(samples) / layers.pass_s["synthesize"],
        }
        report = [f"cold-flow: {len(samples)} flows in {len(sweeps)} "
                  f"pass(es) of {[round(w, 3) for w in sweeps]} s"]
        report += [f"  {n:6s} {1e3 * per_circuit[n]:10.1f} ms "
                   f"{[round(w, 3) for w in walls[n]]}  area "
                   f"{summaries[n]['area_overhead_pct']:6.2f} %  coverage "
                   f"{summaries[n]['ced_coverage_pct']:6.2f} %"
                   for n in walls]
        return Outcome(values=values, attempted=len(samples), failed=0,
                       work_s=sum(samples), layers=layers.metrics(),
                       report=report)

    def _child_pass(self) -> list[dict]:
        """One pass in a fresh process."""
        job = Path(self.opts.tmp) / "cold-pass.json"
        out = Path(self.opts.tmp) / "cold-pass-out.json"
        job.write_text(json.dumps({
            "src": str(SRC), "inputs": self.inputs,
            "warmup": warmup_circuit(self.manifest)}))
        proc = subprocess.run([sys.executable, __file__, str(job), str(out)],
                              capture_output=True, text=True,
                              timeout=PASS_TIMEOUT_S)
        if proc.returncode != 0:
            raise BenchmarkError(f"cold-flow pass exited {proc.returncode}:"
                                 f" {proc.stderr[-2000:]}")
        return json.loads(out.read_text())

    def verify(self, outcome: Outcome) -> None:
        """Oracle: one-sided checker, no false alarm, recorded summary."""
        texts = dict(self.inputs)
        pending, self.pending = self.pending, []
        for rec in pending:
            problems = []
            if rec["false_alarms"]:
                problems.append(f"{rec['false_alarms']} false alarms")
            if not rec["all_correct"]:
                problems.append("synthesis reports an incorrect output")
            problems += check_one_sided(texts[rec["name"]],
                                        rec["approx_blif"],
                                        rec["directions"],
                                        seed=self.opts.seed)
            want = self.manifest["summaries"].get(rec["name"])
            got = sha256_text(json.dumps(rec["summary"], sort_keys=True))
            if not self.opts.smoke and got != want:
                problems.append(f"summary digest {got[:12]} != recorded "
                                f"{str(want)[:12]}: {rec['summary']}")
            if problems:
                raise BenchmarkError(f"cold-flow {rec['name']}: "
                                     + "; ".join(problems))


def run_pass(inputs: list[tuple[str, str]], write_blif) -> list[dict]:
    """Run every circuit once in this process; one record per flow.

    ``write_blif`` is the program's, taken before any tracer was
    installed, so writing the checker for the oracle adds no span.
    """
    from repro.ced import run_ced_flow
    from repro.network import parse_blif
    records = []
    for name, text in inputs:
        net = parse_blif(text, source=name)
        gc.collect()                  # earlier flows' garbage is not ours
        start = time.perf_counter()
        flow = run_ced_flow(net, reliability_words=WORDS,
                            coverage_words=WORDS, seed=FLOW_SEED)
        wall = time.perf_counter() - start
        records.append({
            "name": name, "wall_s": wall,
            "approx_blif": write_blif(flow.approx_result.approx),
            "directions": {po: int(d) for po, d
                           in flow.assembly.directions.items()},
            "summary": flow.summary(),
            "false_alarms": int(flow.coverage.false_alarms),
            "all_correct": bool(flow.approx_result.all_correct),
            "pass_s": {rec.name: rec.wall_time_s
                       for rec in flow.trace.passes},
            "cache": flow.trace.cache_totals(),
            "repair_rounds": int(flow.approx_result.repair_rounds),
            "dropped_cubes": int(flow.approx_result.dropped_cubes),
        })
        del flow
    return records


def _mean(values) -> float:
    data = list(values)
    return sum(data) / len(data)


class _LayerTotals:
    """Per-layer numbers every flow carries, traced or not."""

    def __init__(self):
        self.pass_s: dict[str, float] = {}
        self.cache: dict[str, dict[str, int]] = {}
        self.repair_rounds = 0
        self.dropped_cubes = 0

    def add(self, rec: dict) -> None:
        for name, seconds in rec["pass_s"].items():
            self.pass_s[name] = self.pass_s.get(name, 0.0) + seconds
        for kind, counters in rec["cache"].items():
            slot = self.cache.setdefault(kind, {"hits": 0, "misses": 0})
            for key in ("hits", "misses"):
                slot[key] += int(counters.get(key, 0))
        self.repair_rounds += rec["repair_rounds"]
        self.dropped_cubes += rec["dropped_cubes"]

    def metrics(self) -> dict:
        return {"pass_s": self.pass_s, "cache": self.cache,
                "approx.repair_rounds": self.repair_rounds,
                "approx.dropped_cubes": self.dropped_cubes}


def _child_main(job_path: str, out_path: str) -> None:
    job = json.loads(Path(job_path).read_text())
    sys.path.insert(0, job["src"])
    from repro.ced import run_ced_flow
    from repro.network import parse_blif, write_blif
    run_ced_flow(parse_blif(job["warmup"]), reliability_words=WORDS,
                 coverage_words=WORDS, seed=FLOW_SEED)
    records = run_pass([tuple(item) for item in job["inputs"]], write_blif)
    Path(out_path).write_text(json.dumps(records))


if __name__ == "__main__":
    _child_main(sys.argv[1], sys.argv[2])

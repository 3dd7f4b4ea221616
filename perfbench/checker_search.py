"""Workload ``checker-search``: evolutionary search around the checker.

``run_search`` on frg2 on the lab ``local`` backend with ``nproc``
workers, ``words=4`` and a fixed 3 generations of 8 offspring, with
``SearchConfig.seed`` set to the workload seed.  The paper-flow
baseline job comes from an artifact store filled at set-up; every
search starts from a fresh copy of that store and a fresh state and
results dir, and searches repeat until ``--seconds`` have gone by.

Candidate evaluation (``quick_map`` + ``build_ced`` + ``evaluate_ced``
fault simulation) under the lab executor is all the work: sim, synth,
ced and lab do it, and bdd, sat and analyze do none.
"""

from __future__ import annotations

import json
import shutil
import time
from pathlib import Path

from common import (BenchmarkError, Outcome, cpu_count, geomean, percentile,
                    ratio, sha256_text)
from inputs import SEARCH_CIRCUIT, table2_texts
from oracle import check_one_sided

WORDS = 4
GENERATIONS = 3
OFFSPRING = 8
POPULATION = 4
#: A candidate evaluation slower than this misses the limit (goodput).
#: On frg2 with 2 vCPUs the p95 is about 0.9 s, and 1.8 s while
#: another process holds one CPU; the limit leaves room for such noise.
CANDIDATE_LIMIT_S = 5.0


class CheckerSearch:
    name = "checker-search"

    def __init__(self, opts, manifest):
        self.opts = opts
        self.manifest = manifest
        self.round = 0
        self.base_store: Path | None = None
        self.circuit = "tiny" if opts.smoke else SEARCH_CIRCUIT
        self.workers: int | str = cpu_count()
        #: Search results measured but not yet checked.
        self.pending: list = []

    def _config(self, root: Path, **overrides):
        from repro.search import SearchConfig
        knobs = dict(circuit=self.circuit, table=2, words=WORDS,
                     seed=self.opts.seed, generations=GENERATIONS,
                     population=POPULATION, offspring=OFFSPRING,
                     backend="local", workers=self.workers,
                     state_dir=str(root / "state"),
                     cache_dir=str(root / "store"),
                     results_dir=str(root / "results"))
        if self.opts.smoke:
            knobs.update(generations=1, offspring=2, words=1)
        knobs.update(overrides)
        return SearchConfig(**knobs)

    # -- set-up ------------------------------------------------------------
    def setup(self, trace_mode: bool = False) -> None:
        from repro.lab.tasks import load_circuit
        from repro.network import write_blif
        from repro.search import run_search
        from repro.synth import quick_map
        # The traced run evaluates in-process so the wrappers see it.
        self.workers = "serial" if trace_mode else cpu_count()
        net = load_circuit(self.circuit, 2)
        self.text = write_blif(net)
        if not self.opts.smoke and self.text != \
                table2_texts(self.manifest)[SEARCH_CIRCUIT]:
            raise BenchmarkError(f"{SEARCH_CIRCUIT} as run_search loads it "
                                 f"differs from the frozen input")
        self.gates = quick_map(net).gate_count
        self.round += 1
        root = Path(self.opts.tmp) / f"search-setup-{self.round}"
        run_search(self._config(root, generations=0))
        self.base_store = root / "store"

    def teardown(self) -> None:
        self.base_store = None

    # -- measurement ---------------------------------------------------------
    def measure(self, trace_mode: bool = False) -> Outcome:
        from repro.search import run_search
        walls, candidates, generations = [], 0, 0
        bests = []
        manifests = []
        start = time.perf_counter()
        rep = 0
        while True:
            rep += 1
            root = Path(self.opts.tmp) / f"search-{self.round}-{rep}"
            shutil.copytree(self.base_store, root / "store")
            t0 = time.perf_counter()
            result = run_search(self._config(root))
            walls.append(time.perf_counter() - t0)
            self.pending.append(result)
            candidates += sum(h.get("evaluated", 0) for h in result.history)
            generations += result.generations_run
            bests.append(result.best)
            manifests += [json.loads(p.read_text()) for p in
                          sorted((root / "results").rglob("manifest.json"))]
            if trace_mode or time.perf_counter() - start >= self.opts.seconds:
                break
        grid = _grid_stats(manifests)
        job_walls = grid.pop("candidate_walls")
        values = {
            "candidates_per_s": candidates / sum(walls),
            # One search is the unit here: the count per run varies.
            "flow_s.total": percentile(walls, 50),
            "flow_s.geomean": geomean(walls),
            "area_overhead_pct.mean": sum(100.0 * b.area / self.gates
                                          for b in bests) / len(bests),
            "ced_coverage_pct.mean": sum(b.coverage for b in bests)
            / len(bests),
            "latency_ms.p50": 1e3 * percentile(job_walls, 50),
            "latency_ms.p95": 1e3 * percentile(job_walls, 95),
            "goodput_rps": sum(w <= CANDIDATE_LIMIT_S for w in job_walls)
            / sum(walls),
        }
        layers = {**grid,
                  "search.candidates": candidates,
                  "search.generations": generations}
        config = self._config(Path(self.opts.tmp))
        report = [f"checker-search: {len(walls)} search(es) of "
                  f"{config.generations} x {config.offspring} on "
                  f"{self.circuit}, "
                  f"{candidates} candidates in {sum(walls):.2f} s",
                  f"  best coverage {bests[-1].coverage:.2f} %, area "
                  f"{bests[-1].area} gates ({bests[-1].origin})"]
        return Outcome(values=values, attempted=candidates + len(walls),
                       failed=grid["lab.jobs.failed"], work_s=sum(walls),
                       layers=layers, report=report)

    def verify(self, outcome: Outcome) -> None:
        """Check each search's best candidate; any failure fails the run.

        The best must keep the search's own contract (elitism, no false
        alarm and no invalid golden in its evaluation) and pass the
        oracle's one-sided check against the original circuit.  The
        search qualifies candidates by simulating 64 x ``words``
        vectors, so a mutant that breaks the contract only on other
        inputs can win; the oracle catches that, and such a checker
        would raise false alarms in use.
        """
        pending, self.pending = self.pending, []
        for result in pending:
            best, base = result.best, result.baseline
            problems = []
            if best.false_alarms or best.golden_invalid:
                problems.append(f"best raises {best.false_alarms} false "
                                f"alarms, {best.golden_invalid} invalid "
                                f"goldens")
            if (best.coverage, -best.area) < (base.coverage, -base.area):
                problems.append("best is worse than the paper-flow baseline")
            state = json.loads(Path(result.state_path).read_text())
            directions = {po: int(d)
                          for po, d in state["directions"].items()}
            problems += check_one_sided(self.text, best.blif, directions,
                                        seed=self.opts.seed)
            if problems:
                raise BenchmarkError(
                    f"checker-search best {best.origin} "
                    f"({sha256_text(best.blif)[:12]}): " + "; ".join(problems))


def _grid_stats(manifests: list[dict]) -> dict:
    """Lab numbers of the generation grids, from their run manifests."""
    ok = failed = retried = cached = total = 0
    busy = capacity = 0.0
    walls = []
    for doc in manifests:
        jobs = [j for name, j in doc["jobs"].items() if name != "baseline"]
        if not jobs:
            continue
        workers = doc["workers"] if isinstance(doc["workers"], int) else 1
        capacity += workers * doc["wall_time_s"]
        for job in jobs:
            total += 1
            status = job["status"]
            ok += status == "ok"
            failed += status == "failed"
            cached += status == "cached"
            retried += job.get("attempts", 1) > 1
            if status == "ok":
                busy += job["wall_time_s"]
                walls.append(job["wall_time_s"])
    return {"lab.jobs.ok": ok, "lab.jobs.failed": failed,
            "lab.jobs.retried": retried,
            "lab.grid.idle_frac": 1.0 - ratio(busy, capacity),
            "search.store_hit_rate": ratio(cached, total),
            "candidate_walls": walls or [0.0]}

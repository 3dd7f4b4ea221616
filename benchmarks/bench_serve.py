"""Load-test harness for the serve subsystem (``repro.serve``).

Spins up a real :class:`~repro.serve.CedService` (own event loop in a
background thread, port 0, lab-backend workers) and measures four things
through the actual HTTP wire format:

* **identity** — every Table 1/2 circuit plus ``tiny`` submitted
  through the server produces a flow summary bit-identical to a direct
  ``run_ced_flow`` call with the same parameters.  The service is a
  transport, never a different computation.
* **warm** — the largest circuit submitted twice: the repeat must be
  served from warm state on disk (resumed passes / checkpoint hits) at
  least 10x faster than the cold run.
* **throughput** — sustained concurrent submissions of a warm small
  circuit; reports requests/s and p50/p99 end-to-end latency.
* **overload** — a burst at 2x queue capacity against a single-worker
  service: the excess must degrade via structured 429 backpressure
  (bounded queue, responsive health endpoint), never by queueing
  without bound or falling over.

Run as a script (no PYTHONPATH needed; must be a real file — spawned
workers re-import ``__main__``)::

    python benchmarks/bench_serve.py            # full suite
    python benchmarks/bench_serve.py --quick    # CI smoke run
"""

from __future__ import annotations

import argparse
import asyncio
import json
import platform
import statistics
import sys
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from repro.approx import ApproxConfig
from repro.bench.suite import TABLE2_SPECS
from repro.ced.flow import run_ced_flow
from repro.lab.tasks import load_circuit
from repro.network import parse_blif, write_blif
from repro.serve import CedService, ServeClient, ServeConfig, ServeError

DEFAULT_OUT = ROOT / "BENCH_serve.json"

#: Parameters every submission (and its direct twin) uses.
WORDS = 1
SEED = 2008


class ServiceHandle:
    """One CedService on a private event loop in a daemon thread."""

    def __init__(self, config: ServeConfig):
        self.config = config
        self.service: CedService | None = None
        self.error: Exception | None = None
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        async def main():
            self.service = CedService(self.config)
            try:
                await self.service.start()
            finally:
                self._ready.set()
            await self.service.stopped.wait()
        try:
            asyncio.run(main())
        except Exception as exc:
            self.error = exc
            self._ready.set()

    def start(self) -> ServeClient:
        self._thread.start()
        if not self._ready.wait(60) or self.error is not None:
            raise RuntimeError(f"service failed to start: {self.error}")
        return ServeClient(port=self.service.port, timeout=600.0)

    def stop(self) -> None:
        if self.service is not None and self._thread.is_alive():
            self.service.request_drain()
        self._thread.join(120)
        if self._thread.is_alive():
            raise RuntimeError("service did not drain")


def percentile(values: list[float], pct: float) -> float:
    ranked = sorted(values)
    index = min(len(ranked) - 1,
                max(0, round(pct / 100 * (len(ranked) - 1))))
    return ranked[index]


def bench_identity(client: ServeClient, names: list[str]) -> dict:
    """Submit every circuit; assert bit-identity with the direct flow."""
    report = {}
    for name in names:
        blif = write_blif(load_circuit(name, 2))
        t0 = time.perf_counter()
        doc = client.run(blif, words=WORDS, seed=SEED)
        wall = time.perf_counter() - t0
        # The direct twin parses the *same submitted text* — the
        # contract is that the service is a pure transport around
        # ``run_ced_flow`` on what the client sent.
        direct = run_ced_flow(parse_blif(blif),
                              config=ApproxConfig(seed=SEED),
                              reliability_words=WORDS,
                              coverage_words=WORDS, seed=SEED)
        if doc["result"]["summary"] != direct.summary():
            raise AssertionError(
                f"{name}: served flow diverged from the direct flow — "
                f"the service must be bit-identical")
        report[name] = {
            "gates": direct.summary()["gates"],
            "identical": True,
            "cold_flow_seconds": doc["stats"]["flow_seconds"],
            "request_seconds": round(wall, 3),
        }
        print(f"identity {name:8s} ok  "
              f"({report[name]['cold_flow_seconds']:.2f}s flow)")
    return report


def bench_warm(client: ServeClient, name: str, cold_seconds: float,
               floor: float | None = 10.0) -> dict:
    """Repeat the largest circuit: the warm rep must be >=``floor``x
    faster (``None`` skips the floor — quick mode's largest circuit is
    too small for a meaningful ratio)."""
    blif = write_blif(load_circuit(name, 2))
    doc = client.run(blif, words=WORDS, seed=SEED)
    stats = doc["stats"]
    if not stats["warm"]:
        raise AssertionError(
            f"{name}: repeat submission was not served warm")
    speedup = cold_seconds / max(stats["flow_seconds"], 1e-9)
    print(f"warm     {name:8s} {cold_seconds:.2f}s -> "
          f"{stats['flow_seconds']:.3f}s  x{speedup:.1f}  "
          f"({stats['resumed_passes']} passes resumed)")
    if floor is not None and speedup < floor:
        raise AssertionError(
            f"{name}: warm speedup x{speedup:.1f} below the "
            f"{floor:g}x floor")
    return {
        "circuit": name,
        "cold_flow_seconds": cold_seconds,
        "warm_flow_seconds": stats["flow_seconds"],
        "speedup": round(speedup, 1),
        "resumed_passes": stats["resumed_passes"],
        "warm": True,
    }


def bench_throughput(client: ServeClient, name: str, requests: int,
                     concurrency: int) -> dict:
    """Concurrent warm submissions; p50/p99 latency and requests/s."""
    blif = write_blif(load_circuit(name, 2))
    client.run(blif, words=WORDS, seed=SEED)     # ensure warm
    latencies: list[float] = []
    errors: list[str] = []
    lock = threading.Lock()
    per_thread = max(1, requests // concurrency)

    def storm():
        worker = ServeClient(port=client.port, timeout=600.0)
        for _ in range(per_thread):
            t0 = time.perf_counter()
            try:
                worker.run(blif, words=WORDS, seed=SEED)
            except Exception as exc:
                with lock:
                    errors.append(f"{type(exc).__name__}: {exc}")
                return
            with lock:
                latencies.append(time.perf_counter() - t0)

    threads = [threading.Thread(target=storm)
               for _ in range(concurrency)]
    t0 = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(600)
    elapsed = time.perf_counter() - t0
    if errors:
        raise AssertionError(f"throughput storm failed: {errors[:3]}")
    result = {
        "circuit": name,
        "requests": len(latencies),
        "concurrency": concurrency,
        "total_seconds": round(elapsed, 3),
        "throughput_rps": round(len(latencies) / elapsed, 2),
        "p50_ms": round(percentile(latencies, 50) * 1000, 1),
        "p99_ms": round(percentile(latencies, 99) * 1000, 1),
    }
    print(f"throughput {result['requests']} reqs x{concurrency}  "
          f"{result['throughput_rps']:.1f} req/s  "
          f"p50 {result['p50_ms']:.0f}ms  p99 {result['p99_ms']:.0f}ms")
    return result


def bench_overload(backend: str, state_dir: Path) -> dict:
    """Burst at 2x capacity: excess rejected via 429, health stays up."""
    capacity = 4
    handle = ServiceHandle(ServeConfig(
        port=0, workers=1, backend=backend,
        state_dir=str(state_dir), default_words=WORDS,
        max_queue=capacity, tenant_rate=10_000.0,
        tenant_burst=10_000.0))
    client = handle.start()
    blif = write_blif(load_circuit("tiny", 2))
    accepted, rejected = [], 0
    try:
        # words=4 keeps the single worker busy so the burst races the
        # queue bound, not the flow.
        for _ in range(2 * capacity + 1):
            try:
                accepted.append(client.submit(blif, words=4))
            except ServeError as err:
                if err.status != 429 \
                        or err.doc["error"] != "queue_full":
                    raise
                rejected += 1
        health = client.health()
        if health.get("status") != "ok":
            raise AssertionError(f"health degraded under load: {health}")
        for doc in accepted:
            state = client.wait(doc["job_id"], timeout=600)
            if state["state"] != "done":
                raise AssertionError(
                    f"accepted job ended {state['state']}")
        stats = client.stats()
    finally:
        handle.stop()
    if rejected == 0:
        raise AssertionError(
            "overload burst was never rejected — queue is unbounded")
    result = {
        "capacity": capacity,
        "submitted": 2 * capacity + 1,
        "accepted": len(accepted),
        "rejected_queue_full": rejected,
        "max_queue_depth": stats["queue"]["max_depth"],
        "healthz_under_load": "ok",
    }
    print(f"overload  {result['submitted']} submitted, "
          f"{result['accepted']} accepted, {rejected} rejected (429), "
          f"queue depth <= {result['max_queue_depth']}")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="small circuits only (CI smoke run)")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT,
                        help=f"output JSON path (default {DEFAULT_OUT})")
    parser.add_argument("--backend", choices=("process", "thread"),
                        default="process",
                        help="worker backend (default process)")
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--requests", type=int, default=40,
                        help="throughput-phase request count")
    parser.add_argument("--concurrency", type=int, default=4)
    args = parser.parse_args(argv)

    if args.quick:
        names = ["tiny", "cmb", "cordic"]
    else:
        names = ["tiny"] + sorted(
            TABLE2_SPECS, key=lambda n: TABLE2_SPECS[n].target_gates)
    warm_target = names[-1]

    with tempfile.TemporaryDirectory(prefix="bench_serve_") as tmp:
        tmp_path = Path(tmp)
        handle = ServiceHandle(ServeConfig(
            port=0, workers=args.workers, backend=args.backend,
            state_dir=str(tmp_path / "state"), default_words=WORDS,
            max_queue=64, tenant_rate=10_000.0,
            tenant_burst=10_000.0))
        client = handle.start()
        try:
            backend = handle.service.backend_kind
            identity = bench_identity(client, names)
            warm = bench_warm(
                client, warm_target,
                identity[warm_target]["cold_flow_seconds"],
                floor=None if args.quick else 10.0)
            throughput = bench_throughput(
                client, "tiny", args.requests, args.concurrency)
        finally:
            handle.stop()
        overload = bench_overload(args.backend,
                                  tmp_path / "overload_state")

    report = {
        "meta": {
            "python": platform.python_version(),
            "backend": backend,
            "workers": int(args.workers),
            "quick": bool(args.quick),
            "words": WORDS,
            "seed": SEED,
        },
        "identity": identity,
        "warm": warm,
        "throughput": throughput,
        "overload": overload,
    }
    args.out.write_text(json.dumps(report, indent=1, sort_keys=True)
                        + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

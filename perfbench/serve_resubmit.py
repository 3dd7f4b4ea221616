"""Workload ``serve-resubmit``: a designer iterating on circuits.

An in-process :class:`repro.serve.CedService` (its own event loop on a
thread, at most ``nproc`` workers, state in a temp dir) is fed by an
open loop at a fixed rate below capacity.  Requests follow a seeded
schedule mixing exact resubmissions (checkpoint resume), one-literal
edits (checkpoint miss, proof-cache hits on untouched cones) and first
submissions of small circuits.

The generator is this one process with two connections: a sender that
submits each request at its scheduled time, and a collector that
follows each job's event stream in turn.  A request's latency runs from
its *scheduled* send time to the ``finished_at`` timestamp of its job
record, so a stalled generator is charged to later requests and no
poll period rounds the number.
"""

from __future__ import annotations

import asyncio
import queue
import threading
import time
from pathlib import Path

from repro.approx import ApproxConfig
from repro.ced import run_ced_flow
from repro.network import parse_blif
from repro.serve import (TERMINAL_STATES, CedService, ServeClient,
                         ServeConfig, ServeError)

from common import (BenchmarkError, Outcome, cpu_count, geomean, median,
                    percentile, ratio)
from inputs import SERVE_RATE, serve_mix

#: A request later than this misses the limit (goodput).  Assumed as
#: an interactive bound, with no source: about 3.9 times the measured
#: p95 (p50 78 ms, p95 129 ms, medians of ten seeds on 2 vCPUs).
LATENCY_LIMIT_MS = 500.0
WORDS = 2
FLOW_SEED = 2008
#: Smoke runs send this many seconds of traffic.
SMOKE_SECONDS = 2.0


class ServiceHandle:
    """One CedService on a private event loop in a thread."""

    def __init__(self, config):
        self.config = config
        self.service = None
        self.error: BaseException | None = None
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._main,
                                        name="perfbench-serve", daemon=True)

    def _main(self) -> None:
        async def main():
            self.service = CedService(self.config)
            try:
                await self.service.start()
            finally:
                self._ready.set()
            await self.service.stopped.wait()
        try:
            asyncio.run(main())
        except Exception as exc:             # reported by start()/stop()
            self.error = exc
            self._ready.set()

    def start(self) -> ServeClient:
        self._thread.start()
        if not self._ready.wait(120) or self.error is not None:
            raise BenchmarkError(f"service failed to start: {self.error}")
        return ServeClient(port=self.service.port, timeout=300.0)

    def stop(self) -> None:
        if self.service is not None and self._thread.is_alive():
            self.service.request_drain()
        self._thread.join(150)
        if self._thread.is_alive():
            raise BenchmarkError("service did not drain")


class ServeResubmit:
    name = "serve-resubmit"

    def __init__(self, opts, manifest):
        self.opts = opts
        self.manifest = manifest
        self.handle: ServiceHandle | None = None
        self.client = None
        self.requests = []
        self.round = 0
        #: Served (request, job document) pairs not yet checked.
        self.pending: list[tuple] = []

    # -- set-up ------------------------------------------------------------
    def setup(self, trace_mode: bool = False) -> None:
        """Start a service and serve the warm circuits.

        The traced run keeps worker processes too: the thread backend
        fails jobs when two workers compile at once (``SystemError: AST
        constructor recursion depth mismatch`` on CPython 3.11).  Its
        per-layer numbers come from the job records and the FlowTrace in
        each result, plus the spans of the in-process front end.
        """
        seconds = SMOKE_SECONDS if self.opts.smoke else self.opts.seconds
        warm, self.requests = serve_mix(self.opts.seed, seconds,
                                        self.manifest)
        self.round += 1
        state_dir = Path(self.opts.tmp) / f"serve-state-{self.round}"
        self.handle = ServiceHandle(ServeConfig(
            port=0, workers=cpu_count(), backend="process",
            state_dir=str(state_dir), retention=1_000_000))
        self.client = self.handle.start()
        accepted = [self.client.submit(text, words=WORDS, seed=FLOW_SEED)
                    for _, text in warm]
        for doc in accepted:
            state = self.client.wait(doc["job_id"], timeout=300.0)
            if state["state"] != "done":
                raise BenchmarkError(f"warm-up job {doc['job_id']} "
                                     f"ended {state['state']}: "
                                     f"{state.get('error')}")

    def teardown(self) -> None:
        if self.client is not None:
            self.client.close()
        if self.handle is not None:
            self.handle.stop()
        self.handle = self.client = None

    # -- the window ----------------------------------------------------------
    def measure(self, trace_mode: bool = False) -> Outcome:
        client = self.client
        sent: queue.Queue = queue.Queue()
        records: dict[int, dict] = {}
        start_wall = time.time()
        start_perf = time.perf_counter()

        def sender() -> None:
            try:
                for req in self.requests:
                    delay = start_perf + req.t - time.perf_counter()
                    if delay > 0:
                        time.sleep(delay)
                    rec = records[req.index] = {
                        "req": req, "due": start_wall + req.t,
                        "late_ms": 1e3 * max(
                            time.perf_counter() - start_perf - req.t, 0.0),
                        "sent": time.time()}
                    try:
                        doc = client.submit(req.blif, tenant=req.tenant,
                                            words=WORDS, seed=FLOW_SEED)
                    except (ServeError, OSError) as exc:   # refused
                        rec["error"] = f"{type(exc).__name__}: {exc}"
                        rec["failed_at"] = time.time()
                        continue
                    rec["job_id"] = doc["job_id"]
                    sent.put(rec)
            finally:
                sent.put(None)

        def collector() -> None:
            while (rec := sent.get()) is not None:
                opened = time.time()
                try:
                    for event in client.events(rec["job_id"]):
                        if event.get("kind") == "state" and \
                                event["state"] in TERMINAL_STATES:
                            rec["seen"], rec["opened"] = time.time(), opened
                            break
                except (ServeError, OSError) as exc:
                    # The job record still times the request.
                    rec["stream_error"] = f"{type(exc).__name__}: {exc}"

        threads = [threading.Thread(target=sender, name="perfbench-send",
                                    daemon=True),
                   threading.Thread(target=collector,
                                    name="perfbench-collect", daemon=True)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(self.opts.seconds + 150)
            if thread.is_alive():
                raise BenchmarkError(f"{thread.name} did not finish")
        for rec in records.values():
            if "job_id" in rec:
                try:
                    rec["doc"] = client.result(rec["job_id"])
                except ServeError:            # the job failed
                    rec["doc"] = None
        return self._outcome(list(records.values()), start_wall)

    def _outcome(self, records: list[dict], start_wall: float) -> Outcome:
        latencies, flow_s = [], []
        #: Quality per distinct circuit, so resubmissions do not weigh.
        quality: dict[str, tuple[float, float]] = {}
        queue_wait, service, transport = [], [], []
        exact = exact_warm = failed = 0
        pass_s: dict[str, float] = {}
        cache: dict[str, dict[str, int]] = {}
        last = start_wall
        for rec in records:
            doc = rec.get("doc")
            req = rec["req"]
            if doc is None:
                failed += 1
                end = rec.get("failed_at") or rec.get("seen") or time.time()
                latencies.append(max(LATENCY_LIMIT_MS + 1.0,
                                     1e3 * (end - rec["due"])))
                continue
            self.pending.append((req, doc))
            latencies.append(1e3 * (doc["finished_at"] - rec["due"]))
            last = max(last, doc["finished_at"])
            stats = doc["stats"]
            flow_s.append(stats["flow_seconds"])
            summary = doc["result"]["summary"]
            quality[req.blif] = (summary["area_overhead_pct"],
                                 summary["ced_coverage_pct"])
            queue_wait.append(doc["started_at"] - doc["submitted_at"])
            service.append(doc["finished_at"] - doc["started_at"])
            if "seen" in rec and rec["opened"] <= doc["finished_at"]:
                transport.append(1e3 * ((rec["seen"] - rec["sent"])
                                        - (doc["finished_at"]
                                           - doc["submitted_at"])))
            if req.kind == "exact":
                exact += 1
                exact_warm += bool(stats.get("warm"))
            for rec_pass in doc["result"]["trace"]["passes"]:
                pass_s[rec_pass["name"]] = pass_s.get(rec_pass["name"], 0.0) \
                    + rec_pass["wall_time_s"]
            for kind, counters in stats.get("cache_totals", {}).items():
                slot = cache.setdefault(kind, {"hits": 0, "misses": 0})
                for key in ("hits", "misses"):
                    slot[key] += int(counters.get(key, 0))
        window = max(last - start_wall, 1e-9)
        ok = len(flow_s)
        within = sum(lat <= LATENCY_LIMIT_MS for lat in latencies)
        values = {
            "latency_ms.p50": percentile(latencies, 50),
            "latency_ms.p95": percentile(latencies, 95),
            "goodput_rps": within / window,
            "candidates_per_s": ok / window,
            "flow_s.total": sum(flow_s),
            "flow_s.geomean": geomean(flow_s),
            "area_overhead_pct.mean": sum(a for a, _ in quality.values())
            / len(quality),
            "ced_coverage_pct.mean": sum(c for _, c in quality.values())
            / len(quality),
        }
        late = [rec["late_ms"] for rec in records]
        layers = {
            "pass_s": pass_s, "cache": cache,
            "serve.queue_wait_s.p50": percentile(queue_wait, 50),
            "serve.queue_wait_s.p95": percentile(queue_wait, 95),
            "serve.service_s.p50": percentile(service, 50),
            "serve.transport_ms.p50": median(transport) if transport
            else 0.0,
            "serve.rejected": failed,
            "serve.warm_frac": ratio(exact_warm, exact),
            "serve.gen_late_ms.max": max(late),
            # Worker processes are out of the tracer's reach: proof
            # cache lookups come from the job records.
            "lab.proofs.hits": cache.get("proofs", {}).get("hits", 0),
            "lab.proofs.misses": cache.get("proofs", {}).get("misses", 0),
        }
        kinds = {k: sum(r["req"].kind == k for r in records)
                 for k in ("exact", "edited", "cold")}
        report = [
            f"serve-resubmit: {len(records)} requests at {SERVE_RATE:g}/s "
            f"({kinds}), {failed} failed: "
            f"{sorted({r.get('error', '')[:60] for r in records} - {''})}",
            f"  latency p50 {values['latency_ms.p50']:.1f} ms, p95 "
            f"{values['latency_ms.p95']:.1f} ms over {len(latencies)} "
            f"requests; limit {LATENCY_LIMIT_MS:g} ms; generator late "
            f"by at most {max(late):.2f} ms",
            f"  transport samples {len(transport)}; exact resubmissions "
            f"answered warm {exact_warm}/{exact}"]
        return Outcome(values=values, attempted=len(records), failed=failed,
                       work_s=sum(flow_s), layers=layers, report=report)

    # -- correctness -------------------------------------------------------
    def verify(self, outcome: Outcome) -> None:
        """Every result is a sound checker; one request of each kind
        equals a direct ``run_ced_flow`` on the same text."""
        pending, self.pending = self.pending, []
        first_of_kind = {}
        for req, doc in pending:
            self._check_served(req, doc)
            first_of_kind.setdefault(req.kind, (req, doc))
        for req, doc in first_of_kind.values():
            self._check_direct(req, doc)

    @staticmethod
    def _check_served(req, doc) -> None:
        result = doc["result"]
        problems = []
        if result["coverage"]["false_alarms"]:
            problems.append(f"{result['coverage']['false_alarms']} false "
                            f"alarms")
        if not result["all_correct"]:
            problems.append("synthesis reports an incorrect output")
        if problems:
            raise BenchmarkError(f"serve request {req.index} ({req.kind} "
                                 f"{req.name}): " + "; ".join(problems))

    @staticmethod
    def _check_direct(req, doc) -> None:
        """The served record must equal a direct flow on the same text."""
        direct = run_ced_flow(parse_blif(req.blif),
                              config=ApproxConfig(seed=FLOW_SEED),
                              reliability_words=WORDS,
                              coverage_words=WORDS, seed=FLOW_SEED)
        served = doc["result"]
        directions = {po: int(d) for po, d in
                      direct.assembly.directions.items()}
        if served["summary"] != direct.summary() or \
                served["directions"] != directions:
            raise BenchmarkError(
                f"serve request {req.index} ({req.kind} {req.name}) "
                f"differs from a direct run_ced_flow: {served['summary']} "
                f"vs {direct.summary()}")


"""The serve job model (submit -> queued -> running -> done/failed)
and the job function a lab backend runs for each submission.

A :class:`ServeJob` is one accepted circuit submission.  Its lifecycle
is strictly forward::

    queued -> running -> done | failed
    queued -> cancelled                  (DELETE before dispatch)

Every transition and every flow-pass completion appends a monotonically
sequenced event to the job, which the streaming endpoint replays as
NDJSON chunks; an :class:`asyncio.Event` wakes the streamers.  The
:class:`JobRegistry` owns all jobs, hands out ids, and bounds memory by
evicting the oldest finished jobs beyond a retention limit.
:func:`run_flow_request` executes one submission inside a worker
process or thread.
"""

from __future__ import annotations

import asyncio
import hashlib
import itertools
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

__all__ = ["ServeJob", "JobRegistry", "JOB_STATES", "TERMINAL_STATES",
           "run_flow_request"]

#: Lifecycle states of a serve job.
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")

#: States no job ever leaves.
TERMINAL_STATES = ("done", "failed", "cancelled")


@dataclass
class ServeJob:
    """One accepted circuit submission and everything it produced."""

    job_id: str
    tenant: str
    priority: int
    blif: str
    params: dict
    state: str = "queued"
    submitted_at: float = field(default_factory=time.time)
    started_at: float | None = None
    finished_at: float | None = None
    #: ``CedFlowResult.to_dict()`` of the finished flow.
    result: dict | None = None
    #: Server-side execution metadata (flow seconds, cache totals,
    #: warm/cold verdict) — kept out of ``result`` so the flow record
    #: stays bit-identical to a direct ``run_ced_flow`` run.
    stats: dict = field(default_factory=dict)
    error: str | None = None
    error_type: str | None = None
    #: Monotonically sequenced progress events (state changes, passes).
    events: list[dict] = field(default_factory=list)
    _seq: itertools.count = field(default_factory=itertools.count,
                                  repr=False)
    #: Set on every event append; streamers wait on it and re-clear it
    #: themselves.
    changed: asyncio.Event = field(default_factory=asyncio.Event,
                                   repr=False)

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def add_event(self, kind: str, **payload) -> dict:
        event = {"seq": next(self._seq), "kind": kind,
                 "job_id": self.job_id, "state": self.state,
                 "t": round(time.time() - self.submitted_at, 6),
                 **payload}
        self.events.append(event)
        self.changed.set()
        return event

    def transition(self, state: str, **payload) -> None:
        if self.terminal:
            return                        # a late event cannot resurrect
        if state not in JOB_STATES:
            raise ValueError(f"unknown job state {state!r}")
        self.state = state
        if state == "running":
            self.started_at = time.time()
        if state in TERMINAL_STATES:
            self.finished_at = time.time()
        self.add_event("state", **payload)

    def wall_time_s(self) -> float | None:
        if self.started_at is None or self.finished_at is None:
            return None
        return self.finished_at - self.started_at

    def to_dict(self, with_result: bool = False) -> dict:
        doc = {
            "job_id": self.job_id,
            "tenant": self.tenant,
            "priority": self.priority,
            "state": self.state,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "wall_time_s": self.wall_time_s(),
            "queue_time_s": (round(self.started_at - self.submitted_at,
                                   6)
                             if self.started_at is not None else None),
            "params": dict(self.params),
            "events": len(self.events),
            "error": self.error,
            "error_type": self.error_type,
            "stats": dict(self.stats),
        }
        if with_result and self.result is not None:
            doc["result"] = self.result
        return doc


class JobRegistry:
    """All jobs the service knows, with bounded finished-job retention."""

    def __init__(self, retention: int = 256):
        self.retention = int(retention)
        self.jobs: dict[str, ServeJob] = {}
        self._counter = itertools.count(1)
        self._finished_order: list[str] = []

    def new_id(self, blif: str) -> str:
        digest = hashlib.sha256(blif.encode()).hexdigest()[:8]
        return f"j{next(self._counter):06d}-{digest}"

    def create(self, *, tenant: str, priority: int, blif: str,
               params: dict) -> ServeJob:
        job = ServeJob(job_id=self.new_id(blif), tenant=tenant,
                       priority=priority, blif=blif, params=params)
        job.add_event("state")            # the initial "queued" event
        self.jobs[job.job_id] = job
        return job

    def get(self, job_id: str) -> ServeJob | None:
        return self.jobs.get(job_id)

    def note_finished(self, job: ServeJob) -> None:
        """Record a terminal job and evict beyond the retention bound."""
        self._finished_order.append(job.job_id)
        while len(self._finished_order) > self.retention:
            victim = self._finished_order.pop(0)
            self.jobs.pop(victim, None)

    def counts(self) -> dict[str, int]:
        counts = {state: 0 for state in JOB_STATES}
        for job in self.jobs.values():
            counts[job.state] += 1
        return counts

    def recent(self, limit: int = 50) -> list[ServeJob]:
        ordered = sorted(self.jobs.values(),
                         key=lambda j: j.submitted_at, reverse=True)
        return ordered[:limit]


def _pass_event(record) -> dict:
    return {"kind": "pass", "pass": record.name, "status": record.status,
            "wall_time_s": round(record.wall_time_s, 6),
            "cache": {k: dict(v) for k, v in record.cache.items()}}


def run_flow_request(job_id: str, blif: str, params: dict,
                     state_dir: str, progress=None) -> dict:
    """Run one submission's flow; never raises.

    Returns the job's terminal document: ``kind`` ``done`` with the
    ``CedFlowResult.to_dict()`` record, or ``failed`` with a structured
    error.  ``progress`` receives a ``started`` event and one ``pass``
    event per flow pass.  Every run starts from a fresh
    ``AnalysisContext``: the checkpoint and proof stores under
    ``state_dir`` are the only state carried between submissions.
    """
    emit = progress or (lambda event: None)
    emit({"kind": "started", "pid": os.getpid()})
    try:
        from repro.approx import ApproxConfig
        from repro.ced import run_ced_flow
        from repro.guard import Budget, BudgetExceeded
        from repro.network import parse_blif

        net = parse_blif(blif, source=f"job:{job_id}")
        words = int(params.get("words", 2))
        seed = int(params.get("seed", 2008))
        config_kw = dict(params.get("config") or {})
        config_kw.setdefault("seed", seed)
        caps = {k: v for k, v in (params.get("budget") or {}).items()
                if v is not None}
        budget = Budget(**caps) if caps else None
        directions = params.get("directions")
        if directions is not None:
            directions = {po: int(d) for po, d in directions.items()}
        start = time.perf_counter()
        try:
            flow = run_ced_flow(
                net, config=ApproxConfig.from_dict(config_kw),
                share_logic=bool(params.get("share_logic", False)),
                reliability_words=words, coverage_words=words,
                seed=seed, directions=directions,
                min_approx_pct=float(params.get("min_approx_pct",
                                                25.0)),
                lint_level=params.get("lint_level", "off"),
                checkpoint_dir=str(Path(state_dir) / "checkpoints"),
                proof_cache_dir=str(Path(state_dir) / "proofs"),
                budget=budget,
                on_pass=lambda rec: emit(_pass_event(rec)))
        except BudgetExceeded as exc:
            return {"kind": "failed", "error": str(exc),
                    "error_type": type(exc).__name__,
                    "detail": exc.to_dict()}
        elapsed = time.perf_counter() - start
        totals = flow.trace.cache_totals() if flow.trace else {}
        resumed = sum(1 for rec in flow.trace.passes
                      if rec.status == "resumed") if flow.trace else 0
        # "Warm" means the run was served from persistent state: passes
        # resumed from checkpoints.  (Proof-cache hits alone don't
        # qualify — a cold flow re-reads entries it just wrote.)
        return {"kind": "done", "result": flow.to_dict(),
                "flow_seconds": round(elapsed, 6),
                "cache_totals": totals,
                "resumed_passes": resumed,
                "warm": resumed > 0
                or totals.get("checkpoint", {}).get("hits", 0) > 0}
    except Exception as exc:          # a request must never kill a worker
        return {"kind": "failed",
                "error": f"{type(exc).__name__}: {exc}",
                "error_type": type(exc).__name__}

"""Span tracing installed from outside the program.

:class:`Tracer` replaces the module attributes and class methods that
callers actually look up (``repro.ced.flow.evaluate_ced`` as well as
``repro.ced.coverage.evaluate_ced``) with wrappers that record one span
per call: name, thread, start, end and parent.  Spans stay in memory;
:meth:`Tracer.write_chrome` writes them once, as Chrome trace-event
JSON (``chrome://tracing`` or Perfetto open it offline).  Hot
primitives are counted, not timed.  :meth:`Tracer.uninstall` puts every
original back, so the untraced code is exactly the program's.

A span's self time is its duration minus the time its child spans
cover.  Spans nest strictly within a thread, so that is the duration
minus the children's durations.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

#: (span name, "module:attribute" or "module:Class.method").
TIMED = (
    ("approx.synthesize",
     "repro.approx.iterative:synthesize_approximation"),
    ("analyze.static", "repro.flow.analysis:AnalysisContext.analyses"),
    ("analyze.static",
     "repro.analyze.static_proof:StaticDischarger.implication"),
    ("bdd.build", "repro.network.globalbdd:GlobalBdds.build"),
    ("bdd.build", "repro.network.globalbdd:GlobalBdds.update_network"),
    ("bdd.implies", "repro.bdd.manager:BddManager.implies"),
    ("bdd.implies", "repro.bdd.manager:BddManager.implies_many"),
    ("bdd.implies", "repro.bdd.engine_numpy:NumpyBddManager.implies_many"),
    ("sat.solve", "repro.sat.solver:SatSolver.solve"),
    ("cubes.minimize", "repro.cubes.minimize:minimize"),
    ("sim.run", "repro.sim.simulator:BitSimulator.run"),
    ("sim.stuck_batch", "repro.sim.simulator:BitSimulator.run_stuck_batch"),
    ("reliability.analyze", "repro.reliability.analysis:analyze_reliability"),
    ("ced.build", "repro.ced.architecture:build_ced"),
    ("ced.evaluate", "repro.ced.coverage:evaluate_ced"),
    ("synth.map", "repro.synth.scripts:SynthesisScript.run"),
    ("network.parse_blif", "repro.network.blif:parse_blif"),
    ("network.write_blif", "repro.network.blif:write_blif"),
    ("lab.proofs.get", "repro.lab.proofs:ProofCache.get"),
    ("lab.proofs.put", "repro.lab.proofs:ProofCache.put"),
    ("lab.store.get", "repro.lab.cache:ArtifactStore.get"),
    ("lab.store.put", "repro.lab.cache:ArtifactStore.put"),
)

#: Hot primitives: call counts only.
COUNTED = (
    ("bdd.ite", "repro.bdd.manager:BddManager.ite"),
    ("bdd.apply_many", "repro.bdd.engine_numpy:NumpyBddManager.apply_many"),
)

PASS_PREFIX = "flow.pass."


class Tracer:
    """Installs span wrappers, collects spans and counters."""

    def __init__(self):
        #: [name, thread id, start, end, parent index]
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        #: Latest node count of each live BDD manager, by ``id``.
        self.bdd_nodes: dict[int, int] = {}
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []
        self._origin = time.perf_counter()

    # -- span recording --------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def timed(self, name: str, fn, probe=None):
        """``fn`` recording one span per call; ``probe(args, result)``
        may add counters."""
        spans = self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            index = len(spans)
            spans.append([name, threading.get_ident(),
                          time.perf_counter(), None,
                          stack[-1] if stack else -1])
            stack.append(index)
            try:
                if probe is None:
                    return fn(*args, **kwargs)
                state = probe.before(args)
                result = fn(*args, **kwargs)
                probe.after(args, state, result)
                return result
            finally:
                stack.pop()
                spans[index][3] = time.perf_counter()
        return wrapper

    def counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- installation ----------------------------------------------------
    def _patch(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _wrap_target(self, target: str, make) -> None:
        module_name, _, path = target.partition(":")
        module = importlib.import_module(module_name)
        if "." in path:
            cls_name, meth = path.split(".")
            cls = getattr(module, cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                self._patch(cls, meth, classmethod(make(raw.__func__)))
            else:
                self._patch(cls, meth, make(raw))
            return
        original = getattr(module, path)
        wrapped = make(original)
        # Every module that imported the function by name holds its own
        # reference: replace them all.
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("repro") and \
                    getattr(mod, path, None) is original and \
                    path in vars(mod):
                self._patch(mod, path, wrapped)

    def install(self) -> None:
        from repro.ced import flow as ced_flow
        from repro.flow import Pass
        probes = {
            "sat.solve": _ConflictProbe(self),
            "sim.stuck_batch": _FaultVectorProbe(self),
            "bdd.build": _BddNodesProbe(self),
            "lab.proofs.get": _ProofProbe(self, "hits", "misses"),
            "lab.proofs.put": _ProofProbe(self, "puts", None),
        }
        for name, target in TIMED:
            self._wrap_target(target, lambda fn, n=name: self.timed(
                n, fn, probes.get(n)))
        for name, target in COUNTED:
            self._wrap_target(target, lambda fn, n=name: self.counted(n, fn))
        for obj in vars(ced_flow).values():
            if isinstance(obj, type) and issubclass(obj, Pass) and \
                    obj is not Pass and "run" in obj.__dict__:
                self._patch(obj, "run", self.timed(
                    PASS_PREFIX + obj.name, obj.__dict__["run"]))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- analysis --------------------------------------------------------
    def total_bdd_nodes(self) -> int:
        return int(self.counts["bdd.nodes"] + sum(self.bdd_nodes.values()))

    def _self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for name, tid, start, end, parent in self.spans:
            if parent >= 0 and end is not None:
                child[parent] += end - start
        return [(s[3] - s[2]) - child[i] if s[3] is not None else 0.0
                for i, s in enumerate(self.spans)]

    def summary(self) -> dict[str, dict[str, float]]:
        """``{span name: {"calls", "total_s", "self_s"}}``."""
        out: dict[str, dict[str, float]] = {}
        for span, own in zip(self.spans, self._self_times()):
            slot = out.setdefault(span[0], {"calls": 0, "total_s": 0.0,
                                            "self_s": 0.0})
            slot["calls"] += 1
            if span[3] is not None:
                slot["total_s"] += span[3] - span[2]
            slot["self_s"] += own
        return out

    def pass_breakdown(self) -> dict[str, dict[str, float]]:
        """Self time by layer under each flow pass.

        ``{pass: {layer span name: self seconds}}``; the pass's own
        self time is its unattributed remainder, under ``"(pass)"``.
        """
        own = self._self_times()
        owner: list[str | None] = []
        for span in self.spans:
            if span[0].startswith(PASS_PREFIX):
                owner.append(span[0][len(PASS_PREFIX):])
            elif span[4] >= 0:
                owner.append(owner[span[4]])
            else:
                owner.append(None)
        out: dict[str, dict[str, float]] = {}
        for span, seconds, pass_name in zip(self.spans, own, owner):
            if pass_name is None:
                continue
            layer = "(pass)" if span[0].startswith(PASS_PREFIX) else span[0]
            slot = out.setdefault(pass_name, {})
            slot[layer] = slot.get(layer, 0.0) + seconds
        return out

    def write_chrome(self, path: Path, metadata: dict) -> None:
        """Chrome trace-event JSON ("X" complete events, microseconds)."""
        tids: dict[int, int] = {}
        events = []
        for name, tid, start, end, _ in self.spans:
            if end is None:
                continue
            events.append({
                "name": name, "cat": name.split(".")[0], "ph": "X",
                "ts": round((start - self._origin) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "pid": 1, "tid": tids.setdefault(tid, len(tids) + 1)})
        for tid, index in tids.items():
            events.append({"name": "thread_name", "ph": "M", "pid": 1,
                           "tid": index,
                           "args": {"name": f"thread-{index}"}})
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "traceEvents": events, "displayTimeUnit": "ms",
            "otherData": {**metadata, "counts": dict(self.counts)}}))


# ----------------------------------------------------------------------
# Probes: counters read around a timed call
# ----------------------------------------------------------------------
class _ConflictProbe:
    def __init__(self, tracer: Tracer):
        self.counts = tracer.counts

    def before(self, args):
        return args[0].conflicts

    def after(self, args, state, result):
        self.counts["sat.conflicts"] += args[0].conflicts - state


class _FaultVectorProbe:
    def __init__(self, tracer: Tracer):
        self.counts = tracer.counts

    def before(self, args):
        return None

    def after(self, args, state, result):
        golden, faults = args[1], args[2]
        self.counts["sim.fault_vectors"] += len(faults) * golden.shape[1] * 64


class _BddNodesProbe:
    """Final node count per manager; a new manager reusing a dead one's
    id retires the old count into ``bdd.nodes``."""

    def __init__(self, tracer: Tracer):
        self.nodes = tracer.bdd_nodes
        self.counts = tracer.counts

    def before(self, args):
        return None

    def after(self, args, state, result):
        built = isinstance(args[0], type)        # build() is a classmethod
        manager = (result if built else args[0]).manager
        if built and id(manager) in self.nodes:
            self.counts["bdd.nodes"] += self.nodes[id(manager)]
        self.nodes[id(manager)] = manager.num_nodes


class _ProofProbe:
    def __init__(self, tracer: Tracer, found: str, missing: str | None):
        self.counts = tracer.counts
        self.found, self.missing = found, missing

    def before(self, args):
        return None

    def after(self, args, state, result):
        key = self.found if self.missing is None or result is not None \
            else self.missing
        self.counts[f"lab.proofs.{key}"] += 1

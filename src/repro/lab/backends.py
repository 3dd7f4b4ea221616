"""Pluggable execution backends for the lab scheduler.

The :class:`~repro.lab.executor.LabRunner` scheduling loop (dependency
resolution, caching, retries, skip/cancel taxonomy, manifests) is
backend-agnostic: it submits :class:`JobRequest` payloads and collects
``(status, payload, wall_time_s, peak_rss_kb)`` outcome tuples from
:class:`concurrent.futures.Future` handles.  This module supplies the
backends behind that seam:

* ``local`` — a ``ProcessPoolExecutor`` (any multiprocessing start
  method) that streams job progress over one pipe and replaces its
  pool after a worker death;
* ``tcp`` — a stdlib-only coordinator/worker pair over asyncio sockets
  reusing the serve HTTP framing (:mod:`repro.serve.protocol`): the
  coordinator embeds in the runner process, workers
  (``python -m repro.lab.worker``) lease jobs over HTTP, heartbeat
  while running, and return results through a shared content-addressed
  :class:`~repro.lab.cache.ArtifactStore` (the transfer medium).
  Stragglers are re-dispatched after a heartbeat lapse; a worker death
  beyond the re-dispatch budget resolves the job as a structured
  ``failed``.  Workers are spawned on loopback by default; remote
  machines join the same grid by running the worker module against the
  coordinator's host/port with the store on a shared filesystem.  The
  coordinator runs named module-level callables sent by the runner —
  point it only at hosts you trust with code execution;
* ``workqueue`` — an in-process work-stealing thread pool for
  many-small-jobs grids, where process-pool pickling overhead dominates
  the work itself.

Backends are selected with ``LabRunner(backend=...)`` or the
``REPRO_LAB_BACKEND`` environment variable, and third parties can
:func:`register_backend` their own.
"""

from __future__ import annotations

import collections
import functools
import hashlib
import itertools
import json
import multiprocessing
import multiprocessing.connection
import os
import pickle
import select
import subprocess
import sys
import threading
import time
import traceback
from concurrent.futures import Future, InvalidStateError, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable

from .cache import MISS, ArtifactStore

__all__ = ["JobRequest", "ExecutorBackend", "LocalBackend",
           "TcpBackend", "WorkqueueBackend", "register_backend",
           "create_backend", "backend_names", "resolve_backend",
           "BACKEND_ENV"]

#: Environment knob selecting the executor backend by name.
BACKEND_ENV = "REPRO_LAB_BACKEND"


@dataclass
class JobRequest:
    """One job as handed to a backend: everything needed to run it."""

    name: str
    fn: Callable[..., Any]
    params: dict[str, Any]
    timeout: "float | None" = None
    dep_results: "dict[str, Any] | None" = None
    #: Called with each event ``fn`` reports through its ``progress``
    #: keyword (passed only when this is set), all before the future
    #: resolves.
    progress: "Callable[[dict], None] | None" = None


class ExecutorBackend:
    """Protocol of a lab execution backend.

    A backend is a context manager (``__enter__`` provisions workers,
    ``__exit__`` releases them); between the two, :meth:`submit`
    accepts :class:`JobRequest` payloads and returns futures resolving
    to ``_execute_payload`` outcome tuples.  ``submit`` may raise when
    a request cannot cross the backend's boundary (unpicklable
    callable, non-module-level function or a progress callback for
    ``tcp``); the runner records that as a failed submission.
    """

    name = "abstract"

    def __enter__(self) -> "ExecutorBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def submit(self, request: JobRequest) -> Future:
        raise NotImplementedError

    def shutdown(self, cancel_futures: bool = False) -> None:
        raise NotImplementedError


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
_BACKENDS: "dict[str, Callable[..., ExecutorBackend]]" = {}


def register_backend(name: str,
                     factory: Callable[..., ExecutorBackend]) -> None:
    """Register a backend factory under ``name``.

    The factory is called as ``factory(workers, cache=..., log=...)``
    with the resolved integer worker count, the runner's artifact store
    (or ``None``), and the runner's log callable (or ``None``).
    """
    _BACKENDS[name] = factory


def backend_names() -> list[str]:
    return sorted(_BACKENDS)


def resolve_backend(value: "str | None" = None) -> str:
    """Backend name from the argument, env, or the ``local`` default.

    Unknown names raise a structured
    :class:`~repro.approx.ConfigError` (CLI: exit 2 with JSON), naming
    whether the bad value came from the argument or the environment.
    """
    source = "backend"
    if value is None:
        value = os.environ.get(BACKEND_ENV)
        if value is not None:
            source = BACKEND_ENV
    if value is None:
        return "local"
    name = value.strip().lower()
    if name not in _BACKENDS:
        from repro.approx import ConfigError
        raise ConfigError(
            f"unknown lab backend {value!r} "
            f"(registered: {', '.join(backend_names())})",
            field_name=source, value=value)
    return name


def create_backend(name: str, workers: int, *,
                   cache: "ArtifactStore | None" = None,
                   log: "Callable[[str], None] | None" = None
                   ) -> ExecutorBackend:
    """Instantiate the registered backend ``name``."""
    return _BACKENDS[resolve_backend(name)](workers, cache=cache,
                                            log=log)


# ----------------------------------------------------------------------
# local: a ProcessPoolExecutor with a progress pipe
# ----------------------------------------------------------------------
#: Worker end of the local backend's event pipe, set in every worker
#: process by the pool initializer.
_EVENTS = None


def _init_local_worker(events) -> None:
    global _EVENTS
    _EVENTS = events


def _post(conn, message) -> None:
    """Send one message down an event pipe in one atomic write (at most
    ``PIPE_BUF`` bytes), so workers and the parent share the pipe with
    no lock a killed worker could leave held.  A closed pipe means the
    backend shut down and nobody listens any more."""
    data = pickle.dumps(message)
    if len(data) + 4 > select.PIPE_BUF:          # + the length header
        raise ValueError(f"progress event of {len(data)} bytes exceeds "
                         f"the {select.PIPE_BUF - 4}-byte pipe limit")
    try:
        conn.send_bytes(data)
    except OSError:
        pass


def _run_local_job(token: int, fn, params, timeout, dep_results,
                   stream: bool):
    """Worker side of one local job: name the worker, then run it."""
    from .executor import _execute_payload
    _post(_EVENTS, (token, "pid", os.getpid()))
    if stream:
        params = dict(params, progress=lambda event: _post(
            _EVENTS, (token, "event", event)))
    return _execute_payload(fn, params, timeout, dep_results)


@dataclass
class _LocalJob:
    """Parent-side state of one submitted local job."""

    request: JobRequest
    future: Future                   # the caller's
    inner: "Future | None" = None    # the pool's, current attempt
    pid: "int | None" = None         # worker of the current attempt
    attempts: int = 0


class LocalBackend(ExecutorBackend):
    """A ``ProcessPoolExecutor`` with a progress pipe and pool recovery.

    Every job first reports its worker's pid, then streams its
    progress events, over one pipe shared by all workers.  A drain
    thread in the parent reads the pipe and calls the progress
    callbacks.  When the pool finishes a job, the parent appends a
    settle message to the same pipe, behind everything the job wrote
    before it returned; the drain thread resolves the caller's future
    only when it reaches that message, so no event outlives its job.

    A worker death breaks the whole pool: every job in it fails with
    ``BrokenProcessPool``.  The job whose worker died keeps that
    failure.  The others are resubmitted once to a fresh pool, like a
    tcp lease that went silent; a job broken a second time fails.  A
    broken pool is replaced before the next submit.  ``mp_context``
    picks the start method (``None`` is the platform default).
    """

    name = "local"

    def __init__(self, workers: int, cache=None, log=None,
                 mp_context=None):
        self.workers = workers
        self.mp_context = mp_context
        self._pool: "ProcessPoolExecutor | None" = None
        self._jobs: dict[int, _LocalJob] = {}
        self._tokens = itertools.count()
        self._lock = threading.Lock()
        self._reader = self._writer = self._drainer = None

    def __enter__(self) -> "LocalBackend":
        self._reader, self._writer = multiprocessing.Pipe(duplex=False)
        self._pool = self._new_pool()
        self._drainer = threading.Thread(target=self._drain,
                                         name="lab-local-events",
                                         daemon=True)
        self._drainer.start()
        return self

    def _new_pool(self) -> ProcessPoolExecutor:
        pool = ProcessPoolExecutor(
            max_workers=self.workers, mp_context=self.mp_context,
            initializer=_init_local_worker, initargs=(self._writer,))
        # Start every worker now.  Under a non-fork start method the
        # pool spawns workers on demand, and its manager thread only
        # watches a new worker for death after its next wake-up, which
        # the first of these answers brings.
        for _ in range(self.workers):
            pool.submit(os.getpid)
        return pool

    def submit(self, request: JobRequest) -> Future:
        token = next(self._tokens)
        job = self._jobs[token] = _LocalJob(request, Future())
        self._launch(token, job)
        return job.future

    def _launch(self, token: int, job: _LocalJob) -> None:
        request = job.request
        args = (_run_local_job, token, request.fn, request.params,
                request.timeout, request.dep_results,
                request.progress is not None)
        job.pid = None                  # a rerun forgets the dead worker
        with self._lock:
            if self._pool is None:
                raise RuntimeError("local backend is shut down")
            try:
                inner = self._pool.submit(*args)
            except BrokenProcessPool:
                self._pool.shutdown(wait=False)
                self._pool = self._new_pool()
                inner = self._pool.submit(*args)
            # The pool's own worker table: shutdown() drops the pool's
            # reference to it, but the manager thread keeps using it.
            workers = self._pool._processes
        job.inner = inner
        job.attempts += 1
        inner.add_done_callback(
            functools.partial(self._pool_done, token, workers))

    def _pool_done(self, token: int, workers: dict, inner: Future
                   ) -> None:
        if inner.cancelled():                  # shutdown cancels the job
            return
        dead = {}
        if isinstance(inner.exception(), BrokenProcessPool):
            # The pool's manager thread fails the futures before it
            # terminates the surviving workers, so at this point only
            # the workers that died on their own have exited.
            procs = {proc.sentinel: (pid, proc)
                     for pid, proc in list(workers.items())}
            for sentinel in multiprocessing.connection.wait(procs, 0):
                pid, proc = procs[sentinel]
                proc.join(1.0)                  # exiting: reap it
                dead[pid] = proc.exitcode
        _post(self._writer, (token, "settle", dead))

    def _drain(self) -> None:
        while True:
            try:
                token, kind, value = self._reader.recv()
            except (EOFError, OSError):
                return
            if token is None:                   # shutdown sentinel
                return
            job = self._jobs.get(token)
            if job is None:
                continue
            if kind == "pid":
                job.pid = value
            elif kind == "event":
                try:
                    job.request.progress(value)
                except Exception:
                    traceback.print_exc()
            else:
                self._settle(token, job, value)

    def _settle(self, token: int, job: _LocalJob,
                dead: "dict[int, int]") -> None:
        exc = job.inner.exception()
        if isinstance(exc, BrokenProcessPool):
            if job.pid in dead:
                exc = BrokenProcessPool(
                    f"worker {job.pid} died running {job.request.name!r}"
                    f" (exit code {dead[job.pid]})")
            elif job.attempts < 2:
                try:
                    self._launch(token, job)
                    return
                except Exception as error:
                    exc = error
        del self._jobs[token]
        try:
            if exc is not None:
                job.future.set_exception(exc)
            else:
                job.future.set_result(job.inner.result())
        except InvalidStateError:
            pass                                # cancelled by shutdown

    def shutdown(self, cancel_futures: bool = False) -> None:
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is None:
            return
        pool.shutdown(wait=not cancel_futures,
                      cancel_futures=cancel_futures)
        if cancel_futures:
            for job in list(self._jobs.values()):
                job.future.cancel()
        _post(self._writer, (None, None, None))
        self._drainer.join()
        self._reader.close()
        self._writer.close()


# ----------------------------------------------------------------------
# workqueue: in-process work stealing
# ----------------------------------------------------------------------
class WorkqueueBackend(ExecutorBackend):
    """Work-stealing thread pool for many-small-jobs grids.

    Each worker owns a deque: it pops its own work FIFO (submission
    order) and steals LIFO from the tail of the busiest victim when
    idle, the classic Blumofe–Leiserson discipline.  Jobs run in
    threads of the runner process — no pickling, no fork, no per-job
    process startup — which is exactly right when a grid has thousands
    of millisecond-scale candidate evaluations (the search workload)
    and exactly wrong for CPU-hour jobs wanting memory isolation.
    Timeouts are best-effort only (SIGALRM is main-thread-only); a hung
    job occupies its thread.
    """

    name = "workqueue"

    def __init__(self, workers: int, cache=None, log=None):
        self.workers = max(int(workers), 1)
        self._deques: "list[collections.deque]" = [
            collections.deque() for _ in range(self.workers)]
        self._cv = threading.Condition()
        self._rr = 0
        self._stop = False
        self._threads: list[threading.Thread] = []

    def __enter__(self) -> "WorkqueueBackend":
        for i in range(self.workers):
            thread = threading.Thread(target=self._worker, args=(i,),
                                      name=f"lab-wq-{i}", daemon=True)
            thread.start()
            self._threads.append(thread)
        return self

    def submit(self, request: JobRequest) -> Future:
        future: Future = Future()
        with self._cv:
            if self._stop:
                raise RuntimeError("workqueue backend is shut down")
            self._deques[self._rr % self.workers].append(
                (request, future))
            self._rr += 1
            self._cv.notify()
        return future

    def _take(self, index: int):
        own = self._deques[index]
        if own:
            return own.popleft()
        victims = sorted(
            (i for i in range(self.workers) if i != index),
            key=lambda i: len(self._deques[i]), reverse=True)
        for victim in victims:
            if self._deques[victim]:
                return self._deques[victim].pop()      # steal the tail
        return None

    def _worker(self, index: int) -> None:
        from .executor import _execute_payload
        while True:
            with self._cv:
                item = self._take(index)
                while item is None and not self._stop:
                    self._cv.wait(timeout=0.2)
                    item = self._take(index)
                if item is None:
                    return
            request, future = item
            if not future.set_running_or_notify_cancel():
                continue
            params = request.params if request.progress is None \
                else dict(request.params, progress=request.progress)
            outcome = _execute_payload(request.fn, params,
                                       request.timeout, request.dep_results)
            future.set_result(outcome)

    def shutdown(self, cancel_futures: bool = False) -> None:
        with self._cv:
            self._stop = True
            if cancel_futures:
                for deque_ in self._deques:
                    while deque_:
                        _, future = deque_.pop()
                        future.cancel()
            self._cv.notify_all()
        for thread in self._threads:
            thread.join(timeout=None if not cancel_futures else 0.1)
        self._threads = []


# ----------------------------------------------------------------------
# tcp: coordinator/worker over asyncio sockets (serve framing)
# ----------------------------------------------------------------------
def fn_reference(fn: Callable[..., Any]) -> str:
    """``module:qualname`` of a module-level callable.

    The wire protocol ships functions by reference, exactly like the
    pickle-by-reference contract the process pool already imposes;
    closures and lambdas cannot cross and are rejected at submit time.
    """
    module = getattr(fn, "__module__", None)
    qualname = getattr(fn, "__qualname__", None)
    if not module or not qualname or "<" in qualname:
        raise TypeError(
            f"tcp backend needs a module-level callable, got {fn!r}")
    return f"{module}:{qualname}"


def resolve_fn_reference(ref: str) -> Callable[..., Any]:
    """Import the callable a :func:`fn_reference` string names."""
    import importlib
    module_name, _, qualname = ref.partition(":")
    obj: Any = importlib.import_module(module_name)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    if not callable(obj):
        raise TypeError(f"{ref} is not callable")
    return obj


def _transfer_key(kind: str, token: str) -> str:
    """Content address of a transfer blob in the shared store."""
    return hashlib.sha256(f"lab-xfer\x1f{kind}\x1f{token}"
                          .encode()).hexdigest()


@dataclass
class _TcpJob:
    """Coordinator-side state of one submitted job."""

    name: str
    spec: dict[str, Any]
    future: Future
    submitted: float
    dispatches: int = 0
    leases: dict[str, "_TcpLease"] = field(default_factory=dict)


@dataclass
class _TcpLease:
    """One dispatch of a job to one worker."""

    token: str
    worker: str
    job: _TcpJob
    last_beat: float


class TcpBackend(ExecutorBackend):
    """Coordinator for the distributed ``tcp`` backend.

    The coordinator is an asyncio HTTP server (the serve wire framing)
    hosted on a background thread of the runner process.  Workers poll
    ``POST /v1/lab/lease`` for work, ``POST /v1/lab/heartbeat`` while
    running, and ``POST /v1/lab/complete`` with the outcome; ``ok``
    payloads travel through the shared content-addressed artifact
    store, never inline on the socket.  The monitor task re-dispatches
    a job whose lease went silent (straggler or killed worker) up to
    ``max_redispatch`` times — first completion wins — and beyond that
    resolves it as a structured error so the runner records ``failed``
    and the rest of the grid completes.  Dead spawned workers are
    respawned (bounded by ``respawn_limit``).
    """

    name = "tcp"

    def __init__(self, workers: int, cache=None, log=None, *,
                 host: str = "127.0.0.1", port: int = 0,
                 spawn: "int | None" = None,
                 heartbeat_s: float = 0.25,
                 stale_after_s: float = 4.0,
                 max_redispatch: int = 1,
                 respawn_limit: "int | None" = None):
        self.workers = max(int(workers), 1)
        self.host = host
        self.port = port                 # 0 = pick a free port
        self.spawn = self.workers if spawn is None else spawn
        self.heartbeat_s = heartbeat_s
        self.stale_after_s = stale_after_s
        self.max_redispatch = max_redispatch
        self.respawn_limit = (2 * self.workers if respawn_limit is None
                              else respawn_limit)
        self.log = log
        if cache is not None:
            self.store = cache
            self._own_store_root = None
        else:
            import tempfile
            self._own_store_root = tempfile.mkdtemp(prefix="lab-tcp-")
            self.store = ArtifactStore(self._own_store_root)
        self._queue: "collections.deque[_TcpJob]" = collections.deque()
        self._jobs: dict[str, _TcpJob] = {}
        self._leases: dict[str, _TcpLease] = {}
        self._procs: dict[str, subprocess.Popen] = {}
        self._spawned = 0          # monotonic: worker ids never reused
        self._respawns = 0
        self._loop = None
        self._thread: "threading.Thread | None" = None
        self._started = threading.Event()
        self._stopping = False
        self._start_error: "BaseException | None" = None

    # -- lifecycle (runner thread) ---------------------------------------
    def __enter__(self) -> "TcpBackend":
        self._thread = threading.Thread(target=self._loop_main,
                                        name="lab-tcp-coordinator",
                                        daemon=True)
        self._thread.start()
        if not self._started.wait(timeout=30):
            raise RuntimeError("tcp coordinator did not start")
        if self._start_error is not None:
            raise RuntimeError(
                f"tcp coordinator failed to start: {self._start_error}")
        for _ in range(self.spawn):
            self._spawn_worker()
        return self

    def _spawn_worker(self) -> None:
        wid = f"w{self._spawned}"
        self._spawned += 1
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in sys.path if p) + os.pathsep \
            + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.lab.worker",
             "--host", self.host, "--port", str(self.port),
             "--worker-id", wid, "--store", str(self.store.root),
             "--heartbeat-s", str(self.heartbeat_s)],
            env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL)
        self._procs[wid] = proc
        self._emit(f"[lab:tcp] spawned worker {wid} (pid {proc.pid})")

    def _emit(self, message: str) -> None:
        if self.log is not None:
            self.log(message)

    def submit(self, request: JobRequest) -> Future:
        if request.progress is not None:
            raise TypeError("tcp backend cannot stream progress events")
        ref = fn_reference(request.fn)       # raises on non-importable
        spec = {
            "name": request.name,
            "fn": ref,
            "params": request.params,
            "timeout": request.timeout,
            "deps_key": None,
        }
        if request.dep_results is not None:
            deps_key = _transfer_key("deps", request.name)
            self.store.put(deps_key, request.dep_results)
            spec["deps_key"] = deps_key
        future: Future = Future()
        job = _TcpJob(name=request.name, spec=spec, future=future,
                      submitted=time.monotonic())
        self._loop.call_soon_threadsafe(self._enqueue, job)
        return future

    def shutdown(self, cancel_futures: bool = False) -> None:
        if self._loop is None:
            return
        self._stopping = True
        if cancel_futures:
            for job in list(self._jobs.values()):
                job.future.cancel()
        loop = self._loop
        try:
            loop.call_soon_threadsafe(self._request_stop)
        except RuntimeError:
            pass                             # loop already closed
        for proc in self._procs.values():
            if proc.poll() is None:
                proc.terminate()
        if self._thread is not None:
            self._thread.join(timeout=10)
        for proc in self._procs.values():
            try:
                proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                proc.kill()
        self._procs.clear()
        self._loop = None
        self._thread = None

    # -- event loop (coordinator thread) ---------------------------------
    def _loop_main(self) -> None:
        import asyncio

        async def main() -> None:
            from repro.serve.protocol import (HttpError, error_response,
                                              json_response,
                                              read_request,
                                              write_response)

            stop = asyncio.Event()
            self._stop_event = stop

            async def handle(reader, writer):
                try:
                    while True:
                        try:
                            request = await read_request(reader)
                        except HttpError as exc:
                            error_response(writer, exc.status,
                                           "bad_request", str(exc),
                                           keep_alive=False)
                            break
                        if request is None:
                            break
                        status, doc = self._route(request)
                        if doc is None:
                            write_response(writer, status, b"",
                                           keep_alive=True)
                        else:
                            json_response(writer, status, doc)
                        await writer.drain()
                        if not request.keep_alive:
                            break
                except (ConnectionError, asyncio.IncompleteReadError,
                        OSError):
                    pass
                except asyncio.CancelledError:
                    # Coordinator shutdown cancelled us mid-read; end
                    # the task normally so the stream protocol's
                    # done-callback does not log a spurious exception.
                    pass
                finally:
                    try:
                        writer.close()
                        await writer.wait_closed()
                    except (ConnectionError, OSError):
                        pass

            server = await asyncio.start_server(
                handle, host=self.host, port=self.port)
            self.port = server.sockets[0].getsockname()[1]
            monitor = asyncio.ensure_future(self._monitor(stop))
            self._started.set()
            await stop.wait()
            monitor.cancel()
            server.close()
            await server.wait_closed()
            # Drain handler tasks for connections still open (workers
            # mid-poll) so the loop closes without pending-task noise.
            me = asyncio.current_task()
            others = [t for t in asyncio.all_tasks() if t is not me]
            for task in others:
                task.cancel()
            await asyncio.gather(*others, return_exceptions=True)

        loop = asyncio.new_event_loop()
        self._loop = loop
        try:
            loop.run_until_complete(main())
        except BaseException as exc:
            self._start_error = exc
            self._started.set()
        finally:
            loop.close()

    def _request_stop(self) -> None:
        self._stop_event.set()

    # -- coordinator state transitions (loop thread only) ----------------
    def _enqueue(self, job: _TcpJob) -> None:
        if self._stopping or job.future.cancelled():
            job.future.cancel()
            return
        self._jobs[job.name] = job
        self._queue.append(job)

    def _resolve(self, job: _TcpJob, outcome: tuple) -> None:
        for token in list(job.leases):
            self._leases.pop(token, None)
        job.leases.clear()
        self._jobs.pop(job.name, None)
        if not job.future.done():
            job.future.set_result(outcome)

    def _route(self, request) -> "tuple[int, dict | None]":
        path, method = request.path, request.method
        if path == "/v1/lab/health" and method == "GET":
            return 200, {"status": "ok", "queued": len(self._queue),
                         "leased": len(self._leases)}
        if path == "/v1/lab/lease" and method == "POST":
            return self._handle_lease(request)
        if path == "/v1/lab/heartbeat" and method == "POST":
            return self._handle_heartbeat(request)
        if path == "/v1/lab/complete" and method == "POST":
            return self._handle_complete(request)
        return 404, {"error": "not_found", "path": path}

    @staticmethod
    def _body(request) -> dict:
        try:
            doc = json.loads(request.body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            return {}
        return doc if isinstance(doc, dict) else {}

    def _handle_lease(self, request) -> "tuple[int, dict | None]":
        worker = str(self._body(request).get("worker", "?"))
        if self._stopping:
            return 200, {"shutdown": True}
        while self._queue:
            job = self._queue.popleft()
            if job.future.cancelled() or job.future.done():
                self._jobs.pop(job.name, None)
                continue
            job.dispatches += 1
            token = f"{job.name}@{job.dispatches}"
            lease = _TcpLease(token=token, worker=worker, job=job,
                              last_beat=time.monotonic())
            self._leases[token] = lease
            job.leases[token] = lease
            return 200, {"job": token, **job.spec}
        return 204, None

    def _handle_heartbeat(self, request) -> "tuple[int, dict]":
        doc = self._body(request)
        lease = self._leases.get(str(doc.get("job", "")))
        if lease is None:
            # The job completed elsewhere (re-dispatch won) or was
            # cancelled; tell the worker to stop wasting cycles on it.
            return 200, {"abandon": True}
        lease.last_beat = time.monotonic()
        return 200, {"ok": True}

    def _handle_complete(self, request) -> "tuple[int, dict]":
        doc = self._body(request)
        token = str(doc.get("job", ""))
        lease = self._leases.pop(token, None)
        if lease is None:
            return 200, {"ignored": True}      # duplicate completion
        job = lease.job
        job.leases.pop(token, None)
        if job.future.done():
            return 200, {"ignored": True}
        status = str(doc.get("status", "error"))
        wall = float(doc.get("wall_time_s", 0.0))
        rss = doc.get("peak_rss_kb")
        if status == "ok":
            value = self.store.get(str(doc.get("result_key", "")), MISS)
            if value is MISS:
                outcome = ("error",
                           f"worker {lease.worker} reported ok but the "
                           f"result artifact is missing/corrupt",
                           wall, rss)
            else:
                outcome = ("ok", value, wall, rss)
        else:
            outcome = (status, str(doc.get("error", "worker error")),
                       wall, rss)
        self._resolve(job, outcome)
        return 200, {"ok": True}

    async def _monitor(self, stop) -> None:
        import asyncio
        while not stop.is_set():
            await asyncio.sleep(min(self.heartbeat_s, 0.25))
            now = time.monotonic()
            dead_workers = set()
            for wid, proc in list(self._procs.items()):
                if proc.poll() is None:
                    continue
                dead_workers.add(wid)
                del self._procs[wid]
                if not self._stopping \
                        and self._respawns < self.respawn_limit:
                    self._respawns += 1
                    self._emit(f"[lab:tcp] worker {wid} died "
                               f"(exit {proc.returncode}); respawning")
                    try:
                        self._spawn_worker()
                    except OSError as exc:
                        self._emit(f"[lab:tcp] respawn failed: {exc}")
            for token, lease in list(self._leases.items()):
                died = lease.worker in dead_workers
                stale = now - lease.last_beat > self.stale_after_s
                if not died and not stale:
                    continue
                self._leases.pop(token, None)
                job = lease.job
                job.leases.pop(token, None)
                if job.future.done():
                    continue
                why = (f"worker {lease.worker} died"
                       if died else
                       f"worker {lease.worker} heartbeat lost "
                       f"(> {self.stale_after_s:.1f}s)")
                if job.dispatches <= self.max_redispatch \
                        and not self._stopping:
                    self._emit(f"[lab:tcp] {why}; re-dispatching "
                               f"{job.name}")
                    self._queue.append(job)
                else:
                    self._resolve(job, (
                        "error",
                        f"{why} after {job.dispatches} dispatch(es)",
                        now - job.submitted, None))


register_backend("local", LocalBackend)
register_backend("workqueue", WorkqueueBackend)
register_backend("tcp", TcpBackend)

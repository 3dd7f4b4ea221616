"""Shared plumbing of the repository benchmark.

Paths, the machine-speed calibration kernel, order statistics, the
peak memory of a measured window, stopping every process a run
started, the metric registry read from
``BENCHMARK.json`` and the one JSON result line every run ends with.
Nothing here imports ``repro``: the calibration kernel must time the
machine, not the code under test.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import signal
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"

#: Every workload the benchmark knows, in the order ``--workload all``
#: runs them.
WORKLOADS = ("cold-flow", "serve-resubmit", "checker-search")

#: How many times each run repeats its set-up; ``setup_s`` is the median.
SETUP_REPS = 3


class BenchmarkError(RuntimeError):
    """A wrong output or a broken invariant: the run must fail."""


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def cpu_count() -> int:
    try:
        return max(len(os.sched_getaffinity(0)), 1)
    except AttributeError:                       # pragma: no cover
        return max(os.cpu_count() or 1, 1)


def descendants() -> list[int]:
    """Every live process below this one, from /proc."""
    found, todo = [], [os.getpid()]
    while todo:
        parent = todo.pop()
        for task in Path(f"/proc/{parent}/task").glob("*/children"):
            try:
                kids = [int(k) for k in task.read_text().split()]
            except OSError:                      # the task just ended
                continue
            found += [k for k in kids if k not in found]
            todo += kids
    return found


def stop_children(grace: float = 5.0) -> list[int]:
    """Stop every process this run started and wait until each ended.

    Each descendant gets SIGTERM, then SIGKILL after ``grace`` seconds,
    and is reaped.  The one exception is multiprocessing's resource
    tracker, which the ``spawn`` start method leaves running until its
    pipe closes, otherwise only after this process has exited: once
    the workers are gone, multiprocessing's own exit handler unlinks
    the semaphores, and then the tracker is stopped and reaped.
    Returns the pids still alive afterwards (normally none).
    """
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    tracker = tracker._resource_tracker if tracker is not None else None
    left = [pid for pid in descendants()
            if tracker is None or pid != tracker._pid]
    for sig in (signal.SIGTERM, signal.SIGKILL):
        for pid in left:
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                pass
        deadline = time.monotonic() + grace
        while left and time.monotonic() < deadline:
            for pid in list(left):
                try:
                    done, _ = os.waitpid(pid, os.WNOHANG)
                except ChildProcessError:        # not ours to reap
                    done = pid if not Path(f"/proc/{pid}").exists() else 0
                if done:
                    left.remove(pid)
            time.sleep(0.02)
        if not left:
            break
    if "multiprocessing.util" in sys.modules:
        sys.modules["multiprocessing.util"]._exit_function()
    if tracker is not None:
        tracker._stop()
    return descendants()


# ----------------------------------------------------------------------
# Machine-speed calibration
# ----------------------------------------------------------------------
def _kernel() -> int:
    """Fixed pure-Python work: hashing, integer arithmetic, sorting."""
    digest = b"perfbench"
    for _ in range(4000):
        digest = hashlib.sha256(digest).digest()
    acc = 0
    for i in range(200_000):
        acc = (acc * 31 + i) % 1_000_003
    values = [(i * 7919) % 10_007 for i in range(60_000)]
    values.sort()
    return acc + values[len(values) // 2] + digest[0]


def calibrate(reps: int = 5) -> float:
    """Seconds one calibration kernel takes here (minimum of ``reps``).

    Recorded beside every run so numbers from two machines can be put
    side by side without dividing by the code under test.
    """
    best = math.inf
    for _ in range(reps):
        start = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - start)
    return best


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def percentile(values, q: float) -> float:
    """Linear-interpolated ``q``-quantile (0..100) of ``values``."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of an empty sample")
    pos = (len(data) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def geomean(values) -> float:
    data = list(values)
    return math.exp(sum(math.log(v) for v in data) / len(data))


def median(values) -> float:
    return statistics.median(values)


def ratio(num: float, den: float) -> float:
    """``num / den``, or 0 when nothing was attempted."""
    return float(num) / den if den else 0.0


class RssSampler:
    """Peak resident memory of this process tree over a window.

    A thread sums the resident set of this process and every process
    it started (found through ``/proc/<pid>/task/<tid>/children``)
    every ``interval`` seconds, and keeps the largest sum.  Only the
    window between ``start`` and ``stop`` counts, so set-up work and
    processes reaped before the window do not.  Without ``/proc`` it
    falls back to this process's lifetime ``ru_maxrss``.
    """

    def __init__(self, interval: float = 0.05):
        self.interval = interval
        self.peak_bytes = 0
        self.samples = 0
        self._page = os.sysconf("SC_PAGE_SIZE")
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop,
                                        name="perfbench-rss", daemon=True)

    def _tree_rss(self) -> int:
        total = 0
        for pid in [os.getpid()] + descendants():
            try:
                pages = int(Path(f"/proc/{pid}/statm").read_text().split()[1])
            except (OSError, IndexError, ValueError):  # the process ended
                continue
            total += pages * self._page
        return total

    def sample(self) -> None:
        self.peak_bytes = max(self.peak_bytes, self._tree_rss())
        self.samples += 1

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            self.sample()

    def __enter__(self) -> "RssSampler":
        if Path("/proc/self/statm").is_file():
            self.sample()
            self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        if self._thread.is_alive():
            self._stop.set()
            self._thread.join()
            self.sample()

    @property
    def peak_mb(self) -> float:
        if not self.samples:                     # no /proc
            kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            return kib / 1024.0
        return self.peak_bytes / 2**20


# ----------------------------------------------------------------------
# Metric registry and the result line
# ----------------------------------------------------------------------
def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text())


def metric_units(trace: bool) -> dict[str, str]:
    """``{name: unit}`` of the metrics a run of this mode must print."""
    spec = load_spec()
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def result_line(*, correct: bool, attempted: int, failed: int,
                values: dict[str, float], trace: bool) -> str:
    """The final stdout line: every declared metric, by name and unit."""
    units = metric_units(trace)
    missing = sorted(set(units) - set(values))
    extra = sorted(set(values) - set(units))
    if missing or extra:
        raise BenchmarkError(f"metric set mismatch: missing {missing}, "
                             f"undeclared {extra}")
    metrics = {}
    for name, unit in units.items():
        value = float(values[name])
        if not math.isfinite(value):
            raise BenchmarkError(f"metric {name} is {value}")
        metrics[name] = {"value": value, "unit": unit}
    return json.dumps({"correct": bool(correct),
                       "attempted": int(attempted),
                       "failed": int(failed),
                       "metrics": metrics}, sort_keys=False)


@dataclass
class Outcome:
    """What one measured window of a workload produced."""

    #: End-to-end metric values by name.
    values: dict[str, float]
    attempted: int
    failed: int
    #: Wall seconds of the program's own work in the window; a traced
    #: window over an untraced one gives the tracing overhead.
    work_s: float
    #: Per-layer inputs (see ``layers.per_layer_metrics``).
    layers: dict = field(default_factory=dict)
    #: Human-readable lines printed before the result line.
    report: list[str] = field(default_factory=list)

"""Fault-simulation campaigns.

Implements the paper's evaluation loop: simulate random input vectors
against every single stuck-at fault and classify the resulting primary
output errors by direction (0->1 vs 1->0).  Bit-parallel words make each
(fault, word) simulation cover 64 runs of the paper's campaign.

One vector block and one golden simulation are shared across all
faults, and faults are re-evaluated in batches on the compiled tape
(:meth:`BitSimulator.run_stuck_batch`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .faults import Fault, fault_list
from .simulator import WORD_BITS, BitSimulator, bit_count, get_simulator

#: Fault lanes evaluated together in one batched tape pass.
DEFAULT_BATCH = 32


@dataclass
class OutputErrorStats:
    """Per-output error-direction counts across a campaign."""

    zero_to_one: int = 0
    one_to_zero: int = 0

    @property
    def total(self) -> int:
        return self.zero_to_one + self.one_to_zero

    @property
    def dominant_direction(self) -> str:
        """'0->1' or '1->0', whichever occurred more often."""
        return "0->1" if self.zero_to_one >= self.one_to_zero else "1->0"

    @property
    def skew(self) -> float:
        """Fraction of errors in the dominant direction (0.5 .. 1.0)."""
        if self.total == 0:
            return 1.0
        return max(self.zero_to_one, self.one_to_zero) / self.total


@dataclass
class FaultSimReport:
    """Aggregate result of a fault-injection campaign."""

    runs: int
    error_runs: int
    per_output: dict[str, OutputErrorStats] = field(default_factory=dict)
    per_fault_errors: dict[Fault, int] = field(default_factory=dict)

    @property
    def error_rate(self) -> float:
        return self.error_runs / self.runs if self.runs else 0.0


def batched(faults: list[Fault], sim: BitSimulator,
            batch_size: int = DEFAULT_BATCH):
    """Yield fault batches sorted by site depth.

    Sorting groups faults of similar logic level, so each batched tape
    pass skips the levels below its shallowest site (see
    :meth:`BitSimulator.run_forced_batch`).
    """
    ordered = sorted(faults, key=lambda f: sim.site_level(f.signal))
    for start in range(0, len(ordered), batch_size):
        yield ordered[start:start + batch_size]


def run_campaign(circuit, n_words: int = 8, seed: int = 2008,
                 faults: list[Fault] | None = None,
                 track_per_fault: bool = False,
                 batch_size: int = DEFAULT_BATCH) -> FaultSimReport:
    """Fault-simulate ``circuit`` and tally output error directions.

    Every fault is simulated against the same ``n_words * 64`` random
    vectors, in batches of ``batch_size`` faults.  An *error run* is a
    (vector, fault) pair for which at least one primary output differs
    from the golden value.
    """
    sim = get_simulator(circuit)
    if faults is None:
        faults = fault_list(circuit)
    rng = np.random.default_rng(seed)
    golden = sim.run(sim.random_inputs(rng, n_words))
    golden_out = sim.outputs_of(golden)            # (P, W)
    report = FaultSimReport(runs=len(faults) * n_words * WORD_BITS,
                            error_runs=0)
    n_outputs = len(sim.output_names)
    zero_to_one = np.zeros(n_outputs, dtype=np.int64)
    one_to_zero = np.zeros(n_outputs, dtype=np.int64)
    for batch in batched(faults, sim, batch_size):
        scratch = sim.run_stuck_batch(golden, batch)
        diff = scratch[sim.output_indices] ^ golden_out[:, None, :]
        any_error = np.bitwise_or.reduce(diff, axis=0)     # (B, W)
        per_fault = bit_count(any_error).sum(axis=1, dtype=np.int64)
        report.error_runs += int(per_fault.sum())
        if track_per_fault:
            for fault, count in zip(batch, per_fault):
                report.per_fault_errors[fault] = int(count)
        lifted = golden_out[:, None, :]
        zero_to_one += bit_count(diff & ~lifted).sum(axis=(1, 2),
                                                     dtype=np.int64)
        one_to_zero += bit_count(diff & lifted).sum(axis=(1, 2),
                                                    dtype=np.int64)
    for po, up, down in zip(sim.output_names, zero_to_one, one_to_zero):
        report.per_output[po] = OutputErrorStats(int(up), int(down))
    return report

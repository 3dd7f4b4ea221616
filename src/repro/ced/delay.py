"""CED coverage for transition (delay) faults — the Sec 5 extension.

Evaluates a :class:`~repro.ced.architecture.CedAssembly` under the
transition-fault model of :mod:`repro.sim.delayfaults`: random vector
pairs, a slow-to-rise/fall fault on one original gate, detection via
the consolidated two-rail pair in the second cycle.

The approximate check-symbol generator and the checkers are assumed to
meet timing (the approximate circuit's critical path is much shorter
than the original's — the very property the paper leverages), so only
the original gates carry delay faults.
"""

from __future__ import annotations

import numpy as np

from repro.sim import (DEFAULT_BATCH, WORD_BITS, batched, get_simulator,
                       popcount)
from repro.sim.delayfaults import (TransitionFault,
                                   run_transition_fault_batch,
                                   transition_fault_list)

from .architecture import CedAssembly
from .coverage import CoverageResult


def evaluate_delay_fault_ced(assembly: CedAssembly, n_words: int = 8,
                             seed: int = 2008,
                             faults: list[TransitionFault] | None = None,
                             batch_size: int = DEFAULT_BATCH,
                             ctx=None) -> CoverageResult:
    """Fault-simulate transition faults and measure CED coverage.

    One golden vector *pair* is drawn for the whole campaign and faults
    are evaluated in batches on the compiled tape.
    """
    sim = (ctx.simulator if ctx is not None
           else get_simulator)(assembly.netlist)
    if faults is None:
        faults = transition_fault_list(assembly.netlist,
                                       signals=assembly.fault_sites)
    po_indices = [sim.index[assembly.netlist.po_signals[po]]
                  for po in assembly.original.outputs]
    e0 = sim.index[assembly.error_pair[0]]
    e1 = sim.index[assembly.error_pair[1]]
    rng = np.random.default_rng(seed)

    error_runs = detected_error = detected_all = false_alarms = 0
    first = sim.run(sim.random_inputs(rng, n_words))
    second = sim.run(sim.random_inputs(rng, n_words))
    valid = second[e0] ^ second[e1]
    golden_invalid = popcount(~valid) * len(faults)
    second_po = second[po_indices]
    runs = len(faults) * n_words * WORD_BITS
    for batch in batched(faults, sim, batch_size):
        scratch = run_transition_fault_batch(sim, first, second, batch)
        diff = scratch[po_indices] ^ second_po[:, None, :]
        error_mask = np.bitwise_or.reduce(diff, axis=0) & valid
        detect_mask = ~(scratch[e0] ^ scratch[e1]) & valid
        error_runs += popcount(error_mask)
        detected_error += popcount(error_mask & detect_mask)
        detected_all += popcount(detect_mask)
        false_alarms += popcount(detect_mask & ~error_mask)
    return CoverageResult(
        runs=runs,
        error_runs=error_runs,
        detected_error_runs=detected_error,
        detected_runs=detected_all,
        false_alarms=false_alarms,
        golden_invalid=golden_invalid)

"""Reliability analysis: per-output error-direction profiles.

Plays the role of reference [14] (Choudhury & Mohanram, DATE'07) in the
flow: before synthesizing the approximate logic circuit, a quick mapped
netlist is analyzed to find, for every primary output, whether 0->1 or
1->0 errors dominate.  That decides the approximation direction (paper
Sec 3): a 0-approximation detects 0->1 errors, a 1-approximation detects
1->0 errors.

Two estimators are provided: the Monte Carlo fault-injection profile
(primary, matching the paper's evaluation fault model) and a cheap
analytic estimate based on output signal probability.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sim import (OutputErrorStats, batched, fault_list,
                       get_simulator, popcount, run_campaign,
                       signal_probabilities)


@dataclass
class ReliabilityReport:
    """Error-direction profile and derived CED decisions."""

    per_output: dict[str, OutputErrorStats]
    directions: dict[str, str]        # po -> "0->1" or "1->0" (dominant)
    approximations: dict[str, int]    # po -> 0 (0-approx) or 1 (1-approx)
    max_ced_coverage: float           # best coverage any direction-
                                      # protecting scheme can reach
    runs: int = 0
    error_runs: int = 0

    def skew(self, po: str) -> float:
        return self.per_output[po].skew


def analyze_reliability(circuit, n_words: int = 8, seed: int = 2008,
                        faults=None, ctx=None) -> ReliabilityReport:
    """Monte Carlo reliability analysis of a (mapped) circuit.

    Injects every single stuck-at fault against random vectors, tallies
    output error directions, picks the dominant direction per output,
    and computes the maximum CED coverage achievable by protecting only
    the dominant direction at every output (Table 1's "Max." column).
    """
    report = run_campaign(circuit, n_words=n_words, seed=seed,
                          faults=faults)
    directions = {po: stats.dominant_direction
                  for po, stats in report.per_output.items()}
    approximations = {po: 0 if direction == "0->1" else 1
                      for po, direction in directions.items()}
    max_cov = max_ced_coverage(circuit, approximations, n_words=n_words,
                               seed=seed + 1, faults=faults, ctx=ctx)
    return ReliabilityReport(
        per_output=report.per_output,
        directions=directions,
        approximations=approximations,
        max_ced_coverage=max_cov,
        runs=report.runs,
        error_runs=report.error_runs)


def max_ced_coverage(circuit, approximations: dict[str, int],
                     n_words: int = 8, seed: int = 2008,
                     faults=None, ctx=None) -> float:
    """Coverage upper bound for direction-protecting CED.

    A run with an erroneous output is *detectable* when at least one
    erroneous output flipped in its protected direction (0->1 under a
    0-approximation, 1->0 under a 1-approximation); with a perfect
    (100%) approximation those are exactly the detected runs.
    """
    sim = (ctx.simulator if ctx is not None
           else get_simulator)(circuit)
    if faults is None:
        faults = fault_list(circuit)
    rng = np.random.default_rng(seed)
    error_runs = 0
    detectable_runs = 0
    golden = sim.run(sim.random_inputs(rng, n_words))
    golden_out = sim.outputs_of(golden)
    # Per-output direction masks: True = protect 0->1 errors.
    protect_up = np.array(
        [approximations.get(po, 0) == 0 for po in sim.output_names],
        dtype=bool)
    for batch in batched(faults, sim):
        diff = sim.run_stuck_batch(golden, batch)[
            sim.output_indices] ^ golden_out[:, None, :]
        lifted = golden_out[:, None, :]
        detectable = np.where(protect_up[:, None, None],
                              diff & ~lifted, diff & lifted)
        any_error = np.bitwise_or.reduce(diff, axis=0)
        any_detectable = np.bitwise_or.reduce(detectable, axis=0)
        error_runs += popcount(any_error)
        detectable_runs += popcount(any_detectable & any_error)
    if error_runs == 0:
        return 0.0
    return detectable_runs / error_runs


def analytic_directions(network) -> dict[str, int]:
    """Cheap analytic approximation-direction guess.

    When an output is 1 with probability p, a random error flips a 0 to
    a 1 with probability ~(1-p): outputs that are usually 0 see mostly
    0->1 errors and get a 0-approximation.  This is the zeroth-order
    version of [14]; the Monte Carlo profile is the reference.
    """
    probs = signal_probabilities(network)
    result = {}
    for po in network.outputs:
        result[po] = 0 if probs[po] < 0.5 else 1
    return result

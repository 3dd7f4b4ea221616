"""Equivalence tests for the compiled simulation tape.

The compiled engine must be bit-identical to the seed interpreter
(`run_interpreted`) on every circuit of the generator suite, under both
random and exhaustive inputs, and the batched fault engine must agree
with the overlay-based cone propagation fault by fault.
"""

import numpy as np
import pytest

from repro.bench.suite import (TABLE1_CONE_SPECS, TABLE2_SPECS,
                               load_benchmark, tiny_benchmark)
from repro.sim import (BitSimulator, clear_simulator_cache,
                       exhaustive_inputs, fault_list, get_simulator,
                       run_campaign)
from repro.sim.simulator import (_popcount_unpackbits, bit_count,
                                 popcount)
from repro.synth import quick_map

TABLE2_NAMES = sorted(TABLE2_SPECS)
TABLE1_NAMES = sorted(TABLE1_CONE_SPECS)


class TestTapeMatchesInterpreter:
    @pytest.mark.parametrize("name", TABLE2_NAMES)
    def test_table2_random(self, name):
        net = load_benchmark(name, table=2)
        sim = BitSimulator(net)
        rng = np.random.default_rng(11)
        pi = sim.random_inputs(rng, 4)
        assert np.array_equal(sim.run(pi), sim.run_interpreted(pi))

    @pytest.mark.parametrize("name", TABLE1_NAMES)
    def test_table1_cones_random(self, name):
        net = load_benchmark(name, table=1)
        sim = BitSimulator(net)
        rng = np.random.default_rng(13)
        pi = sim.random_inputs(rng, 4)
        assert np.array_equal(sim.run(pi), sim.run_interpreted(pi))

    @pytest.mark.parametrize("name", ["cmb", "cordic", "term1"])
    def test_mapped_random(self, name):
        mapped = quick_map(load_benchmark(name, table=2))
        sim = BitSimulator(mapped)
        rng = np.random.default_rng(17)
        pi = sim.random_inputs(rng, 4)
        assert np.array_equal(sim.run(pi), sim.run_interpreted(pi))

    def test_tiny_exhaustive(self):
        net = tiny_benchmark()
        sim = BitSimulator(net)
        pi = exhaustive_inputs(len(net.inputs))
        assert np.array_equal(sim.run(pi), sim.run_interpreted(pi))

    def test_cmb_exhaustive(self):
        net = load_benchmark("cmb", table=2)
        sim = BitSimulator(net)
        pi = exhaustive_inputs(len(net.inputs))
        assert np.array_equal(sim.run(pi), sim.run_interpreted(pi))

    def test_constant_covers(self):
        from repro.cubes import Cover
        from repro.network import Network
        net = Network("consts")
        net.add_input("a")
        net.add_node("zero", ["a"], Cover(1))          # empty cover: 0
        net.add_node("one", ["a"], Cover.from_strings(["-"]))  # tautology
        net.add_node("y", ["a", "zero", "one"],
                     Cover.from_strings(["1-1", "-1-"]))
        net.add_output("y")
        sim = BitSimulator(net)
        pi = exhaustive_inputs(1)
        assert np.array_equal(sim.run(pi), sim.run_interpreted(pi))


class TestBatchedMatchesOverlay:
    @pytest.mark.parametrize("name", ["cmb", "cordic"])
    def test_stuck_batch_bit_identical(self, name):
        mapped = quick_map(load_benchmark(name, table=2))
        sim = BitSimulator(mapped)
        rng = np.random.default_rng(23)
        golden = sim.run(sim.random_inputs(rng, 4))
        faults = fault_list(mapped)
        scratch = sim.run_stuck_batch(golden, faults)
        for lane, fault in enumerate(faults):
            overlay = sim.run_fault(golden, fault.signal, fault.stuck)
            reference = golden.copy()
            for idx, row in overlay.items():
                reference[idx] = row
            assert np.array_equal(scratch[:, lane, :], reference), fault

    def test_forced_batch_toggle(self):
        mapped = quick_map(tiny_benchmark())
        sim = BitSimulator(mapped)
        rng = np.random.default_rng(29)
        golden = sim.run(sim.random_inputs(rng, 4))
        rows = np.arange(len(sim.signals), dtype=np.intp)
        scratch = sim.run_forced_batch(golden, rows, ~golden)
        for lane, name in enumerate(sim.signals):
            overlay = sim.run_toggle(golden, name)
            reference = golden.copy()
            for idx, row in overlay.items():
                reference[idx] = row
            assert np.array_equal(scratch[:, lane, :], reference), name

    def test_empty_batch(self):
        sim = BitSimulator(tiny_benchmark())
        rng = np.random.default_rng(1)
        golden = sim.run(sim.random_inputs(rng, 2))
        scratch = sim.run_forced_batch(
            golden, np.zeros(0, dtype=np.intp),
            np.zeros((0, 2), dtype=np.uint64))
        assert scratch.shape == (len(sim.signals), 0, 2)


def _per_fault_campaign(mapped, n_words, seed):
    """Reference campaign: fresh vectors and golden run per fault,
    faults propagated by the overlay engine (the seed scheme)."""
    sim = BitSimulator(mapped)
    rng = np.random.default_rng(seed)
    runs = error_runs = 0
    up = {po: 0 for po in sim.output_names}
    down = {po: 0 for po in sim.output_names}
    for fault in fault_list(mapped):
        golden = sim.run(sim.random_inputs(rng, n_words))
        overlay = sim.run_fault(golden, fault.signal, fault.stuck)
        golden_out = sim.outputs_of(golden)
        diff = golden_out ^ sim.faulty_outputs(golden, overlay)
        runs += n_words * 64
        error_runs += popcount(np.bitwise_or.reduce(diff, axis=0))
        for po, g_row, d_row in zip(sim.output_names, golden_out, diff):
            up[po] += popcount(d_row & ~g_row)
            down[po] += popcount(d_row & g_row)
    return runs, error_runs, up, down


class TestCampaignModes:
    @pytest.mark.parametrize("name", ["cmb", "cordic"])
    def test_shared_and_per_fault_agree_on_directions(self, name):
        """The shared-block campaign estimates the same statistics as
        independent per-fault sampling: same run count, same dominant
        direction per output, error rate within sampling noise."""
        mapped = quick_map(load_benchmark(name, table=2))
        shared = run_campaign(mapped, n_words=16, seed=3)
        runs, error_runs, up, down = _per_fault_campaign(mapped, 16, 3)
        assert shared.runs == runs
        for po, stats in shared.per_output.items():
            reference = "0->1" if up[po] >= down[po] else "1->0"
            assert stats.dominant_direction == reference, po
        assert shared.error_rate == pytest.approx(error_runs / runs,
                                                  rel=0.15)


class TestPopcount:
    def test_matches_unpackbits_oracle(self):
        rng = np.random.default_rng(31)
        for shape in [(1,), (7,), (3, 5), (2, 3, 4)]:
            words = rng.integers(0, 1 << 64, size=shape, dtype=np.uint64)
            assert popcount(words) == _popcount_unpackbits(words)

    def test_lut_fallback_matches(self, monkeypatch):
        import repro.sim.simulator as simmod
        monkeypatch.setattr(simmod, "_HAS_BITWISE_COUNT", False)
        rng = np.random.default_rng(37)
        words = rng.integers(0, 1 << 64, size=(4, 9), dtype=np.uint64)
        assert popcount(words) == _popcount_unpackbits(words)
        counts = bit_count(words)
        assert counts.shape == words.shape

    def test_edge_values(self):
        words = np.array([0, 0xFFFFFFFFFFFFFFFF, 1 << 63],
                         dtype=np.uint64)
        assert popcount(words) == 0 + 64 + 1
        assert popcount(np.zeros(0, dtype=np.uint64)) == 0

    def test_noncontiguous_input(self):
        rng = np.random.default_rng(41)
        words = rng.integers(0, 1 << 64, size=(6, 6), dtype=np.uint64)
        view = words[::2, 1::2]
        assert popcount(view) == _popcount_unpackbits(
            np.ascontiguousarray(view))


class TestSimulatorCache:
    def test_same_object_reused(self):
        clear_simulator_cache()
        net = tiny_benchmark()
        assert get_simulator(net) is get_simulator(net)

    def test_distinct_circuits_distinct_sims(self):
        clear_simulator_cache()
        assert get_simulator(tiny_benchmark(1)) is not \
            get_simulator(tiny_benchmark(2))

    def test_mutation_invalidates(self):
        from repro.cubes import Cover
        clear_simulator_cache()
        net = tiny_benchmark()
        before = get_simulator(net)
        pi = net.inputs[0]
        net.add_node("extra_gate", [pi], Cover.from_strings(["0"]))
        net.add_output("extra_gate")
        after = get_simulator(net)
        assert after is not before
        assert "extra_gate" in after.index

    def test_clear(self):
        net = tiny_benchmark()
        first = get_simulator(net)
        clear_simulator_cache()
        assert get_simulator(net) is not first

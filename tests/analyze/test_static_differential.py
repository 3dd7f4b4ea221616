"""Differential test of the static rung against independent deciders.

Hypothesis generates small ``repro.bench.generators`` networks and
edits an approximate copy *in place* with the checker-search mutators
(``cube_drop`` / ``cube_add`` / ``literal_flip``), keeping one
``StaticDischarger`` and one ``ConeMatcher`` alive across the edits so
their shared memos are exercised across network versions.  After every
edit:

* the memoized cone equality agrees with a fresh per-call recursion
  kept here as the reference;
* every definite ``StaticDischarger.implication`` verdict (True or
  False) agrees with ``GlobalBdds.implies`` on freshly built BDDs.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.analyze import StaticDischarger
from repro.analyze.domains import ConeMatcher, cones_structurally_equal
from repro.bench.generators import random_network
from repro.network import GlobalBdds, Network
from repro.search.mutate import mutate_network


def reference_cones_equal(net_a: Network, root_a: str,
                          net_b: Network, root_b: str) -> bool:
    """Per-call structural cone equality: a fresh memo, rows re-sorted
    at every visit."""
    memo: dict[tuple[str, str], bool] = {}

    def eq(a: str, b: str) -> bool:
        key = (a, b)
        if key in memo:
            return memo[key]
        a_is_pi, b_is_pi = a in net_a.inputs, b in net_b.inputs
        if a_is_pi or b_is_pi:
            memo[key] = a_is_pi and b_is_pi and a == b
            return memo[key]
        node_a, node_b = net_a.nodes[a], net_b.nodes[b]
        memo[key] = False
        memo[key] = (len(node_a.fanins) == len(node_b.fanins)
                     and sorted(node_a.cover.to_strings())
                     == sorted(node_b.cover.to_strings())
                     and all(eq(fa, fb) for fa, fb
                             in zip(node_a.fanins, node_b.fanins)))
        return memo[key]

    return eq(root_a, root_b)


def _edit_in_place(approx: Network, rng: random.Random) -> None:
    """Apply one mutator move to ``approx`` itself (not a copy)."""
    mutant, log = mutate_network(approx, rng)
    for move in log:
        name = move.split("@", 1)[1]
        approx.replace_cover(name, mutant.nodes[name].cover)


def _check(original: Network, approx: Network,
           discharger: StaticDischarger, matcher: ConeMatcher) -> int:
    names = original.topological_order()
    for a in names:
        for b in names:
            want = reference_cones_equal(original, a, approx, b)
            assert matcher.equal(a, b) == want, (a, b)
            assert cones_structurally_equal(original, a, approx, b) \
                == want, (a, b)
    bdds = GlobalBdds(list(original.inputs))
    bdds.add_network(original, prefix="o_")
    bdds.add_network(approx, prefix="a_")
    definite = 0
    for name in names:
        for direction in (0, 1):
            proof = discharger.implication(name, direction)
            if proof.holds is None:
                continue
            definite += 1
            lhs, rhs = ("a_" + name, "o_" + name) if direction == 1 \
                else ("o_" + name, "a_" + name)
            assert proof.holds == bdds.implies(lhs, rhs), \
                (name, direction, proof.reason)
    return definite


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 10_000),
       n_inputs=st.integers(2, 5),
       n_nodes=st.integers(2, 9),
       edit_seed=st.integers(0, 10_000),
       edits=st.integers(0, 4))
def test_static_rung_agrees_with_reference_and_bdds(
        seed, n_inputs, n_nodes, edit_seed, edits):
    original = random_network(seed, n_nodes=n_nodes, n_inputs=n_inputs,
                              n_outputs=2, max_fanin=3, name="diff")
    approx = original.copy("diff_approx")
    discharger = StaticDischarger(original, approx)
    matcher = ConeMatcher(original, approx)
    rng = random.Random(edit_seed)
    _check(original, approx, discharger, matcher)
    for _ in range(edits):
        _edit_in_place(approx, rng)
        _check(original, approx, discharger, matcher)

"""The static rung's shared caches never serve a stale answer.

``StaticDischarger`` keeps one cone-equality memo and per-network
sorted-rows caches across every query, and ``NetworkAnalyses`` keeps
the proven-constant map per solved result.  Each is valid only at the
network versions it was filled at; these tests mutate a network
between two queries and demand the fresh answer.
"""

from repro.analyze import NetworkAnalyses, StaticDischarger
from repro.analyze.domains import ConeMatcher
from repro.cubes import Cover
from repro.network import Network

AND2 = Cover.from_strings(["11"])
OR2 = Cover.from_strings(["1-", "-1"])


def _pair() -> tuple[Network, Network]:
    """``f = g | x2`` with ``g = x0 & x1``, and an identical copy."""
    net = Network("memo")
    for pi in ("x0", "x1", "x2"):
        net.add_input(pi)
    net.add_node("g", ["x0", "x1"], AND2)
    net.add_node("f", ["g", "x2"], OR2)
    net.add_output("f")
    return net, net.copy()


def test_replace_cover_on_the_po_drops_a_struct_eq_proof():
    original, approx = _pair()
    discharger = StaticDischarger(original, approx)
    first = discharger.implication("f", 1)
    assert (first.holds, first.reason) == (True, "struct-eq")
    # f becomes g & x2: G => F still holds, but only by relation.
    approx.replace_cover("f", AND2)
    second = discharger.implication("f", 1)
    assert (second.holds, second.reason) == (True, "relation")
    assert discharger.implication("f", 0).holds is None


def test_a_mutation_deep_in_the_cone_drops_the_memo():
    original, approx = _pair()
    discharger = StaticDischarger(original, approx)
    assert discharger.implication("f", 1).reason == "struct-eq"
    assert discharger.implication("g", 1).reason == "struct-eq"
    # g grows from AND to OR, so the approx f only grows with it.
    approx.replace_cover("g", OR2)
    assert discharger.implication("f", 1).holds is None
    grown = discharger.implication("f", 0)
    assert (grown.holds, grown.reason) == (True, "relation")
    assert discharger.implication("g", 1).holds is None


def test_mutating_the_original_also_drops_the_memo():
    original, approx = _pair()
    discharger = StaticDischarger(original, approx)
    assert discharger.implication("f", 0).reason == "struct-eq"
    original.replace_cover("g", OR2)    # now the approx is the smaller
    assert discharger.implication("f", 0).holds is None
    assert discharger.implication("f", 1).reason == "relation"


def test_restoring_a_cover_restores_struct_eq():
    original, approx = _pair()
    discharger = StaticDischarger(original, approx)
    approx.replace_cover("g", OR2)
    assert discharger.implication("f", 1).holds is None
    approx.replace_cover("g", AND2)
    assert discharger.implication("f", 1).reason == "struct-eq"


def test_cone_matcher_rows_follow_each_network():
    original, approx = _pair()
    matcher = ConeMatcher(original, approx)
    assert matcher.equal("f", "f")
    assert matcher.rows_b("g") == ("11",)
    approx.replace_cover("g", OR2)
    assert matcher.rows_b("g") == ("-1", "1-")
    assert matcher.rows_a("g") == ("11",)
    assert not matcher.equal("f", "f")
    assert matcher.equal("g", "g") is False
    # One network on both sides shares a single rows cache.
    same = ConeMatcher(original, original)
    assert same.rows_a is same.rows_b
    assert same.equal("f", "f")


def test_constants_follow_mutations():
    net, _ = _pair()
    bundle = NetworkAnalyses(net)
    assert bundle.constants == {}
    assert bundle.constants is bundle.constants      # memoized
    net.replace_cover("g", Cover.zero(2))            # creates g == 0
    assert bundle.constants == {"g": 0}
    net.replace_cover("f", Cover.from_strings(["--"]))   # and f == 1
    assert bundle.constants == {"g": 0, "f": 1}
    net.replace_cover("g", AND2)                     # removes g == 0
    assert bundle.constants == {"f": 1}
    net.replace_cover("f", OR2)
    assert bundle.constants == {}

"""Network.is_input answers from a cached input set; it must never be stale.

The set is rebuilt whenever the ``inputs`` list changes through the
API (``add_input``) or is replaced by assignment (as ``copy`` and
``renamed`` do on the fresh network they return).
"""

from repro.cubes import Cover
from repro.network import Network


def _net() -> Network:
    net = Network("cache")
    net.add_input("a")
    net.add_input("b")
    net.add_node("f", ["a", "b"], Cover.from_strings(["11"]))
    net.add_output("f")
    return net


def test_add_input_after_a_query_is_seen():
    net = _net()
    assert net.is_input("a") and not net.is_input("c")
    net.add_input("c")
    assert net.is_input("c")
    assert net.signal_exists("c")


def test_copy_has_its_own_input_set():
    net = _net()
    assert not net.is_input("c")
    dup = net.copy()
    assert dup.is_input("a") and dup.is_input("b")
    dup.add_input("c")
    assert dup.is_input("c")
    assert not net.is_input("c")
    net.add_input("d")
    assert net.is_input("d") and not dup.is_input("d")


def test_renamed_sees_the_new_names():
    net = _net()
    assert net.is_input("a")
    dup = net.renamed(lambda name: "x_" + name)
    assert dup.is_input("x_a") and dup.is_input("x_b")
    assert not dup.is_input("a")
    assert not dup.is_input("x_f")
    kept = net.renamed(lambda name: "x_" + name, rename_inputs=False)
    assert kept.is_input("a") and not kept.is_input("x_a")


def test_direct_assignment_replaces_the_set():
    net = _net()
    assert net.is_input("a")
    net.inputs = ["b", "z"]
    assert not net.is_input("a")
    assert net.is_input("z") and net.is_input("b")
    assert net.signal_exists("z") and not net.signal_exists("a")

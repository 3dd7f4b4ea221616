"""The and/or/not apply kernels allocate exactly what ``ite`` would.

The reference managers below route ``and_``/``or_``/``not_``/``xor_``
through the generic ``ite``, the way the manager did before the
dedicated kernels.  Every comparison is on raw node ids and the full
node store (``_var``/``_lo``/``_hi`` and the unique table in insertion
order), on both engines: a kernel that skipped, reordered or added an
allocation would move an overflow verdict or a checker choice.
"""

import hashlib
import pickle
import weakref

import pytest
from hypothesis import given, settings, strategies as st

import repro.network.globalbdd as globalbdd
from repro.approx.config import ApproxConfig
from repro.bdd import BddManager, BddOverflowError, NumpyBddManager
from repro.bench import load_benchmark
from repro.cubes import Cover
from repro.flow.analysis import AnalysisContext
from repro.network.globalbdd import GlobalBdds, dfs_input_order

N_VARS = 7
BUDGET = ApproxConfig().bdd_node_budget


class _IteRouted:
    def not_(self, f):
        return self.ite(f, 0, 1)

    def and_(self, f, g):
        return self.ite(f, g, 0)

    def or_(self, f, g):
        return self.ite(f, 1, g)

    def xor_(self, f, g):
        return self.ite(f, self.not_(g), g)


class IteBddManager(_IteRouted, BddManager):
    pass


class IteNumpyBddManager(_IteRouted, NumpyBddManager):
    pass


ENGINES = {
    "python": (BddManager, IteBddManager),
    "numpy": (NumpyBddManager, IteNumpyBddManager),
}


def _store(mgr):
    return (list(mgr._var), list(mgr._lo), list(mgr._hi),
            list(mgr._unique.items()))


def _store_digest(mgr) -> str:
    return hashlib.sha256(repr(_store(mgr)).encode()).hexdigest()


class _PollLog:
    """A guard that never expires and records where it was polled."""

    def __init__(self):
        self.polls = []
        self.mgr = None

    def check_deadline(self, where=""):
        self.polls.append((where, self.mgr.num_nodes))


# ----------------------------------------------------------------------
# Random op sequences
# ----------------------------------------------------------------------
OPS = ("and", "or", "not", "xor", "ite", "restrict", "implies",
       "implies_many", "mark", "rollback", "budget")

op_lists = st.lists(
    st.tuples(st.sampled_from(OPS), st.integers(0, 1 << 16),
              st.integers(0, 1 << 16), st.integers(0, 1 << 16)),
    min_size=8, max_size=60)


def _replay(cls, ops):
    """Run ``ops`` on a fresh ``cls`` manager; log every observable."""
    mgr = cls(N_VARS)
    pool = [0, 1] + [mgr.var(v) for v in range(N_VARS)]
    marks = []
    log = []
    for kind, i, j, k in ops:
        # Index from the newest result: larger functions, more nodes.
        f, g, h = (pool[-1 - x % len(pool)] for x in (i, j, k))
        try:
            if kind == "and":
                out = mgr.and_(f, g)
            elif kind == "or":
                out = mgr.or_(f, g)
            elif kind == "not":
                out = mgr.not_(f)
            elif kind == "xor":
                out = mgr.xor_(f, g)
            elif kind == "ite":
                out = mgr.ite(f, g, h)
            elif kind == "restrict":
                out = mgr.restrict(f, j % N_VARS, k & 1)
            elif kind == "implies":
                out = mgr.implies(f, g)
            elif kind == "implies_many":
                out = tuple(mgr.implies_many([f, g, h], [h, f, g]))
            elif kind == "mark":
                marks.append(mgr.mark())
                out = None
            elif kind == "rollback":
                if marks:
                    mgr.rollback(marks.pop())
                    pool = [p for p in pool if p < mgr.num_nodes]
                out = None
            else:  # budget: a cap a few nodes away, so ops overflow mid-way
                mgr.max_nodes = None if i % 4 == 0 \
                    else mgr.num_nodes + j % 48
                out = mgr.max_nodes
        except BddOverflowError:
            out = "overflow"
        if isinstance(out, int) and kind not in ("implies", "budget"):
            pool.append(out)
        log.append((kind, out, mgr.num_nodes))
    return log, _store(mgr)


@settings(max_examples=150, deadline=None)
@given(engine=st.sampled_from(sorted(ENGINES)), ops=op_lists)
def test_kernels_replay_ite_id_for_id(engine, ops):
    fast, reference = ENGINES[engine]
    assert _replay(fast, ops) == _replay(reference, ops)


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_overflow_point_and_guard_polls_match(engine):
    """Allocation counts drive both the budget and the guard polls."""
    fast, reference = ENGINES[engine]
    seen = []
    for cls in (fast, reference):
        mgr = cls(24)
        xs = [mgr.var(v) for v in range(24)]
        guard = _PollLog()
        guard.mgr = mgr
        mgr.guard = guard
        mgr.max_nodes = 5000
        acc = 0
        with pytest.raises(BddOverflowError):
            # OR of x_i & !x_{i+12}: exponential in this variable order,
            # and only the kernels allocate.
            for i in range(12):
                acc = mgr.or_(acc, mgr.and_(xs[i], mgr.not_(xs[i + 12])))
        assert mgr.num_nodes == 5000
        seen.append((guard.polls, _store(mgr)))
    assert seen[0][0], "build too small to poll the guard"
    assert seen[0] == seen[1]


def test_kernels_write_the_ite_cache_keys():
    """``ite`` and the kernels share one cache under ite's keys."""
    mgr = BddManager(3)
    a, b = mgr.var(0), mgr.var(1)
    conj = mgr.and_(b, a)
    disj = mgr.or_(b, a)
    neg = mgr.not_(a)
    lo, hi = min(a, b), max(a, b)
    assert mgr._ite_cache[(lo, hi, 0)] == conj
    assert mgr._ite_cache[(lo, 1, hi)] == disj
    assert mgr._ite_cache[(a, 0, 1)] == neg
    assert mgr.ite(lo, hi, 0) == conj
    assert mgr.xor_(a, 1) == neg


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_manager_is_freed_by_reference_counting(engine):
    mgr = ENGINES[engine][0](4)
    mgr.or_(mgr.var(0), mgr.not_(mgr.var(3)))
    ref = weakref.ref(mgr)
    del mgr
    assert ref() is None


def test_kernels_survive_pickling():
    mgr = BddManager(3)
    f = mgr.and_(mgr.var(0), mgr.var(2))
    clone = pickle.loads(pickle.dumps(mgr))
    assert _store(clone) == _store(mgr)
    g = clone.or_(f, clone.not_(clone.var(1)))
    assert clone.num_nodes > mgr.num_nodes
    assert mgr.or_(f, mgr.not_(mgr.var(1))) == g
    assert _store(clone) == _store(mgr)


# ----------------------------------------------------------------------
# Flow-level pins: the pair BDDs of real circuits
# ----------------------------------------------------------------------
def _under_approx(network):
    """A copy with every third multi-cube node losing its last cube."""
    approx = network.copy()
    multi = sorted(name for name, node in approx.nodes.items()
                   if len(node.cover.cubes) > 1)
    for name in multi[::3]:
        cover = approx.nodes[name].cover
        approx.replace_cover(name, Cover(cover.n, cover.cubes[:-1]))
    return approx


def _pair_record(original, approx):
    ctx = AnalysisContext()
    guard = _PollLog()
    ctx.guard = guard
    make = globalbdd.make_manager

    def traced(num_vars, max_nodes=None):
        guard.mgr = make(num_vars, max_nodes=max_nodes)
        return guard.mgr

    globalbdd.make_manager = traced
    try:
        bdds = ctx.pair_bdds(original, approx, budget=BUDGET)
    finally:
        globalbdd.make_manager = make
    return _store_digest(bdds.manager), bdds.functions, guard.polls


def _with_reference(monkeypatch, engine):
    reference = ENGINES[engine][1]
    monkeypatch.setattr(
        globalbdd, "make_manager",
        lambda num_vars, max_nodes=None: reference(num_vars,
                                                   max_nodes=max_nodes))


@pytest.mark.parametrize("engine", sorted(ENGINES))
@pytest.mark.parametrize("circuit", ["x1", "frg2"])
def test_pair_bdds_match_ite_reference(circuit, engine, monkeypatch):
    monkeypatch.setenv("REPRO_BDD_ENGINE", engine)
    original = load_benchmark(circuit)
    approx = _under_approx(original)
    fast = _pair_record(original, approx)
    assert fast[2], "no guard polls recorded"
    _with_reference(monkeypatch, engine)
    assert _pair_record(original, approx) == fast


def test_i10_original_side_overflows_at_the_budget(monkeypatch):
    """i10's original side overflows the flow's default node budget at
    exactly the node the ite-routed build overflows at."""
    monkeypatch.setenv("REPRO_BDD_ENGINE", "numpy")
    original = load_benchmark("i10")
    order = dfs_input_order(original)
    digests = []
    for use_reference in (False, True):
        if use_reference:
            _with_reference(monkeypatch, "numpy")
        bdds = GlobalBdds(order, max_nodes=BUDGET)
        with pytest.raises(BddOverflowError):
            bdds.add_network(original, prefix="o_")
        assert bdds.manager.num_nodes == BUDGET
        digests.append(_store_digest(bdds.manager))
    assert digests[0] == digests[1]

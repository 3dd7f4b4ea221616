"""The iterative cube-selection algorithm (paper Sec 2.2).

Pipeline:

1. assign types (Sec 2.1.1 preprocessing);
2. *approximation of SOPs*: every node's phase SOP is reduced by freely
   discarding insignificant cubes;
3. *ensuring correctness*: primary outputs are checked for the
   implication condition (BDDs, with a simulation fallback); incorrect
   outputs trigger a backward traversal to *sources* of incorrect
   approximation — incorrectly approximated nodes whose fanins are all
   correct — which are repaired with ODC-based cube selection first and
   exact cube selection second.

Exact selection at a source provably restores correctness (the paper's
theorem), so the loop terminates; a round bound with a restore-exact
fallback guards the simulation-checked path.

Under a :class:`repro.guard.Budget`, the whole check runs as a
*degradation ladder* (DESIGN.md §12): global BDDs first, incremental
SAT when the BDDs overflow their capped budget, and — when SAT's
conflict budget or the deadline runs out too — a last-resort rebuild
using only exact per-node conformance selection, which is correct by
construction (the paper's implication theorem) and needs no checking
engine at all.  Each rung is recorded in the budget's
:class:`~repro.guard.BudgetReport`; with no budget, every code path is
bit-identical to the ungoverned flow.

Above the whole ladder sits the *static-discharge rung* (DESIGN.md
§15): :class:`repro.analyze.StaticDischarger` decides implication
queries by constant/containment/relational dataflow analysis — no BDD
node, no SAT clause.  Static verdicts are theorems of the analyses, so
the rung is behavior-neutral (``ApproxConfig.static_discharge`` turns
it off, bit-identically) — even over the *statistical* checker: a
discharged implication has no violating vector, so the simulator would
also answer True, and a static refutation is a constant conflict
violated on every vector, so the simulator would also answer False.
Chaos-rigged budgets bypass the rung so fault drills still exercise
the proving engines.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from repro.analyze import REL_EQ, StaticDischarger
from repro.bdd import BddOverflowError
from repro.cubes import Cover, minimize
from repro.guard import Budget, DeadlineExceeded
from repro.lab.proofs import (EXACT_ENGINES, STATIC_ENGINE,
                              TRUSTED_ENGINES, ConeFingerprinter,
                              implication_key)
from repro.network import (Network, eliminate, propagate_constants,
                           strash, sweep, trim_unread_fanins)
from repro.sat.solver import SatBudgetExhausted, require_decided
from repro.sim import get_simulator

from repro.flow import AnalysisContext

from .config import ApproxConfig
from .cube_selection import (exact_select, implement_phase, odc_select,
                             phase_cover)
from .types import NodeType, assign_types


@dataclass
class ApproxResult:
    """Output of approximate synthesis."""

    approx: Network
    types: dict[str, NodeType]
    output_approximations: dict[str, int]
    #: Per-output correctness: True means the implication was verified
    #: (exactly under BDD checking, statistically under simulation).
    correctness: dict[str, bool]
    check_method: str
    repair_rounds: int = 0
    repaired_nodes: dict[str, str] = field(default_factory=dict)
    dropped_cubes: int = 0
    restored_cones: list[str] = field(default_factory=list)
    #: Static-verification report, when ApproxConfig.lint_level != "off".
    lint: object | None = None
    #: Registered engine that produced this result.
    engine: str = "cube"
    #: Error-constrained engines attach the final
    #: :meth:`~repro.approx.metrics.ErrorEvaluation.to_dict` here;
    #: implication-exact engines leave it None.
    error_report: dict | None = None

    @property
    def all_correct(self) -> bool:
        return all(self.correctness.values())


def synthesize_approximation(network: Network,
                             output_approximations: dict[str, int],
                             config: ApproxConfig | None = None,
                             ctx: AnalysisContext | None = None,
                             budget: Budget | None = None
                             ) -> ApproxResult:
    """Synthesize an approximate logic circuit for ``network``.

    ``output_approximations`` maps every primary output to 0 or 1: the
    approximation direction (0-approximation detects 0->1 errors at that
    output, 1-approximation detects 1->0 errors).  The returned network
    shares the primary-input names and output names of the original.

    ``ctx`` shares analysis state (global BDDs, probabilities) across
    calls and flow stages; results are bit-identical with or without it
    (BDD canonicity — see :mod:`repro.flow.analysis`).

    ``budget`` enables resource governance: the correctness check runs
    as a degradation ladder (BDD -> SAT -> conformance-only rebuild)
    instead of letting an engine exhaust raise, with every rung
    recorded in ``budget.report``.  With ``budget=None`` (the default)
    behavior is bit-identical to the ungoverned algorithm.
    """
    config = config or ApproxConfig()
    ctx = ctx if ctx is not None else AnalysisContext()
    if budget is not None:
        budget.start()
        ctx.guard = budget
    probs = ctx.probabilities(network, n_words=config.prob_words,
                              seed=config.seed)
    types = assign_types(network, output_approximations, config, probs)

    approx = network.copy("approx")
    dropped = _reduce_all_sops(approx, types, probs, config)

    repaired: dict[str, str] = {}
    repair_stage: dict[str, int] = {}
    restored: list[str] = []
    rounds = 0
    try:
        if budget is not None:
            budget.check_deadline("synthesize entry")
        # Cross-process proof cache: per-PO implication verdicts keyed
        # by cone fingerprint.  Only trusted (BDD/SAT/static) verdicts
        # are served or stored, and chaos-rigged budgets bypass it
        # entirely, so every flow stays bit-identical with a cold or
        # warm cache.
        proofs = getattr(ctx, "proofs", None)
        if config.check == "sim" or (budget is not None
                                     and budget.report.chaos):
            proofs = None
        # Static-discharge rung (repro.analyze): decides implications by
        # dataflow analysis alone.  Sound over every engine, including
        # the statistical checker (see the module docstring), but
        # disabled for chaos drills, which must exercise the proving
        # engines themselves.
        use_static = (config.static_discharge
                      and not (budget is not None
                               and budget.report.chaos))
        fingerprints = ConeFingerprinter() if proofs is not None else None

        def _rewrap(c):
            if isinstance(c, _StaticChecker):
                return c
            c = _wrap_proofs(c, proofs, fingerprints)
            if use_static and getattr(c, "method", None) \
                    in _STATIC_WRAPPABLE:
                return _StaticChecker(c, types, ctx, proofs, fingerprints)
            return c

        served = None
        if proofs is not None:
            if use_static:
                _precache_static(network, approx, output_approximations,
                                 proofs, fingerprints,
                                 StaticDischarger(network, approx,
                                                  ctx.analyses(network),
                                                  ctx.analyses(approx)))
            served = _serve_cached_proofs(network, approx,
                                          output_approximations,
                                          proofs, fingerprints, budget)
        if served is not None:
            correctness, check_method = served
        else:
            checker = _rewrap(
                _make_checker(network, approx, output_approximations,
                              types, config, ctx, budget))
            max_rounds = config.max_repair_rounds if budget is None \
                else budget.repair_cap(config.max_repair_rounds)
            while rounds < max_rounds:
                if budget is not None:
                    budget.check_deadline("repair round")
                incorrect = [po for po in network.outputs
                             if not checker.po_correct(po)]
                if not incorrect:
                    break
                rounds += 1
                sources = _find_sources(network, checker, incorrect)
                if not sources:
                    # POs disagree but no internal source is isolatable
                    # (can happen under statistical checking): restore
                    # the cones.
                    for po in incorrect:
                        _restore_cone(network, approx, po)
                        restored.append(po)
                    checker = _rewrap(
                        _safe_refresh(checker, network, approx,
                                      output_approximations, types,
                                      config, budget))
                    continue
                for name in sources:
                    stage = repair_stage.get(name, 0)
                    action = _repair_node(network, approx, types, name,
                                          stage, config)
                    repaired[name] = action
                    repair_stage[name] = stage + 1
                checker = _rewrap(
                    _safe_refresh(checker, network, approx,
                                  output_approximations, types,
                                  config, budget))
            else:
                # Round budget exhausted: make remaining outputs exact.
                for po in network.outputs:
                    if not checker.po_correct(po):
                        _restore_cone(network, approx, po)
                        restored.append(po)
                checker = _rewrap(
                    _safe_refresh(checker, network, approx,
                                  output_approximations, types,
                                  config, budget))

            correctness = {po: checker.po_correct(po)
                           for po in network.outputs}
            check_method = checker.method
            if budget is not None and isinstance(checker, _StaticChecker):
                checker.record_rung(budget)
    except (BddOverflowError, SatBudgetExhausted,
            DeadlineExceeded) as exc:
        if budget is None:
            raise
        # Last rung of the degradation ladder: rebuild from the
        # original applying only exact per-node conformance selection —
        # correct by construction (the paper's implication theorem), so
        # no checking engine is needed.  Partial repairs are discarded.
        _record_engine_failure(budget, exc)
        approx, dropped = _conformance_fallback(network, types, probs,
                                                config, budget)
        correctness = {po: True for po in network.outputs}
        check_method = "conformance"
    _resynthesize(approx, budget)
    result = ApproxResult(
        approx=approx,
        types=types,
        output_approximations=dict(output_approximations),
        correctness=correctness,
        check_method=check_method,
        repair_rounds=rounds,
        repaired_nodes=repaired,
        dropped_cubes=dropped,
        restored_cones=restored)
    if config.lint_level != "off":
        # Imported lazily: repro.lint imports repro.approx at top level.
        from repro.lint import LintError, lint_approx_result
        result.lint = lint_approx_result(network, result)
        if config.lint_level == "strict" and not result.lint.ok:
            raise LintError(result.lint)
    return result


def _resynthesize(approx: Network, budget: Budget | None = None) -> None:
    """Function-preserving cleanup of the approximate network.

    Cube selection leaves constants, unread fanins, single-fanout
    chains, and redundant SOPs behind; re-optimizing them is where much
    of the paper's area saving comes from (their flow hands the
    approximate network back to the synthesis tool).

    An expired ``budget`` deadline truncates the per-node minimization
    and skips the eliminate sweep: both are optimizations, so the
    result stays functionally identical, just less compact.
    """
    governed = budget is not None
    if governed and budget.expired:
        budget.report.skip("resynthesize", "deadline expired")
    propagate_constants(approx)
    trim_unread_fanins(approx)
    sweep(approx)
    for name in approx.topological_order():
        node = approx.nodes[name]
        if node.fanins:
            approx.replace_cover(
                name, minimize(node.cover, budget=budget))
    trim_unread_fanins(approx)
    if not (governed and budget.expired):
        eliminate(approx, max_support=8, max_cubes=12)
    propagate_constants(approx)
    strash(approx)
    sweep(approx)


def _conformance_fallback(network: Network, types: dict[str, NodeType],
                          probs: dict[str, float], config: ApproxConfig,
                          budget: Budget) -> tuple[Network, int]:
    """The ladder's last rung: conformance-only re-synthesis.

    Rebuilds the approximation from the original, reducing ZERO/ONE
    nodes with exact conformance selection only and keeping EX/DC nodes
    exact.  By the paper's implication theorem every node (hence every
    PO) is then a correct approximation of its type by construction —
    no BDD, SAT, or simulation check is required, so this rung cannot
    itself exhaust an engine.
    """
    fallback = dataclasses.replace(config, stage1="conformance",
                                   collapse_dc=False,
                                   reduce_ex_nodes=False)
    approx = network.copy("approx")
    dropped = _reduce_all_sops(approx, types, probs, fallback)
    budget.report.rung("conformance", "selected")
    return approx, dropped


def _record_engine_failure(budget: Budget, exc: Exception) -> None:
    """Record why the checking engine gave up, without duplicating the
    ladder events already written at the failure site."""
    report = budget.report
    if isinstance(exc, BddOverflowError):
        resource, event = "bdd_nodes", ("bdd", "overflow")
    elif isinstance(exc, SatBudgetExhausted):
        resource, event = "sat_conflicts", ("sat", "exhausted")
    else:
        resource, event = "deadline", None
        if report.engine is not None:
            event = (report.engine, "deadline")
    report.exhaust(resource, message=str(exc))
    if event is not None:
        last = report.ladder[-1] if report.ladder else None
        if last is None or (last["engine"], last["outcome"]) != event:
            report.rung(*event)


# ----------------------------------------------------------------------
# Stage 1: free SOP reduction
# ----------------------------------------------------------------------
def _reduce_all_sops(approx: Network, types: dict[str, NodeType],
                     probs: dict[str, float],
                     config: ApproxConfig) -> int:
    """Stage-1 reduction of every node's phase SOP.

    Type-0/1 nodes go through cube selection (conformance and/or
    significance dropping, per ``config.stage1``); DC nodes collapse to
    their most likely constant; EX nodes optionally get significance
    dropping only (any damage is repaired later).
    """
    dropped = 0
    for name in approx.topological_order():
        node = approx.nodes[name]
        node_type = types[name]
        if not node.fanins:
            continue
        if node_type is NodeType.DC and config.collapse_dc:
            value = probs[name] >= 0.5
            dropped += len(node.cover)
            approx.replace_node(
                name, [], Cover.one(0) if value else Cover.zero(0))
            continue
        if node_type is NodeType.EX and not config.reduce_ex_nodes:
            continue
        fanin_probs = [probs[f] for f in node.fanins]
        phase = phase_cover(node.cover, node_type)
        before = len(phase)
        if node_type in (NodeType.ZERO, NodeType.ONE) and \
                config.stage1 in ("conformance", "both"):
            fanin_types = [NodeType.EX if approx.is_input(f)
                           else types[f] for f in node.fanins]
            phase = exact_select(phase, fanin_types)
        if config.stage1 in ("significance", "both") and len(phase) > 1:
            phase, _ = _drop_insignificant(phase, fanin_probs, config)
        dropped += before - len(phase)
        approx.replace_cover(name, implement_phase(phase, node_type))
    trim_unread_fanins(approx)
    return dropped


def _drop_insignificant(phase: Cover, fanin_probs: list[float],
                        config: ApproxConfig) -> tuple[Cover, int]:
    if config.cube_drop_threshold <= 0.0 or len(phase) <= 1:
        return phase, 0
    total = max(phase.probability(fanin_probs), 1e-12)
    kept = []
    for cube in phase.cubes:
        mass = Cover(phase.n, [cube]).probability(fanin_probs)
        if mass / total >= config.cube_drop_threshold:
            kept.append(cube)
    if not kept:
        # Keep the single most significant cube rather than collapsing
        # the node to a constant outright; repair may still shrink it.
        best = max(phase.cubes, key=lambda c: Cover(
            phase.n, [c]).probability(fanin_probs))
        kept = [best]
    return Cover(phase.n, kept), len(phase) - len(kept)


# ----------------------------------------------------------------------
# Stage 2: correctness
# ----------------------------------------------------------------------
def _find_sources(network: Network, checker: "_Checker",
                  incorrect_pos: list[str]) -> list[str]:
    """Sources of incorrect approximation in the cones of bad outputs."""
    cone = network.transitive_fanin(
        [po for po in incorrect_pos if not network.is_input(po)])
    sources = []
    for name in network.topological_order():
        if name not in cone:
            continue
        if checker.node_correct(name):
            continue
        node = network.nodes[name]
        if all(network.is_input(f) or checker.node_correct(f)
               for f in node.fanins):
            sources.append(name)
    return sources


def _repair_node(network: Network, approx: Network,
                 types: dict[str, NodeType], name: str, stage: int,
                 config: ApproxConfig) -> str:
    """Repair one source node.  Returns the action taken.

    The repair ladder: ODC-based cube selection, then exact cube
    selection (provably correct when the fanins are correct), then —
    should a node still be incorrect, which can happen for EX nodes
    whose fanins are only directionally correct — restoring its entire
    transitive fanin cone to exact logic.  The final rung guarantees
    progress unconditionally.
    """
    node_type = types[name]
    original = network.nodes[name]
    if node_type in (NodeType.EX, NodeType.DC):
        if stage == 0:
            approx.replace_node(name, list(original.fanins),
                                original.cover.copy())
            return "restore"
        _restore_cone(network, approx, name)
        return "restore-cone"
    fanin_types = [NodeType.EX if network.is_input(f) else types[f]
                   for f in original.fanins]
    phase = phase_cover(original.cover, node_type)
    if stage == 0 and config.odc_in_repair:
        selected = odc_select(phase, fanin_types)
        approx.replace_node(name, list(original.fanins),
                            implement_phase(selected, node_type))
        return "odc"
    if stage <= 1:
        selected = exact_select(phase, fanin_types)
        approx.replace_node(name, list(original.fanins),
                            implement_phase(selected, node_type))
        return "exact"
    _restore_cone(network, approx, name)
    return "restore-cone"


def _restore_cone(network: Network, approx: Network, po: str) -> None:
    """Make the whole cone of ``po`` exact (the always-correct fallback)."""
    if network.is_input(po):
        return
    cone = network.transitive_fanin([po])
    node_type = type(next(iter(network.nodes.values())))
    touched = []
    for name in network.topological_order():
        if name in cone:
            node = network.nodes[name]
            # Restoring original nodes cannot create cycles (the
            # original network is acyclic), so the per-node
            # replace_node acyclicity re-check is skipped.
            approx.nodes[name] = node_type(name, list(node.fanins),
                                           node.cover.copy())
            touched.append(name)
    if touched:
        approx._invalidate(touched=touched)


# ----------------------------------------------------------------------
# Correctness checkers
# ----------------------------------------------------------------------
class _Checker:
    method = "abstract"

    def __init__(self, network: Network, approx: Network,
                 output_approximations: dict[str, int],
                 types: dict[str, NodeType]):
        self.network = network
        self.approx = approx
        self.directions = output_approximations
        self.types = types

    def refresh(self) -> None:
        raise NotImplementedError

    def po_correct(self, po: str) -> bool:
        if self.network.is_input(po):
            return True
        direction = self.directions[po]
        return self._implication_holds(po, 1 if direction == 1 else 0)

    def node_correct(self, name: str) -> bool:
        node_type = self.types[name]
        if node_type is NodeType.DC:
            return True
        if node_type is NodeType.EX:
            return self._equal(name)
        return self._implication_holds(
            name, 1 if node_type is NodeType.ONE else 0)

    def _implication_holds(self, name: str, direction: int) -> bool:
        raise NotImplementedError

    def _equal(self, name: str) -> bool:
        raise NotImplementedError


class _BddChecker(_Checker):
    """Exact implication checks on global BDDs of both networks.

    The pair BDDs come from the shared :class:`AnalysisContext`: the
    original's functions are built once per flow and each repair-round
    refresh recomputes only the cones the repairs touched.  Canonicity
    makes every implication verdict identical to a fresh rebuild.
    """

    method = "bdd"

    def __init__(self, network, approx, output_approximations, types,
                 budget: int | None,
                 ctx: AnalysisContext | None = None):
        super().__init__(network, approx, output_approximations, types)
        self.budget = budget
        self.ctx = ctx if ctx is not None else AnalysisContext()
        self.refresh()

    def refresh(self) -> None:
        self.bdds = self.ctx.pair_bdds(self.network, self.approx,
                                       self.budget)
        self._cache: dict[str, bool] = {}

    def _implication_holds(self, name: str, direction: int) -> bool:
        cached = self._cache.get(name)
        if cached is not None:
            return cached
        f = self.bdds.function("o_" + name)
        g = self.bdds.function("a_" + name)
        if direction == 1:
            ok = self.bdds.manager.implies(g, f)  # 1-approx: G => F
        else:
            ok = self.bdds.manager.implies(f, g)  # 0-approx: F => G
        self._cache[name] = ok
        return ok

    def _equal(self, name: str) -> bool:
        return self.bdds.function("o_" + name) == \
            self.bdds.function("a_" + name)


class _SatChecker(_Checker):
    """Exact implication checks by SAT (the paper's named alternative).

    Each refresh re-encodes both networks into a fresh CDCL solver;
    per-node queries are incremental solves under assumptions on the
    miter variables.
    """

    method = "sat"

    def __init__(self, network, approx, output_approximations, types,
                 max_conflicts: int | None = None,
                 deadline: float | None = None):
        super().__init__(network, approx, output_approximations, types)
        self.max_conflicts = max_conflicts
        self.deadline = deadline
        self.refresh()

    def refresh(self) -> None:
        from repro.sat import NetworkEncoder
        self.encoder = NetworkEncoder(self.network.inputs)
        self.encoder.add_network(self.network, prefix="o_")
        self.encoder.add_network(self.approx, prefix="a_")
        self._cache: dict[str, bool] = {}

    def _implication_holds(self, name: str, direction: int) -> bool:
        cached = self._cache.get(name)
        if cached is not None:
            return cached
        if direction == 1:   # 1-approx: G => F
            verdict = self.encoder.implication_holds(
                "a_" + name, "o_" + name, self.max_conflicts,
                self.deadline)
        else:                # 0-approx: F => G
            verdict = self.encoder.implication_holds(
                "o_" + name, "a_" + name, self.max_conflicts,
                self.deadline)
        # Unknown (budget ran out) must not be cached or collapsed into
        # "implication fails" — raise so the ladder degrades instead.
        ok = require_decided(verdict, f"implication check for {name!r}")
        self._cache[name] = ok
        return ok

    def _equal(self, name: str) -> bool:
        return require_decided(
            self.encoder.equivalent("o_" + name, "a_" + name,
                                    self.max_conflicts, self.deadline),
            f"equivalence check for {name!r}")


class _SimChecker(_Checker):
    """Statistical implication checks with bit-parallel simulation."""

    method = "sim"

    def __init__(self, network, approx, output_approximations, types,
                 n_words: int, seed: int):
        super().__init__(network, approx, output_approximations, types)
        self.n_words = n_words
        self.seed = seed
        self._orig_sim = get_simulator(network)
        rng = np.random.default_rng(seed)
        self._pi_words = self._orig_sim.random_inputs(rng, n_words)
        self._orig_values = self._orig_sim.run(self._pi_words)
        self.refresh()

    def refresh(self) -> None:
        approx_sim = get_simulator(self.approx)
        # Input rows must align with the original's input ordering.
        reorder = [self.network.inputs.index(pi)
                   for pi in approx_sim.input_names]
        self._approx_sim = approx_sim
        self._approx_values = approx_sim.run(self._pi_words[reorder])
        self._cache = {}

    def _rows(self, name: str):
        o = self._orig_values[self._orig_sim.index[name]]
        a = self._approx_values[self._approx_sim.index[name]]
        return o, a

    def _implication_holds(self, name: str, direction: int) -> bool:
        cached = self._cache.get(name)
        if cached is not None:
            return cached
        o, a = self._rows(name)
        if direction == 1:
            ok = not bool((a & ~o).any())   # G => F on every vector
        else:
            ok = not bool((o & ~a).any())   # F => G
        self._cache[name] = ok
        return ok

    def _equal(self, name: str) -> bool:
        o, a = self._rows(name)
        return bool(np.array_equal(o, a))


class _ProofCachedChecker:
    """Serves per-PO implication verdicts from the cross-process proof
    cache, storing every verdict the wrapped *exact* checker proves.

    Verdicts are content-addressed by the fingerprint of the original
    and approximate cones plus the check direction, so a hit is exactly
    as trustworthy as re-proving — the cone pair is byte-identical to
    the one the cached proof ran on.  Statistical (sim) verdicts are
    never served or stored; node-level queries pass straight through
    (repair rounds mutate the approx, so their cones rarely repeat).
    """

    def __init__(self, inner: _Checker, proofs, fingerprints):
        self._inner = inner
        self._proofs = proofs
        self._fp = fingerprints

    @property
    def method(self) -> str:
        return self._inner.method

    @property
    def network(self) -> Network:
        return self._inner.network

    @property
    def approx(self) -> Network:
        return self._inner.approx

    @property
    def directions(self) -> dict[str, int]:
        return self._inner.directions

    def refresh(self) -> None:
        self._inner.refresh()

    def node_correct(self, name: str) -> bool:
        return self._inner.node_correct(name)

    def po_correct(self, po: str) -> bool:
        inner = self._inner
        if inner.network.is_input(po):
            return True
        if inner.method not in EXACT_ENGINES:
            return inner.po_correct(po)
        direction = 1 if inner.directions[po] == 1 else 0
        key = implication_key(self._fp, inner.network, inner.approx,
                              po, direction)
        entry = self._proofs.get(key)
        if entry is not None and entry.get("engine") in TRUSTED_ENGINES:
            return bool(entry["holds"])
        ok = inner.po_correct(po)
        self._proofs.put(key, {
            "kind": "implication", "po": po, "direction": direction,
            "holds": bool(ok), "engine": inner.method})
        return ok


def _wrap_proofs(checker, proofs, fingerprints):
    if proofs is None or isinstance(checker, _ProofCachedChecker):
        return checker
    return _ProofCachedChecker(checker, proofs, fingerprints)


#: Checker methods the static rung may wrap.  The exact engines are
#: trivially safe (two sound provers agree).  The statistical checker
#: is safe too, per-query: its vectors are fixed at construction (not
#: a stream a skipped query would shift), a discharged implication has
#: no violating vector for the simulator to find, and a static
#: refutation is a constant conflict every vector violates.
_STATIC_WRAPPABLE = tuple(EXACT_ENGINES) + ("sim",)


class _StaticChecker:
    """The static-discharge rung, wrapped around the whole ladder.

    Implication queries the :class:`repro.analyze.StaticDischarger` can
    decide never reach the proof cache or a proving engine; everything
    else delegates unchanged.  Static verdicts are theorems of the
    dataflow analyses, so wrapping is behavior-neutral — the rung only
    changes *how fast* an answer arrives, never the answer (see
    ``_STATIC_WRAPPABLE`` for why that holds even over the statistical
    checker).  Discharged PO verdicts are stored in the cross-process
    proof cache under the ``"static"`` engine so warm runs and lint
    re-verification share them; per-node repair queries are counted
    but not cached (their cones rarely repeat).
    """

    def __init__(self, inner, types: dict[str, NodeType],
                 ctx: AnalysisContext, proofs, fingerprints):
        self._inner = inner
        self._types = types
        self._ctx = ctx
        self._proofs = proofs
        self._fp = fingerprints
        self._disch = StaticDischarger(
            inner.network, inner.approx,
            original_analyses=ctx.analyses(inner.network),
            approx_analyses=ctx.analyses(inner.approx))
        self.po_attempts = self.po_discharged = 0
        self.node_attempts = self.node_discharged = 0

    @property
    def method(self) -> str:
        return self._inner.method

    @property
    def network(self) -> Network:
        return self._inner.network

    @property
    def approx(self) -> Network:
        return self._inner.approx

    @property
    def directions(self) -> dict[str, int]:
        return self._inner.directions

    def refresh(self) -> None:
        # The discharger's analyses re-solve lazily (they watch the
        # network versions themselves), so only the engine refreshes.
        self._inner.refresh()

    def po_correct(self, po: str) -> bool:
        inner = self._inner
        if inner.network.is_input(po):
            return True
        if inner.method not in _STATIC_WRAPPABLE:
            return inner.po_correct(po)
        direction = 1 if inner.directions[po] == 1 else 0
        self.po_attempts += 1
        proof = self._disch.implication(po, direction)
        if proof.holds is None:
            self._ctx._miss("static")
            return inner.po_correct(po)
        self.po_discharged += 1
        self._ctx._hit("static")
        if self._proofs is not None:
            key = implication_key(self._fp, inner.network, inner.approx,
                                  po, direction)
            self._proofs.put(key, {
                "kind": "implication", "po": po, "direction": direction,
                "holds": bool(proof.holds), "engine": STATIC_ENGINE})
        return proof.holds

    def node_correct(self, name: str) -> bool:
        inner = self._inner
        if inner.method not in _STATIC_WRAPPABLE:
            return inner.node_correct(name)
        node_type = self._types[name]
        if node_type is NodeType.DC:
            return inner.node_correct(name)
        self.node_attempts += 1
        if node_type is NodeType.EX:
            # Exact nodes need cone *equality*; static can only confirm
            # it (EQ is a theorem), never refute it.
            if self._disch.relations().get(name) == REL_EQ \
                    or self._static_equal(name):
                self.node_discharged += 1
                self._ctx._hit("static_node")
                return True
            self._ctx._miss("static_node")
            return inner.node_correct(name)
        direction = 1 if node_type is NodeType.ONE else 0
        proof = self._disch.implication(name, direction)
        if proof.holds is None:
            self._ctx._miss("static_node")
            return inner.node_correct(name)
        self.node_discharged += 1
        self._ctx._hit("static_node")
        return proof.holds

    def _static_equal(self, name: str) -> bool:
        return name in self._inner.approx.nodes \
            and self._disch._structurally_equal(name)

    def record_rung(self, budget: Budget) -> None:
        """One informational ladder event summarizing the rung's work."""
        if not (self.po_discharged or self.node_discharged):
            return
        budget.report.rung(
            STATIC_ENGINE, "assisted",
            po_discharged=self.po_discharged,
            po_attempts=self.po_attempts,
            node_discharged=self.node_discharged,
            node_attempts=self.node_attempts)


def _serve_cached_proofs(network: Network, approx: Network,
                         output_approximations: dict[str, int],
                         proofs, fingerprints,
                         budget: Budget | None):
    """The warm-cache fast path: skip the checking engine entirely.

    Only when *every* PO's implication verdict is cached, trusted, and
    True — a single uncached or failing PO falls back to the normal
    checker (wrapped, so the cached verdicts still serve per PO).
    Returns ``(correctness, check_method)`` or None.
    """
    correctness: dict[str, bool] = {}
    engines: set[str] = set()
    for po in network.outputs:
        if network.is_input(po):
            correctness[po] = True
            continue
        direction = 1 if output_approximations[po] == 1 else 0
        key = implication_key(fingerprints, network, approx, po,
                              direction)
        entry = proofs.get(key)
        if entry is None or entry.get("engine") not in TRUSTED_ENGINES \
                or not entry.get("holds"):
            return None
        correctness[po] = True
        engines.add(entry["engine"])
    # Attribute the run to the strongest engine that contributed: an
    # all-static serve is the static rung's own fast path; any BDD
    # involvement claims "bdd"; SAT only when SAT actually proved one.
    if engines <= {STATIC_ENGINE}:
        method = STATIC_ENGINE
    elif engines <= {"bdd", STATIC_ENGINE}:
        method = "bdd"
    else:
        method = "sat"
    if budget is not None:
        budget.report.rung(method, "selected", proof_cache=True)
    return correctness, method


def _precache_static(network: Network, approx: Network,
                     output_approximations: dict[str, int],
                     proofs, fingerprints, static) -> None:
    """Cache the statically decidable PO implications before the
    checker is built, so a flow whose every PO the static rung decides
    is served from the cache without building one."""
    for po in network.outputs:
        if network.is_input(po):
            continue
        direction = 1 if output_approximations[po] == 1 else 0
        key = implication_key(fingerprints, network, approx, po,
                              direction)
        if proofs.get(key) is not None:
            continue
        verdict = static.implication(po, direction)
        if verdict.holds is not None:
            proofs.put(key, {
                "kind": "implication", "po": po,
                "direction": direction,
                "holds": bool(verdict.holds),
                "engine": STATIC_ENGINE})


def _safe_refresh(checker: "_Checker", network: Network, approx: Network,
                  output_approximations: dict[str, int],
                  types: dict[str, NodeType],
                  config: ApproxConfig,
                  budget: Budget | None = None) -> "_Checker":
    """Refresh a checker, downgrading BDD -> simulation on overflow
    (BDD -> SAT under a governing budget)."""
    try:
        checker.refresh()
        return checker
    except BddOverflowError:
        if budget is not None:
            cap = budget.bdd_cap(config.bdd_node_budget)
            budget.report.rung("bdd", "overflow", node_cap=cap,
                               where="refresh")
            budget.report.exhaust("bdd_nodes", cap=cap, where="refresh")
            return _governed_sat_checker(
                network, approx, output_approximations, types, budget)
        if config.check == "bdd":
            raise
        return _SimChecker(network, approx, output_approximations, types,
                           config.sim_check_words, config.seed)


def _governed_sat_checker(network: Network, approx: Network,
                          output_approximations: dict[str, int],
                          types: dict[str, NodeType],
                          budget: Budget) -> _SatChecker:
    """The ladder's SAT rung.  A zero conflict cap (the deterministic
    ``sat-exhausted`` chaos rig) skips straight past it."""
    max_conflicts = budget.sat_cap(None)
    if max_conflicts is not None and max_conflicts <= 0:
        raise SatBudgetExhausted(
            "SAT conflict budget is zero: the SAT rung cannot decide "
            "anything")
    checker = _SatChecker(network, approx, output_approximations,
                          types, max_conflicts=max_conflicts,
                          deadline=budget.deadline())
    budget.report.rung("sat", "selected", max_conflicts=max_conflicts)
    return checker


def _make_checker(network: Network, approx: Network,
                  output_approximations: dict[str, int],
                  types: dict[str, NodeType],
                  config: ApproxConfig,
                  ctx: AnalysisContext | None = None,
                  budget: Budget | None = None) -> _Checker:
    if budget is not None:
        return _governed_checker(network, approx, output_approximations,
                                 types, config, ctx, budget)
    if config.check == "sim":
        return _SimChecker(network, approx, output_approximations, types,
                           config.sim_check_words, config.seed)
    if config.check == "sat":
        return _SatChecker(network, approx, output_approximations,
                           types)
    try:
        return _BddChecker(network, approx, output_approximations, types,
                           config.bdd_node_budget, ctx)
    except BddOverflowError:
        if config.check == "bdd":
            raise
        return _SimChecker(network, approx, output_approximations, types,
                           config.sim_check_words, config.seed)


def _governed_checker(network: Network, approx: Network,
                      output_approximations: dict[str, int],
                      types: dict[str, NodeType],
                      config: ApproxConfig,
                      ctx: AnalysisContext | None,
                      budget: Budget) -> _Checker:
    """Budget-governed checker construction: the degradation ladder.

    BDD first (node cap = min of config and budget), SAT on overflow,
    and the caller's conformance fallback when SAT is exhausted too.
    An explicit ``check="sim"`` keeps the statistical checker; an
    explicit ``check="bdd"``/``"sat"`` still degrades down-ladder —
    under a budget, graceful completion outranks the engine pin.
    """
    if config.check == "sim":
        budget.report.rung("sim", "selected")
        return _SimChecker(network, approx, output_approximations, types,
                           config.sim_check_words, config.seed)
    if "sat-exhausted" in budget.report.chaos:
        # The chaos rig must hit the SAT rung deterministically; a BDD
        # checker that happens to fit its cap would mask the injection.
        budget.report.skip("bdd checker",
                          "chaos sat-exhausted routes past the BDD rung")
        return _governed_sat_checker(network, approx,
                                     output_approximations, types,
                                     budget)
    if config.check in ("auto", "bdd"):
        cap = budget.bdd_cap(config.bdd_node_budget)
        try:
            checker = _BddChecker(network, approx,
                                  output_approximations, types, cap,
                                  ctx)
            budget.report.rung("bdd", "selected", node_cap=cap)
            return checker
        except BddOverflowError:
            budget.report.rung("bdd", "overflow", node_cap=cap)
            budget.report.exhaust("bdd_nodes", cap=cap)
    return _governed_sat_checker(network, approx, output_approximations,
                                 types, budget)

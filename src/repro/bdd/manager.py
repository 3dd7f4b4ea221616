"""A reduced ordered binary decision diagram (ROBDD) package.

The manager owns all nodes; functions are plain integer node ids, so they
are hashable, comparable, and canonical (two ids are equal iff the
functions are equal under the manager's variable order).  This is the
engine behind the correctness checks of the iterative cube-selection
algorithm (paper Sec 2.2: "checking the implication condition for correct
approximation using BDDs") and behind exact approximation-percentage
accounting (minterm counting).

The implementation is a textbook ite-based ROBDD with a unique table and
an operation cache, plus an optional node budget so callers can fall back
to simulation-based checking when a global BDD blows up.  ``and_``,
``or_`` and ``not_`` run dedicated apply kernels (see
:func:`_apply_kernels`) that allocate exactly the nodes the equivalent
``ite`` call would, in the same order.
"""

from __future__ import annotations

import weakref
from typing import Iterable, Iterator, Sequence

from repro.cubes import Cover, Cube

_TERMINAL_VAR = 1 << 30  # ordered after every real variable


class BddOverflowError(RuntimeError):
    """Raised when the manager exceeds its configured node budget."""


class BddManager:
    """Owner of a shared ROBDD node store.

    Node ids 0 and 1 are the constant functions.  Variables are indexed
    ``0 .. num_vars-1`` and ordered by index.
    """

    #: Engine name; the numpy subclass overrides this.  Callers that can
    #: exploit batched operations test for them with ``hasattr``.
    engine = "python"

    def __init__(self, num_vars: int = 0, max_nodes: int | None = None):
        self.max_nodes = max_nodes
        #: Optional :class:`repro.guard.Budget` polled during node
        #: allocation, so a long build respects a wall-clock deadline
        #: cooperatively (checked every 1024 allocations).
        self.guard = None
        self._allocs = 0
        # Parallel arrays: variable index, low child (var=0), high child.
        self._var: list[int] = [_TERMINAL_VAR, _TERMINAL_VAR]
        self._lo: list[int] = [0, 1]
        self._hi: list[int] = [0, 1]
        self._unique: dict[tuple[int, int, int], int] = {}
        self._ite_cache: dict[tuple[int, int, int], int] = {}
        self._num_vars = 0
        self.zero = 0
        self.one = 1
        self._alloc, self._and, self._or, self._not = _apply_kernels(self)
        for _ in range(num_vars):
            self.add_var()

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        for name in ("_alloc", "_and", "_or", "_not"):
            del state[name]  # closures: rebuilt over the unpickled tables
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._alloc, self._and, self._or, self._not = _apply_kernels(self)

    # ------------------------------------------------------------------
    # Node store
    # ------------------------------------------------------------------
    @property
    def num_vars(self) -> int:
        return self._num_vars

    @property
    def num_nodes(self) -> int:
        return len(self._var)

    def add_var(self) -> int:
        """Declare a new variable (appended at the end of the order)."""
        self._num_vars += 1
        return self._num_vars - 1

    def var_of(self, f: int) -> int:
        return self._var[f]

    def lo_of(self, f: int) -> int:
        return self._lo[f]

    def hi_of(self, f: int) -> int:
        return self._hi[f]

    def is_terminal(self, f: int) -> bool:
        return f <= 1

    def mark(self) -> tuple[int, int, int, int]:
        """Opaque snapshot of the node store for :meth:`rollback`.

        Every structure in the manager is append-only (the node arrays
        grow, the unique table and operation cache only gain entries),
        so a mark is just the current lengths.
        """
        return (len(self._var), len(self._unique),
                len(self._ite_cache), self._num_vars)

    def rollback(self, mark: tuple[int, int, int, int]) -> None:
        """Restore the exact node-store state captured by ``mark``.

        Truncates the node arrays and pops the entries inserted since
        the mark (dicts preserve insertion order and are never deleted
        from, so ``popitem`` removes exactly the post-mark additions —
        including every unique-table and ite-cache entry that mentions
        a rolled-back node, since an entry can only reference nodes
        that existed when it was inserted).  Variables declared after
        the mark are forgotten the same way the nodes are.  Afterwards
        the manager is bit-identical to its state at :meth:`mark` time:
        subsequent operations allocate the same node ids and hit/miss
        the caches the same way a manager that never advanced past the
        mark would.
        """
        n_nodes, n_unique, n_ite, n_vars = mark
        if len(self._var) < n_nodes or self._num_vars < n_vars or \
                len(self._unique) < n_unique or \
                len(self._ite_cache) < n_ite:
            raise ValueError("mark does not describe a prior state "
                             "of this manager")
        self._num_vars = n_vars
        del self._var[n_nodes:]
        del self._lo[n_nodes:]
        del self._hi[n_nodes:]
        while len(self._unique) > n_unique:
            self._unique.popitem()
        while len(self._ite_cache) > n_ite:
            self._ite_cache.popitem()

    def _mk(self, var: int, lo: int, hi: int) -> int:
        if lo == hi:
            return lo
        key = (var, lo, hi)
        node = self._unique.get(key)
        if node is None:
            node = self._alloc(key)
        return node

    # ------------------------------------------------------------------
    # Core operations
    # ------------------------------------------------------------------
    def var(self, index: int) -> int:
        """The function ``x_index``."""
        if not 0 <= index < self._num_vars:
            raise ValueError(f"variable {index} not declared")
        return self._mk(index, 0, 1)

    def nvar(self, index: int) -> int:
        """The function ``!x_index``."""
        if not 0 <= index < self._num_vars:
            raise ValueError(f"variable {index} not declared")
        return self._mk(index, 1, 0)

    def ite(self, f: int, g: int, h: int) -> int:
        """If-then-else: ``f & g | !f & h`` — the universal connective."""
        if f == 1:
            return g
        if f == 0:
            return h
        if g == h:
            return g
        if g == 1 and h == 0:
            return f
        key = (f, g, h)
        cached = self._ite_cache.get(key)
        if cached is not None:
            return cached
        top = min(self._var[f], self._var[g], self._var[h])
        f0, f1 = self._cofactors(f, top)
        g0, g1 = self._cofactors(g, top)
        h0, h1 = self._cofactors(h, top)
        lo = self.ite(f0, g0, h0)
        hi = self.ite(f1, g1, h1)
        result = self._mk(top, lo, hi)
        self._ite_cache[key] = result
        return result

    def _cofactors(self, f: int, var: int) -> tuple[int, int]:
        if self._var[f] == var:
            return self._lo[f], self._hi[f]
        return f, f

    def not_(self, f: int) -> int:
        """``!f``; the same nodes as ``ite(f, 0, 1)``."""
        return self._not(f)

    def and_(self, f: int, g: int) -> int:
        """``f & g``; the same nodes as ``ite(f, g, 0)``."""
        return self._and(f, g)

    def or_(self, f: int, g: int) -> int:
        """``f | g``; the same nodes as ``ite(f, 1, g)``."""
        return self._or(f, g)

    def xor_(self, f: int, g: int) -> int:
        if g == 1:
            return self._not(f)
        return self.ite(f, self.not_(g), g)

    def xnor_(self, f: int, g: int) -> int:
        return self.ite(f, g, self.not_(g))

    def nand_(self, f: int, g: int) -> int:
        return self.not_(self.and_(f, g))

    def nor_(self, f: int, g: int) -> int:
        return self.not_(self.or_(f, g))

    def and_many(self, fs: Iterable[int]) -> int:
        result = 1
        for f in fs:
            result = self.and_(result, f)
        return result

    def or_many(self, fs: Iterable[int]) -> int:
        result = 0
        for f in fs:
            result = self.or_(result, f)
        return result

    # ------------------------------------------------------------------
    # Structural operations
    # ------------------------------------------------------------------
    def restrict(self, f: int, var: int, value: int) -> int:
        """Cofactor ``f`` with respect to ``var = value``."""
        if self.is_terminal(f) or self._var[f] > var:
            return f
        if self._var[f] == var:
            return self._hi[f] if value else self._lo[f]
        lo = self.restrict(self._lo[f], var, value)
        hi = self.restrict(self._hi[f], var, value)
        return self._mk(self._var[f], lo, hi)

    def compose(self, f: int, var: int, g: int) -> int:
        """Substitute function ``g`` for variable ``var`` in ``f``."""
        hi = self.restrict(f, var, 1)
        lo = self.restrict(f, var, 0)
        return self.ite(g, hi, lo)

    def exists(self, f: int, variables: Iterable[int]) -> int:
        result = f
        for var in variables:
            result = self.or_(self.restrict(result, var, 0),
                              self.restrict(result, var, 1))
        return result

    def forall(self, f: int, variables: Iterable[int]) -> int:
        result = f
        for var in variables:
            result = self.and_(self.restrict(result, var, 0),
                               self.restrict(result, var, 1))
        return result

    def boolean_difference(self, f: int, var: int) -> int:
        """d f / d var: assignments where ``var`` is observable in ``f``."""
        return self.xor_(self.restrict(f, var, 0), self.restrict(f, var, 1))

    def support(self, f: int) -> set[int]:
        """Set of variable indices ``f`` depends on."""
        seen: set[int] = set()
        result: set[int] = set()
        stack = [f]
        while stack:
            node = stack.pop()
            if node in seen or self.is_terminal(node):
                continue
            seen.add(node)
            result.add(self._var[node])
            stack.append(self._lo[node])
            stack.append(self._hi[node])
        return result

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def implies(self, f: int, g: int) -> bool:
        """True iff f => g (i.e. f & !g is unsatisfiable)."""
        return self.and_(f, self.not_(g)) == 0

    def evaluate(self, f: int, assignment: int) -> bool:
        """Evaluate under a complete assignment given as a bit vector."""
        node = f
        while not self.is_terminal(node):
            if assignment >> self._var[node] & 1:
                node = self._hi[node]
            else:
                node = self._lo[node]
        return node == 1

    def sat_count(self, f: int, num_vars: int | None = None) -> int:
        """Number of satisfying assignments over ``num_vars`` variables."""
        n = self._num_vars if num_vars is None else num_vars
        cache: dict[int, int] = {}

        def count(node: int) -> int:
            # Count over variables strictly below var_of(node) in the order.
            if node == 0:
                return 0
            if node == 1:
                return 1
            if node in cache:
                return cache[node]
            var = self._var[node]
            lo, hi = self._lo[node], self._hi[node]
            lo_var = min(self._var[lo], n)
            hi_var = min(self._var[hi], n)
            total = (count(lo) << (lo_var - var - 1)) + \
                    (count(hi) << (hi_var - var - 1))
            cache[node] = total
            return total

        top = min(self._var[f], n)
        return count(f) << top

    def probability(self, f: int, var_probs: Sequence[float] | None = None) -> float:
        """P(f = 1) under independent input probabilities (default 0.5)."""
        cache: dict[int, float] = {0: 0.0, 1: 1.0}

        def prob(node: int) -> float:
            if node in cache:
                return cache[node]
            var = self._var[node]
            p = 0.5 if var_probs is None else var_probs[var]
            value = (1.0 - p) * prob(self._lo[node]) + p * prob(self._hi[node])
            cache[node] = value
            return value

        return prob(f)

    # -- batched queries -------------------------------------------------
    # Scalar fallbacks so callers stay engine-agnostic; the numpy engine
    # overrides these with single whole-table array sweeps.
    def implies_many(self, fs: Sequence[int],
                     gs: Sequence[int]) -> list[bool]:
        """``[f => g]`` for many root pairs."""
        return [self.implies(f, g) for f, g in zip(fs, gs)]

    def probability_many(self, fs: Sequence[int],
                         var_probs: Sequence[float] | None = None
                         ) -> list[float]:
        """``P(f = 1)`` for many roots."""
        return [self.probability(f, var_probs) for f in fs]

    def sat_count_many(self, fs: Sequence[int],
                       num_vars: int | None = None) -> list[int]:
        """Exact model counts for many roots."""
        return [self.sat_count(f, num_vars) for f in fs]

    def evaluate_many(self, fs: Sequence[int], assignments) -> list[list[bool]]:
        """Evaluate many roots under many assignments.

        ``assignments`` is a sequence of rows of 0/1 variable values
        (row ``j``, column ``v`` is the value of variable ``v``).
        """
        packed = []
        for row in assignments:
            word = 0
            for i, bit in enumerate(row):
                if bit:
                    word |= 1 << i
            packed.append(word)
        return [[self.evaluate(f, word) for word in packed] for f in fs]

    def any_sat(self, f: int) -> int | None:
        """One satisfying assignment (bit vector), or None if f == 0."""
        if f == 0:
            return None
        assignment = 0
        node = f
        while not self.is_terminal(node):
            if self._hi[node] != 0:
                assignment |= 1 << self._var[node]
                node = self._hi[node]
            else:
                node = self._lo[node]
        return assignment

    def iter_sat(self, f: int, num_vars: int | None = None) -> Iterator[int]:
        """Yield all satisfying assignments.  Exponential; tests only."""
        n = self._num_vars if num_vars is None else num_vars
        for assignment in range(1 << n):
            if self.evaluate(f, assignment):
                yield assignment

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------
    def from_cube(self, cube: Cube, var_map: Sequence[int] | None = None) -> int:
        """Build the BDD of a single cube.

        ``var_map[i]`` gives the BDD variable for cube variable ``i``;
        identity by default.
        """
        result = 1
        for i in range(cube.n):
            lit = cube.literal(i)
            if lit == "-":
                continue
            var = i if var_map is None else var_map[i]
            node = self.var(var) if lit == "1" else self.nvar(var)
            result = self.and_(result, node)
        return result

    def from_cover(self, cover: Cover,
                   var_map: Sequence[int] | None = None) -> int:
        """Build the BDD of an SOP cover."""
        return self.or_many(self.from_cube(cube, var_map)
                            for cube in cover.cubes)

    def to_dot(self, f: int, name: str = "bdd",
               var_names: Sequence[str] | None = None) -> str:
        """Graphviz dot text for the BDD rooted at ``f`` (debug aid).

        Dashed edges are low (0) branches, solid edges high (1).
        """
        lines = [f"digraph {name} {{",
                 '  node [shape=circle];',
                 '  t0 [shape=box, label="0"];',
                 '  t1 [shape=box, label="1"];']
        seen: set[int] = set()
        stack = [f]
        while stack:
            node = stack.pop()
            if node in seen or self.is_terminal(node):
                continue
            seen.add(node)
            var = self._var[node]
            label = var_names[var] if var_names is not None else f"x{var}"
            lines.append(f'  n{node} [label="{label}"];')
            for child, style in ((self._lo[node], "dashed"),
                                 (self._hi[node], "solid")):
                target = f"t{child}" if self.is_terminal(child) \
                    else f"n{child}"
                lines.append(f"  n{node} -> {target} [style={style}];")
                stack.append(child)
        if self.is_terminal(f):
            lines.append(f"  root [shape=none, label=\"\"];"
                         f" root -> t{f};")
        lines.append("}")
        return "\n".join(lines)

    def size(self, f: int) -> int:
        """Number of distinct nodes reachable from ``f`` (incl. terminals)."""
        seen: set[int] = set()
        stack = [f]
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            if not self.is_terminal(node):
                stack.append(self._lo[node])
                stack.append(self._hi[node])
        return len(seen)


def _apply_kernels(mgr: BddManager):
    """The node allocator and the ``(and, or, not)`` apply kernels of
    ``mgr``.

    Each kernel is the ``ite`` recursion specialised to one connective:
    closures over the manager's tables, so a recursive step does no
    attribute lookup or method dispatch.  They keep ``ite``'s node
    allocation exactly, id for id:

    * every subproblem whose result node may not exist yet is visited,
      low branch before high, and its node is made after both branches,
      as ``ite`` does; the only subproblems skipped are ``f == g`` and
      cache hits, whose results (and all of whose sub-results) already
      exist, so ``ite`` would allocate nothing below them either;
    * commutative operands are normalised (``f <= g``) and results are
      cached in ``_ite_cache`` under the equivalent ite key — ``(f, g,
      0)`` for and, ``(f, 1, g)`` for or, ``(f, 0, 1)`` for not — so
      ``ite``, :meth:`BddManager.mark` and :meth:`BddManager.rollback`
      see one cache;
    * they make nodes through the same allocator as
      :meth:`BddManager._mk`, which reads ``max_nodes`` and ``guard``
      at allocation time (callers reassign both) and polls the guard
      every 1024 allocations.

    The tables are only ever mutated in place, never rebound, so the
    closures stay valid for the manager's lifetime.  They hold the
    manager itself only weakly, so it is still freed by reference
    counting rather than left for the cycle collector.
    """
    var_of, lo_of, hi_of = mgr._var, mgr._lo, mgr._hi
    unique, cache = mgr._unique, mgr._ite_cache
    unique_get, cache_get = unique.get, cache.get
    owner = weakref.ref(mgr)

    def alloc(key: tuple[int, int, int]) -> int:
        # A new node for a (var, lo, hi) key missing from the unique table.
        mgr = owner()
        if mgr.max_nodes is not None and len(var_of) >= mgr.max_nodes:
            raise BddOverflowError(
                f"BDD node budget of {mgr.max_nodes} exceeded")
        mgr._allocs += 1
        if mgr.guard is not None and not mgr._allocs & 1023:
            mgr.guard.check_deadline("bdd allocation")
        node = len(var_of)
        var_of.append(key[0])
        lo_of.append(key[1])
        hi_of.append(key[2])
        unique[key] = node
        return node

    def and_(f: int, g: int) -> int:
        if f > g:
            f, g = g, f
        if f <= 1:
            return g if f else 0
        if f == g:
            return f
        key = (f, g, 0)
        result = cache_get(key)
        if result is not None:
            return result
        vf, vg = var_of[f], var_of[g]
        if vf < vg:
            top = vf
            lo = and_(lo_of[f], g)
            hi = and_(hi_of[f], g)
        elif vg < vf:
            top = vg
            lo = and_(f, lo_of[g])
            hi = and_(f, hi_of[g])
        else:
            top = vf
            lo = and_(lo_of[f], lo_of[g])
            hi = and_(hi_of[f], hi_of[g])
        if lo == hi:
            result = lo
        else:
            node_key = (top, lo, hi)
            result = unique_get(node_key)
            if result is None:
                result = alloc(node_key)
        cache[key] = result
        return result

    def or_(f: int, g: int) -> int:
        if f > g:
            f, g = g, f
        if f <= 1:
            return 1 if f else g
        if f == g:
            return f
        key = (f, 1, g)
        result = cache_get(key)
        if result is not None:
            return result
        vf, vg = var_of[f], var_of[g]
        if vf < vg:
            top = vf
            lo = or_(lo_of[f], g)
            hi = or_(hi_of[f], g)
        elif vg < vf:
            top = vg
            lo = or_(f, lo_of[g])
            hi = or_(f, hi_of[g])
        else:
            top = vf
            lo = or_(lo_of[f], lo_of[g])
            hi = or_(hi_of[f], hi_of[g])
        if lo == hi:
            result = lo
        else:
            node_key = (top, lo, hi)
            result = unique_get(node_key)
            if result is None:
                result = alloc(node_key)
        cache[key] = result
        return result

    def not_(f: int) -> int:
        if f <= 1:
            return 1 - f
        key = (f, 0, 1)
        result = cache_get(key)
        if result is not None:
            return result
        # Negation is injective, so the children stay distinct.
        node_key = (var_of[f], not_(lo_of[f]), not_(hi_of[f]))
        result = unique_get(node_key)
        if result is None:
            result = alloc(node_key)
        cache[key] = result
        return result

    return alloc, and_, or_, not_

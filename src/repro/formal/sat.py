"""A from-scratch incremental CDCL SAT solver.

The paper (Sec. III-D) notes that verification tools double as attack
engines: SAT solvers "mimic attackers" against logic locking and
camouflaging.  This solver powers both uses here — the oracle-guided
SAT attack in :mod:`repro.ip.sat_attack` and the honest equivalence /
property checking in :mod:`repro.formal.equivalence` — and every client
leans on the MiniSat-style incremental interface: a persistent clause
database, :meth:`Solver.add_clause` between calls, and
``solve(assumptions=[...])`` queries that leave learned clauses (and
thus all the work of earlier queries) in place.

Implementation: two-watched-literal propagation over clause objects,
first-UIP clause learning with non-chronological backjumping, VSIDS
with an indexed binary heap (true decrease-key, no stale entries),
phase saving, Luby restarts, and LBD-based ("glue") learned-clause
database reduction.

Literal encoding: variable ``v`` (0-based) appears as literal ``2*v``
(positive) or ``2*v + 1`` (negated).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

UNASSIGNED = -1


def lit(var: int, negative: bool = False) -> int:
    """Build a literal from a 0-based variable index."""
    return 2 * var + (1 if negative else 0)


def neg(literal: int) -> int:
    """The complement literal."""
    return literal ^ 1


def var_of(literal: int) -> int:
    """The 0-based variable index of a literal."""
    return literal >> 1


def luby(i: int) -> int:
    """The ``i``-th element (1-based) of the Luby restart sequence.

    1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8, ... — the universal
    restart schedule (Luby, Sinclair, Zuckerman 1993).
    """
    while True:
        k = i.bit_length()
        if i == (1 << k) - 1:
            return 1 << (k - 1)
        i -= (1 << (k - 1)) - 1


class Solver:
    """CDCL SAT solver with incremental assumption support.

    Clauses may be added between :meth:`solve` calls, enabling the
    oracle-guided loops (SAT attack, CEGAR-style flows) to reuse learned
    state across iterations.  A :meth:`solve` call that fails under
    assumptions leaves the solver usable: the assumptions are retracted
    and only clauses implied by the formula remain.
    """

    #: Luby restart unit (conflicts).
    restart_base = 64
    #: Learned clauses kept unconditionally when reducing (glue LBD).
    glue_lbd = 2
    #: Conflicts between learned-clause database reductions; each
    #: reduction pushes the next one 500 conflicts further out.
    reduce_base = 2000
    #: Minimum learned-clause count before a reduction is worthwhile.
    reduce_floor = 100

    def __init__(self) -> None:
        self.num_vars = 0
        self.clauses: List[List[int]] = []   # problem clauses
        self.learnts: List[List[int]] = []   # learned clauses (reducible)
        self.watches: List[List[List[int]]] = []  # literal -> clauses
        #: literal -> [(implied literal, clause), ...] for two-literal
        #: clauses.  Binary clauses dominate Tseitin CNFs (every
        #: AND/OR gate contributes arity binary clauses), and their
        #: propagation needs no watch migration: falsifying one side
        #: immediately implies the other.  Keeping them out of the
        #: general watch lists roughly halves the hot-loop work.
        self.bin_watches: List[List[Tuple[int, List[int]]]] = []
        self.assign: List[int] = []          # var -> 0/1/UNASSIGNED
        self.level: List[int] = []           # var -> decision level
        self.reason: List[Optional[List[int]]] = []  # var -> clause
        self.trail: List[int] = []           # assigned literals, in order
        self.trail_lim: List[int] = []       # trail length per decision
        self.activity: List[float] = []
        self.saved_phase: List[int] = []     # var -> last assigned value
        self._heap: List[int] = []           # max-heap of var indices
        self._heap_pos: List[int] = []       # var -> heap index or -1
        self._seen: List[bool] = []          # scratch for _analyze
        self._lbd: Dict[int, int] = {}       # id(learnt) -> LBD
        self._qhead = 0
        self.var_inc = 1.0
        self.var_decay = 0.95
        self.propagations = 0
        self.conflicts = 0
        self.decisions = 0
        self.restarts = 0
        self.reductions = 0
        self._ok = True

    # ------------------------------------------------------------------
    # Problem construction
    # ------------------------------------------------------------------

    def new_var(self) -> int:
        """Allocate a fresh variable; returns its 0-based index."""
        v = self.num_vars
        self.num_vars += 1
        self.assign.append(UNASSIGNED)
        self.level.append(0)
        self.reason.append(None)
        self.activity.append(0.0)
        self.saved_phase.append(0)
        self._seen.append(False)
        self._heap_pos.append(-1)
        self.watches.append([])
        self.watches.append([])
        self.bin_watches.append([])
        self.bin_watches.append([])
        self._heap_insert(v)
        return v

    def add_clause(self, literals: Iterable[int]) -> bool:
        """Add a clause at decision level 0.

        Returns False if the formula became trivially unsatisfiable.
        Must not be called in the middle of :meth:`solve`.
        """
        if self.trail_lim:
            self._backtrack(0)
        # Single pass: dedup, tautology check, and level-0 filtering
        # (drop false literals, skip satisfied clauses).  This runs for
        # every encoded gate, so the literal value test is inlined and
        # dedup scans the (short) kept list instead of building a set
        # per clause — encoder clauses have two or three literals.
        assign = self.assign
        num_vars = self.num_vars
        reduced: List[int] = []
        for l in literals:
            v = l >> 1
            if v >= num_vars:
                raise ValueError(f"literal {l} references unknown variable")
            value = assign[v]
            if value >= 0:
                if value ^ (l & 1) == 1:
                    return True  # satisfied at level 0
                continue         # false at level 0: drop the literal
            if l in reduced:
                continue
            if l ^ 1 in reduced:
                return True  # tautology
            reduced.append(l)
        if not reduced:
            self._ok = False
            return False
        if len(reduced) == 1:
            self._enqueue(reduced[0], None)
            if self._propagate() is not None:
                self._ok = False
                return False
            return True
        self.clauses.append(reduced)
        if len(reduced) == 2:
            self.bin_watches[reduced[0] ^ 1].append((reduced[1], reduced))
            self.bin_watches[reduced[1] ^ 1].append((reduced[0], reduced))
        else:
            self.watches[reduced[0] ^ 1].append(reduced)
            self.watches[reduced[1] ^ 1].append(reduced)
        return True

    # ------------------------------------------------------------------
    # VSIDS order: indexed binary max-heap with decrease-key
    # ------------------------------------------------------------------
    # Every unassigned variable is in the heap exactly once.  Bumps
    # percolate the entry up in place, so the heap never accumulates
    # stale entries and a decision is one pop, not a lazy-deletion scan
    # (the previous heap popped ~650 dead entries per real decision).

    def _heap_insert(self, v: int) -> None:
        heap = self._heap
        pos = self._heap_pos
        activity = self.activity
        i = len(heap)
        heap.append(v)
        a = activity[v]
        while i > 0:
            parent = (i - 1) >> 1
            pv = heap[parent]
            if activity[pv] >= a:
                break
            heap[i] = pv
            pos[pv] = i
            i = parent
        heap[i] = v
        pos[v] = i

    def _heap_sift_up(self, i: int) -> None:
        heap = self._heap
        pos = self._heap_pos
        activity = self.activity
        v = heap[i]
        a = activity[v]
        while i > 0:
            parent = (i - 1) >> 1
            pv = heap[parent]
            if activity[pv] >= a:
                break
            heap[i] = pv
            pos[pv] = i
            i = parent
        heap[i] = v
        pos[v] = i

    def _heap_pop(self) -> int:
        heap = self._heap
        pos = self._heap_pos
        activity = self.activity
        top = heap[0]
        pos[top] = -1
        last = heap.pop()
        n = len(heap)
        if n:
            a = activity[last]
            i = 0
            while True:
                child = 2 * i + 1
                if child >= n:
                    break
                right = child + 1
                if right < n and activity[heap[right]] > activity[heap[child]]:
                    child = right
                cv = heap[child]
                if activity[cv] <= a:
                    break
                heap[i] = cv
                pos[cv] = i
                i = child
            heap[i] = last
            pos[last] = i
        return top

    def _decide_var(self) -> int:
        """Unassigned variable of highest activity, or -1 when none."""
        assign = self.assign
        heap = self._heap
        while heap:
            v = self._heap_pop()
            if assign[v] == UNASSIGNED:
                return v
        return -1

    def _bump(self, v: int) -> None:
        activity = self.activity
        activity[v] += self.var_inc
        if activity[v] > 1e100:
            # Uniform rescale preserves heap order; no re-heapify needed.
            for u in range(self.num_vars):
                activity[u] *= 1e-100
            self.var_inc *= 1e-100
        i = self._heap_pos[v]
        if i > 0:
            self._heap_sift_up(i)

    # ------------------------------------------------------------------
    # Assignment machinery
    # ------------------------------------------------------------------

    def _value_of(self, literal: int) -> int:
        value = self.assign[literal >> 1]
        if value == UNASSIGNED:
            return UNASSIGNED
        return value ^ (literal & 1)

    def _enqueue(self, literal: int, reason: Optional[List[int]]) -> None:
        v = literal >> 1
        self.assign[v] = 1 - (literal & 1)
        self.level[v] = len(self.trail_lim)
        self.reason[v] = reason
        self.trail.append(literal)

    def _propagate(self) -> Optional[List[int]]:
        """Unit propagation; returns a conflicting clause or None.

        This is the solver's hot loop (millions of iterations per SAT
        attack), so attribute lookups are hoisted into locals, the
        decision level is computed once (it cannot change while
        propagating), and ``_value_of``/``_enqueue`` are inlined.  With
        ``UNASSIGNED == -1``, ``assign[v] ^ (lit & 1)`` is negative for
        unassigned variables, so the ``== 1`` / ``== 0`` tests need no
        explicit unassigned branch.  Binary clauses propagate through
        their own implication lists first — no watch migration, just a
        value test per pair.  The general watch lists hold the clause
        lists themselves; each visited list is rebuilt in place
        (append-only) rather than swap-popped, keeping the scan
        branch-light.
        """
        trail = self.trail
        watches = self.watches
        bin_watches = self.bin_watches
        assign = self.assign
        level = self.level
        reason = self.reason
        lvl = len(self.trail_lim)
        qhead = self._qhead
        processed = 0
        while qhead < len(trail):
            literal = trail[qhead]
            qhead += 1
            processed += 1
            for other, bin_clause in bin_watches[literal]:
                ov = assign[other >> 1] ^ (other & 1)
                if ov == 1:
                    continue
                if ov == 0:
                    self._qhead = len(trail)
                    self.propagations += processed
                    return bin_clause
                v = other >> 1
                assign[v] = (other & 1) ^ 1
                level[v] = lvl
                reason[v] = bin_clause
                trail.append(other)
            watch_list = watches[literal]
            if not watch_list:
                continue
            false_lit = literal ^ 1
            watches[literal] = new_wl = []
            append_kept = new_wl.append
            conflict = None
            for j, clause in enumerate(watch_list):
                if clause[0] == false_lit:
                    clause[0] = clause[1]
                    clause[1] = false_lit
                first = clause[0]
                fv = assign[first >> 1] ^ (first & 1)
                if fv == 1:
                    append_kept(clause)
                    continue
                moved = False
                for k in range(2, len(clause)):
                    ck = clause[k]
                    if assign[ck >> 1] ^ (ck & 1) != 0:
                        clause[1] = ck
                        clause[k] = false_lit
                        watches[ck ^ 1].append(clause)
                        moved = True
                        break
                if moved:
                    continue
                append_kept(clause)
                if fv == 0:
                    new_wl.extend(watch_list[j + 1:])
                    conflict = clause
                    break
                v = first >> 1
                assign[v] = (first & 1) ^ 1
                level[v] = lvl
                reason[v] = clause
                trail.append(first)
            if conflict is not None:
                self._qhead = len(trail)
                self.propagations += processed
                return conflict
        self._qhead = qhead
        self.propagations += processed
        return None

    def _backtrack(self, target_level: int) -> None:
        trail_lim = self.trail_lim
        if len(trail_lim) <= target_level:
            self._qhead = min(self._qhead, len(self.trail))
            return
        # Unwind the trail in one slice instead of popping per literal,
        # saving each variable's polarity (phase saving) and restoring
        # it into the decision heap.
        trail = self.trail
        assign = self.assign
        saved_phase = self.saved_phase
        pos = self._heap_pos
        insert = self._heap_insert
        limit = trail_lim[target_level]
        del trail_lim[target_level:]
        for literal in trail[limit:]:
            v = literal >> 1
            saved_phase[v] = assign[v]
            assign[v] = UNASSIGNED
            if pos[v] < 0:
                insert(v)
        del trail[limit:]
        self._qhead = min(self._qhead, limit)

    # ------------------------------------------------------------------
    # Conflict analysis
    # ------------------------------------------------------------------

    def _analyze(self, conflict: List[int]) -> Tuple[List[int], int, int]:
        """First-UIP resolution.

        Returns ``(learned clause, backjump level, LBD)`` where LBD is
        the number of distinct decision levels among the learned
        clause's literals — the "glue" quality metric that drives
        learned-clause retention.
        """
        learned: List[int] = [0]
        # Reusable scratch: at exit, the only True flags left belong to
        # the learned clause's lower-level literals (current-level flags
        # are cleared as they are resolved), so those are reset below.
        seen = self._seen
        level = self.level
        counter = 0
        p = -1  # resolved literal (-1 = conflict clause itself)
        index = len(self.trail)
        clause = conflict
        current_level = len(self.trail_lim)
        while True:
            for l in clause:
                if l == p:
                    continue
                v = l >> 1
                if not seen[v] and level[v] > 0:
                    seen[v] = True
                    self._bump(v)
                    if level[v] >= current_level:
                        counter += 1
                    else:
                        learned.append(l)
            while True:
                index -= 1
                p = self.trail[index]
                if seen[p >> 1]:
                    break
            v = p >> 1
            seen[v] = False
            counter -= 1
            if counter == 0:
                learned[0] = p ^ 1
                break
            clause = self.reason[v]
        levels = {level[l >> 1] for l in learned}
        lbd = len(levels)
        for l in learned[1:]:
            seen[l >> 1] = False
        if len(learned) == 1:
            return learned, 0, lbd
        back_level = max(level[l >> 1] for l in learned[1:])
        for k in range(1, len(learned)):
            if level[learned[k] >> 1] == back_level:
                learned[1], learned[k] = learned[k], learned[1]
                break
        return learned, back_level, lbd

    # ------------------------------------------------------------------
    # Learned-clause database reduction
    # ------------------------------------------------------------------

    def _reduce_db(self) -> None:
        """Drop the worst half of the learned clauses (highest LBD).

        Glue clauses (LBD <= 2), binary clauses, and clauses locked as
        the reason of a current assignment are always kept.
        """
        learnts = self.learnts
        lbd = self._lbd
        assign = self.assign
        reason = self.reason
        learnts.sort(key=lambda c: (lbd[id(c)], len(c)))
        cutoff = len(learnts) // 2
        kept: List[List[int]] = []
        dropped_ids = set()
        for i, c in enumerate(learnts):
            v = c[0] >> 1
            if (i < cutoff or lbd[id(c)] <= self.glue_lbd or len(c) == 2
                    or (assign[v] != UNASSIGNED and reason[v] is c)):
                kept.append(c)
            else:
                dropped_ids.add(id(c))
        if not dropped_ids:
            return
        self.learnts = kept
        for cid in dropped_ids:
            del lbd[cid]
        watches = self.watches
        for i, wl in enumerate(watches):
            if wl:
                watches[i] = [c for c in wl if id(c) not in dropped_ids]
        self.reductions += 1

    # ------------------------------------------------------------------
    # Main search
    # ------------------------------------------------------------------

    def solve(self, assumptions: Sequence[int] = (),
              conflict_budget: Optional[int] = None) -> Optional[bool]:
        """Solve under assumptions.

        Returns True (SAT), False (UNSAT), or None when
        ``conflict_budget`` conflicts were exhausted.  After SAT, read
        the model via :meth:`model_value`.  A False result under
        non-empty ``assumptions`` does not poison the solver: the same
        instance answers later queries (with or without assumptions).
        """
        if not self._ok:
            return False
        self._backtrack(0)
        if self._propagate() is not None:
            self._ok = False
            return False
        budget = conflict_budget
        restart_number = 1
        restart_limit = self.restart_base * luby(1)
        conflicts_since_restart = 0
        conflicts_since_reduce = 0
        reduce_limit = self.reduce_base
        while True:
            conflict = self._propagate()
            if conflict is not None:
                self.conflicts += 1
                conflicts_since_restart += 1
                conflicts_since_reduce += 1
                if not self.trail_lim:
                    self._ok = False
                    return False
                if budget is not None:
                    budget -= 1
                    if budget <= 0:
                        self._backtrack(0)
                        return None
                learned, back_level, lbd = self._analyze(conflict)
                self._backtrack(back_level)
                if len(learned) == 1:
                    value = self._value_of(learned[0])
                    if value == 0:
                        self._ok = False
                        return False
                    if value == UNASSIGNED:
                        self._enqueue(learned[0], None)
                else:
                    self.learnts.append(learned)
                    self._lbd[id(learned)] = lbd
                    if len(learned) == 2:
                        self.bin_watches[learned[0] ^ 1].append(
                            (learned[1], learned))
                        self.bin_watches[learned[1] ^ 1].append(
                            (learned[0], learned))
                    else:
                        self.watches[learned[0] ^ 1].append(learned)
                        self.watches[learned[1] ^ 1].append(learned)
                    self._enqueue(learned[0], learned)
                self.var_inc /= self.var_decay
                if conflicts_since_restart >= restart_limit:
                    conflicts_since_restart = 0
                    restart_number += 1
                    restart_limit = self.restart_base * luby(restart_number)
                    self.restarts += 1
                    self._backtrack(0)
                continue
            if conflicts_since_reduce >= reduce_limit:
                conflicts_since_reduce = 0
                reduce_limit += 500
                if len(self.learnts) > self.reduce_floor:
                    self._reduce_db()
            # Place any pending assumption as the next decision.
            pending = None
            for a in assumptions:
                value = self._value_of(a)
                if value == 0:
                    # Forced false by formula + earlier assumptions.
                    self._backtrack(0)
                    return False
                if value == UNASSIGNED:
                    pending = a
                    break
            if pending is not None:
                self.trail_lim.append(len(self.trail))
                self._enqueue(pending, None)
                continue
            v = self._decide_var()
            if v == -1:
                return True
            self.decisions += 1
            self.trail_lim.append(len(self.trail))
            # Phase saving: re-try the polarity the variable last held
            # (initially False — good for miter circuits).
            self._enqueue(2 * v + (0 if self.saved_phase[v] == 1 else 1),
                          None)

    def model_value(self, variable: int) -> int:
        """Value of a variable in the satisfying assignment (after SAT)."""
        return 1 if self.assign[variable] == 1 else 0

    def stats(self) -> Dict[str, int]:
        """Search statistics (vars, clauses, conflicts, ...)."""
        return {
            "vars": self.num_vars,
            "clauses": len(self.clauses) + len(self.learnts),
            "learned": len(self.learnts),
            "conflicts": self.conflicts,
            "decisions": self.decisions,
            "propagations": self.propagations,
            "restarts": self.restarts,
            "reductions": self.reductions,
        }

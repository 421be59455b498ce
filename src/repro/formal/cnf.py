"""CNF formulas and structurally hashed Tseitin encoding of netlists.

:class:`CircuitEncoder` maps each net of a :class:`~repro.netlist.Netlist`
to a SAT variable, the bridge between the EDA substrate and the
formal/attack engines.  Gates are not emitted one by one: each is
folded against constants and looked up in one structural hash table
that the encoder keeps across all its :meth:`~CircuitEncoder.encode`
calls, so a second copy of the same logic over the same variables costs
no clauses at all.  The rules:

* BUF aliases its fanin's variable.
* NOT is hashed once per variable, and the NOT of a NOT is the original.
* AND/NAND/OR/NOR drop non-controlling constants and fold to a constant
  on a controlling one or when an operand appears next to its negation;
  then operands are deduplicated and the gate is hashed on (family,
  sorted operand variables).  A NAND and an AND over the same operands
  share one node, one the negation of the other.
* XOR/XNOR fold constants (and negated operands) into a parity, cancel
  repeated operands and hash on the sorted operands; wide XORs chain
  through hashed 2-input nodes.
* MUX folds a constant select and equal data inputs.

Only :meth:`CircuitEncoder.const_var` variables and CONST gates count as
constants; a unit clause from :meth:`~CircuitEncoder.assert_equal` does
not.  Hashing is sound because every hashed variable is defined only by
its Tseitin clauses over its operands: any clause a client adds on top
constrains the inputs, and it constrains them the same way it would
without hashing.
"""

from __future__ import annotations

from typing import AbstractSet, Dict, Iterable, Mapping, Optional

from ..netlist import GateType, Netlist
from .sat import Solver, lit

# Structural-hash keys are ``(tag, *operand variables)``; AND and OR
# nodes are tagged with their controlling value, 0 and 1.
_XOR, _MUX = 2, 3

# AND/OR family per gate type: (controlling value, output negated).
_ANDOR = {GateType.AND: (0, 0), GateType.NAND: (0, 1),
          GateType.OR: (1, 0), GateType.NOR: (1, 1)}


class CircuitEncoder:
    """Encode one or more netlists into a shared :class:`Solver`.

    Instantiating the same encoder over several netlists (with chosen
    variable sharing via ``bind``) builds miters, unrolled frames, and
    the double-circuit construction of the SAT attack.  The copies
    share the structural hash table, so logic they compute over the
    same variables — the key-independent half of a SAT-attack miter,
    all of a CEC miter between structurally equal netlists — is
    encoded once.
    """

    def __init__(self, solver: Optional[Solver] = None) -> None:
        self.solver = solver or Solver()
        #: Full-netlist :meth:`encode` calls (``within=None``).  The
        #: incremental clients assert on this: ATPG must encode its base
        #: circuit exactly once per run, not once per fault.
        self.encode_calls = 0
        #: Partial (cone) :meth:`encode` calls (``within`` given).
        self.cone_encodes = 0
        self._const_var: Dict[int, int] = {}   # value -> variable
        self._const_of: Dict[int, int] = {}    # variable -> value
        self._negation: Dict[int, int] = {}    # variable <-> its NOT
        self._nodes: Dict[tuple, int] = {}     # hash key -> output literal

    def fresh_var(self) -> int:
        """A fresh solver variable (for binds and auxiliary logic)."""
        return self.solver.new_var()

    def const_var(self, value: int) -> int:
        """A variable pinned to ``value`` — cached, one per polarity.

        Incremental clients (SAT attack DIP constraints, pinned frames)
        bind nets to constants every iteration; sharing the two constant
        variables keeps the clause database from accumulating one fresh
        unit clause per bound bit, and lets :meth:`encode` fold every
        gate they reach.
        """
        cached = self._const_var.get(value)
        if cached is None:
            cached = self.solver.new_var()
            self.solver.add_clause([lit(cached, negative=(value == 0))])
            self._const_var[value] = cached
            self._const_of[cached] = value
        return cached

    def encode(self, netlist: Netlist, prefix: str = "",
               bind: Optional[Mapping[str, int]] = None,
               within: Optional[AbstractSet[str]] = None) -> Dict[str, int]:
        """Encode every net; returns map ``prefix+net -> variable``.

        Two nets may share a variable (a BUF, or logic equal to logic
        already encoded by this encoder), and a net may map to a
        :meth:`const_var` variable when constants fold it; every
        variable still equals its net's value in every model.

        ``bind`` pre-assigns variables to named nets (primary inputs or
        DFF outputs), enabling input sharing across copies.  Binding a
        net to a :meth:`const_var` variable folds its fanout.

        ``within`` restricts encoding to the named nets: nets outside
        it are resolved through ``bind`` instead of being re-encoded.
        This is the incremental-ATPG workhorse — a faulty copy only
        re-encodes the fault's output cone against the already-encoded
        base circuit.
        """
        bind = bind or {}
        varmap: Dict[str, int] = {}
        if within is None:
            self.encode_calls += 1
        else:
            self.cone_encodes += 1
        gates = netlist.gates
        for net in netlist.topological_order():
            if net in bind:
                varmap[net] = bind[net]
                continue
            if within is not None and net not in within:
                raise ValueError(
                    f"net {net!r} outside the encoded cone has no bound "
                    f"variable")
            g = gates[net]
            t = g.gate_type
            if t is GateType.INPUT or t is GateType.DFF:
                v = self.solver.new_var()  # free variable
            elif t is GateType.BUF:
                v = varmap[g.fanins[0]]
            elif t is GateType.NOT:
                v = self._not(varmap[g.fanins[0]])
            elif t is GateType.CONST0 or t is GateType.CONST1:
                v = self.const_var(int(t is GateType.CONST1))
            else:
                ops = [varmap[fi] for fi in g.fanins]
                if t in _ANDOR:
                    ctrl, negate = _ANDOR[t]
                    v = self._var(self._and_or(ops, ctrl, negate))
                elif t is GateType.XOR or t is GateType.XNOR:
                    v = self._var(self._xor(ops, int(t is GateType.XNOR)))
                elif t is GateType.MUX:
                    v = self._mux(*ops)
                else:
                    raise ValueError(f"cannot encode gate type {t.name}")
            varmap[net] = v
        if prefix:
            return {prefix + net: v for net, v in varmap.items()}
        return varmap

    # ------------------------------------------------------------------
    # Hashed nodes.  Literals follow the solver: ``2 * v`` positive,
    # ``^ 1`` complements (inlined — the SAT attack encodes two circuit
    # copies per DIP, so per-literal call overhead is measurable).
    # ------------------------------------------------------------------

    def _var(self, literal: int) -> int:
        """The variable equal to ``literal`` (a hashed NOT if negative)."""
        v = literal >> 1
        return self._not(v) if literal & 1 else v

    def _not(self, v: int) -> int:
        """The variable equal to NOT ``v``, created once per variable."""
        n = self._negation.get(v)
        if n is None:
            value = self._const_of.get(v)
            if value is not None:
                return self.const_var(1 - value)
            n = self.solver.new_var()
            add = self.solver.add_clause
            add([2 * n ^ 1, 2 * v ^ 1])
            add([2 * n, 2 * v])
            self._negation[v] = n
            self._negation[n] = v
        return n

    def _and_or(self, operands: Iterable[int], ctrl: int,
                negate: int) -> int:
        """Literal of AND (``ctrl`` 0) or OR (``ctrl`` 1) of the
        operand variables, complemented when ``negate`` is 1."""
        const_of = self._const_of
        ops = set()
        for v in operands:
            value = const_of.get(v)
            if value is None:
                ops.add(v)
            elif value == ctrl:
                return 2 * self.const_var(ctrl ^ negate)
        if not ops:
            return 2 * self.const_var(1 ^ ctrl ^ negate)
        if len(ops) == 1:
            return 2 * ops.pop() ^ negate
        negation = self._negation
        for v in ops:
            if negation.get(v) in ops:
                return 2 * self.const_var(ctrl ^ negate)
        key = (ctrl, *sorted(ops))
        y = self._nodes.get(key)
        if y is None:
            # The polarity asked for first gets the plain variable.
            y = 2 * self.solver.new_var() ^ negate
            add = self.solver.add_clause
            # AND: y -> a for every a, and (all a) -> y; OR is the dual.
            ins = [2 * v ^ ctrl for v in key[1:]]
            for a in ins:
                add([y ^ 1 ^ ctrl, a])
            add([y ^ ctrl] + [a ^ 1 for a in ins])
            self._nodes[key] = y
        return y ^ negate

    def _xor(self, operands: Iterable[int], parity: int) -> int:
        """Literal of the XOR of the operand variables and ``parity``."""
        const_of = self._const_of
        negation = self._negation
        ops = set()
        for v in operands:
            value = const_of.get(v)
            if value is not None:
                parity ^= value
                continue
            n = negation.get(v)
            if n is not None and n < v:   # NOT x = x ^ 1: use the older
                v = n
                parity ^= 1
            if v in ops:
                ops.remove(v)             # x ^ x = 0
            else:
                ops.add(v)
        if not ops:
            return 2 * self.const_var(parity)
        acc, *rest = sorted(ops)
        nodes = self._nodes
        for b in rest:
            key = (_XOR, acc, b) if acc < b else (_XOR, b, acc)
            y = nodes.get(key)
            if y is None:
                y = 2 * self.solver.new_var() ^ parity
                a, c = 2 * acc, 2 * b
                add = self.solver.add_clause
                # y = a ^ c
                add([y ^ 1, a, c])
                add([y ^ 1, a ^ 1, c ^ 1])
                add([y, a ^ 1, c])
                add([y, a, c ^ 1])
                nodes[key] = y
            acc = y >> 1
            parity ^= y & 1
        return 2 * acc ^ parity

    def _mux(self, s: int, d0: int, d1: int) -> int:
        """The variable equal to ``d1 if s else d0``."""
        value = self._const_of.get(s)
        if value is not None:
            return d1 if value else d0
        if d0 == d1:
            return d0
        key = (_MUX, s, d0, d1)
        y = self._nodes.get(key)
        if y is None:
            y = self.solver.new_var()
            out, s, d0, d1 = 2 * y, 2 * s, 2 * d0, 2 * d1
            add = self.solver.add_clause
            # out = (~s & d0) | (s & d1)
            add([out ^ 1, s, d0])
            add([out ^ 1, s ^ 1, d1])
            add([out, s, d0 ^ 1])
            add([out, s ^ 1, d1 ^ 1])
            self._nodes[key] = y
        return y

    # ------------------------------------------------------------------
    # Client helpers
    # ------------------------------------------------------------------

    def assert_equal(self, v: int, value: int) -> None:
        """Pin a variable to a constant with a unit clause."""
        self.solver.add_clause([lit(v, negative=(value == 0))])

    def xor_of(self, va: int, vb: int) -> int:
        """Variable equal to ``va XOR vb`` (hashed and folded)."""
        return self._var(self._xor((va, vb), 0))

    def or_of(self, variables: Iterable[int]) -> int:
        """Variable equal to the OR of ``variables`` (hashed and folded)."""
        return self._var(self._and_or(variables, 1, 0))


def solve_circuit(netlist: Netlist,
                  fixed: Mapping[str, int],
                  require: Mapping[str, int]) -> Optional[Dict[str, int]]:
    """Find primary-input values making outputs take ``require`` values,
    with some inputs pinned by ``fixed``.  Returns the input assignment
    or None if impossible.
    """
    enc = CircuitEncoder()
    varmap = enc.encode(netlist)
    for net, value in fixed.items():
        enc.assert_equal(varmap[net], value)
    for net, value in require.items():
        enc.assert_equal(varmap[net], value)
    if not enc.solver.solve():
        return None
    return {
        name: enc.solver.model_value(varmap[name])
        for name in netlist.inputs
    }

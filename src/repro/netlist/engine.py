"""Compiled gate-level simulation engine.

The reference interpreter in :mod:`repro.netlist.simulate` walks the
topological order and re-resolves string-keyed dicts plus a per-gate
``evaluate()`` dispatch on every invocation.  That cost is paid millions
of times across this repository: TVLA/CPA trace generation, fault
campaigns, SAT-attack oracles, MERO trigger search, and the DSE sweeps
all funnel through ``simulate()``.

:class:`CompiledNetlist` lowers a :class:`~repro.netlist.Netlist` *once*
into a flat, integer-indexed gate program over a dense net-index space:

* net names are replaced by topological indices,
* the per-gate dispatch is replaced by generated Python source — one
  straight-line statement per gate (``v17 = ~(v3 & v5) & mask``) compiled
  to a single function, so the hot loop contains no dict lookups, no
  enum comparisons, and no per-gate call overhead,
* arrays of opcodes / fanin indices / logic levels / combinational
  consumers are kept alongside for incremental uses (single-fault
  propagation, per-level trace aggregation).

There is one evaluator.  Every evaluation runs the program under a
*delta layout* — which runtime bit-planes force, flip or re-type which
nets — and the plain netlist is the empty layout.
:class:`VariantFamily` only turns variant specs into a layout plus
plane values and replicates the stimulus; it evaluates through the same
interpreter, code generator and program memo as a plain ``simulate()``.
Each topology keeps one bounded ``layout -> program`` memo: a layout's
first evaluation is interpreted, its second compiles through the
process-wide :class:`EngineCache`.

Compilation is cached on the netlist instance and invalidated through
the existing ``_topo_cache`` hook: every mutation path in
:class:`~repro.netlist.Netlist` drops the topo cache, and the engine
recompiles whenever the topo list object it captured is no longer the
netlist's current one.  Packed-word semantics are bit-exact with the
reference interpreter (property-tested in ``tests/test_engine.py`` and,
per variant, ``tests/test_variant_batch.py``).
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import (
    Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union,
)

from .gates import GateType
from .netlist import Netlist, NetlistError

#: Integer opcodes for the interpreted (incremental) evaluation path.
OP_INPUT = 0
OP_DFF = 1
OP_CONST0 = 2
OP_CONST1 = 3
OP_BUF = 4
OP_NOT = 5
OP_AND = 6
OP_NAND = 7
OP_OR = 8
OP_NOR = 9
OP_XOR = 10
OP_XNOR = 11
OP_MUX = 12

_OPCODE = {
    GateType.INPUT: OP_INPUT,
    GateType.DFF: OP_DFF,
    GateType.CONST0: OP_CONST0,
    GateType.CONST1: OP_CONST1,
    GateType.BUF: OP_BUF,
    GateType.NOT: OP_NOT,
    GateType.AND: OP_AND,
    GateType.NAND: OP_NAND,
    GateType.OR: OP_OR,
    GateType.NOR: OP_NOR,
    GateType.XOR: OP_XOR,
    GateType.XNOR: OP_XNOR,
    GateType.MUX: OP_MUX,
}


class EngineCache:
    """Process-local warm-evaluation state with bounded LRU eviction.

    Long-lived processes — the :mod:`repro.service` worker pool above
    all — repeatedly evaluate structurally identical netlists: every
    job of a locking sweep parses the same benchmark text, lowers it to
    the same generated source, and compiles the same chunk functions.
    This class makes that reuse an explicit, testable contract instead
    of an accident of module globals.  Two keyed pools:

    * **programs** — generated-source -> compiled chunk-function tuple,
      shared across structurally identical netlists evaluated under the
      same delta layout (the plain netlist is the empty layout).  Each
      topology's own bounded ``layout -> program`` memo sits in front
      of this pool, so only a layout's compiling evaluation looks here;
    * **netlists** — caller-chosen string key (conventionally the
      transport digest of the serialized form) -> parsed
      :class:`~repro.netlist.Netlist`.  Each entry records the
      netlist's ``mutation_epoch`` at insertion; a lookup whose cached
      netlist has since been mutated in place is treated as a miss and
      dropped, so a stale structure is never served.

    Both pools are LRU-bounded and count hits/misses/evictions.  The
    cache is *process-local by design*: compiled code objects and
    parsed netlists are exactly the state that cannot travel across a
    pickle boundary, which is why warm workers hold one of these each
    (see ``scripts/check_jobs.py`` for the audit that job results never
    smuggle such handles out of a worker).
    """

    def __init__(self, max_programs: int = 64,
                 max_netlists: int = 32) -> None:
        self.max_programs = max_programs
        self.max_netlists = max_netlists
        self._programs: "Dict[str, tuple]" = {}
        self._netlists: Dict[str, Tuple[Netlist, int]] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # -- generic LRU plumbing (dicts preserve insertion order) ---------

    @staticmethod
    def _touch(pool: dict, key: str) -> None:
        pool[key] = pool.pop(key)

    def _evict_to(self, pool: dict, limit: int) -> None:
        while len(pool) > limit:
            pool.pop(next(iter(pool)))
            self.evictions += 1

    # -- compiled programs ---------------------------------------------

    def program(self, sources: Sequence[str]) -> tuple:
        """Compiled chunk functions for the given generated sources.

        The joined source is a complete structural signature and the
        chunk functions close over nothing instance-specific, so any
        two netlists producing the same source share one program.
        """
        key = "\x00".join(sources)
        cached = self._programs.get(key)
        if cached is not None:
            self.hits += 1
            self._touch(self._programs, key)
            return cached
        self.misses += 1
        chunk_fns = []
        for source in sources:
            namespace: Dict[str, object] = {}
            exec(compile(source, "<compiled-netlist>", "exec"), namespace)
            chunk_fns.append(namespace["_c"])
        program = tuple(chunk_fns)
        self._programs[key] = program
        self._evict_to(self._programs, self.max_programs)
        return program

    # -- parsed netlists -----------------------------------------------

    def get_netlist(self, key: str) -> Optional[Netlist]:
        """Cached netlist for ``key``, or ``None``.

        Entries whose netlist was mutated in place since insertion
        (``mutation_epoch`` advanced) are dropped and reported as
        misses: callers treat cached netlists as read-only, and this
        guard turns a violation into a recompute instead of a wrong
        answer.
        """
        entry = self._netlists.get(key)
        if entry is None:
            self.misses += 1
            return None
        netlist, epoch = entry
        if netlist.mutation_epoch != epoch:
            del self._netlists[key]
            self.misses += 1
            return None
        self.hits += 1
        self._touch(self._netlists, key)
        return netlist

    def put_netlist(self, key: str, netlist: Netlist) -> Netlist:
        """Insert ``netlist`` under ``key``; returns it for chaining."""
        self._netlists[key] = (netlist, netlist.mutation_epoch)
        self._evict_to(self._netlists, self.max_netlists)
        return netlist

    def netlist(self, key: str, build) -> Netlist:
        """Cached netlist for ``key``, calling ``build()`` on a miss."""
        cached = self.get_netlist(key)
        if cached is not None:
            return cached
        return self.put_netlist(key, build())

    # -- introspection --------------------------------------------------

    def stats(self) -> Dict[str, int]:
        """Cache counters: entry counts, hits, misses, evictions."""
        return {
            "programs": len(self._programs),
            "netlists": len(self._netlists),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }

    def clear(self) -> None:
        """Drop every cached entry and reset the counters."""
        self._programs.clear()
        self._netlists.clear()
        self.hits = self.misses = self.evictions = 0


#: The process-local cache instance; created lazily so ``fork``-started
#: workers that clear it do not share state with the parent.
_ENGINE_CACHE: Optional[EngineCache] = None


def engine_cache() -> EngineCache:
    """The process-local :class:`EngineCache` singleton."""
    global _ENGINE_CACHE
    if _ENGINE_CACHE is None:
        _ENGINE_CACHE = EngineCache()
    return _ENGINE_CACHE


def reset_engine_cache() -> None:
    """Drop the process-local cache (tests; worker recycling)."""
    global _ENGINE_CACHE
    _ENGINE_CACHE = None


#: Delta layout of the plain netlist: no forces, no flips, no patched
#: opcodes (see :meth:`VariantFamily._bind` for the layout format).
_PLAIN: tuple = ((), (), ())


def _gate_expr(compiled: "CompiledNetlist", i: int, op: int, ref) -> str:
    """Generated-source expression for gate ``i`` evaluated as ``op``.

    ``op`` differs from the gate's own opcode at a site whose opcode a
    delta layout patches.  ``ref(j)`` renders a fanin reference.
    """
    fis = compiled.fanins[i]
    if op == OP_INPUT:
        return f"IN[{compiled._input_pos[compiled.names[i]]}] & mask"
    if op == OP_DFF:
        return f"ST[{compiled._flop_pos[compiled.names[i]]}] & mask"
    if op == OP_CONST0:
        return "0"
    if op == OP_CONST1:
        return "mask"
    if op == OP_BUF:
        return ref(fis[0])
    if op == OP_NOT:
        return f"~{ref(fis[0])} & mask"
    if op == OP_AND:
        return " & ".join(ref(fi) for fi in fis)
    if op == OP_NAND:
        return "~(" + " & ".join(ref(fi) for fi in fis) + ") & mask"
    if op == OP_OR:
        return " | ".join(ref(fi) for fi in fis)
    if op == OP_NOR:
        return "~(" + " | ".join(ref(fi) for fi in fis) + ") & mask"
    if op == OP_XOR:
        return " ^ ".join(ref(fi) for fi in fis)
    if op == OP_XNOR:
        return "~(" + " ^ ".join(ref(fi) for fi in fis) + ") & mask"
    # OP_MUX: (select, data0, data1)
    s, d0, d1 = (ref(fi) for fi in fis)
    return f"(~{s} & {d0}) | ({s} & {d1})"


class CompiledNetlist:
    """A netlist lowered to a flat, integer-indexed gate program.

    Instances are immutable snapshots of one topology; obtain them via
    :func:`get_compiled`, which caches one per netlist and recompiles
    after any structural mutation.  Every evaluation runs one delta
    layout (see :class:`VariantFamily`); the plain netlist is the empty
    layout.
    """

    __slots__ = (
        "netlist", "names", "index", "input_names", "flop_names",
        "opcodes", "fanins", "levels", "depth", "consumers", "flop_src",
        "_topo_ref", "_input_pos", "_flop_pos", "_programs",
    )

    #: Bound on the per-topology ``layout -> program`` memo.
    _PROGRAMS_MAX = 16

    def __init__(self, netlist: Netlist) -> None:
        order = netlist.topological_order()
        self.netlist = netlist
        self._topo_ref = order
        self.names: List[str] = list(order)
        self.index: Dict[str, int] = {n: i for i, n in enumerate(order)}
        self.input_names: List[str] = netlist.inputs
        self.flop_names: List[str] = netlist.flops
        self._input_pos = {n: i for i, n in enumerate(self.input_names)}
        self._flop_pos = {n: i for i, n in enumerate(self.flop_names)}

        gates = netlist.gates
        n = len(order)
        self.opcodes: List[int] = [0] * n
        self.fanins: List[Tuple[int, ...]] = [()] * n
        self.levels: List[int] = [0] * n
        # Combinational consumers only: fault effects and incremental
        # re-evaluation never propagate through a DFF within one cycle.
        self.consumers: List[List[int]] = [[] for _ in range(n)]
        for i, net in enumerate(order):
            g = gates[net]
            op = _OPCODE[g.gate_type]
            self.opcodes[i] = op
            fis = tuple(self.index[fi] for fi in g.fanins)
            self.fanins[i] = fis
            if op in (OP_INPUT, OP_DFF, OP_CONST0, OP_CONST1):
                self.levels[i] = 0
            else:
                self.levels[i] = 1 + max(self.levels[fi] for fi in fis)
                for fi in fis:
                    self.consumers[fi].append(i)
        self.depth = max(self.levels) if self.levels else 0
        # D-pin source index per flop, for fast sequential stepping
        # (:meth:`step_words`) without materializing name-keyed dicts.
        self.flop_src: List[int] = [
            self.index[gates[ff].fanins[0]] for ff in self.flop_names
        ]
        # Code generation is lazy, per delta layout: a layout's first
        # evaluation runs over the opcode arrays directly and is
        # recorded here as ``None``; its second generates and compiles
        # the straight-line program, which later evaluations reuse.
        # Repeat consumers (trace campaigns, oracles, key sweeps)
        # amortize the compile, even when they build a fresh family per
        # call; mutate-once-simulate-once patterns (fault injection
        # sweeps, DSE candidate scoring, one-shot fault-campaign
        # chunks) never pay it.
        self._programs: Dict[tuple, Optional[tuple]] = {}

    # ------------------------------------------------------------------
    # Code generation
    # ------------------------------------------------------------------

    #: Statements per generated sub-function.  CPython's compiler goes
    #: superlinear on very large function bodies (~0.8 s at 8k
    #: statements vs ~0.08 s at 4k), so the program is split into
    #: chunks that each write their slice of a shared value list.
    CHUNK_STATEMENTS = 2000

    def _codegen(self, layout: tuple) -> List[str]:
        """Emit the gate program under ``layout`` as chunked straight-line
        Python sources.

        Each chunk is one function ``_c(V, IN, ST, mask, D)`` holding its
        gates in fast locals and flushing them into the dense value
        list ``V`` with a single slice assignment; cross-chunk fanins
        read ``V[j]`` directly.  BUF gates are aliased away (their
        reference *is* the fanin's), so the generated body contains
        exactly one bitwise expression per logic cell.

        At a delta site the expression selects among patched opcodes,
        then applies the flip plane, then the force plane (force wins),
        reading plane values from the runtime list ``D``.  BUF aliasing
        stops at delta sites so their planes apply exactly once.  The
        plain layout emits no ``D`` reference at all.
        """
        force, flip, alt = (dict(part) for part in layout)
        delta = force.keys() | flip.keys() | alt.keys()
        n = len(self.names)
        # Resolve BUF chains to their driving root once.
        root = list(range(n))
        for i, op in enumerate(self.opcodes):
            if op == OP_BUF and i not in delta:
                root[i] = root[self.fanins[i][0]]

        sources = []
        start = 0
        while start < n or (n == 0 and start == 0):
            stop = min(n, start + self.CHUNK_STATEMENTS)

            def ref(j: int, _start=start) -> str:
                r = root[j]
                return f"v{r}" if r >= _start else f"V[{r}]"

            lines = ["def _c(V, IN, ST, mask, D):"]
            for i in range(start, stop):
                op = self.opcodes[i]
                if i in delta:
                    expr = _gate_expr(self, i, op, ref)
                    if i in alt:
                        base_ix, entries = alt[i]
                        expr = " | ".join(
                            [f"({expr}) & D[{base_ix}]"]
                            + [f"({_gate_expr(self, i, alt_op, ref)})"
                               f" & D[{mix}]" for alt_op, mix in entries])
                    if i in flip:
                        expr = f"({expr}) ^ D[{flip[i]}]"
                    if i in force:
                        keep, put = force[i]
                        expr = f"(({expr}) & D[{keep}]) | D[{put}]"
                elif op == OP_BUF:
                    continue
                else:
                    expr = _gate_expr(self, i, op, ref)
                lines.append(f"    v{i} = {expr}")
            flush = ",".join(ref(i) for i in range(start, stop))
            lines.append(f"    V[{start}:{stop}] = [{flush}]")
            sources.append("\n".join(lines))
            start = stop
            if n == 0:
                break
        return sources

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------

    def eval_words(self, inputs: Mapping[str, int], width: int = 1,
                   state: Optional[Mapping[str, int]] = None) -> List[int]:
        """Packed value of every net, indexed like :attr:`names`."""
        try:
            stim = [inputs[name] for name in self.input_names]
        except KeyError as missing:
            raise NetlistError(
                f"missing stimulus for input {missing.args[0]!r}") from None
        if state:
            regs = [state.get(ff, 0) for ff in self.flop_names]
        else:
            regs = [0] * len(self.flop_names)
        return self._run(stim, regs, (1 << width) - 1)

    def _run(self, stim: Sequence[int], regs: Sequence[int], mask: int,
             layout: tuple = _PLAIN,
             planes: Sequence[int] = ()) -> List[int]:
        """Evaluate ``layout`` on positional stimulus/state words.

        No name lookups; ``planes`` holds the plane values ``layout``
        indexes.  Compiling goes through :func:`engine_cache`.  The
        ``_programs`` memo is FIFO-bounded, but one-shot variant
        layouts never evict the plain layout.
        """
        values: List[int] = [0] * len(self.names)
        programs = self._programs
        program = programs.get(layout)
        if program is None:
            if layout not in programs:
                if len(programs) >= self._PROGRAMS_MAX:
                    del programs[next(k for k in programs if k != _PLAIN)]
                programs[layout] = None
                self._interpret(values, stim, regs, mask, layout, planes)
                return values
            program = programs[layout] = engine_cache().program(
                self._codegen(layout))
        for chunk in program:
            chunk(values, stim, regs, mask, planes)
        return values

    def step_words(self, stim: Sequence[int], regs: Sequence[int],
                   width: int = 1) -> Tuple[List[int], List[int]]:
        """One clock edge on positional words: ``(values, next_regs)``.

        ``stim`` is ordered like :attr:`input_names` and ``regs`` like
        :attr:`flop_names`; the returned next-state list can be fed
        straight back in.  This is the fast inner loop behind
        sequential stepping (scan chains, AES datapath cycles) — no
        name-keyed dicts are built per cycle.
        """
        values = self._run(stim, regs, (1 << width) - 1)
        return values, [values[src] for src in self.flop_src]

    def _interpret(self, values: List[int], stim: Sequence[int],
                   regs: Sequence[int], mask: int, layout: tuple,
                   planes: Sequence[int]) -> None:
        """One full evaluation of ``layout`` straight off the opcode arrays.

        Used for a layout's first evaluation on a topology, before code
        generation has paid for itself; delta semantics as in
        :meth:`_codegen`.
        """
        force, flip, alt = (dict(part) for part in layout)
        delta = force.keys() | flip.keys() | alt.keys()
        eval_gate = self._eval_gate
        value_of = values.__getitem__
        for i, op in enumerate(self.opcodes):
            if op == OP_INPUT:
                value = stim[self._input_pos[self.names[i]]] & mask
            elif op == OP_DFF:
                value = regs[self._flop_pos[self.names[i]]] & mask
            else:
                value = eval_gate(i, value_of, mask)
            if i in delta:
                if i in alt:
                    base_ix, entries = alt[i]
                    value &= planes[base_ix]
                    for alt_op, mix in entries:
                        value |= (eval_gate(i, value_of, mask, alt_op)
                                  & planes[mix])
                if i in flip:
                    value ^= planes[flip[i]]
                if i in force:
                    keep, put = force[i]
                    value = (value & planes[keep]) | planes[put]
            values[i] = value

    def simulate(self, inputs: Mapping[str, int], width: int = 1,
                 state: Optional[Mapping[str, int]] = None) -> Dict[str, int]:
        """Drop-in replacement for the reference ``simulate()``."""
        return dict(zip(self.names, self.eval_words(inputs, width, state)))

    # ------------------------------------------------------------------
    # Incremental single-fault propagation
    # ------------------------------------------------------------------

    def _eval_gate(self, i: int, value_of, mask: int,
                   op: Optional[int] = None) -> int:
        """Interpreted evaluation of one gate.

        Used by the interpreter, by the incremental (event-driven)
        path and, with an ``op`` override, at a site whose opcode the
        delta layout patches.
        """
        if op is None:
            op = self.opcodes[i]
        fis = self.fanins[i]
        if op == OP_BUF:
            return value_of(fis[0])
        if op == OP_NOT:
            return ~value_of(fis[0]) & mask
        if op == OP_AND or op == OP_NAND:
            out = value_of(fis[0])
            for fi in fis[1:]:
                out &= value_of(fi)
            return out if op == OP_AND else ~out & mask
        if op == OP_OR or op == OP_NOR:
            out = value_of(fis[0])
            for fi in fis[1:]:
                out |= value_of(fi)
            return out if op == OP_OR else ~out & mask
        if op == OP_XOR or op == OP_XNOR:
            out = value_of(fis[0])
            for fi in fis[1:]:
                out ^= value_of(fi)
            return out if op == OP_XOR else ~out & mask
        if op == OP_MUX:
            s = value_of(fis[0])
            return (~s & value_of(fis[1])) | (s & value_of(fis[2]))
        if op == OP_CONST0:
            return 0
        if op == OP_CONST1:
            return mask
        raise NetlistError("INPUT/DFF gates take values from the stimulus")

    def propagate_force(self, golden: Sequence[int], site: int,
                        forced: int, width: int) -> Dict[int, int]:
        """Net values that change when ``site`` is forced to ``forced``.

        ``golden`` is a fault-free :meth:`eval_words` result for the same
        stimulus.  Returns ``{net index: new packed value}`` for every
        net whose value differs from golden — the single-fault cone,
        computed event-driven in topological order without re-simulating
        or copying the netlist.  Effects stop at DFFs (state comes from
        the stimulus, exactly as in a flat ``simulate()`` call).
        """
        mask = (1 << width) - 1
        forced &= mask
        if forced == golden[site]:
            return {}
        changed: Dict[int, int] = {site: forced}

        def value_of(i: int, _changed=changed, _golden=golden):
            v = _changed.get(i)
            return _golden[i] if v is None else v

        heap = list(self.consumers[site])
        heapify(heap)
        queued = set(heap)
        while heap:
            i = heappop(heap)
            queued.discard(i)
            new = self._eval_gate(i, value_of, mask)
            if new != golden[i]:
                changed[i] = new
                for consumer in self.consumers[i]:
                    if consumer not in queued:
                        queued.add(consumer)
                        heappush(heap, consumer)
        return changed


def get_compiled(netlist: Netlist) -> CompiledNetlist:
    """The cached compiled program for ``netlist`` (recompiling if stale).

    Staleness is detected through the ``_topo_cache`` identity: every
    structural mutation in :class:`Netlist` invalidates the topo cache,
    and :meth:`Netlist.topological_order` builds a *new* list object on
    the next call, so an identity mismatch precisely captures
    "mutated since compilation".
    """
    cached = getattr(netlist, "_compiled", None)
    if cached is not None and cached._topo_ref is netlist._topo_cache:
        return cached
    compiled = CompiledNetlist(netlist)
    netlist._compiled = compiled
    return compiled


# ----------------------------------------------------------------------
# Batched multi-variant evaluation
# ----------------------------------------------------------------------

#: Opcodes that may not appear in an opcode delta (either side): their
#: value comes from the stimulus, not from evaluating fanins.
_UNPATCHABLE = (OP_INPUT, OP_DFF)


class VariantSpec:
    """Delta of one design variant against a shared base netlist.

    ``inputs``  — input name -> packed word overriding the shared
                  stimulus for this variant (locking-key values, share
                  assignments); masked to the trace width at eval time.
    ``forces``  — net name -> 0/1 stuck-at value.  Wins over ``flips``.
    ``flips``   — net names whose computed value is inverted (the
                  ``BIT_FLIP`` fault model).
    ``opcodes`` — gate name -> :class:`GateType` the site evaluates as
                  (patched cells, camouflage decoys); fanins unchanged.

    Specs are value objects with a canonical JSON form
    (:meth:`to_dict` / :meth:`from_dict`), so per-variant artifact-cache
    keys hash identically whether a variant is scored serially or as
    part of a batch.
    """

    __slots__ = ("inputs", "forces", "flips", "opcodes")

    def __init__(self, inputs: Optional[Mapping[str, int]] = None,
                 forces: Optional[Mapping[str, int]] = None,
                 flips: Iterable[str] = (),
                 opcodes: Optional[Mapping[str, Union[str, GateType]]] = None,
                 ) -> None:
        self.inputs: Dict[str, int] = {
            str(k): int(v) for k, v in dict(inputs or {}).items()}
        self.forces: Dict[str, int] = {
            str(k): (1 if v else 0) for k, v in dict(forces or {}).items()}
        self.flips: frozenset = frozenset(str(f) for f in flips)
        self.opcodes: Dict[str, GateType] = {
            str(k): (GateType[v] if isinstance(v, str) else GateType(v))
            for k, v in dict(opcodes or {}).items()}

    def is_identity(self) -> bool:
        """True for the no-delta variant (the base design itself)."""
        return not (self.inputs or self.forces or self.flips
                    or self.opcodes)

    def to_dict(self) -> Dict[str, object]:
        """Canonical, JSON-able form; stable under round trips."""
        return {
            "inputs": {k: self.inputs[k] for k in sorted(self.inputs)},
            "forces": {k: self.forces[k] for k in sorted(self.forces)},
            "flips": sorted(self.flips),
            "opcodes": {k: self.opcodes[k].name
                        for k in sorted(self.opcodes)},
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "VariantSpec":
        """Inverse of :meth:`to_dict`; an unknown key raises, so a
        misspelled delta is never scored as the base design."""
        for key in data:
            if key not in cls.__slots__:
                raise NetlistError(f"unknown variant delta key {key!r}")
        return cls(inputs=data.get("inputs"),
                   forces=data.get("forces"),
                   flips=data.get("flips", ()),
                   opcodes=data.get("opcodes"))


#: Total packed-word budget (variants x patterns per word) for batched
#: family evaluation — leakage traces and fault campaigns alike.  Large
#: on purpose: the batched win comes from amortizing per-gate dispatch
#: over many variants and patterns per word.
FAMILY_CHUNK_BITS = 1 << 15


class VariantFamily:
    """Many variants of one netlist, evaluated in a single packed pass.

    The base netlist is lowered **once** (through the ordinary
    :func:`get_compiled` cache) and the per-variant deltas are carried
    as extra bit-planes: with ``V`` variants at ``traces`` patterns
    each, every net holds a ``V * traces``-bit word in which variant
    ``v`` owns bits ``[v*traces, (v+1)*traces)``.  Shared stimulus is
    replicated into every slice with one multiply; input overrides,
    stuck-at forces, bit-flips and patched opcodes apply only inside
    their variant's slice.  One sweep therefore scores the whole
    family instead of ``V`` compile+simulate round trips, and the
    result of each slice is bit-identical to simulating that variant
    alone at width ``traces``.

    A family only checks its specs, lays their structural deltas out
    as plane indices (:meth:`_bind`) with per-width plane values
    (:meth:`_planes_for`), and replicates the stimulus; evaluation is
    the base program's own (:meth:`CompiledNetlist._run`).  Generated
    code embeds plane *indices* while plane *values* arrive at call
    time, so every family with the same delta layout shares one
    compiled program per topology across trace widths — and families
    whose deltas are input overrides only (key sweeps, re-maskings as
    stimulus) share the plain netlist's program.
    """

    __slots__ = (
        "netlist", "variants", "_compiled", "_input_over", "_plane_specs",
        "_planes_cache", "_layout",
    )

    #: Bound on the per-family ``traces -> plane values`` cache.
    _PLANES_CACHE_MAX = 8

    def __init__(self, netlist: Netlist,
                 variants: Iterable[Union[VariantSpec, Mapping]]) -> None:
        specs: List[VariantSpec] = [
            v if isinstance(v, VariantSpec) else VariantSpec.from_dict(v)
            for v in variants
        ]
        if not specs:
            raise NetlistError("a VariantFamily needs at least one variant")
        self.netlist = netlist
        self.variants = specs
        self._bind(get_compiled(netlist))

    def __len__(self) -> int:
        return len(self.variants)

    # ------------------------------------------------------------------
    # Delta-plane layout
    # ------------------------------------------------------------------

    @staticmethod
    def _site(index: Mapping[str, int], name: str) -> int:
        try:
            return index[name]
        except KeyError:
            raise NetlistError(
                f"variant delta names unknown net {name!r}") from None

    def _bind(self, compiled: CompiledNetlist) -> None:
        """(Re)build the delta-plane layout against a compiled base.

        Called at construction and again whenever the base netlist has
        been structurally mutated since (net indices may have moved).
        The layout is three site-sorted tuples of ``(site, planes)``
        pairs: forces, flips, patched opcodes.  Its plane indices point
        into ``D``, the plane values :meth:`_planes_for` builds.
        """
        self._compiled = compiled
        self._planes_cache: Dict[int, tuple] = {}
        index = compiled.index
        opcodes = compiled.opcodes

        plane_specs: List[Tuple[bool, Tuple[int, ...]]] = []
        memo: Dict[Tuple[bool, Tuple[int, ...]], int] = {}

        def plane(variant_ids, invert: bool = False) -> int:
            key = (invert, tuple(sorted(variant_ids)))
            ix = memo.get(key)
            if ix is None:
                ix = memo[key] = len(plane_specs)
                plane_specs.append(key)
            return ix

        input_over: Dict[str, Dict[int, int]] = {}
        forces0: Dict[int, List[int]] = {}
        forces1: Dict[int, List[int]] = {}
        flips: Dict[int, List[int]] = {}
        alts: Dict[int, Dict[int, List[int]]] = {}
        for v, spec in enumerate(self.variants):
            for name, word in spec.inputs.items():
                if name not in compiled._input_pos:
                    raise NetlistError(
                        f"variant override target {name!r} is not an input")
                input_over.setdefault(name, {})[v] = word
            for name, val in spec.forces.items():
                site = self._site(index, name)
                (forces1 if val else forces0).setdefault(site, []).append(v)
            for name in spec.flips:
                flips.setdefault(self._site(index, name), []).append(v)
            for name, gate_type in spec.opcodes.items():
                site = self._site(index, name)
                op = _OPCODE[gate_type]
                if opcodes[site] in _UNPATCHABLE or op in _UNPATCHABLE:
                    raise NetlistError(
                        f"cannot patch opcode at {name!r}: INPUT/DFF "
                        "sites are stimulus-driven")
                n_fanins = len(compiled.fanins[site])
                if op == OP_MUX and n_fanins != 3:
                    raise NetlistError(
                        f"MUX patch at {name!r} needs 3 fanins, "
                        f"site has {n_fanins}")
                if op not in (OP_CONST0, OP_CONST1) and n_fanins < 1:
                    raise NetlistError(
                        f"opcode patch at {name!r} needs a fanin")
                if op == opcodes[site]:
                    continue  # patching to the base type is a no-op
                alts.setdefault(site, {}).setdefault(op, []).append(v)

        # site -> (keep-plane, set-plane): new = (v & keep) | set
        force_ix = []
        for site in sorted(set(forces0) | set(forces1)):
            affected = forces0.get(site, []) + forces1.get(site, [])
            force_ix.append((site, (plane(affected, invert=True),
                                    plane(forces1.get(site, [])))))
        # site -> xor-plane
        flip_ix = [(site, plane(variant_ids))
                   for site, variant_ids in sorted(flips.items())]
        # site -> (base-keep-plane, ((opcode, select-plane), ...))
        alt_ix = []
        for site in sorted(alts):
            by_op = alts[site]
            patched = [v for vs in by_op.values() for v in vs]
            base_ix = plane(patched, invert=True)
            alt_ix.append((site, (base_ix, tuple(sorted(
                (op, plane(vs)) for op, vs in by_op.items())))))
        self._plane_specs = plane_specs
        self._input_over = input_over
        # The generated program depends only on which plane index wraps
        # which site (values arrive at call time), so the layout keys
        # it in the topology's memo.
        self._layout = (tuple(force_ix), tuple(flip_ix), tuple(alt_ix))

    def _planes_for(self, traces: int) -> tuple:
        """``(rep, tmask, full, D)`` for a given per-variant width."""
        cached = self._planes_cache.get(traces)
        if cached is not None:
            return cached
        n_variants = len(self.variants)
        tmask = (1 << traces) - 1
        full = (1 << (n_variants * traces)) - 1
        rep = 0
        for v in range(n_variants):
            rep |= 1 << (v * traces)
        planes: List[int] = []
        for invert, variant_ids in self._plane_specs:
            word = 0
            for v in variant_ids:
                word |= tmask << (v * traces)
            planes.append(full ^ word if invert else word)
        entry = (rep, tmask, full, planes)
        if len(self._planes_cache) >= self._PLANES_CACHE_MAX:
            self._planes_cache.pop(next(iter(self._planes_cache)))
        self._planes_cache[traces] = entry
        return entry

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------

    def eval_words(self, inputs: Mapping[str, int], traces: int = 1,
                   state: Optional[Mapping[str, int]] = None,
                   per_variant_inputs: Optional[
                       Mapping[str, Sequence[int]]] = None) -> List[int]:
        """Packed value of every net across all variants.

        ``inputs``/``state`` carry shared ``traces``-bit stimulus words,
        replicated into every variant's slice; ``per_variant_inputs``
        maps an input name to exactly one ``traces``-bit word per
        variant.  An input may be omitted from ``inputs`` only if every
        variant overrides it.  The result is indexed like the base
        program's ``names``; use :meth:`split_word` to recover
        per-variant words.
        """
        compiled = get_compiled(self.netlist)
        if compiled is not self._compiled:
            self._bind(compiled)
        n_variants = len(self.variants)
        per_variant_inputs = per_variant_inputs or {}
        for name, words in per_variant_inputs.items():
            if name not in compiled._input_pos:
                raise NetlistError(
                    f"per-variant stimulus target {name!r} is not an input")
            if len(words) != n_variants:
                raise NetlistError(
                    f"per-variant stimulus for input {name!r} has "
                    f"{len(words)} words for {n_variants} variants")
        rep, tmask, full, planes = self._planes_for(traces)
        stim: List[int] = []
        for name in compiled.input_names:
            over = self._input_over.get(name)
            pv = per_variant_inputs.get(name)
            if over is None and pv is None:
                try:
                    base = inputs[name]
                except KeyError:
                    raise NetlistError(
                        f"missing stimulus for input {name!r}") from None
                stim.append((base & tmask) * rep)
                continue
            shared = inputs.get(name)
            if pv is not None and traces & 7 == 0:
                # Byte-wise assembly: one join instead of V shift-ORs
                # into an ever-growing accumulator (the loop below is
                # quadratic in the variant count).
                n_bytes = traces >> 3
                encoded: Dict[int, bytes] = {}
                parts: List[bytes] = []
                for value in pv:
                    part = encoded.get(value)
                    if part is None:
                        part = encoded[value] = (
                            int(value) & tmask).to_bytes(n_bytes, "little")
                    parts.append(part)
                stim.append(int.from_bytes(b"".join(parts), "little"))
                continue
            word = 0
            for v in range(n_variants):
                value = pv[v] if pv is not None else over.get(v, shared)
                if value is None:
                    raise NetlistError(
                        f"missing stimulus for input {name!r} "
                        f"(no override in variant {v})")
                word |= (int(value) & tmask) << (v * traces)
            stim.append(word)
        if state:
            regs = [(state.get(ff, 0) & tmask) * rep
                    for ff in compiled.flop_names]
        else:
            regs = [0] * len(compiled.flop_names)
        return compiled._run(stim, regs, full, self._layout, planes)

    def split_word(self, word: int, traces: int) -> List[int]:
        """Per-variant ``traces``-bit words of one packed value."""
        tmask = (1 << traces) - 1
        return [(word >> (v * traces)) & tmask
                for v in range(len(self.variants))]

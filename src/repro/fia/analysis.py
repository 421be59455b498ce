"""Automatic fault analysis: one simulation kernel and one SAT miter.

Implements the "red team vs. blue team" evaluation style of the paper's
Sec. III: inject every fault, and ask (i) can it corrupt an output, and
(ii) does the countermeasure's alarm fire whenever it does?
:func:`fault_effects` grades a pattern block; :func:`fault_campaign`
and :func:`repro.dft.detection_words` reduce its result.
:class:`FaultMiter` asks SAT for an input exposing one fault; ATPG and
:func:`formal_coverage` query it, the latter being the paper's
[32]-style analysis that can *demonstrate the absence* of undetected
faults.  Both see a fault at output ``o`` through the net *named* ``o``
in the netlist :func:`inject_fault` builds.  A stuck-at on an internal
gate rewrites the gate, so its name reads faulty; a bit flip, or a
stuck-at on a primary input, interposes a new net before the victim's
readers, so the victim's own name stays healthy even when it is an
output or the alarm.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import (Dict, Iterator, List, Mapping, Optional, Sequence, Set,
                    Tuple)

from ..formal import CircuitEncoder, lit, neg
from ..netlist import (
    GateType, Netlist, VariantFamily, VariantSpec, get_compiled,
    random_stimulus,
)
from ..netlist.engine import FAMILY_CHUNK_BITS
from .injector import inject_fault
from .models import Fault, FaultKind

#: A block is batched when a family word holds at least this many
#: faults (``FAMILY_CHUNK_BITS // width``, so at most 128 vectors).
#: Per fault, a family evaluation touches every gate and the serial
#: path only the fault's cone, so past this width the wider words cost
#: more than the per-gate dispatch they amortize.  Measured on the AES
#: S-box's 850 stuck-at faults, batching took 1.4x the serial time at
#: 256 vectors and 3.4x at 1024; on masked PRESENT + parity it took
#: 0.6x at 64 vectors and 0.7x at 128.
_MIN_FAULTS_PER_WORD = 256

#: Fewer faults than this run serially at any width: a handful of
#: cones is cheaper than interpreting (and, on a layout's second use,
#: compiling) a whole-family program.
_BATCH_THRESHOLD = 8


@dataclass
class FaultOutcome:
    """Campaign result for one fault."""

    fault: Fault
    propagated: bool       # some output differed on some tested vector
    detected: bool         # alarm fired on every corrupting vector
    silent_corruption: bool  # some vector corrupted outputs w/o alarm


@dataclass
class CampaignReport:
    """Aggregate results of a fault campaign."""

    outcomes: List[FaultOutcome] = field(default_factory=list)

    @property
    def n_faults(self) -> int:
        return len(self.outcomes)

    @property
    def propagating(self) -> int:
        return sum(1 for o in self.outcomes if o.propagated)

    @property
    def detected(self) -> int:
        return sum(1 for o in self.outcomes if o.propagated and o.detected)

    @property
    def silent(self) -> int:
        return sum(1 for o in self.outcomes if o.silent_corruption)

    @property
    def coverage(self) -> float:
        """Detected fraction of propagating faults (1.0 if none propagate)."""
        if self.propagating == 0:
            return 1.0
        return self.detected / self.propagating

    def summary(self) -> str:
        """One-line campaign summary for reports."""
        return (
            f"faults={self.n_faults} propagating={self.propagating} "
            f"detected={self.detected} silent={self.silent} "
            f"coverage={self.coverage:.3f}"
        )


def _fault_spec(fault: Fault) -> VariantSpec:
    """The variant delta equivalent to one injected fault."""
    if fault.kind is FaultKind.STUCK_AT_0:
        return VariantSpec(forces={fault.net: 0})
    if fault.kind is FaultKind.STUCK_AT_1:
        return VariantSpec(forces={fault.net: 1})
    if fault.kind is FaultKind.BIT_FLIP:
        return VariantSpec(flips=[fault.net])
    raise ValueError(f"unsupported fault kind {fault.kind}")


def _forced_word(fault: Fault, golden_word: int, mask: int) -> int:
    """Packed word ``fault`` forces onto its net, whose fault-free packed
    word is ``golden_word`` (one bit per pattern under ``mask``)."""
    if fault.kind is FaultKind.STUCK_AT_0:
        return 0
    if fault.kind is FaultKind.STUCK_AT_1:
        return mask
    if fault.kind is FaultKind.BIT_FLIP:
        return ~golden_word & mask
    raise ValueError(f"unsupported fault kind {fault.kind}")


def _batched(n_faults: int, width: int) -> bool:
    """The kernel's strategy rule, read from fault count and width only.

    A one-pattern block stays serial: ATPG's fault dropping grades one
    after each SAT test, most faults are not activated by one pattern,
    and the serial path returns at once for those.  Batched, the drop
    calls of ``run_atpg`` on the AES S-box at a 32-pattern budget took
    86 ms instead of 25 (one core of a 2-vCPU VM, median of 8 runs).
    """
    return (width > 1 and n_faults >= _BATCH_THRESHOLD
            and FAMILY_CHUNK_BITS // width >= _MIN_FAULTS_PER_WORD)


def fault_effects(netlist: Netlist, columns: Mapping[str, int], width: int,
                  faults: Sequence[Fault], watched: Sequence[int]
                  ) -> Iterator[Tuple[List[int], Dict[int, int]]]:
    """The fault-simulation kernel: what each fault changes on a block.

    ``columns`` maps every primary input to its packed word (pattern
    ``p`` in bit ``p``); flop state reads as zero.  ``watched`` lists
    the net indices the caller reads.  Yields, per fault in order,
    ``(golden, changed)``: every net's fault-free word by index, and
    the fault's word for each net where it differs, every watched one
    among them (the module's observation rule applied).  Serially (see
    :func:`_batched`), each fault is propagated through its cone
    (:meth:`~repro.netlist.CompiledNetlist.propagate_force`) and
    ``changed`` is that cone diff; batched, whole fault chunks are
    scored as one :class:`~repro.netlist.VariantFamily` beside a
    fault-free variant 0, and ``changed`` holds watched nets only.
    Both strategies give bit-identical watched words.
    """
    compiled = get_compiled(netlist)
    index = compiled.index
    mask = (1 << width) - 1
    # The observation rule: a bit flip, or a stuck-at on a primary
    # input, leaves the victim's own name healthy.  (Locals, as an
    # enum member lookup per fault costs a few percent of a block.)
    flip = FaultKind.BIT_FLIP
    inputs = {index[name] for name in netlist.inputs}
    if not _batched(len(faults), width):
        golden = compiled.eval_words(columns, width)
        for fault in faults:
            site = index[fault.net]
            changed = compiled.propagate_force(
                golden, site, _forced_word(fault, golden[site], mask), width)
            if changed and (fault.kind is flip or site in inputs):
                del changed[site]
            yield golden, changed
        return
    chunk = FAMILY_CHUNK_BITS // width
    for start in range(0, len(faults), chunk):
        group = faults[start:start + chunk]
        # Fault k of the group occupies slice k+1 of every packed word.
        family = VariantFamily(
            netlist, [VariantSpec()] + [_fault_spec(f) for f in group])
        words = family.eval_words(columns, width)
        golden = [word & mask for word in words]
        for k, fault in enumerate(group, start=1):
            shift = k * width
            site = index[fault.net]
            hidden = site if fault.kind is flip or site in inputs else None
            changed = {}
            for i in watched:
                word = (words[i] >> shift) & mask
                if word != golden[i] and i != hidden:
                    changed[i] = word
            yield golden, changed


def corrupted_patterns(golden: Sequence[int], changed: Mapping[int, int],
                       outputs: Sequence[int]) -> int:
    """The patterns on which one :func:`fault_effects` item changes some
    net of ``outputs`` (net indices), as a packed word."""
    word = 0
    for o in outputs:
        new = changed.get(o)
        if new is not None:
            word |= golden[o] ^ new
    return word


def fault_campaign(netlist: Netlist, faults: Sequence[Fault],
                   n_vectors: int = 64,
                   alarm: Optional[str] = None,
                   payload_outputs: Optional[Sequence[str]] = None,
                   seed: int = 0) -> CampaignReport:
    """Random-vector fault simulation campaign.

    ``alarm`` names the detection output (if the design has one);
    ``payload_outputs`` restricts which outputs count as corruption
    (default: all outputs except the alarm).  One seeded random block
    goes through :func:`fault_effects`, so the results match
    ``inject_fault``-then-``simulate`` exactly, read by name.
    """
    stimulus = random_stimulus(netlist.inputs, n_vectors,
                               random.Random(seed))
    index = get_compiled(netlist).index
    outputs = [index[o] for o in payload_outputs or [
        o for o in netlist.outputs if o != alarm]]
    watched = outputs if alarm is None else outputs + [index[alarm]]
    mask = (1 << n_vectors) - 1
    report = CampaignReport()
    effects = fault_effects(netlist, stimulus, n_vectors, faults, watched)
    for fault, (golden, changed) in zip(faults, effects):
        corrupt = corrupted_patterns(golden, changed, outputs)
        propagated = corrupt != 0
        if alarm is None:
            outcome = FaultOutcome(fault, propagated, False, propagated)
        else:
            a = watched[-1]
            undetected = corrupt & ~changed.get(a, golden[a]) & mask
            outcome = FaultOutcome(fault, propagated,
                                   propagated and undetected == 0,
                                   undetected != 0)
        report.outcomes.append(outcome)
    return report


class FaultMiter:
    """The SAT fault miter: one base encode, a faulty cone per query.

    The fault-free ``netlist`` is Tseitin-encoded once.  Each
    :meth:`expose` query encodes only the fault's output cone against
    the base variables, flop outputs included (the full-scan view), and
    asks under assumptions for an input on which a net of ``outputs``
    differs by name.  Learned clauses stay, and a refuted query adds
    the negation of its assumptions as a clause, so later queries reuse
    every proof.  With an ``alarm``, a query also assumes the alarm
    (the faulty copy's, inside the cone) stays low, and each flop's D
    input counts as an output too: exposed means a silent corruption
    of the payload or of the next state.  As both copies read one flop
    state, that makes a refuted query a proof on sequential designs:
    from a shared reset state, the alarm fires in the first cycle in
    which the payload or the next state diverges.
    """

    def __init__(self, netlist: Netlist, outputs: Sequence[str],
                 alarm: Optional[str] = None) -> None:
        self.netlist = netlist
        self.outputs = list(outputs)
        self.alarm = alarm
        self.encoder = CircuitEncoder()
        self.good_vars = self.encoder.encode(netlist)
        self._fanout = netlist.fanout_map()
        self._flops = [] if alarm is None else [
            (net, gate.fanins[0]) for net, gate in netlist.gates.items()
            if gate.gate_type is GateType.DFF]

    def _fault_cone(self, net: str) -> Set[str]:
        """Transitive fanout of ``net``, stopping at DFF boundaries."""
        gates = self.netlist.gates
        cone = {net}
        stack = [net]
        fanout = self._fanout
        while stack:
            for consumer in fanout.get(stack.pop(), ()):
                if consumer in cone:
                    continue
                if gates[consumer].gate_type is GateType.DFF:
                    continue
                cone.add(consumer)
                stack.append(consumer)
        return cone

    def expose(self, fault: Fault, conflict_budget: Optional[int] = None
               ) -> Tuple[str, Optional[Dict[str, int]]]:
        """SAT query for an input that exposes ``fault``.

        Returns ``("exposed", inputs)`` with the primary-input values of
        one such input, ``("masked", None)`` when none exists, or
        ``("aborted", None)`` when ``conflict_budget`` ran out.
        """
        cone = self._fault_cone(fault.net)
        faulty = inject_fault(self.netlist, fault)
        # Only nets the fault can reach are re-encoded; primary inputs
        # and DFF outputs stay shared with the base circuit, and nets
        # introduced by the injection itself (e.g. the stuck driver for
        # an input fault) are encoded fresh.
        good_vars = self.good_vars
        within = set()
        bind: Dict[str, int] = {}
        for net, gate in faulty.gates.items():
            if (net in cone or net not in good_vars) and \
                    gate.gate_type not in (GateType.INPUT, GateType.DFF):
                within.add(net)
            else:
                bind[net] = good_vars[net]
        # (fault-free net, faulty net) pairs that must agree.
        observed = [(o, o) for o in self.outputs if o in within]
        for flop, d in self._flops:
            gate = faulty.gates.get(flop)   # swept when nothing reads it
            if gate is not None and gate.gate_type is GateType.DFF and \
                    gate.fanins[0] in within:
                observed.append((d, gate.fanins[0]))
        if not observed:
            return "masked", None
        enc = self.encoder
        bad_vars = enc.encode(faulty, bind=bind, within=within)
        diffs = [enc.xor_of(good_vars[g], bad_vars[b]) for g, b in observed]
        assumptions = [lit(enc.or_of(diffs))]
        if self.alarm is not None:
            assumptions.append(lit(bad_vars[self.alarm], negative=True))
        solver = enc.solver
        result = solver.solve(assumptions=assumptions,
                              conflict_budget=conflict_budget)
        if result is False:
            solver.add_clause([neg(a) for a in assumptions])
            return "masked", None
        if result is None:
            return "aborted", None
        return "exposed", {name: solver.model_value(good_vars[name])
                           for name in self.netlist.inputs}


@dataclass
class FormalFaultResult:
    """A fault :func:`formal_coverage` could not prove detected."""

    fault: Fault
    #: Primary-input values of one silent corruption.  On a sequential
    #: design the corruption (of a payload output or of the next state)
    #: also needs a flop state, which the full-scan view leaves free.
    witness: Dict[str, int]


def formal_coverage(netlist: Netlist, faults: Sequence[Fault], alarm: str,
                    payload_outputs: Optional[Sequence[str]] = None,
                    ) -> Tuple[float, List[FormalFaultResult]]:
    """Exhaustive formal detection coverage over a fault list.

    One :class:`FaultMiter` over the payload outputs (default: all
    outputs except the alarm) with the alarm held low; on a sequential
    design a fault that can change the next state with the alarm low
    is a miss too.  Faults that cannot propagate at all count as
    covered (they are harmless).  Returns (coverage, per-fault results
    for the misses).
    """
    miter = FaultMiter(netlist, payload_outputs or [
        o for o in netlist.outputs if o != alarm], alarm)
    missed: List[FormalFaultResult] = []
    for fault in faults:
        status, witness = miter.expose(fault)
        if status == "exposed":
            missed.append(FormalFaultResult(fault, witness))
    total = len(faults)
    return ((total - len(missed)) / total if total else 1.0), missed

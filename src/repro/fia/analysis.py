"""Automatic fault analysis: propagation and detection coverage.

Implements the "red team vs. blue team" evaluation style of the paper's
Sec. III: inject every fault, and ask (i) can it corrupt an output, and
(ii) does the countermeasure's alarm fire whenever it does?  Both a
fast simulation campaign and an exhaustive SAT-based proof are
provided — the formal variant is the paper's [32]-style robustness
analysis, able to *demonstrate the absence* of undetected faults.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..formal import CircuitEncoder
from ..netlist import (
    GateType, Netlist, VariantFamily, VariantSpec, get_compiled,
    random_stimulus,
)
from ..netlist.engine import FAMILY_CHUNK_BITS
from .injector import inject_fault
from .models import Fault, FaultKind

#: A campaign is batched when a family word holds at least this many
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


def forced_word(fault: Fault, golden_word: int, mask: int) -> int:
    """Packed word ``fault`` forces onto its net, whose fault-free packed
    word is ``golden_word`` (one bit per pattern under ``mask``)."""
    if fault.kind is FaultKind.STUCK_AT_0:
        return 0
    if fault.kind is FaultKind.STUCK_AT_1:
        return mask
    if fault.kind is FaultKind.BIT_FLIP:
        return ~golden_word & mask
    raise ValueError(f"unsupported fault kind {fault.kind}")


def _site_visible(netlist: Netlist, fault: Fault) -> bool:
    """Whether the victim net reads faulty under its own name (the
    name-resolution detail :func:`fault_campaign` documents)."""
    return (fault.kind is not FaultKind.BIT_FLIP
            and netlist.gates[fault.net].gate_type is not GateType.INPUT)


def _outcome(fault: Fault, golden: Sequence[int], faulty: Sequence[int],
             has_alarm: bool, mask: int) -> FaultOutcome:
    """Score one fault from the watched nets' fault-free and faulty
    packed words: the payload outputs, then the alarm if ``has_alarm``."""
    n_outputs = len(golden) - 1 if has_alarm else len(golden)
    corrupt = 0
    for g, f in zip(golden[:n_outputs], faulty[:n_outputs]):
        corrupt |= g ^ f
    propagated = corrupt != 0
    if not has_alarm:
        return FaultOutcome(fault, propagated, False, propagated)
    undetected_corruption = corrupt & ~faulty[-1] & mask
    return FaultOutcome(fault, propagated,
                        propagated and undetected_corruption == 0,
                        undetected_corruption != 0)


def fault_campaign(netlist: Netlist, faults: Sequence[Fault],
                   n_vectors: int = 64,
                   alarm: Optional[str] = None,
                   payload_outputs: Optional[Sequence[str]] = None,
                   seed: int = 0) -> CampaignReport:
    """Random-vector fault simulation campaign.

    ``alarm`` names the detection output (if the design has one);
    ``payload_outputs`` restricts which outputs count as corruption
    (default: all outputs except the alarm).

    Two bit-identical execution strategies share one random stimulus:

    * serial — one fault-free bit-parallel simulation covers all
      vectors, then each fault is propagated event-driven through its
      combinational cone
      (:meth:`~repro.netlist.CompiledNetlist.propagate_force`);
    * batched — faults become variant deltas of a
      :class:`~repro.netlist.VariantFamily` (stuck-ats as force planes,
      bit-flips as xor planes) and whole chunks of the fault list are
      scored in one packed evaluation alongside a golden variant.

    A list of at least ``_BATCH_THRESHOLD`` (8) faults is batched when
    a family word holds at least ``_MIN_FAULTS_PER_WORD`` (256) of them,
    i.e. at up to 128 vectors; other campaigns run serially.

    Results match the ``inject_fault``-then-``simulate`` formulation
    exactly, including its name-resolution detail: a BIT_FLIP (or a
    stuck-at on a primary input) interposes a new net between the
    victim and its consumers, so the victim's *own name* keeps its
    healthy value when read as an output or alarm; a stuck-at on an
    internal gate rewrites the gate itself and is visible under its
    own name.
    """
    rng = random.Random(seed)
    width = n_vectors
    stimulus = random_stimulus(netlist.inputs, width, rng)
    compiled = get_compiled(netlist)
    outputs = list(payload_outputs) if payload_outputs else [
        o for o in netlist.outputs if o != alarm
    ]
    has_alarm = alarm is not None
    # Net indices scored per fault: payload outputs, then the alarm.
    watched = [compiled.index[o] for o in outputs]
    if has_alarm:
        watched.append(compiled.index[alarm])
    mask = (1 << width) - 1
    report = CampaignReport()
    chunk = FAMILY_CHUNK_BITS // max(1, width)
    if len(faults) >= _BATCH_THRESHOLD and chunk >= _MIN_FAULTS_PER_WORD:
        for start in range(0, len(faults), chunk):
            group = faults[start:start + chunk]
            # Variant 0 is the golden (fault-free) design; fault k of
            # the group occupies slice k+1 of every packed word.
            family = VariantFamily(
                netlist, [VariantSpec()] + [_fault_spec(f) for f in group])
            words = family.eval_words(stimulus, width)
            golden = [words[i] & mask for i in watched]
            for k, fault in enumerate(group, start=1):
                shift = k * width
                hidden = (compiled.index[fault.net]
                          if not _site_visible(netlist, fault) else None)
                faulty = [words[i] & mask if i == hidden
                          else (words[i] >> shift) & mask for i in watched]
                report.outcomes.append(
                    _outcome(fault, golden, faulty, has_alarm, mask))
        return report
    golden_words = compiled.eval_words(stimulus, width)
    golden = [golden_words[i] for i in watched]
    for fault in faults:
        site = compiled.index[fault.net]
        changed = compiled.propagate_force(
            golden_words, site,
            forced_word(fault, golden_words[site], mask), width)
        if not _site_visible(netlist, fault):
            changed.pop(site, None)
        faulty = [changed.get(i, golden_words[i]) for i in watched]
        report.outcomes.append(
            _outcome(fault, golden, faulty, has_alarm, mask))
    return report


@dataclass
class FormalFaultResult:
    """SAT verdict for one fault."""

    fault: Fault
    provably_detected: bool
    witness: Optional[Dict[str, int]] = None  # silent-corruption input


def prove_fault_detected(netlist: Netlist, fault: Fault, alarm: str,
                         payload_outputs: Optional[Sequence[str]] = None,
                         ) -> FormalFaultResult:
    """Prove no input lets ``fault`` corrupt outputs without the alarm.

    Builds golden and faulty copies over shared inputs and asks SAT for
    an input where some payload output differs while the faulty copy's
    alarm stays low.  UNSAT = the detector provably catches this fault.
    """
    faulty = inject_fault(netlist, fault)
    outputs = list(payload_outputs) if payload_outputs else [
        o for o in netlist.outputs if o != alarm
    ]
    enc = CircuitEncoder()
    gold_vars = enc.encode(netlist)
    shared = {name: gold_vars[name] for name in netlist.inputs
              if name in faulty.gates}
    fault_vars = enc.encode(faulty, bind=shared)
    diffs = [enc.xor_of(gold_vars[o], fault_vars[o]) for o in outputs]
    enc.assert_equal(enc.or_of(diffs), 1)
    enc.assert_equal(fault_vars[alarm], 0)
    if not enc.solver.solve():
        return FormalFaultResult(fault, True)
    witness = {
        name: enc.solver.model_value(gold_vars[name])
        for name in netlist.inputs
    }
    return FormalFaultResult(fault, False, witness=witness)


def formal_coverage(netlist: Netlist, faults: Sequence[Fault], alarm: str,
                    payload_outputs: Optional[Sequence[str]] = None,
                    ) -> Tuple[float, List[FormalFaultResult]]:
    """Exhaustive formal detection coverage over a fault list.

    Faults that cannot propagate at all count as covered (they are
    harmless).  Returns (coverage, per-fault results for the misses).
    """
    missed: List[FormalFaultResult] = []
    covered = 0
    for fault in faults:
        result = prove_fault_detected(netlist, fault, alarm,
                                      payload_outputs)
        if result.provably_detected:
            covered += 1
        else:
            missed.append(result)
    total = len(faults)
    return (covered / total if total else 1.0), missed

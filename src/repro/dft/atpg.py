"""Automatic test pattern generation (ATPG) for stuck-at faults.

Two-phase industrial recipe.  The random phase grades one packed block
of random patterns in a single fault-simulation pass
(:func:`~repro.dft.faultsim.detection_words`), keeps only each
detected fault's first detecting pattern and statically compacts that
set; the SAT phase then asks the solver, for each fault the block
missed, for an input that distinguishes the faulty circuit from the
good one (the D-algorithm's job).  Faults the solver proves untestable
are *redundant* — which is itself useful feedback, and
security-relevant: redundant logic is where Trojans and locking key
gates hide from testing.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..fia import Fault, FaultKind, enumerate_faults, inject_fault
from ..formal import CircuitEncoder, lit, neg
from ..netlist import GateType, Netlist, random_stimulus
from .faultsim import detected_by_vectors, detection_words


@dataclass
class AtpgResult:
    """Vectors plus per-fault classification."""

    vectors: List[Dict[str, int]]
    detected: List[Fault] = field(default_factory=list)
    untestable: List[Fault] = field(default_factory=list)
    aborted: List[Fault] = field(default_factory=list)

    @property
    def coverage(self) -> float:
        total = len(self.detected) + len(self.untestable) + len(self.aborted)
        if total == 0:
            return 1.0
        # Untestable (redundant) faults are conventionally excluded.
        testable = total - len(self.untestable)
        return len(self.detected) / testable if testable else 1.0


class IncrementalAtpg:
    """Assumption-based deterministic test generation over one solver.

    The fault-free circuit is Tseitin-encoded exactly once; every
    stuck-at query then encodes only the fault's *output cone* (a
    faulty copy of the nets structurally downstream of the fault site,
    reading all other values from the base encoding) and asks the
    solver, under a single activation assumption, for an input on which
    a cone output diverges.  Learned clauses accumulate across faults
    in the shared database, so each successive query starts from
    everything the solver already proved about the circuit — the
    MiniSat-style incremental recipe, replacing the previous
    two-full-copies re-encode per fault.

    DFF outputs are treated as shared pseudo-primary inputs (the
    full-scan view), so cones stop at state elements.
    """

    def __init__(self, netlist: Netlist) -> None:
        self.netlist = netlist
        self.encoder = CircuitEncoder()
        self.good_vars = self.encoder.encode(netlist)
        self._fanout = netlist.fanout_map()
        self._output_set = set(netlist.outputs)

    def _fault_cone(self, net: str) -> set:
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

    def test_for_fault(self, fault: Fault,
                       conflict_budget: Optional[int] = 50_000
                       ) -> Tuple[Optional[Dict[str, int]], str]:
        """SAT query for an input that exposes ``fault``.

        Returns ``(test, "detected")``, ``(None, "untestable")`` when
        the fault is provably redundant, or ``(None, "aborted")`` when
        the conflict budget ran out.
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
        observed = [o for o in faulty.outputs if o in within]
        if not observed:
            return None, "untestable"
        enc = self.encoder
        bad_vars = enc.encode(faulty, bind=bind, within=within)
        diffs = [enc.xor_of(good_vars[o], bad_vars[o]) for o in observed]
        miter = diffs[0] if len(diffs) == 1 else enc.or_of(diffs)
        result = enc.solver.solve(assumptions=[lit(miter)],
                                  conflict_budget=conflict_budget)
        if result is False:
            # The cone miter is proven quiet; committing that as a unit
            # clause lets later queries reuse the proof.
            enc.solver.add_clause([neg(lit(miter))])
            return None, "untestable"
        if result is None:
            return None, "aborted"
        solver = enc.solver
        test = {
            name: solver.model_value(good_vars[name])
            for name in self.netlist.inputs
        }
        return test, "detected"


def run_atpg(netlist: Netlist,
             faults: Optional[Sequence[Fault]] = None,
             random_budget: int = 1024,
             seed: int = 0) -> AtpgResult:
    """Random block with first-detector selection, then SAT per survivor.

    ``random_budget`` is the number of random patterns *graded*, not
    kept: they are drawn as one packed block (one ``getrandbits`` word
    per input) and fault-simulated in one :func:`detection_words` pass.
    Only each detected fault's first detecting pattern is kept, and
    that set is compacted by a reverse-order greedy (classic static
    compaction, :func:`_reverse_greedy`), so the kept count follows the
    faults, not the budget.  The faults the block missed go to one
    :class:`IncrementalAtpg` engine.

    The SAT phase drops faults too: every deterministically generated
    test is fault-simulated against the remaining undetected faults, so
    one solver query typically retires many faults — the classical
    test-generation loop, and the difference between minutes and
    seconds on XOR-heavy designs.
    """
    rng = random.Random(seed)
    fault_list = list(faults) if faults is not None else enumerate_faults(
        netlist, kinds=(FaultKind.STUCK_AT_0, FaultKind.STUCK_AT_1))
    inputs = netlist.inputs
    block = random_stimulus(inputs, random_budget, rng)
    words = detection_words(netlist, block, random_budget, fault_list)
    first = 0
    for w in words:
        first |= w & -w          # the fault's first detecting pattern
    kept = _reverse_greedy([w for w in words if w], first)
    result = AtpgResult(
        vectors=[{name: (block[name] >> p) & 1 for name in inputs}
                 for p in range(random_budget) if kept >> p & 1],
        detected=[f for f, w in zip(fault_list, words) if w])
    remaining = [f for f, w in zip(fault_list, words) if not w]
    engine = IncrementalAtpg(netlist) if remaining else None
    while remaining:
        fault = remaining.pop(0)
        test, status = engine.test_for_fault(fault)
        if status == "untestable":
            result.untestable.append(fault)
        elif status == "aborted":
            result.aborted.append(fault)
        else:
            result.vectors.append(test)
            result.detected.append(fault)
            # Drop every other remaining fault this test also exposes.
            flags = detected_by_vectors(netlist, [test], remaining)
            dropped = [f for f, hit in zip(remaining, flags) if hit]
            if dropped:
                result.detected.extend(dropped)
                remaining = [f for f, hit in zip(remaining, flags)
                             if not hit]
    if engine is not None:
        # The whole point of the incremental port: one base encode per
        # ATPG run, however many faults the SAT phase has to visit.
        assert engine.encoder.encode_calls == 1, (
            f"base circuit encoded {engine.encoder.encode_calls} times; "
            f"incremental ATPG must encode it exactly once")
    return result


def _reverse_greedy(words: Sequence[int], kept: int) -> int:
    """Static compaction on detection words: the pattern mask to keep.

    Visits the patterns set in ``kept`` from the highest index down and
    drops each one unless some fault's word, restricted to the patterns
    still kept, is that pattern alone.
    """
    for p in reversed(range(kept.bit_length())):
        bit = 1 << p
        if kept & bit and not any((w & kept) == bit for w in words):
            kept ^= bit
    return kept

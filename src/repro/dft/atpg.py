"""Automatic test pattern generation (ATPG) for stuck-at faults.

Two-phase industrial recipe on :mod:`repro.fia`'s two fault engines.
The random phase grades one packed block of random patterns in one
pass of the fault-simulation kernel (:func:`~repro.dft.faultsim.
detection_words`), keeps only each detected fault's first detecting
pattern and statically compacts that set; the SAT phase then asks the
SAT fault miter (:class:`~repro.fia.FaultMiter`) for an input that
distinguishes each remaining faulty circuit from the good one (the
D-algorithm's job).  Both see a fault at an output through the net of
that name.  Faults the solver proves untestable are *redundant* — which
is itself useful feedback, and security-relevant: redundant logic is
where Trojans and locking key gates hide from testing.  The one
exception is a stuck-at on a primary input that is also an output:
the port carries the stuck value, but the net named after it is the
healthy input, so when no reader exposes the fault it is not
redundant, only unseen, and gets no verdict.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..fia import Fault, FaultKind, FaultMiter, enumerate_faults
from ..netlist import Netlist, random_stimulus
from .faultsim import detected_by_vectors, detection_words


@dataclass
class AtpgResult:
    """Vectors plus per-fault classification (see the module docstring
    for the one fault that gets none)."""

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
    :class:`~repro.fia.FaultMiter` over all outputs, each query with a
    50,000-conflict budget.

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
    engine = FaultMiter(netlist, netlist.outputs) if remaining else None
    ports = set(netlist.inputs).intersection(netlist.outputs)
    while remaining:
        fault = remaining.pop(0)
        status, test = engine.expose(fault, conflict_budget=50_000)
        if status == "masked":
            if fault.net not in ports:
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
        # The whole point of the incremental miter: one base encode per
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

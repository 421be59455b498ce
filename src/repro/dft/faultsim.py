"""Stuck-at fault simulation for test-coverage grading.

Grades a pattern block against the single-stuck-at model using the
compiled bit-parallel simulator: one fault-free simulation covers the
whole block, then each fault is propagated *incrementally* through its
fanout cone over the compiled gate program — no per-fault netlist
copy, no full re-simulation.  :func:`detection_words` is the one
kernel: it keeps, per fault, *which* patterns detect it, so coverage,
first detectors and static compaction are all bit operations on its
result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence

from ..fia import Fault, FaultKind, enumerate_faults, forced_word
from ..netlist import Netlist, get_compiled, pack_patterns


@dataclass
class CoverageReport:
    """Stuck-at coverage of a test set."""

    total_faults: int
    detected_faults: int
    undetected: List[Fault]

    @property
    def coverage(self) -> float:
        if self.total_faults == 0:
            return 1.0
        return self.detected_faults / self.total_faults


def detection_words(netlist: Netlist, columns: Mapping[str, int],
                    width: int, faults: Sequence[Fault]) -> List[int]:
    """Per-fault packed detection word of a ``width``-pattern block.

    ``columns`` maps every primary input to its packed word (pattern
    ``p`` in bit ``p``, as :func:`~repro.netlist.random_stimulus` and
    :func:`~repro.netlist.pack_patterns` build it).  Bit ``p`` of a
    fault's word is set when pattern ``p`` flips some primary output
    under the fault: the output diff of
    :meth:`~repro.netlist.CompiledNetlist.propagate_force` against one
    fault-free evaluation of the block.  Flop state reads as zero.
    """
    compiled = get_compiled(netlist)
    mask = (1 << width) - 1
    golden = compiled.eval_words(columns, width)
    outputs = [compiled.index[o] for o in netlist.outputs]
    words: List[int] = []
    for fault in faults:
        site = compiled.index[fault.net]
        changed = compiled.propagate_force(
            golden, site, forced_word(fault, golden[site], mask), width)
        word = 0
        for o in outputs:
            new = changed.get(o)
            if new is not None:
                word |= golden[o] ^ new
        words.append(word)
    return words


def detected_by_vectors(netlist: Netlist,
                        vectors: Sequence[Mapping[str, int]],
                        faults: Sequence[Fault]) -> List[bool]:
    """Per-fault detection flags of a vector set (order preserved)."""
    columns = pack_patterns(vectors, netlist.inputs)
    return [word != 0 for word in
            detection_words(netlist, columns, len(vectors), faults)]


def grade_vectors(netlist: Netlist,
                  vectors: Sequence[Mapping[str, int]],
                  faults: Optional[Sequence[Fault]] = None
                  ) -> CoverageReport:
    """Fraction of stuck-at faults whose effect reaches an output.

    ``faults`` defaults to all single stuck-at faults on all nets.
    """
    fault_list = list(faults) if faults is not None else enumerate_faults(
        netlist, kinds=(FaultKind.STUCK_AT_0, FaultKind.STUCK_AT_1))
    flags = detected_by_vectors(netlist, vectors, fault_list)
    undetected = [f for f, hit in zip(fault_list, flags) if not hit]
    return CoverageReport(len(fault_list), len(fault_list) - len(undetected),
                          undetected)

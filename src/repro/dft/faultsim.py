"""Stuck-at fault grading for test coverage.

Grades a pattern block against the single-stuck-at model through
:func:`repro.fia.fault_effects`, the one fault-simulation kernel (each
fault propagated through its cone, or many faults on a narrow block
scored as one variant family).  :func:`detection_words` reduces its
result to, per fault, *which* patterns detect it, so coverage, first
detectors and static compaction are all bit operations on one result.
A fault is seen at an output through the net of that name.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence

from ..fia import (Fault, FaultKind, corrupted_patterns, enumerate_faults,
                   fault_effects)
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
    fault's word is set when pattern ``p`` flips some primary output,
    read by name, under the fault: the OR over the outputs of
    :func:`~repro.fia.fault_effects`' diffs.  Flop state reads as zero.
    """
    outputs = [get_compiled(netlist).index[o] for o in netlist.outputs]
    # Most faults change nothing on ATPG's one-pattern drop blocks.
    return [corrupted_patterns(golden, changed, outputs) if changed else 0
            for golden, changed in fault_effects(netlist, columns, width,
                                                 faults, outputs)]


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

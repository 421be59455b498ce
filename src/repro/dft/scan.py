"""Scan-chain insertion and scan-mode operation.

Design-for-test foundation (paper Sec. III-F): every DFF becomes a scan
flop — a mux selects between the functional D input and the previous
flop in the chain — so test equipment can shift arbitrary state in and
observe captured state out.  The same access is the security hole the
scan attack exploits (:mod:`repro.dft.scan_attack`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..netlist import GateType, Netlist, get_compiled

SCAN_ENABLE = "scan_en"
SCAN_IN = "scan_in"
SCAN_OUT = "scan_out"


@dataclass
class ScanDesign:
    """A netlist with an inserted scan chain."""

    netlist: Netlist
    chain: List[str]          # flop output nets, scan-in first

    @property
    def length(self) -> int:
        return len(self.chain)


def insert_scan(netlist: Netlist) -> ScanDesign:
    """Stitch all DFFs into one scan chain (insertion order).

    Adds inputs ``scan_en`` / ``scan_in`` and output ``scan_out``.  In
    shift mode (``scan_en=1``) each flop captures its chain predecessor;
    in capture mode it takes its functional D input.
    """
    if not netlist.is_sequential:
        raise ValueError("scan insertion requires at least one DFF")
    scan = netlist.copy(netlist.name + "_scan")
    scan.add_input(SCAN_ENABLE)
    scan.add_input(SCAN_IN)
    chain = scan.flops
    previous = SCAN_IN
    for ff in chain:
        flop = scan.gates[ff]
        functional_d = flop.fanins[0]
        mux = scan.add(GateType.MUX, [SCAN_ENABLE, functional_d, previous],
                       prefix=f"sc_{ff}_")
        flop.fanins = [mux]
        previous = ff
    scan.add_gate(SCAN_OUT, GateType.BUF, [previous])
    scan.add_output(SCAN_OUT)
    scan.invalidate()
    return ScanDesign(scan, chain)


def scan_load(design: ScanDesign, bits: Sequence[int]) -> Dict[str, int]:
    """Shift a bit sequence into the chain from the all-zero state with
    functional inputs at 0 (last element enters first flop last, i.e.
    ``bits[i]`` ends up in ``chain[i]``)."""
    if len(bits) != design.length:
        raise ValueError("bit count must equal chain length")
    compiled, stim, regs = _scan_cycle_setup(design, None, None,
                                             scan_enable=1)
    scan_in_pos = compiled.input_names.index(SCAN_IN)
    # Shift in reversed so bits[0] lands in chain[0].
    for bit in reversed(list(bits)):
        stim[scan_in_pos] = bit & 1
        _, regs = compiled.step_words(stim, regs)
    return dict(zip(compiled.flop_names, regs))


def scan_unload(design: ScanDesign,
                state: Dict[str, int],
                functional_inputs: Optional[Mapping[str, int]] = None
                ) -> Tuple[List[int], Dict[str, int]]:
    """Shift the chain out; returns (bits, final state).

    ``bits[i]`` is the value that was held in ``chain[i]``.
    """
    compiled, stim, regs = _scan_cycle_setup(design, functional_inputs,
                                             state, scan_enable=1)
    scan_out_index = compiled.index[SCAN_OUT]
    bits: List[int] = []
    # chain[-1] drives scan_out directly; shifting length times reads all.
    for _ in range(design.length):
        values, regs = compiled.step_words(stim, regs)
        bits.append(values[scan_out_index] & 1)
    # scan_out emits chain[-1] first.
    return list(reversed(bits)), dict(zip(compiled.flop_names, regs))


def _scan_cycle_setup(design: ScanDesign,
                      functional_inputs: Optional[Mapping[str, int]],
                      state: Optional[Mapping[str, int]],
                      scan_enable: int):
    """Positional (stimulus, registers) for a run of scan cycles.

    One stimulus list serves every cycle of a shift run — only the
    ``scan_in`` slot changes — so the per-cycle cost is a single
    compiled evaluation, with no name-keyed dicts rebuilt per cycle.
    """
    compiled = get_compiled(design.netlist)
    full = {name: 0 for name in compiled.input_names}
    full.update(functional_inputs or {})
    full[SCAN_ENABLE] = scan_enable
    full[SCAN_IN] = 0
    stim = [full[name] & 1 for name in compiled.input_names]
    source = state or {}
    regs = [source.get(ff, 0) & 1 for ff in compiled.flop_names]
    return compiled, stim, regs

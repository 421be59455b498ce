"""Logic built-in self-test: LFSR pattern generation + MISR compaction.

The BIST leg of the DFX infrastructure (paper Sec. III-F, ref [58]):
an on-chip LFSR feeds pseudo-random patterns to the logic, a MISR
compacts the responses into a signature, and a mismatch against the
golden signature fails the self-test.  Security relevance: BIST offers
test access *without* exposing a scan chain — the classic trade against
scan attacks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..netlist import Netlist, simulate

#: Primitive polynomial taps (XOR positions) per register width.
_DEFAULT_TAPS = {
    4: (3, 2),
    8: (7, 5, 4, 3),
    16: (15, 14, 12, 3),
    24: (23, 22, 21, 16),
    32: (31, 21, 1, 0),
}


class Lfsr:
    """Fibonacci LFSR over ``width`` bits."""

    def __init__(self, width: int, seed: int = 1) -> None:
        if seed == 0:
            raise ValueError("LFSR seed must be non-zero")
        self.width = width
        self.state = seed & ((1 << width) - 1)
        chosen = _DEFAULT_TAPS.get(width)
        if chosen is None:
            raise ValueError(f"no default taps for width {width}")
        self.taps = tuple(chosen)

    def step(self) -> int:
        """Advance one cycle; returns the new register state."""
        feedback = 0
        for t in self.taps:
            feedback ^= (self.state >> t) & 1
        self.state = ((self.state << 1) | feedback) & ((1 << self.width) - 1)
        return self.state


class Misr:
    """Multiple-input signature register compacting response words."""

    def __init__(self, width: int) -> None:
        self.width = width
        self.state = 0
        chosen = _DEFAULT_TAPS.get(width)
        if chosen is None:
            raise ValueError(f"no default taps for width {width}")
        self.taps = tuple(chosen)

    def absorb(self, word: int) -> None:
        """Compact one response word into the signature."""
        feedback = 0
        for t in self.taps:
            feedback ^= (self.state >> t) & 1
        self.state = (((self.state << 1) | feedback)
                      ^ word) & ((1 << self.width) - 1)

    @property
    def signature(self) -> int:
        return self.state


@dataclass
class BistResult:
    """Self-test outcome."""

    signature: int
    golden_signature: int
    patterns_applied: int

    @property
    def passed(self) -> bool:
        return self.signature == self.golden_signature


def run_bist(netlist: Netlist, n_patterns: int = 256,
             golden_signature: Optional[int] = None) -> BistResult:
    """Run LFSR/MISR BIST over a combinational netlist, the LFSR seeded
    with ``0xACE1``.

    With ``golden_signature=None`` the run *characterizes* the design
    (returns its own signature as golden); pass the characterized value
    to test suspect instances.
    """
    inputs = netlist.inputs
    outputs = netlist.outputs
    lfsr_width = max(8, min(32, ((len(inputs) + 7) // 8) * 8))
    misr_width = max(8, min(32, ((len(outputs) + 7) // 8) * 8))
    lfsr = Lfsr(lfsr_width, seed=0xACE1)
    misr = Misr(misr_width)
    for _ in range(n_patterns):
        pattern = lfsr.step()
        stimulus = {
            name: (pattern >> (i % lfsr_width)) & 1
            for i, name in enumerate(inputs)
        }
        values = simulate(netlist, stimulus)
        word = 0
        for i, out in enumerate(outputs):
            word |= (values[out] & 1) << (i % misr_width)
        misr.absorb(word)
    golden = golden_signature if golden_signature is not None \
        else misr.signature
    return BistResult(misr.signature, golden, n_patterns)

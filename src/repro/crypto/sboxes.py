"""Gate-level S-box netlists.

These are the shared hardware workloads of the security experiments:
the AES S-box cone is the standard CPA/TVLA target, the locking and
camouflaging studies protect it, and MERO hunts Trojans inside it.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from ..netlist import Netlist, from_truth_tables
from .aes import SBOX
from .present import SBOX4

#: Memoized master netlists; every call hands out an independent copy,
#: so callers can mutate freely while repeat construction (benchmarks
#: rebuild these constantly) costs one deep copy instead of a fresh
#: Shannon decomposition.
_MEMO: Dict[Tuple, Netlist] = {}


def _memoized(key: Tuple, build, name: str) -> Netlist:
    master = _MEMO.get(key)
    if master is None:
        master = build()
        if len(_MEMO) >= 32:
            _MEMO.pop(next(iter(_MEMO)))
        _MEMO[key] = master
    return master.copy(name)


def _tables_for(sbox: Sequence[int], out_bits: int) -> dict:
    return {
        f"y{bit}": [(value >> bit) & 1 for value in sbox]
        for bit in range(out_bits)
    }


def aes_sbox_netlist(name: str = "aes_sbox") -> Netlist:
    """8-bit AES S-box as a multiplexer-tree netlist (inputs x0..x7 LSB
    first, outputs y0..y7)."""
    return _memoized(
        ("aes_sbox",),
        lambda: from_truth_tables(8, _tables_for(SBOX, 8), name="aes_sbox",
                                  input_names=[f"x{i}" for i in range(8)]),
        name)


def present_sbox_netlist(name: str = "present_sbox") -> Netlist:
    """4-bit PRESENT S-box netlist (inputs x0..x3, outputs y0..y3)."""
    return _memoized(
        ("present_sbox",),
        lambda: from_truth_tables(4, _tables_for(SBOX4, 4),
                                  name="present_sbox",
                                  input_names=[f"x{i}" for i in range(4)]),
        name)


def sbox_with_key_netlist(sbox: Optional[Sequence[int]] = None,
                          bits: int = 8,
                          name: str = "keyed_sbox") -> Netlist:
    """``y = Sbox(p XOR k)`` — the first-round AES leakage target.

    Inputs ``p0..`` (plaintext) and ``k0..`` (key); the XOR layer feeds
    the S-box cone.  This is the canonical circuit for CPA/TVLA
    experiments and for scan-attack demonstrations.
    """
    table = list(sbox) if sbox is not None else list(SBOX)

    def build() -> Netlist:
        return _build_sbox_with_key(table, bits)

    return _memoized(("keyed_sbox", tuple(table), bits), build, name)


def _build_sbox_with_key(table: Sequence[int], bits: int) -> Netlist:
    base = from_truth_tables(
        bits, _tables_for(table, bits), name="_sb",
        input_names=[f"x{i}" for i in range(bits)],
    )
    n = Netlist("keyed_sbox")
    from ..netlist import GateType

    for i in range(bits):
        n.add_input(f"p{i}")
    for i in range(bits):
        n.add_input(f"k{i}")
    xor_nets = [
        n.add_gate(f"px{i}", GateType.XOR, [f"p{i}", f"k{i}"])
        for i in range(bits)
    ]
    rename = n.import_netlist(
        base, "sb_", {f"x{i}": xor_nets[i] for i in range(bits)}
    )
    for bit in range(bits):
        n.add_gate(f"y{bit}", GateType.BUF, [rename[f"y{bit}"]])
        n.add_output(f"y{bit}")
    return n

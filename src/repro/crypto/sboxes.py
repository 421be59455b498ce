"""Gate-level S-box netlists.

These are the shared hardware workloads of the security experiments:
the AES S-box cone is the standard CPA/TVLA target, the locking and
camouflaging studies protect it, and MERO hunts Trojans inside it.
"""

from __future__ import annotations

from typing import Callable, Dict, Sequence

from ..netlist import Netlist, from_truth_tables
from .aes import SBOX
from .present import SBOX4

#: Memoized master netlists; every call hands out an independent copy,
#: so callers can mutate freely while repeat construction (benchmarks
#: rebuild these constantly) costs one deep copy instead of a fresh
#: Shannon decomposition.
_MEMO: Dict[str, Netlist] = {}


def _memoized(name: str, build: Callable[[], Netlist]) -> Netlist:
    master = _MEMO.get(name)
    if master is None:
        master = build()
        _MEMO[name] = master
    return master.copy()


def _tables_for(sbox: Sequence[int], out_bits: int) -> dict:
    return {
        f"y{bit}": [(value >> bit) & 1 for value in sbox]
        for bit in range(out_bits)
    }


def aes_sbox_netlist() -> Netlist:
    """8-bit AES S-box as a multiplexer-tree netlist (inputs x0..x7 LSB
    first, outputs y0..y7)."""
    return _memoized(
        "aes_sbox",
        lambda: from_truth_tables(8, _tables_for(SBOX, 8), name="aes_sbox",
                                  input_names=[f"x{i}" for i in range(8)]))


def present_sbox_netlist() -> Netlist:
    """4-bit PRESENT S-box netlist (inputs x0..x3, outputs y0..y3)."""
    return _memoized(
        "present_sbox",
        lambda: from_truth_tables(4, _tables_for(SBOX4, 4),
                                  name="present_sbox",
                                  input_names=[f"x{i}" for i in range(4)]))


def sbox_with_key_netlist() -> Netlist:
    """``y = Sbox(p XOR k)`` over the 8-bit AES S-box — the first-round
    AES leakage target.

    Inputs ``p0..p7`` (plaintext) and ``k0..k7`` (key); the XOR layer
    feeds the S-box cone.  This is the canonical circuit for CPA/TVLA
    experiments and for scan-attack demonstrations.
    """
    return _memoized("keyed_sbox", _build_sbox_with_key)


def _build_sbox_with_key() -> Netlist:
    bits = 8
    base = from_truth_tables(
        bits, _tables_for(SBOX, bits), name="_sb",
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

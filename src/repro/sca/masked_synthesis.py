"""Automated masking synthesis: transform any netlist into a first-order
masked (2-share ISW) implementation.

This is the paper's headline ask made concrete — "automated and
holistic synthesis of various countermeasures" (Sec. I) and "integration
of masking [5]" in Table II's HLS row: given an arbitrary combinational
netlist, produce a masked netlist in which

* every signal ``s`` is carried as shares ``(s_0, s_1)`` with
  ``s = s_0 ^ s_1``;
* linear gates (XOR/XNOR/NOT/BUF) act share-wise;
* every nonlinear gate becomes an ISW multiplication gadget drawing one
  fresh random bit, built with the *secure evaluation order* as an
  explicit 2-input XOR chain (so the Fig. 2 experiments can attack the
  result);
* primary inputs/outputs become share pairs, and one fresh-randomness
  input ``rnd*`` is added per gadget.

The transform's security rests on the gadget order; running
:func:`repro.synth.reassociate_for_timing` over the result re-creates
the paper's failure mode at whole-netlist scale.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Mapping, Tuple

from ..netlist import GateType, Netlist
from ..synth.techmap import decompose_variadic
from .wddl import to_and_or_not


#: ``bytes.translate`` table turning ASCII ``0``/``1`` into 0/1 bytes.
_BITS = bytes.maketrans(b"01", b"\x00\x01")


@dataclass
class MaskedCircuit:
    """A masked netlist plus its share/randomness interface."""

    netlist: Netlist
    input_shares: Dict[str, Tuple[str, str]]
    output_shares: Dict[str, Tuple[str, str]]
    random_inputs: List[str] = field(default_factory=list)

    @property
    def randomness_bits(self) -> int:
        return len(self.random_inputs)

    @cached_property
    def _draw_layout(self) -> Tuple[Tuple[str, ...], Tuple[str, ...], str]:
        """``(slots, plain names, format spec)`` of :meth:`stimulus`.

        Slots run from the most significant bit of the formatted word
        down: first shares, random inputs, then second shares.
        """
        plain = tuple(self.input_shares)
        first = tuple(s0 for s0, _ in self.input_shares.values())
        second = tuple(s1 for _, s1 in self.input_shares.values())
        slots = first + tuple(self.random_inputs) + second
        return slots, plain, f"0{len(slots)}b"

    def stimulus(self, plain_inputs: Mapping[str, int],
                 rng: random.Random) -> Dict[str, int]:
        """Randomly share one plain stimulus and draw gadget randomness.

        One ``rng.getrandbits(k)`` per call, ``k`` = shared inputs +
        random inputs: its top bits are the first shares, the rest the
        gadget randomness, and each second share is its first share
        XOR the plain bit.  The word is split into 0/1 values at C
        speed (``format``, ``bytes.translate``, ``zip``).
        """
        slots, plain, spec = self._draw_layout
        n_shared, n_random = len(plain), len(self.random_inputs)
        word = rng.getrandbits(n_shared + n_random)
        bits = 0
        for name in plain:
            bits = (bits << 1) | (plain_inputs.get(name, 0) & 1)
        word = (word << n_shared) | ((word >> n_random) ^ bits)
        return dict(zip(slots, format(word, spec).encode().translate(_BITS)))

    def stimulus_columns(self, plain: Mapping[str, int], n: int,
                         rng: random.Random) -> Dict[str, int]:
        """Randomly share ``n`` plain stimuli given as packed columns.

        ``plain`` maps each plain input to an ``n``-bit word (bit ``p``
        = trace ``p``).  Each first share, then each gadget randomness
        input, is one ``rng.getrandbits(n)``; each second share is its
        first share XOR the plain column.
        """
        columns: Dict[str, int] = {}
        for name, (s0, s1) in self.input_shares.items():
            share = columns[s0] = rng.getrandbits(n)
            columns[s1] = share ^ plain[name]
        for name in self.random_inputs:
            columns[name] = rng.getrandbits(n)
        return columns

    def decode_outputs(self, values: Mapping[str, int]) -> Dict[str, int]:
        """Recombine output shares into plain values of pattern 0."""
        return {
            name: (values[s0] ^ values[s1]) & 1
            for name, (s0, s1) in self.output_shares.items()
        }


def mask_netlist(netlist: Netlist) -> MaskedCircuit:
    """First-order ISW masking of a combinational netlist.

    The input is first normalized to 2-input AND/OR/NOT/BUF form; each
    AND then becomes the 2-share ISW gadget::

        c0 = (a0 & b0) ^ r
        c1 = a1b1 ^ ((r ^ a0b1) ^ a1b0)      -- this exact order

    OR is handled by De Morgan over the (free) share-wise inversion.
    """
    normalized = to_and_or_not(netlist)
    decompose_variadic(normalized)
    masked = Netlist(netlist.name + "_masked")
    shares: Dict[str, Tuple[str, str]] = {}
    input_shares: Dict[str, Tuple[str, str]] = {}
    random_inputs: List[str] = []
    gadget_count = 0

    def fresh_random() -> str:
        nonlocal gadget_count
        r = masked.add_input(f"rnd{gadget_count}")
        gadget_count += 1
        random_inputs.append(r)
        return r

    def invert_shares(pair: Tuple[str, str], prefix: str
                      ) -> Tuple[str, str]:
        # NOT(s) = NOT(s0) ^ s1 : invert exactly one share.
        inv = masked.add(GateType.NOT, [pair[0]], prefix=prefix)
        return (inv, pair[1])

    def isw_and(a: Tuple[str, str], b: Tuple[str, str], tag: str
                ) -> Tuple[str, str]:
        r = fresh_random()
        p00 = masked.add(GateType.AND, [a[0], b[0]], prefix=f"{tag}p00_")
        p01 = masked.add(GateType.AND, [a[0], b[1]], prefix=f"{tag}p01_")
        p10 = masked.add(GateType.AND, [a[1], b[0]], prefix=f"{tag}p10_")
        p11 = masked.add(GateType.AND, [a[1], b[1]], prefix=f"{tag}p11_")
        c0 = masked.add(GateType.XOR, [p00, r], prefix=f"{tag}c0_")
        t1 = masked.add(GateType.XOR, [r, p01], prefix=f"{tag}t1_")
        t2 = masked.add(GateType.XOR, [t1, p10], prefix=f"{tag}t2_")
        c1 = masked.add(GateType.XOR, [p11, t2], prefix=f"{tag}c1_")
        return (c0, c1)

    for net in normalized.topological_order():
        g = normalized.gates[net]
        t = g.gate_type
        if t is GateType.INPUT:
            s0 = masked.add_input(f"{net}_s0")
            s1 = masked.add_input(f"{net}_s1")
            shares[net] = (s0, s1)
            input_shares[net] = (s0, s1)
            continue
        if t is GateType.CONST0:
            zero = masked.add(GateType.CONST0, [], prefix="mz")
            shares[net] = (zero, zero)
            continue
        if t is GateType.CONST1:
            zero = masked.add(GateType.CONST0, [], prefix="mz")
            one = masked.add(GateType.CONST1, [], prefix="mo")
            shares[net] = (one, zero)
            continue
        operands = [shares[fi] for fi in g.fanins]
        if t is GateType.BUF:
            shares[net] = operands[0]
        elif t is GateType.NOT:
            shares[net] = invert_shares(operands[0], f"mn_{net}_")
        elif t is GateType.XOR:
            a, b = operands
            shares[net] = (
                masked.add(GateType.XOR, [a[0], b[0]],
                           prefix=f"mx_{net}_0_"),
                masked.add(GateType.XOR, [a[1], b[1]],
                           prefix=f"mx_{net}_1_"),
            )
        elif t is GateType.AND:
            shares[net] = isw_and(operands[0], operands[1],
                                  f"ma_{net}_")
        elif t is GateType.OR:
            # a | b = ~(~a & ~b); inversions are free on shares.
            na = invert_shares(operands[0], f"mo_{net}_a_")
            nb = invert_shares(operands[1], f"mo_{net}_b_")
            conj = isw_and(na, nb, f"mo_{net}_")
            shares[net] = invert_shares(conj, f"mo_{net}_o_")
        else:
            raise ValueError(f"normalization left a {t.name} gate")
    output_shares: Dict[str, Tuple[str, str]] = {}
    for index, out in enumerate(normalized.outputs):
        pair = shares[out]
        original = netlist.outputs[index]
        o0 = f"{original}_s0"
        o1 = f"{original}_s1"
        masked.add_gate(o0, GateType.BUF, [pair[0]])
        masked.add_gate(o1, GateType.BUF, [pair[1]])
        masked.add_output(o0)
        masked.add_output(o1)
        output_shares[original] = (o0, o1)
    return MaskedCircuit(
        netlist=masked,
        input_shares=input_shares,
        output_shares=output_shares,
        random_inputs=random_inputs,
    )

"""Bit-parallel logic simulation.

Signal values are Python integers holding ``width`` independent patterns,
one per bit position.  A single levelized pass therefore simulates the
whole pattern set — this is the workhorse behind fault simulation, SCA
trace generation, SAT-attack oracles, and Trojan activation studies.
"""

from __future__ import annotations

import operator
import random
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .engine import get_compiled
from .gates import GateType, evaluate
from .netlist import Netlist, NetlistError


def simulate(netlist: Netlist, inputs: Mapping[str, int],
             width: int = 1,
             state: Optional[Mapping[str, int]] = None) -> Dict[str, int]:
    """Evaluate every net for ``width`` packed input patterns.

    ``inputs`` maps each primary-input name to a packed word; ``state``
    optionally maps DFF output names to their current packed values
    (defaulting to 0).  Returns the packed value of *every* net.

    Evaluation runs on the compiled engine
    (:mod:`repro.netlist.engine`): the netlist is lowered once into a
    flat gate program and re-used until the next structural mutation.
    Results are bit-exact with :func:`simulate_reference`.
    """
    return get_compiled(netlist).simulate(inputs, width, state)


def simulate_reference(netlist: Netlist, inputs: Mapping[str, int],
                       width: int = 1,
                       state: Optional[Mapping[str, int]] = None
                       ) -> Dict[str, int]:
    """Interpreted reference semantics of :func:`simulate`.

    Kept as the executable specification the compiled engine is
    property-tested against; prefer :func:`simulate` everywhere else.
    """
    mask = (1 << width) - 1
    values: Dict[str, int] = {}
    state = state or {}
    for net in netlist.topological_order():
        g = netlist.gates[net]
        if g.gate_type is GateType.INPUT:
            try:
                values[net] = inputs[net] & mask
            except KeyError:
                raise NetlistError(f"missing stimulus for input {net!r}") from None
        elif g.gate_type is GateType.DFF:
            values[net] = state.get(net, 0) & mask
        else:
            values[net] = evaluate(
                g.gate_type, [values[fi] for fi in g.fanins], mask
            )
    return values


def output_values(netlist: Netlist,
                  inputs: Mapping[str, int]) -> Dict[str, int]:
    """Like :func:`simulate` (one pattern) but returning only primary
    outputs."""
    values = simulate(netlist, inputs)
    return {o: values[o] for o in netlist.outputs}


def step_sequential(netlist: Netlist, inputs: Mapping[str, int],
                    state: Mapping[str, int]
                    ) -> Tuple[Dict[str, int], Dict[str, int]]:
    """One clock cycle of one pattern: returns (all net values, next DFF
    state)."""
    values = simulate(netlist, inputs, 1, state)
    next_state = {
        ff: values[netlist.gates[ff].fanins[0]] & 1
        for ff in netlist.flops
    }
    return values, next_state


#: ``bytes.translate`` table: each byte to the ASCII digit of its low bit.
_LOW_BIT_DIGITS = bytes(ord("0") + (value & 1) for value in range(256))


def pack_patterns(patterns: Sequence[Mapping[str, int]],
                  input_names: Sequence[str]) -> Dict[str, int]:
    """Pack single-bit pattern dicts into bit-parallel stimulus words.

    Bit ``p`` of an input's word is the low bit of
    ``patterns[p].get(name, 0)``.  Each input's column is gathered into
    one ``bytes`` object and read as a binary numeral, so packing costs
    a few C calls per input instead of one bigint OR per bit.
    """
    names = list(input_names)
    if not patterns or not names:
        return {name: 0 for name in names}
    try:
        getter = operator.itemgetter(*names)
        rows = [getter(pattern) for pattern in patterns]
        columns = [bytes(rows)] if len(names) == 1 else \
            [bytes(column) for column in zip(*rows)]
    except (KeyError, ValueError):
        # A missing input, or a value outside 0..255: mask explicitly.
        columns = [bytes(pattern.get(name, 0) & 1 for pattern in patterns)
                   for name in names]
    return {name: int(column.translate(_LOW_BIT_DIGITS)[::-1], 2)
            for name, column in zip(names, columns)}


def random_stimulus(input_names: Sequence[str], width: int,
                    rng: Optional[random.Random] = None) -> Dict[str, int]:
    """Uniformly random packed stimulus for the given inputs."""
    rng = rng or random.Random()
    return {name: rng.getrandbits(width) for name in input_names}


def encode_int(value: int, bit_names: Sequence[str],
               width: int = 1) -> Dict[str, int]:
    """Spread an integer over named bit nets (LSB first), replicated
    across all ``width`` patterns."""
    mask = (1 << width) - 1
    return {
        name: mask if (value >> i) & 1 else 0
        for i, name in enumerate(bit_names)
    }


def decode_int(values: Mapping[str, int], bit_names: Sequence[str]) -> int:
    """Collect named bit nets (LSB first) into an integer for pattern 0."""
    out = 0
    for i, name in enumerate(bit_names):
        out |= (values[name] & 1) << i
    return out


def exhaustive_truth_table(netlist: Netlist,
                           output: Optional[str] = None) -> List[int]:
    """Truth table of a small combinational netlist (<= 20 inputs).

    Returns, for each input minterm (inputs ordered as
    ``netlist.inputs``, LSB = first input), the value of ``output``
    (default: the first primary output).
    """
    names = netlist.inputs
    n = len(names)
    if n > 20:
        raise NetlistError(f"{n} inputs is too many for exhaustive tabling")
    target = output or netlist.outputs[0]
    width = 1 << n
    # Walsh-style packed stimulus: input i alternates with period 2**i.
    stimulus: Dict[str, int] = {}
    for i, name in enumerate(names):
        block = (1 << (1 << i)) - 1
        word = 0
        period = 1 << (i + 1)
        for start in range(1 << i, width, period):
            word |= block << start
        stimulus[name] = word
    values = simulate(netlist, stimulus, width)
    word = values[target]
    return [(word >> m) & 1 for m in range(width)]

"""Gate-level AES-128: the iterated datapath netlist.

The hardware the paper's attacks actually target.  One round (16 S-box
cones, ShiftRows wiring, the xtime-based MixColumns, and AddRoundKey)
sits behind a 128-bit state register, so scan insertion, netlist-level
leakage simulation, and fault campaigns run against real AES hardware
rather than a single S-box cone.

Bit conventions: state byte ``i`` (AES order) occupies nets
``{prefix}{i}_{b}`` for bit ``b`` (LSB first).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..netlist import GateType, Netlist, get_compiled
from .aes import SHIFT_ROWS, expand_key
from .sboxes import aes_sbox_netlist

_SBOX_TEMPLATE: Optional[Netlist] = None


def _sbox_template() -> Netlist:
    global _SBOX_TEMPLATE
    if _SBOX_TEMPLATE is None:
        _SBOX_TEMPLATE = aes_sbox_netlist()
    return _SBOX_TEMPLATE


def _byte_nets(prefix: str, index: int) -> List[str]:
    return [f"{prefix}{index}_{bit}" for bit in range(8)]


def _xtime_nets(host: Netlist, byte: List[str], prefix: str) -> List[str]:
    """Multiply a byte (bit nets, LSB first) by 2 in GF(2^8).

    out[0]=in7, out[1]=in0^in7, out[2]=in1, out[3]=in2^in7,
    out[4]=in3^in7, out[5]=in4, out[6]=in5, out[7]=in6.
    """
    msb = byte[7]
    out = [msb]
    for bit in range(1, 8):
        source = byte[bit - 1]
        if bit in (1, 3, 4):
            out.append(host.add(GateType.XOR, [source, msb],
                                prefix=f"{prefix}x{bit}_"))
        else:
            out.append(source)
    return out


def _xor_bytes(host: Netlist, *bytes_: List[str],
               prefix: str = "xb") -> List[str]:
    out = []
    for bit in range(8):
        nets = [b[bit] for b in bytes_]
        if len(nets) == 1:
            out.append(nets[0])
        else:
            out.append(host.add(GateType.XOR, nets,
                                prefix=f"{prefix}{bit}_"))
    return out


def encode_state(value_bytes: Sequence[int], prefix: str,
                 width: int = 1) -> Dict[str, int]:
    """Stimulus dict for a 16-byte state on ``{prefix}{i}_{b}`` nets."""
    mask = (1 << width) - 1
    stimulus: Dict[str, int] = {}
    for i, byte in enumerate(value_bytes):
        for b in range(8):
            stimulus[f"{prefix}{i}_{b}"] = mask if (byte >> b) & 1 else 0
    return stimulus


def aes_datapath_netlist() -> Netlist:
    """Round-serial AES-128 datapath with a 128-bit state register.

    Inputs: plaintext ``pt{i}_{b}``, per-cycle round key ``k{i}_{b}``,
    ``load`` (1 = capture plaintext XOR round key — the initial
    AddRoundKey), and ``final`` (1 = skip MixColumns, for round 10).
    Outputs: the registered state ``q{i}_{b}``.

    Drive it for 11 cycles (load, 9 middle rounds, final round) with
    the expanded key schedule to compute a full encryption — see
    :func:`run_aes_datapath`.
    """
    host = Netlist("aes_datapath")
    host.add_input("load")
    host.add_input("final")
    for i in range(16):
        for b in range(8):
            host.add_input(f"pt{i}_{b}")
    for i in range(16):
        for b in range(8):
            host.add_input(f"k{i}_{b}")
    # State register.
    for i in range(16):
        for b in range(8):
            host.add_gate(f"q{i}_{b}", GateType.DFF, [f"d{i}_{b}"])
            host.add_output(f"q{i}_{b}")
    # Round function over the registered state.
    template = _sbox_template()
    sub: List[List[str]] = []
    for i in range(16):
        port_map = {f"x{b}": f"q{i}_{b}" for b in range(8)}
        rename = host.import_netlist(template, f"sb{i}_", port_map)
        sub.append([rename[f"y{b}"] for b in range(8)])
    shifted = [sub[SHIFT_ROWS[i]] for i in range(16)]
    mixed: List[List[str]] = [None] * 16  # type: ignore[list-item]
    for c in range(4):
        col = [shifted[4 * c + r] for r in range(4)]
        for r in range(4):
            a0, a1 = col[r], col[(r + 1) % 4]
            a2, a3 = col[(r + 2) % 4], col[(r + 3) % 4]
            two_a0 = _xtime_nets(host, a0, f"mc{c}{r}a_")
            two_a1 = _xtime_nets(host, a1, f"mc{c}{r}b_")
            mixed[4 * c + r] = _xor_bytes(host, two_a0, two_a1, a1, a2,
                                          a3, prefix=f"mc{c}{r}_")
    for i in range(16):
        key_byte = _byte_nets("k", i)
        # Middle-round vs final-round datapath (final skips MixColumns).
        round_out = []
        for b in range(8):
            picked = host.add(GateType.MUX,
                              ["final", mixed[i][b], shifted[i][b]],
                              prefix=f"fr{i}_{b}_")
            round_out.append(host.add(GateType.XOR,
                                      [picked, key_byte[b]],
                                      prefix=f"ark{i}_{b}_"))
        # Load path: initial AddRoundKey of the plaintext.
        for b in range(8):
            loaded = host.add(GateType.XOR,
                              [f"pt{i}_{b}", key_byte[b]],
                              prefix=f"ld{i}_{b}_")
            host.add_gate(f"d{i}_{b}", GateType.MUX,
                          ["load", round_out[b], loaded])
    return host


#: Key -> (cycle-0 round-key stimulus, cycles 1..10).  Only cycle 0
#: depends on the plaintext, so everything else is shared across the
#: hundreds of schedules a trace campaign builds for one key.
_SCHEDULE_MEMO: Dict[Tuple[int, ...],
                     Tuple[Dict[str, int], List[Dict[str, int]]]] = {}
_SCHEDULE_MEMO_MAX = 8


def encryption_schedule(plaintext: Sequence[int], key: Sequence[int]
                        ) -> List[Dict[str, int]]:
    """The 11-cycle input sequence computing one encryption."""
    key_tuple = tuple(int(k) & 0xFF for k in key)
    memo = _SCHEDULE_MEMO.get(key_tuple)
    if memo is None:
        round_keys = expand_key(list(key_tuple))
        zero_pt = encode_state([0] * 16, "pt")
        tail: List[Dict[str, int]] = []
        for rnd in range(1, 11):
            stim = {"load": 0, "final": 1 if rnd == 10 else 0}
            stim.update(zero_pt)
            stim.update(encode_state(round_keys[rnd], "k"))
            tail.append(stim)
        memo = (encode_state(round_keys[0], "k"), tail)
        while len(_SCHEDULE_MEMO) >= _SCHEDULE_MEMO_MAX:
            _SCHEDULE_MEMO.pop(next(iter(_SCHEDULE_MEMO)))
        _SCHEDULE_MEMO[key_tuple] = memo
    key0_stim, tail = memo
    first = {"load": 1, "final": 0}
    first.update(encode_state(plaintext, "pt"))
    first.update(key0_stim)
    # Fresh dicts throughout: callers may mutate their schedule.
    return [first] + [dict(stim) for stim in tail]


def _state_bytes(state: Mapping[str, int]) -> List[int]:
    return [
        sum(((state[f"q{i}_{b}"] & 1) << b) for b in range(8))
        for i in range(16)
    ]


def run_aes_datapath(netlist: Netlist, plaintext: Sequence[int],
                     key: Sequence[int],
                     fault_round: Optional[int] = None,
                     fault_byte: int = 0,
                     fault_value: int = 0) -> List[int]:
    """Clock the datapath through a full encryption; returns ciphertext.

    ``fault_round`` (1..10) optionally XORs ``fault_value`` into state
    byte ``fault_byte`` just before that round executes — register-level
    fault injection into the real hardware, feeding the DFA of
    :mod:`repro.fia.dfa` with gate-level faulty ciphertexts.
    """
    compiled = get_compiled(netlist)
    flop_pos = {name: i for i, name in enumerate(compiled.flop_names)}
    regs = [0] * len(compiled.flop_names)
    for cycle, stim_map in enumerate(encryption_schedule(plaintext, key)):
        if fault_round is not None and cycle == fault_round:
            # State currently holds the input of round `fault_round`.
            for b in range(8):
                if (fault_value >> b) & 1:
                    regs[flop_pos[f"q{fault_byte}_{b}"]] ^= 1
        stim = [stim_map[name] for name in compiled.input_names]
        _, regs = compiled.step_words(stim, regs)
    state = dict(zip(compiled.flop_names, regs))
    return _state_bytes(state)


def run_aes_datapath_batch(netlist: Netlist, key: Sequence[int],
                           queries: Sequence[Tuple[Sequence[int],
                                                   Optional[int], int, int]]
                           ) -> List[List[int]]:
    """Many (plaintext, fault) encryptions in one bit-parallel pass.

    ``queries`` holds ``(plaintext, fault_round, fault_byte,
    fault_value)`` tuples; query ``q`` occupies bit lane ``q`` of every
    packed word, so the whole batch costs 11 wide cycles instead of
    ``11 * len(queries)`` narrow ones.  Each returned ciphertext is
    bit-identical to the corresponding serial
    :func:`run_aes_datapath` call (``fault_round=None`` encrypts
    fault-free).
    """
    width = len(queries)
    if not width:
        return []
    compiled = get_compiled(netlist)
    flop_pos = {name: i for i, name in enumerate(compiled.flop_names)}
    full = (1 << width) - 1
    round_keys = expand_key(list(key))
    # Plaintext planes: lane q of pt{i}_{b} is query q's bit.
    pt_words = {f"pt{i}_{b}": 0 for i in range(16) for b in range(8)}
    for q, (plaintext, _, _, _) in enumerate(queries):
        lane = 1 << q
        for i, byte in enumerate(plaintext):
            for b in range(8):
                if (byte >> b) & 1:
                    pt_words[f"pt{i}_{b}"] |= lane
    zero_pt = {name: 0 for name in pt_words}
    schedule = []
    for cycle in range(11):
        stim_map = {"load": full if cycle == 0 else 0,
                    "final": full if cycle == 10 else 0}
        stim_map.update(pt_words if cycle == 0 else zero_pt)
        stim_map.update(encode_state(round_keys[cycle], "k", width))
        schedule.append([stim_map[name] for name in compiled.input_names])
    # Fault plan: cycle -> [(flop position, lane mask)].
    flips: Dict[int, List[Tuple[int, int]]] = {}
    for q, (_, fault_round, fault_byte, fault_value) in enumerate(queries):
        if fault_round is None:
            continue
        for b in range(8):
            if (fault_value >> b) & 1:
                flips.setdefault(fault_round, []).append(
                    (flop_pos[f"q{fault_byte}_{b}"], 1 << q))
    regs = [0] * len(compiled.flop_names)
    for cycle, stim in enumerate(schedule):
        for pos, lane in flips.get(cycle, ()):
            regs[pos] ^= lane
        _, regs = compiled.step_words(stim, regs, width)
    return [
        [
            sum(((regs[flop_pos[f"q{i}_{b}"]] >> q) & 1) << b
                for b in range(8))
            for i in range(16)
        ]
        for q in range(width)
    ]

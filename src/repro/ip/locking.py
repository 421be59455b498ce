"""Logic locking (EPIC-style random XOR/XNOR locking [24]).

Key gates are inserted on internal nets: an XOR key gate is transparent
when its key bit is 0, an XNOR when its key bit is 1.  With the right
key the circuit computes its original function; any wrong key corrupts
it.  The paper (Sec. III-B) notes locking is applied at the gate level,
*below* the abstraction where its security intent lives — which is why
the structural and SAT attacks in this package work so well.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..netlist import GateType, Netlist


@dataclass
class LockedCircuit:
    """A locked netlist plus the secret key.

    ``key`` maps key-input names to the correct bit.  The attacker sees
    ``netlist`` (with key inputs) but not ``key``.
    """

    netlist: Netlist
    key: Dict[str, int]
    scheme: str = "epic-xor"

    @property
    def key_inputs(self) -> List[str]:
        return sorted(self.key, key=_key_index)

    @property
    def key_bits(self) -> int:
        return len(self.key)

    def key_vector(self) -> List[int]:
        """Correct key bits ordered by key-input index."""
        return [self.key[k] for k in self.key_inputs]


def _key_index(name: str) -> int:
    digits = "".join(ch for ch in name if ch.isdigit())
    return int(digits) if digits else 0


def lock_xor(netlist: Netlist, key_bits: int,
             seed: int = 0) -> LockedCircuit:
    """Insert ``key_bits`` random XOR/XNOR key gates on key inputs
    ``keyin0..``.

    Candidate sites are internal combinational nets (not key gates
    themselves).  For each site a key bit is drawn; bit 0 inserts a
    transparent-at-0 XOR, bit 1 a transparent-at-1 XNOR, so the correct
    key is uniformly random and not readable from the gate types alone
    in aggregate.
    """
    rng = random.Random(seed)
    locked = netlist.copy(netlist.name + "_locked")
    outputs = set(locked.outputs)
    # Only nets inside output cones are worth locking (a key gate on
    # dead logic never affects function); primary-output nets are
    # excluded so port names stay stable — a key gate immediately
    # behind an output locks the same cone anyway.
    live = locked.transitive_fanin(locked.outputs)
    candidates = [
        g.name for g in locked.gates.values()
        if g.gate_type.is_combinational and not g.gate_type.is_source
        and g.name not in outputs
        and g.name in live
    ]
    if key_bits > len(candidates):
        raise ValueError(
            f"cannot insert {key_bits} key gates into "
            f"{len(candidates)} candidate nets"
        )
    sites = rng.sample(candidates, key_bits)
    key: Dict[str, int] = {}
    for index, site in enumerate(sites):
        key_name = f"keyin{index}"
        locked.add_input(key_name)
        bit = rng.randint(0, 1)
        key[key_name] = bit
        gate_type = GateType.XNOR if bit else GateType.XOR
        key_gate = locked.add(gate_type, [site, key_name], prefix="kg")
        locked.rewire_consumers(site, key_gate, keep_outputs=False)
        # rewire_consumers also redirected the key gate's own fanin.
        g = locked.gate(key_gate)
        g.fanins = [site if fi == key_gate else fi for fi in g.fanins]
        locked.invalidate()
    return LockedCircuit(locked, key)


def apply_key(locked: LockedCircuit,
              key: Optional[Dict[str, int]] = None) -> Netlist:
    """Bind a key (default: the correct one), yielding a keyless netlist."""
    key = key if key is not None else locked.key
    bound = locked.netlist.copy(locked.netlist.name + "_keyed")
    for key_name, bit in key.items():
        const = bound.add(
            GateType.CONST1 if bit else GateType.CONST0, [], prefix="kc")
        bound.rewire_consumers(key_name, const, keep_outputs=False)
    # Key inputs are now dangling; remove them.
    bound.sweep_dangling()
    for key_name in key:
        if key_name in bound.gates:
            del bound.gates[key_name]
    bound.invalidate()
    return bound


def _key_corruption_counts(locked: LockedCircuit,
                           keys: List[Dict[str, int]],
                           stimulus: Dict[str, int],
                           vectors: int) -> List[int]:
    """Corrupted output bits per candidate key, all keys in one pass.

    The locked netlist is lowered once into a
    :class:`~repro.netlist.VariantFamily`: variant 0 carries the
    correct key (the golden reference) and candidate ``i`` is variant
    ``i + 1``, with key values fed through ``per_variant_inputs`` —
    the family's cheap lane for stimulus-only sweeps, which skips
    per-variant delta bookkeeping entirely.  Returns integer bit
    counts so callers' final divisions are bit-identical to the
    serial one-simulation-per-key formulation.
    """
    from ..netlist import VariantFamily, VariantSpec, get_compiled

    net = locked.netlist
    full = (1 << vectors) - 1
    all_keys = [locked.key] + list(keys)
    identity = VariantSpec()
    family = VariantFamily(net, [identity] * len(all_keys))
    key_columns = {
        name: [full if key[name] else 0 for key in all_keys]
        for name in locked.key
    }
    words = family.eval_words(stimulus, vectors,
                              per_variant_inputs=key_columns)
    compiled = get_compiled(net)
    output_indices = [compiled.index[o] for o in net.outputs]
    n_variants = len(all_keys)
    if vectors % 8 == 0 and output_indices:
        # XOR every slice against a replicated golden (variant 0),
        # then popcount all outputs at once as one byte matrix.
        # Popcounts are exact, so this matches the shift-and-
        # bit_count loop below bit for bit.
        rep = 0
        for v in range(n_variants):
            rep |= 1 << (v * vectors)
        n_bytes = n_variants * vectors // 8
        buf = b"".join(
            (words[o] ^ ((words[o] & full) * rep)).to_bytes(n_bytes,
                                                            "little")
            for o in output_indices)
        per_variant = np.bitwise_count(
            np.frombuffer(buf, dtype=np.uint8)
        ).reshape(len(output_indices), n_variants, vectors // 8
                  ).sum(axis=(0, 2))
        return [int(c) for c in per_variant[1:]]
    counts: List[int] = []
    for v in range(1, n_variants):
        shift = v * vectors
        corrupted = 0
        for o in output_indices:
            word = words[o]
            corrupted += (((word >> shift) ^ word) & full).bit_count()
        counts.append(corrupted)
    return counts


def score_candidate_keys(locked: LockedCircuit,
                         keys: List[Dict[str, int]],
                         vectors: int = 64,
                         seed: int = 0) -> List[float]:
    """Corruption rate of each candidate key under one shared stimulus.

    All candidates are scored against the correct key in a single
    batched family evaluation — one lowering of the locked netlist no
    matter how many keys.  Returns one rate in ``[0, 1]`` per key
    (0.0 = indistinguishable from the correct key on these vectors).
    """
    from ..netlist import random_stimulus

    rng = random.Random(seed)
    net = locked.netlist
    data_inputs = [i for i in net.inputs if i not in locked.key]
    stimulus = random_stimulus(data_inputs, vectors, rng)
    counts = _key_corruption_counts(locked, keys, stimulus, vectors)
    denominator = len(net.outputs) * vectors
    if not denominator:
        return [0.0 for _ in counts]
    return [c / denominator for c in counts]


def wrong_key_error_rate(locked: LockedCircuit, trials: int = 32,
                         vectors: int = 64) -> float:
    """Fraction of (wrong key, input) pairs with corrupted outputs,
    keys and inputs drawn from ``random.Random(0)``.

    A good locking scheme shows high corruption for random wrong keys —
    the basic functional-impact metric before any attack modeling.
    All sampled keys are scored in one batched family evaluation;
    the result is bit-identical to simulating each wrong key on its
    own (the random key draws are unchanged).
    """
    rng = random.Random(0)
    net = locked.netlist
    data_inputs = [i for i in net.inputs if i not in locked.key]
    from ..netlist import random_stimulus

    stimulus = random_stimulus(data_inputs, vectors, rng)
    wrong_keys: List[Dict[str, int]] = []
    for _ in range(trials):
        wrong = {k: rng.randint(0, 1) for k in locked.key}
        if all(wrong[k] == locked.key[k] for k in locked.key):
            continue
        wrong_keys.append(wrong)
    total = len(wrong_keys) * len(net.outputs) * vectors
    if not total:
        return 0.0
    counts = _key_corruption_counts(locked, wrong_keys, stimulus, vectors)
    return sum(counts) / total

"""Gate-level Trojan insertion.

The adversary model of paper Sec. II-A.4: a malicious designer (or
compromised tool) adds a stealthy trigger — an AND over internal nets
at their *rare* polarities, so random functional tests essentially
never fire it — and a payload that corrupts or leaks once triggered.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..netlist import GateType, Netlist, random_stimulus, simulate


def signal_probabilities(netlist: Netlist, n_vectors: int = 2048,
                         seed: int = 0) -> Dict[str, float]:
    """Monte-Carlo probability of each net being 1 under random inputs."""
    rng = random.Random(seed)
    stim = random_stimulus(netlist.inputs, n_vectors, rng)
    values = simulate(netlist, stim, n_vectors)
    return {
        net: word.bit_count() / n_vectors
        for net, word in values.items()
    }


def rare_nodes(netlist: Netlist, threshold: float = 0.2,
               seed: int = 0) -> List[Tuple[str, int, float]]:
    """Nets with a rare polarity: (net, rare value, rareness prob).

    A net counts as rare if P(net = v) <= threshold for v in {0, 1}
    over 2048 random vectors.  Sorted rarest first.  These are both the
    attacker's favourite trigger inputs and MERO's coverage targets.
    """
    probs = signal_probabilities(netlist, 2048, seed)
    rare: List[Tuple[str, int, float]] = []
    for net, p_one in probs.items():
        gate = netlist.gates[net]
        if gate.gate_type is GateType.INPUT or not gate.gate_type.is_combinational:
            continue
        if p_one <= threshold:
            rare.append((net, 1, p_one))
        elif 1.0 - p_one <= threshold:
            rare.append((net, 0, 1.0 - p_one))
    rare.sort(key=lambda item: item[2])
    return rare


@dataclass
class TrojanInstance:
    """An inserted Trojan: where it listens, what it corrupts."""

    netlist: Netlist                      # the compromised design
    trigger_inputs: List[Tuple[str, int]]  # (net, activating value)
    trigger_net: str
    victim_net: str
    trigger_probability: float            # estimated activation prob


def _conjunction_satisfiable(netlist: Netlist,
                             terms: Sequence[Tuple[str, int, float]]
                             ) -> bool:
    """SAT check that all nets can take their rare values at once."""
    from ..formal import solve_circuit

    require = {net: value for net, value, _ in terms}
    return solve_circuit(netlist, {}, require) is not None


def insert_rare_trigger_trojan(netlist: Netlist,
                               trigger_width: int = 4,
                               rare_threshold: float = 0.25,
                               min_rareness: float = 0.01,
                               seed: int = 0,
                               victim: Optional[str] = None
                               ) -> TrojanInstance:
    """Insert an AND-of-rare-values trigger with an XOR payload.

    The trigger fires only when all ``trigger_width`` chosen nets sit at
    their rare polarity simultaneously; the payload flips ``victim``
    (default: a random internal net feeding an output cone).  Trigger
    nets are drawn from rareness range [``min_rareness``,
    ``rare_threshold``]: a real attacker avoids unreachable (p = 0)
    conditions, which would make the Trojan dead logic.
    """
    rng = random.Random(seed)
    rare = [
        item for item in rare_nodes(netlist, rare_threshold, seed=seed)
        if item[2] >= min_rareness
    ]
    if len(rare) < trigger_width:
        raise ValueError(
            f"only {len(rare)} rare nodes in [{min_rareness}, "
            f"{rare_threshold}]; lower trigger_width"
        )
    # A careful attacker verifies the conjunction is actually
    # satisfiable (rare values can be logically incompatible): try a
    # few random selections and SAT-check each.
    pool = rare[:max(trigger_width * 4, trigger_width)]
    chosen: List[Tuple[str, int, float]] = []
    for attempt in range(60):
        if attempt == 20:
            pool = rare  # widen the pool if the rarest nodes conflict
        candidate = rng.sample(pool, trigger_width)
        if _conjunction_satisfiable(netlist, candidate):
            chosen = candidate
            break
    if not chosen:
        raise ValueError("no satisfiable rare conjunction found")
    compromised = netlist.copy(netlist.name + "_troj")
    trigger_terms: List[str] = []
    probability = 1.0
    trigger_inputs: List[Tuple[str, int]] = []
    for net, value, prob in chosen:
        trigger_inputs.append((net, value))
        probability *= max(prob, 1e-9)
        if value == 1:
            trigger_terms.append(net)
        else:
            trigger_terms.append(
                compromised.add(GateType.NOT, [net], prefix="tj_inv")
            )
    trigger = compromised.add(GateType.AND, trigger_terms, prefix="tj_trig")

    # The victim must lie outside the trigger's fanin cone (otherwise
    # rewiring its consumers through the payload creates a cycle) and
    # inside some output cone (otherwise the payload is dead logic).
    trigger_cone = compromised.transitive_fanin(
        [net for net, _ in trigger_inputs])
    output_cones = compromised.transitive_fanin(compromised.outputs)
    candidates = [
        g.name for g in compromised.gates.values()
        if g.gate_type.is_combinational and not g.gate_type.is_source
        and g.name not in compromised.outputs
        and not g.name.startswith("tj_")
        and g.name not in trigger_cone
        and g.name in output_cones
    ]
    if victim is None and not candidates:
        raise ValueError("no cycle-free victim net available")
    victim_net = victim or rng.choice(candidates)
    if victim_net in trigger_cone:
        raise ValueError(f"victim {victim_net!r} lies in the trigger cone")
    payload = compromised.add(GateType.XOR, [victim_net, trigger],
                              prefix="tj_pay")
    compromised.rewire_consumers(victim_net, payload, keep_outputs=False)
    g = compromised.gate(payload)
    g.fanins = [victim_net if fi == payload else fi for fi in g.fanins]
    compromised.invalidate()
    return TrojanInstance(
        netlist=compromised,
        trigger_inputs=trigger_inputs,
        trigger_net=trigger,
        victim_net=victim_net,
        trigger_probability=probability,
    )

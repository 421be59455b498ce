"""Information-flow tracking and quantitative information flow (QIF).

The HLS-stage evaluation schemes of Table II: taint tracking in the
style of TaintHLS [14] validates where secrets can flow, and QIF (refs
[47]-[49]) upgrades the boolean answer to *how many bits* can leak, via
channel-capacity enumeration (min-entropy leakage of a deterministic
channel = log2 of the number of distinguishable outputs).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Set

from .dfg import Dfg, Label, OpType


@dataclass
class TaintReport:
    """Which values a secret can reach."""

    labels: Dict[str, Label]
    tainted_outputs: List[str]
    healed_by_masking: List[str]   # nodes where RANDOM healed SECRET


def taint_analysis(dfg: Dfg, masking_aware: bool = True) -> TaintReport:
    """Forward taint propagation over the DFG.

    Standard lattice: any SECRET operand taints the result.  With
    ``masking_aware`` (the refinement masking verification needs),
    ``XOR(SECRET, RANDOM)`` yields RANDOM — a uniformly distributed
    value independent of the secret — provided the random operand is a
    *fresh* RAND source used nowhere else (checked via fanout).
    """
    consumers = dfg.consumers()
    labels: Dict[str, Label] = {}
    healed: List[str] = []
    for name in dfg.topological_order():
        op = dfg.ops[name]
        if op.op in (OpType.INPUT, OpType.RAND, OpType.CONST):
            labels[name] = (Label.RANDOM if op.op is OpType.RAND
                            else op.label)
            continue
        arg_labels = [labels[a] for a in op.args]
        if op.op is OpType.MSBOX and masking_aware:
            # Internally masked unit: the output carries the fresh
            # output mask, independent of the (masked) data input.
            if labels[op.args[2]] is Label.RANDOM:
                labels[name] = Label.RANDOM
                healed.append(name)
                continue
        if op.op is OpType.XOR and masking_aware:
            secret_args = [a for a, l in zip(op.args, arg_labels)
                           if l is Label.SECRET]
            fresh_randoms = [
                a for a, l in zip(op.args, arg_labels)
                if l is Label.RANDOM
                and dfg.ops[a].op is OpType.RAND
                and len(consumers[a]) == 1
            ]
            if secret_args and fresh_randoms:
                labels[name] = Label.RANDOM
                healed.append(name)
                continue
        if Label.SECRET in arg_labels:
            labels[name] = Label.SECRET
        elif Label.RANDOM in arg_labels:
            # Independent of the secret, but no longer provably fresh
            # (it must not heal a later XOR — the fanout check above
            # only accepts direct single-use RAND sources).
            labels[name] = Label.RANDOM
        else:
            labels[name] = Label.PUBLIC
    tainted = [
        o for o in dfg.outputs() if labels[o] is Label.SECRET
    ]
    return TaintReport(labels, tainted, healed)


def qif_channel_capacity(channel: Callable[[int, int], int],
                         secret_bits: int, public_bits: int) -> float:
    """Min-entropy leakage of ``output = channel(secret, public)``.

    For a deterministic channel and uniform secret, the multiplicative
    leakage equals the maximum (over public inputs) number of distinct
    outputs; leakage in bits is its log2.  Exhaustive over the declared
    bit widths, at most ``2**20`` channel evaluations (use small widths
    — this is the approximate-model-counting use case of [49] writ
    small).
    """
    if (1 << (secret_bits + public_bits)) > 1 << 20:
        raise ValueError("enumeration bound exceeded; reduce bit widths")
    worst = 1
    for pub in range(1 << public_bits):
        outputs: Set[int] = set()
        for sec in range(1 << secret_bits):
            outputs.add(channel(sec, pub))
        worst = max(worst, len(outputs))
    return math.log2(worst)


def dfg_output_leakage(dfg: Dfg, output: str,
                       secret_input: str, public_input: str) -> float:
    """QIF of one DFG output w.r.t. one 8-bit secret input (public input
    8 bits, others fixed 0).

    Fixing the RNG inputs to 0 models the RNG as an attacker-known
    constant — the *worst case* for masked designs (masking's security
    collapses if the RNG is frozen), which is exactly the situation a
    verification flow must flag.
    """
    other_inputs = [i for i in dfg.inputs()
                    if i not in (secret_input, public_input)]

    def channel(secret: int, public: int) -> int:
        stim = {secret_input: secret, public_input: public}
        for name in other_inputs:
            stim[name] = 0
        values = dfg.evaluate(stim)
        return values[output]

    return qif_channel_capacity(channel, 8, 8)

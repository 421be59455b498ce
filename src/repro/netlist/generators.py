"""Benchmark circuit generators.

These supply the shared workloads for every experiment: arithmetic blocks
(the paper's PPA-driven flow of Fig. 1), the ISCAS c17 sample, parity and
comparator trees, random DAGs for statistical studies, and a generic
truth-table synthesizer used to build cryptographic S-box netlists.
"""

from __future__ import annotations

import random
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .gates import GateType
from .netlist import Netlist


def c17() -> Netlist:
    """The ISCAS-85 c17 benchmark (6 NAND gates)."""
    n = Netlist("c17")
    for name in ("G1", "G2", "G3", "G6", "G7"):
        n.add_input(name)
    n.add_gate("G10", GateType.NAND, ["G1", "G3"])
    n.add_gate("G11", GateType.NAND, ["G3", "G6"])
    n.add_gate("G16", GateType.NAND, ["G2", "G11"])
    n.add_gate("G19", GateType.NAND, ["G11", "G7"])
    n.add_gate("G22", GateType.NAND, ["G10", "G16"])
    n.add_gate("G23", GateType.NAND, ["G16", "G19"])
    n.add_output("G22")
    n.add_output("G23")
    return n


def full_adder(netlist: Netlist, a: str, b: str, cin: str,
               prefix: str) -> Tuple[str, str]:
    """Instantiate a full adder; returns (sum, carry) net names."""
    axb = netlist.add_gate(f"{prefix}_axb", GateType.XOR, [a, b])
    s = netlist.add_gate(f"{prefix}_s", GateType.XOR, [axb, cin])
    ab = netlist.add_gate(f"{prefix}_ab", GateType.AND, [a, b])
    cx = netlist.add_gate(f"{prefix}_cx", GateType.AND, [axb, cin])
    cout = netlist.add_gate(f"{prefix}_co", GateType.OR, [ab, cx])
    return s, cout


def ripple_carry_adder(width: int, with_cin: bool = False) -> Netlist:
    """``width``-bit ripple-carry adder: inputs a*/b* (LSB first),
    outputs s0..s{width-1} and cout."""
    n = Netlist(f"rca{width}")
    a = [n.add_input(f"a{i}") for i in range(width)]
    b = [n.add_input(f"b{i}") for i in range(width)]
    carry = n.add_input("cin") if with_cin else n.add_gate("cin", GateType.CONST0)
    for i in range(width):
        s, carry = full_adder(n, a[i], b[i], carry, f"fa{i}")
        n.add_gate(f"s{i}", GateType.BUF, [s])
        n.add_output(f"s{i}")
    n.add_gate("cout", GateType.BUF, [carry])
    n.add_output("cout")
    return n


def array_multiplier(width: int) -> Netlist:
    """``width`` x ``width`` unsigned array multiplier, 2*width product bits."""
    n = Netlist(f"mult{width}")
    a = [n.add_input(f"a{i}") for i in range(width)]
    b = [n.add_input(f"b{i}") for i in range(width)]
    zero = n.add_gate("zero", GateType.CONST0)
    # Partial products pp[i][j] = a[j] & b[i].
    rows: List[List[str]] = []
    for i in range(width):
        rows.append([
            n.add_gate(f"pp_{i}_{j}", GateType.AND, [a[j], b[i]])
            for j in range(width)
        ])
    product: List[str] = []
    acc = rows[0] + [zero]
    product.append(acc[0])
    for i in range(1, width):
        shifted = acc[1:] + [zero]
        carry = zero
        new_acc: List[str] = []
        for j in range(width):
            s, carry = full_adder(n, shifted[j], rows[i][j], carry,
                                  f"fa_{i}_{j}")
            new_acc.append(s)
        new_acc.append(carry)
        acc = new_acc
        product.append(acc[0])
    product.extend(acc[1:])
    for k, net in enumerate(product[:2 * width]):
        n.add_gate(f"p{k}", GateType.BUF, [net])
        n.add_output(f"p{k}")
    return n


def parity_tree(width: int, balanced: bool = True) -> Netlist:
    """XOR parity over ``width`` inputs, as a balanced tree or a chain.

    The chain form preserves left-to-right evaluation order, which
    matters for the private-circuit experiments (Fig. 2 of the paper).
    """
    n = Netlist(f"parity{width}")
    nets = [n.add_input(f"x{i}") for i in range(width)]
    if width == 1:
        n.add_gate("p", GateType.BUF, nets)
        n.add_output("p")
        return n
    if balanced:
        layer = 0
        while len(nets) > 1:
            nxt = []
            for k in range(0, len(nets) - 1, 2):
                nxt.append(n.add_gate(f"t{layer}_{k}", GateType.XOR,
                                      [nets[k], nets[k + 1]]))
            if len(nets) % 2:
                nxt.append(nets[-1])
            nets = nxt
            layer += 1
    else:
        acc = nets[0]
        for k, net in enumerate(nets[1:]):
            acc = n.add_gate(f"t{k}", GateType.XOR, [acc, net])
        nets = [acc]
    n.add_gate("p", GateType.BUF, [nets[0]])
    n.add_output("p")
    return n


_RANDOM_TYPES = (
    GateType.AND, GateType.NAND, GateType.OR,
    GateType.NOR, GateType.XOR, GateType.XNOR, GateType.NOT,
)


def random_circuit(n_inputs: int, n_gates: int, n_outputs: int,
                   seed: int = 0) -> Netlist:
    """Random combinational DAG; reproducible for a given ``seed``.

    Gates prefer recent nets as fanins, producing deep, connected logic
    rather than a flat layer — a reasonable stand-in for 'random
    glue logic' in statistical experiments.
    """
    rng = random.Random(seed)
    n = Netlist(f"rand_{n_inputs}_{n_gates}_s{seed}")
    nets = [n.add_input(f"in{i}") for i in range(n_inputs)]
    for k in range(n_gates):
        gate_type = rng.choice(_RANDOM_TYPES)
        arity = 1 if gate_type is GateType.NOT else 2
        # Bias toward recent nets to build depth.
        pool_size = len(nets)
        fanins = []
        while len(fanins) < arity:
            idx = min(pool_size - 1,
                      int(rng.expovariate(1.0 / max(4, pool_size / 4))))
            candidate = nets[pool_size - 1 - idx]
            if candidate not in fanins:
                fanins.append(candidate)
        nets.append(n.add_gate(f"g{k}", gate_type, fanins))
    chosen = rng.sample(nets[n_inputs:], min(n_outputs, n_gates))
    for j, net in enumerate(chosen):
        n.add_gate(f"out{j}", GateType.BUF, [net])
        n.add_output(f"out{j}")
    return n


def from_truth_tables(n_inputs: int, tables: Mapping[str, Sequence[int]],
                      name: str = "lut",
                      input_names: Optional[Sequence[str]] = None) -> Netlist:
    """Synthesize a multi-output function from truth tables.

    ``tables`` maps output names to 2**n_inputs entries (minterm order,
    input 0 = LSB).  Uses Shannon decomposition into a MUX tree with
    memoized cofactors, so shared sub-functions across outputs are built
    once.  This is how the AES/PRESENT S-box netlists are produced.
    """
    size = 1 << n_inputs
    for out, table in tables.items():
        if len(table) != size:
            raise ValueError(
                f"table for {out!r} has {len(table)} entries, wants {size}"
            )
    n = Netlist(name)
    names = list(input_names) if input_names else [
        f"x{i}" for i in range(n_inputs)
    ]
    inputs = [n.add_input(nm) for nm in names]
    const0 = n.add_gate("const0", GateType.CONST0)
    const1 = n.add_gate("const1", GateType.CONST1)
    memo: Dict[Tuple[int, ...], str] = {}
    inverted: Dict[str, str] = {}

    def invert(net: str) -> str:
        if net not in inverted:
            inverted[net] = n.add(GateType.NOT, [net], prefix="inv")
        return inverted[net]

    def build(table: Tuple[int, ...], var: int) -> str:
        key = table
        if key in memo:
            return memo[key]
        if all(v == 0 for v in table):
            memo[key] = const0
            return const0
        if all(v == 1 for v in table):
            memo[key] = const1
            return const1
        if len(table) == 2:
            net = inputs[var] if table == (0, 1) else invert(inputs[var])
            memo[key] = net
            return net
        half = len(table) // 2
        # Split on the *top* variable of this sub-table: minterm order
        # means the low half is var=0 and the high half var=1.
        top = var + (len(table).bit_length() - 2)
        f0 = build(tuple(table[:half]), var)
        f1 = build(tuple(table[half:]), var)
        if f0 == f1:
            memo[key] = f0
            return f0
        net = n.add(GateType.MUX, [inputs[top], f0, f1], prefix="m")
        memo[key] = net
        return net

    for out, table in tables.items():
        root = build(tuple(int(v) & 1 for v in table), 0)
        n.add_gate(out, GateType.BUF, [root])
        n.add_output(out)
    n.sweep_dangling()
    return n

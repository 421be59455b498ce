"""Gate-level netlist data structure.

A :class:`Netlist` is a named directed acyclic graph of gates (plus DFFs,
which break combinational cycles).  It is the shared substrate for every
security scheme in this repository: synthesis, side-channel simulation,
fault injection, locking, Trojan insertion, ATPG, and formal analysis all
operate on this one IR.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set

from .gates import GateType, check_arity


@dataclass
class Gate:
    """One cell instance: an output net name, a type, and fanin net names."""

    name: str
    gate_type: GateType
    fanins: List[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        check_arity(self.gate_type, len(self.fanins))


class NetlistError(Exception):
    """Raised for structurally invalid netlist operations."""


class Netlist:
    """A mutable gate-level circuit.

    Gates are addressed by the name of the net they drive (single-driver
    discipline).  Primary inputs are gates of type ``INPUT``; primary
    outputs are an ordered list of net names.  DFFs give the netlist
    sequential behaviour; the combinational core treats DFF outputs as
    pseudo-inputs and DFF D-pins as pseudo-outputs.
    """

    def __init__(self, name: str = "top") -> None:
        self.name = name
        self.gates: Dict[str, Gate] = {}
        self.outputs: List[str] = []
        self._uid = itertools.count()
        self._epoch = 0
        self._topo_cache: Optional[List[str]] = None
        self._inputs_cache: Optional[List[str]] = None
        self._flops_cache: Optional[List[str]] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def add_gate(self, name: str, gate_type: GateType,
                 fanins: Sequence[str] = ()) -> str:
        """Add a gate driving net ``name``; returns the net name."""
        if name in self.gates:
            raise NetlistError(f"net {name!r} already has a driver")
        self.gates[name] = Gate(name, gate_type, list(fanins))
        self.invalidate()
        return name

    def add_input(self, name: str) -> str:
        """Add a primary input named ``name``."""
        return self.add_gate(name, GateType.INPUT)

    def add_output(self, net: str) -> None:
        """Mark an existing net as a primary output."""
        if net not in self.gates:
            raise NetlistError(f"cannot mark unknown net {net!r} as output")
        self.outputs.append(net)
        # The output list shapes liveness (sweep_dangling) and any
        # cached analysis keyed on the mutation epoch, so this counts
        # as a structural mutation even though no gate changed.
        self.invalidate()

    def new_name(self, prefix: str = "n") -> str:
        """Return a fresh net name not present in the netlist."""
        while True:
            candidate = f"{prefix}{next(self._uid)}"
            if candidate not in self.gates:
                return candidate

    def add(self, gate_type: GateType, fanins: Sequence[str],
            prefix: str = "n") -> str:
        """Add a gate with an auto-generated name; returns the net name."""
        return self.add_gate(self.new_name(prefix), gate_type, fanins)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def inputs(self) -> List[str]:
        """Primary input names in insertion order.

        Cached (and invalidated alongside the topo cache): hot paths
        like trace packing read this per stimulus and must not rescan
        every gate each time.  A fresh list is returned so callers may
        mutate their copy freely.
        """
        if self._inputs_cache is None:
            self._inputs_cache = [g.name for g in self.gates.values()
                                  if g.gate_type is GateType.INPUT]
        return list(self._inputs_cache)

    @property
    def flops(self) -> List[str]:
        """DFF output net names in insertion order (cached like inputs)."""
        if self._flops_cache is None:
            self._flops_cache = [g.name for g in self.gates.values()
                                 if g.gate_type is GateType.DFF]
        return list(self._flops_cache)

    @property
    def is_sequential(self) -> bool:
        return any(g.gate_type is GateType.DFF for g in self.gates.values())

    def gate(self, net: str) -> Gate:
        """The driver of ``net`` (raises :class:`NetlistError` if unknown)."""
        try:
            return self.gates[net]
        except KeyError:
            raise NetlistError(f"unknown net {net!r}") from None

    def __contains__(self, net: str) -> bool:
        return net in self.gates

    def __len__(self) -> int:
        return len(self.gates)

    def num_cells(self) -> int:
        """Number of combinational cells (excludes inputs, constants, DFFs)."""
        return sum(
            1 for g in self.gates.values()
            if g.gate_type.is_combinational and not g.gate_type.is_source
        )

    def fanout_map(self) -> Dict[str, List[str]]:
        """Map each net to the list of gate names consuming it."""
        fanout: Dict[str, List[str]] = {net: [] for net in self.gates}
        for g in self.gates.values():
            for fi in g.fanins:
                if fi not in fanout:
                    raise NetlistError(
                        f"gate {g.name!r} references undriven net {fi!r}"
                    )
                fanout[fi].append(g.name)
        return fanout

    def validate(self) -> None:
        """Check single-driver discipline, arities, acyclicity, outputs."""
        for g in self.gates.values():
            check_arity(g.gate_type, len(g.fanins))
            for fi in g.fanins:
                if fi not in self.gates:
                    raise NetlistError(
                        f"gate {g.name!r} references undriven net {fi!r}"
                    )
        for out in self.outputs:
            if out not in self.gates:
                raise NetlistError(f"output {out!r} has no driver")
        self.topological_order()  # raises on combinational cycles

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------

    def topological_order(self) -> List[str]:
        """Gate names in topological order (DFF outputs treated as sources).

        Raises :class:`NetlistError` on a combinational cycle.
        """
        if self._topo_cache is not None:
            return self._topo_cache
        indeg: Dict[str, int] = {}
        consumers: Dict[str, List[str]] = {net: [] for net in self.gates}
        for g in self.gates.values():
            if g.gate_type is GateType.DFF or g.gate_type.is_source:
                indeg[g.name] = 0
            else:
                indeg[g.name] = len(g.fanins)
                for fi in g.fanins:
                    consumers[fi].append(g.name)
        ready = [n for n, d in indeg.items() if d == 0]
        order: List[str] = []
        while ready:
            net = ready.pop()
            order.append(net)
            for consumer in consumers[net]:
                indeg[consumer] -= 1
                if indeg[consumer] == 0:
                    ready.append(consumer)
        if len(order) != len(self.gates):
            stuck = sorted(n for n, d in indeg.items() if d > 0)
            raise NetlistError(f"combinational cycle through {stuck[:5]}")
        self._topo_cache = order
        return order

    @property
    def mutation_epoch(self) -> int:
        """Monotonic counter bumped by every structural mutation.

        External analysis caches (topological order, PPA, leakage
        traces, the compiled simulation program — see
        :mod:`repro.flow.analysis`) key their entries on this value:
        a cached result is valid exactly while the epoch it was
        computed at matches the netlist's current epoch.
        """
        return self._epoch

    def invalidate(self) -> None:
        """Drop caches after in-place mutation of gates.

        Clears the topological order plus the derived input/flop name
        caches, and bumps :attr:`mutation_epoch` so external analysis
        caches keyed on the epoch drop their entries too.  The compiled
        simulation engine (:mod:`repro.netlist.engine`) keys its
        per-netlist cache on the identity of the topo list, so dropping
        it here also forces a recompile on the next simulation.
        """
        self._epoch += 1
        self._topo_cache = None
        self._inputs_cache = None
        self._flops_cache = None

    def transitive_fanin(self, nets: Iterable[str]) -> Set[str]:
        """All nets in the combinational fanin cone of ``nets`` (inclusive)."""
        seen: Set[str] = set()
        stack = list(nets)
        while stack:
            net = stack.pop()
            if net in seen:
                continue
            seen.add(net)
            g = self.gate(net)
            if g.gate_type is not GateType.DFF:
                stack.extend(g.fanins)
        return seen

    def transitive_fanout(self, nets: Iterable[str]) -> Set[str]:
        """All nets in the combinational fanout cone of ``nets`` (inclusive)."""
        fanout = self.fanout_map()
        seen: Set[str] = set()
        stack = list(nets)
        while stack:
            net = stack.pop()
            if net in seen:
                continue
            seen.add(net)
            for consumer in fanout[net]:
                if self.gate(consumer).gate_type is not GateType.DFF:
                    stack.append(consumer)
                else:
                    seen.add(consumer)
        return seen

    def levels(self) -> Dict[str, int]:
        """Logic level of each net (sources at 0)."""
        level: Dict[str, int] = {}
        for net in self.topological_order():
            g = self.gates[net]
            if g.gate_type.is_source or g.gate_type is GateType.DFF:
                level[net] = 0
            else:
                level[net] = 1 + max(level[fi] for fi in g.fanins)
        return level

    def depth(self) -> int:
        """Maximum logic level over all nets (0 for an empty netlist)."""
        lv = self.levels()
        return max(lv.values()) if lv else 0

    # ------------------------------------------------------------------
    # Mutation helpers
    # ------------------------------------------------------------------

    def replace_fanin(self, gate_name: str, old: str, new: str) -> None:
        """Rewire one fanin of ``gate_name`` from net ``old`` to ``new``."""
        g = self.gate(gate_name)
        if old not in g.fanins:
            raise NetlistError(f"{gate_name!r} has no fanin {old!r}")
        g.fanins = [new if fi == old else fi for fi in g.fanins]
        self.invalidate()

    def rewire_consumers(self, old: str, new: str,
                         keep_outputs: bool = False) -> None:
        """Redirect every consumer of ``old`` (and output markers) to ``new``."""
        for g in self.gates.values():
            if old in g.fanins:
                g.fanins = [new if fi == old else fi for fi in g.fanins]
        if not keep_outputs:
            self.outputs = [new if o == old else o for o in self.outputs]
        self.invalidate()

    def remove_gate(self, net: str) -> None:
        """Remove the driver of ``net``; it must have no remaining consumers."""
        fanout = self.fanout_map()
        if fanout[net]:
            raise NetlistError(
                f"cannot remove {net!r}: still consumed by {fanout[net][:3]}"
            )
        if net in self.outputs:
            raise NetlistError(f"cannot remove primary output {net!r}")
        del self.gates[net]
        self.invalidate()

    def sweep_dangling(self) -> int:
        """Remove gates driving nothing (not outputs, not consumed). Returns count.

        One use-count pass, then a worklist: removing a gate releases
        its fanins, and each fanin goes as soon as nothing uses it.
        """
        gates = self.gates
        uses = dict.fromkeys(gates, 0)
        for g in gates.values():
            for fi in g.fanins:
                if fi not in uses:
                    raise NetlistError(
                        f"gate {g.name!r} references undriven net {fi!r}"
                    )
                uses[fi] += 1
        live = set(self.outputs)
        unused = [net for net, count in uses.items() if not count]
        removed = 0
        while unused:
            net = unused.pop()
            if net in live or gates[net].gate_type is GateType.INPUT:
                continue
            for fi in gates.pop(net).fanins:
                uses[fi] -= 1
                if not uses[fi]:
                    unused.append(fi)
            removed += 1
        if removed:
            self.invalidate()
        return removed

    # ------------------------------------------------------------------
    # Copy / compose
    # ------------------------------------------------------------------

    def copy(self, name: Optional[str] = None) -> "Netlist":
        """Deep copy of the netlist (optionally renamed)."""
        dup = Netlist(name or self.name)
        for g in self.gates.values():
            dup.gates[g.name] = Gate(g.name, g.gate_type, list(g.fanins))
        dup.outputs = list(self.outputs)
        return dup

    def import_netlist(self, other: "Netlist", prefix: str,
                       port_map: Dict[str, str]) -> Dict[str, str]:
        """Instantiate ``other`` inside this netlist.

        ``port_map`` maps ``other``'s primary-input names to existing nets
        here.  Internal nets are renamed ``{prefix}{net}``.  Returns the
        mapping from ``other``'s net names to names in this netlist
        (useful for locating the instantiated outputs).
        """
        rename: Dict[str, str] = {}
        for g in other.gates.values():
            if g.gate_type is GateType.INPUT:
                if g.name not in port_map:
                    raise NetlistError(f"unbound input {g.name!r}")
                rename[g.name] = port_map[g.name]
            else:
                rename[g.name] = f"{prefix}{g.name}"
        for net in other.topological_order():
            g = other.gates[net]
            if g.gate_type is GateType.INPUT:
                continue
            self.add_gate(rename[net], g.gate_type,
                          [rename[fi] for fi in g.fanins])
        return rename

    def __repr__(self) -> str:
        return (
            f"Netlist({self.name!r}, inputs={len(self.inputs)}, "
            f"outputs={len(self.outputs)}, cells={self.num_cells()}, "
            f"flops={len(self.flops)})"
        )


def cone_extract(netlist: Netlist, output: str) -> Netlist:
    """Extract the single-output combinational cone feeding ``output``,
    named ``<netlist>_cone_<output>``."""
    keep = netlist.transitive_fanin([output])
    cone = Netlist(f"{netlist.name}_cone_{output}")
    for net in netlist.topological_order():
        if net not in keep:
            continue
        g = netlist.gates[net]
        if g.gate_type is GateType.DFF:
            cone.add_input(net)
        else:
            cone.add_gate(net, g.gate_type, list(g.fanins))
    cone.add_output(output)
    return cone

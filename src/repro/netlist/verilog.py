"""Structural Verilog export/import for the netlist IR.

The interchange format the rest of the EDA world speaks.  Export emits
flat gate-level Verilog using primitive instantiations; import parses
the same subset (primitive gates, one module, scalar nets) — enough to
round-trip our own netlists and to ingest simple third-party gate-level
files.
"""

from __future__ import annotations

import re
from typing import List

from .gates import GateType
from .netlist import Netlist, NetlistError

_PRIMITIVE_OF = {
    GateType.BUF: "buf",
    GateType.NOT: "not",
    GateType.AND: "and",
    GateType.NAND: "nand",
    GateType.OR: "or",
    GateType.NOR: "nor",
    GateType.XOR: "xor",
    GateType.XNOR: "xnor",
}
_TYPE_OF_PRIMITIVE = {v: k for k, v in _PRIMITIVE_OF.items()}

_IDENT = r"[A-Za-z_][A-Za-z0-9_$]*"


def _sanitize(name: str) -> str:
    """Make a net name Verilog-legal (deterministic, collision-free for
    our generated names)."""
    clean = re.sub(r"[^A-Za-z0-9_$]", "_", name)
    if not re.match(r"[A-Za-z_]", clean):
        clean = "n_" + clean
    return clean


def dumps_verilog(netlist: Netlist) -> str:
    """Serialize to flat structural Verilog."""
    rename = {net: _sanitize(net) for net in netlist.gates}
    if len(set(rename.values())) != len(rename):
        raise NetlistError("net names collide after sanitizing")
    inputs = [rename[i] for i in netlist.inputs]
    outputs = [rename[o] for o in netlist.outputs]
    ports = inputs + [o for o in outputs if o not in inputs]
    lines = [f"module {_sanitize(netlist.name)} ("]
    lines.append("    " + ", ".join(ports))
    lines.append(");")
    for name in inputs:
        lines.append(f"  input {name};")
    for name in outputs:
        if name not in inputs:
            lines.append(f"  output {name};")
    wires = [
        rename[g.name] for g in netlist.gates.values()
        if g.gate_type is not GateType.INPUT
        and rename[g.name] not in outputs
    ]
    for name in wires:
        lines.append(f"  wire {name};")
    index = 0
    for net in netlist.topological_order():
        g = netlist.gates[net]
        t = g.gate_type
        if t is GateType.INPUT:
            continue
        out = rename[net]
        if t is GateType.CONST0:
            lines.append(f"  assign {out} = 1'b0;")
        elif t is GateType.CONST1:
            lines.append(f"  assign {out} = 1'b1;")
        elif t is GateType.MUX:
            s, d0, d1 = (rename[fi] for fi in g.fanins)
            lines.append(
                f"  assign {out} = {s} ? {d1} : {d0};")
        elif t is GateType.DFF:
            d = rename[g.fanins[0]]
            lines.append(
                f"  dff u{index} ({out}, {d}); "
                f"// behavioural DFF placeholder")
            index += 1
        else:
            prim = _PRIMITIVE_OF[t]
            ins = ", ".join(rename[fi] for fi in g.fanins)
            lines.append(f"  {prim} u{index} ({out}, {ins});")
            index += 1
    lines.append("endmodule")
    return "\n".join(lines) + "\n"


_GATE_RE = re.compile(
    rf"^\s*(?P<prim>{_IDENT})\s+{_IDENT}\s*\(\s*(?P<args>[^)]*)\)\s*;"
)
_ASSIGN_CONST_RE = re.compile(
    rf"^\s*assign\s+(?P<lhs>{_IDENT})\s*=\s*1'b(?P<bit>[01])\s*;"
)
_ASSIGN_MUX_RE = re.compile(
    rf"^\s*assign\s+(?P<lhs>{_IDENT})\s*=\s*(?P<s>{_IDENT})\s*\?\s*"
    rf"(?P<d1>{_IDENT})\s*:\s*(?P<d0>{_IDENT})\s*;"
)
_DECL_RE = re.compile(
    rf"^\s*(?P<kind>input|output|wire)\s+(?P<names>[^;]+);"
)
_MODULE_RE = re.compile(rf"^\s*module\s+(?P<name>{_IDENT})")


def loads_verilog(text: str) -> Netlist:
    """Parse the structural subset emitted by :func:`dumps_verilog`."""
    name = "top"
    inputs: List[str] = []
    outputs: List[str] = []
    gate_lines: List[str] = []
    # Join continuation lines (the port list spans several).
    logical: List[str] = []
    buffer = ""
    for raw in text.splitlines():
        line = raw.split("//", 1)[0].strip()
        if not line:
            continue
        buffer += " " + line
        if line.endswith(";") or line.startswith(("module",)) and \
                line.endswith(")"):
            logical.append(buffer.strip())
            buffer = ""
        elif line in ("endmodule",):
            logical.append(line)
            buffer = ""
    if buffer.strip():
        logical.append(buffer.strip())

    netlist: Netlist
    pending: List[tuple] = []
    for line in logical:
        m = _MODULE_RE.match(line)
        if m:
            name = m.group("name")
            continue
        m = _DECL_RE.match(line)
        if m:
            names = [n.strip() for n in m.group("names").split(",")
                     if n.strip()]
            if m.group("kind") == "input":
                inputs.extend(names)
            elif m.group("kind") == "output":
                outputs.extend(names)
            continue
        if line == "endmodule":
            continue
        gate_lines.append(line)

    netlist = Netlist(name)
    for inp in inputs:
        netlist.add_input(inp)
    for line in gate_lines:
        m = _ASSIGN_CONST_RE.match(line)
        if m:
            t = GateType.CONST1 if m.group("bit") == "1" else GateType.CONST0
            pending.append((m.group("lhs"), t, []))
            continue
        m = _ASSIGN_MUX_RE.match(line)
        if m:
            pending.append((m.group("lhs"), GateType.MUX,
                            [m.group("s"), m.group("d0"), m.group("d1")]))
            continue
        m = _GATE_RE.match(line)
        if m:
            prim = m.group("prim")
            args = [a.strip() for a in m.group("args").split(",")]
            out, ins = args[0], args[1:]
            if prim == "dff":
                pending.append((out, GateType.DFF, ins))
            elif prim in _TYPE_OF_PRIMITIVE:
                pending.append((out, _TYPE_OF_PRIMITIVE[prim], ins))
            else:
                raise NetlistError(f"unknown primitive {prim!r}")
            continue
        raise NetlistError(f"cannot parse line: {line!r}")
    for out, gate_type, ins in pending:
        netlist.add_gate(out, gate_type, ins)
    for out in outputs:
        netlist.add_output(out)
    netlist.validate()
    return netlist

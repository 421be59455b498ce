"""Report generation: regenerate the paper's Table I from the framework.

Table I maps threat vectors to attack times and EDA roles.  Rather than
hard-coding the table, :func:`table_i` derives it from the registered
threat models — and :func:`table_i_with_evidence` attaches, per row, the
names of this repository's modules that *implement* each role, so the
table doubles as a capability index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from .threats import (
    THREAT_CATALOG,
    AttackTime,
    EdaRole,
    ThreatVector,
)

#: Which repro modules realize each EDA role per threat vector.
ROLE_EVIDENCE: Dict[Tuple[ThreatVector, EdaRole], List[str]] = {
    (ThreatVector.SIDE_CHANNEL, EdaRole.EVALUATION): [
        "repro.sca.tvla", "repro.sca.cpa", "repro.sca.localize",
        "repro.sca.glitch", "repro.hls.ift",
    ],
    (ThreatVector.SIDE_CHANNEL, EdaRole.MITIGATION): [
        "repro.sca.masking", "repro.sca.wddl", "repro.hls.secure",
        "repro.dft.scan_attack (secure scan)",
    ],
    (ThreatVector.FAULT_INJECTION, EdaRole.EVALUATION): [
        "repro.fia.analysis", "repro.fia.dfa", "repro.formal.properties",
    ],
    (ThreatVector.FAULT_INJECTION, EdaRole.MITIGATION): [
        "repro.fia.codes", "repro.fia.infective", "repro.fia.sensors",
        "repro.dft.dfx",
    ],
    (ThreatVector.IP_PIRACY, EdaRole.MITIGATION): [
        "repro.ip.locking", "repro.ip.sfll", "repro.ip.camouflage",
        "repro.ip.split", "repro.ip.metering",
        "repro.ip.puf",
    ],
    (ThreatVector.TROJAN, EdaRole.MITIGATION): [
        "repro.trojan.monitors (TPAD, BISA)",
    ],
    (ThreatVector.TROJAN, EdaRole.VERIFICATION): [
        "repro.formal.equivalence", "repro.core.table2 (proof-carrying)",
    ],
    (ThreatVector.TROJAN, EdaRole.TEST_PREPARATION): [
        "repro.trojan.mero", "repro.trojan.fingerprint",
        "repro.trojan.sidechannel",
    ],
}


@dataclass
class TableIRow:
    vector: ThreatVector
    attack_times: List[AttackTime]
    roles: List[EdaRole]
    evidence: Dict[EdaRole, List[str]]


def table_i() -> List[TableIRow]:
    """Derive Table I's rows from the threat-model catalog."""
    rows: Dict[ThreatVector, TableIRow] = {}
    for model in THREAT_CATALOG.values():
        row = rows.get(model.vector)
        if row is None:
            row = TableIRow(model.vector, [], [], {})
            rows[row.vector] = row
        for t in model.attack_times:
            if t not in row.attack_times:
                row.attack_times.append(t)
        for role in model.eda_roles:
            if role not in row.roles:
                row.roles.append(role)
    for row in rows.values():
        for role in row.roles:
            row.evidence[role] = ROLE_EVIDENCE.get(
                (row.vector, role), [])
    order = [ThreatVector.SIDE_CHANNEL, ThreatVector.FAULT_INJECTION,
             ThreatVector.IP_PIRACY, ThreatVector.TROJAN]
    return [rows[v] for v in order if v in rows]


def render_table_i(rows: List[TableIRow],
                   with_evidence: bool = True) -> str:
    """Text rendering of Table I (optionally with implementing modules)."""
    lines = ["=== Table I: security threats and the roles of EDA ==="]
    for row in rows:
        lines.append(f"\nThreat vector: {row.vector.value}")
        lines.append("  time of attack: "
                     + ", ".join(t.value for t in row.attack_times))
        lines.append("  roles of EDA:")
        for role in row.roles:
            lines.append(f"    - {role.value}")
            if with_evidence:
                for module in row.evidence.get(role, []):
                    lines.append(f"        implemented by {module}")
    return "\n".join(lines)

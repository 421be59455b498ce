"""Risk register: the flow's residual-risk output (paper Sec. II-C).

    "EDA tools should assist the designer with automated integration of
    security features and countermeasures but also need to formulate
    the related limitations and remaining risks clearly, to enable
    effective risk management."

A :class:`RiskRegister` collects quantified findings from the
composition engine and the secure flow into exactly that artifact: per
threat, what was checked, what the measured exposure is, what residual
risk remains outside the modeled attacker (the paper's "impossible to
hinder an adversary from going beyond the modeled means").
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional

from .composition import CompositionReport
from .threats import ThreatVector


class Severity(enum.Enum):
    """Finding severity ladder for the risk register."""

    INFO = "info"
    LOW = "low"
    MEDIUM = "medium"
    HIGH = "high"
    CRITICAL = "critical"


@dataclass
class RiskEntry:
    """One finding with its quantification and residual statement."""

    threat: ThreatVector
    title: str
    severity: Severity
    measured: str                 # the quantitative evidence
    residual: str                 # what remains outside the model
    mitigation: Optional[str] = None


#: Residual-risk statements per threat — the model's declared edges.
MODEL_LIMITS = {
    ThreatVector.SIDE_CHANNEL: (
        "leakage model is gate-level switching/value activity; "
        "analog effects (coupling, supply filtering) and higher-order/"
        "multivariate combinations beyond order 2 are unmodeled"),
    ThreatVector.FAULT_INJECTION: (
        "fault model covers transient bit/byte upsets and clock "
        "glitches; multi-fault combined attacks and analog fault "
        "shapes are unmodeled"),
    ThreatVector.IP_PIRACY: (
        "attacker models: oracle-guided SAT, structural matching, "
        "via/cell proximity; learned attacks with richer features may "
        "exceed measured rates"),
    ThreatVector.TROJAN: (
        "screens are statistical against process variation; a Trojan "
        "below the variation floor or triggered by unmodeled events "
        "may escape"),
}


@dataclass
class RiskRegister:
    """The flow's hand-off artifact to risk management."""

    design_name: str
    entries: List[RiskEntry] = field(default_factory=list)

    def add(self, entry: RiskEntry) -> None:
        """Record one finding."""
        self.entries.append(entry)

    @property
    def worst(self) -> Severity:
        order = list(Severity)
        if not self.entries:
            return Severity.INFO
        return max((e.severity for e in self.entries),
                   key=order.index)

    def by_threat(self, threat: ThreatVector) -> List[RiskEntry]:
        """Findings for one threat vector."""
        return [e for e in self.entries if e.threat is threat]

    def render(self) -> str:
        """Human-readable register grouped by threat."""
        lines = [f"=== risk register: {self.design_name} "
                 f"(worst: {self.worst.value}) ==="]
        for vector in ThreatVector:
            entries = self.by_threat(vector)
            if not entries:
                continue
            lines.append(f"\n[{vector.value}]")
            for e in entries:
                lines.append(f"  ({e.severity.value.upper()}) {e.title}")
                lines.append(f"      measured: {e.measured}")
                if e.mitigation:
                    lines.append(f"      mitigation: {e.mitigation}")
                lines.append(f"      residual: {e.residual}")
        return "\n".join(lines)


def register_from_composition(design_name: str,
                              report: CompositionReport) -> RiskRegister:
    """Convert a composition audit into a risk register.

    Harmful cross-effects become HIGH/CRITICAL findings; clean steps
    become INFO entries with the model-limit residual attached.  The
    leakage finding is graded on the final snapshot's confirmed TVLA
    verdict, the same one the engine flags cross-effects on.
    """
    register = RiskRegister(design_name)
    final = report.steps[-1][1] if report.steps else None
    for effect in report.cross_effects:
        if effect.harmful:
            severity = (Severity.CRITICAL
                        if effect.metric == "tvla_max_t"
                        else Severity.HIGH)
            threat = (ThreatVector.SIDE_CHANNEL
                      if "tvla" in effect.metric or "leak" in effect.metric
                      else ThreatVector.FAULT_INJECTION)
            register.add(RiskEntry(
                threat=threat,
                title=f"{effect.countermeasure} degrades {effect.metric}",
                severity=severity,
                measured=f"{effect.metric}: {effect.before:.2f} -> "
                         f"{effect.after:.2f} ({effect.note})",
                residual=MODEL_LIMITS[threat],
                mitigation="reorder/replace the countermeasure; re-run "
                           "the composition audit",
            ))
    if final is not None:
        register.add(RiskEntry(
            threat=ThreatVector.SIDE_CHANNEL,
            title="first-order leakage assessment",
            severity=(Severity.CRITICAL if final.tvla_leaks
                      else Severity.INFO),
            measured=f"TVLA max|t| = {final.tvla_max_t:.2f} at the "
                     f"configured trace budget, "
                     + ("leak confirmed by a second trace set"
                        if final.tvla_leaks else "no confirmed leak"),
            residual=MODEL_LIMITS[ThreatVector.SIDE_CHANNEL],
        ))
        register.add(RiskEntry(
            threat=ThreatVector.FAULT_INJECTION,
            title="fault-detection coverage",
            severity=(Severity.INFO if final.fia_coverage >= 0.99
                      else Severity.MEDIUM
                      if final.fia_coverage >= 0.9 else Severity.HIGH),
            measured=f"detection coverage {final.fia_coverage:.2f}, "
                     f"{final.fia_silent} silent corruptions in the "
                     f"campaign",
            residual=MODEL_LIMITS[ThreatVector.FAULT_INJECTION],
        ))
    return register

"""Fault-injection attacks and countermeasures: injection, DFA, codes, sensors."""

from .models import Fault, FaultKind, enumerate_faults
from .injector import inject_fault
from .analysis import (
    CampaignReport,
    FaultMiter,
    FaultOutcome,
    FormalFaultResult,
    corrupted_patterns,
    fault_campaign,
    fault_effects,
    formal_coverage,
)
from .codes import (
    ProtectedDesign,
    duplicate_and_compare,
    parity_protect,
    residue_mod3_net,
    residue_protect_adder,
    tmr_protect,
)
from .dfa import (
    BIT_FAULTS,
    DfaAttacker,
    DfaResult,
    dfa_on_unprotected,
    last_round_candidates,
)
from .infective import DetectAndSuppressAES, InfectiveAES
from .sensors import (
    Sensor,
    SensorPlan,
    greedy_sensor_placement,
    injection_campaign,
)
from .discriminate import (
    Assessment,
    FaultDiscriminator,
    FaultEvent,
    Response,
    Verdict,
    attack_fault_stream,
    natural_fault_stream,
)

__all__ = [
    "Fault", "FaultKind", "enumerate_faults", "inject_fault",
    "CampaignReport", "FaultMiter", "FaultOutcome", "FormalFaultResult",
    "corrupted_patterns", "fault_campaign", "fault_effects",
    "formal_coverage",
    "ProtectedDesign", "duplicate_and_compare", "parity_protect",
    "residue_mod3_net", "residue_protect_adder", "tmr_protect",
    "BIT_FAULTS", "DfaAttacker", "DfaResult", "dfa_on_unprotected",
    "last_round_candidates",
    "DetectAndSuppressAES", "InfectiveAES",
    "Sensor", "SensorPlan", "greedy_sensor_placement", "injection_campaign",
    "Assessment", "FaultDiscriminator", "FaultEvent", "Response", "Verdict",
    "attack_fault_stream", "natural_fault_stream",
]

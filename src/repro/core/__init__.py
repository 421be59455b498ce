"""Core contribution: the secure-composition EDA framework.

Threat models (Table I), the design stages of Table II and an
executable Table II, security metrics with step-function semantics
(Sec. IV), the composition engine with cross-effect detection (Sec. IV,
ref [61]), the security-centric flow with its re-verification loop, and
security-aware design-space exploration.  The classical flow of Fig. 1
is a pass pipeline, :func:`repro.flow.classical_pipeline`.
"""

from .threats import (
    AttackTime,
    EdaRole,
    END_USER_ADVERSARY,
    FIA_ADVERSARY,
    FOUNDRY_ADVERSARY,
    POWER_SCA_ADVERSARY,
    THREAT_CATALOG,
    ThreatModel,
    ThreatVector,
    TROJAN_ADVERSARY,
)
from .stages import DesignStage
from .metrics import (
    StepFunctionMetric,
    sat_attack_resistance_steps,
)
from .composition import (
    CompositionEngine,
    CompositionReport,
    CrossEffect,
    Design,
    EvaluationSnapshot,
)
from .designs import (
    DESIGN_FACTORIES,
    STACK_PASSES,
    build_design,
    build_stack,
    masked_and_design,
    register_design,
)
from .flow import (
    SecureFlow,
    SecurityRequirement,
    no_leaky_net_requirement,
    tvla_requirement,
)
from .dse import (
    Candidate,
    LockingSweepPoint,
    dominates,
    locking_candidates,
    measure_locking_point,
    pareto_front,
    sweep_locking,
)
from .table2 import (
    CellResult,
    all_demos,
    render_table,
    run_all,
    run_cell,
)
from .constraints import (
    CompilationReport,
    DetectionConstraint,
    LeakageConstraint,
    MaskingConstraint,
    NoFlowConstraint,
    Obligation,
    SecurityConstraint,
    compile_and_check,
)
from .risk import (
    MODEL_LIMITS,
    RiskEntry,
    RiskRegister,
    Severity,
    register_from_composition,
)
from .report import TableIRow, render_table_i, table_i

__all__ = [
    "AttackTime", "EdaRole", "END_USER_ADVERSARY", "FIA_ADVERSARY",
    "FOUNDRY_ADVERSARY", "POWER_SCA_ADVERSARY", "THREAT_CATALOG",
    "ThreatModel", "ThreatVector", "TROJAN_ADVERSARY",
    "DesignStage",
    "StepFunctionMetric", "sat_attack_resistance_steps",
    "CompositionEngine", "CompositionReport", "CrossEffect", "Design",
    "EvaluationSnapshot",
    "DESIGN_FACTORIES", "STACK_PASSES", "build_design", "build_stack",
    "masked_and_design", "register_design",
    "SecureFlow", "SecurityRequirement",
    "no_leaky_net_requirement", "tvla_requirement",
    "Candidate", "LockingSweepPoint", "dominates", "locking_candidates",
    "measure_locking_point", "pareto_front", "sweep_locking",
    "CellResult", "all_demos", "render_table", "run_all", "run_cell",
    "CompilationReport", "DetectionConstraint", "LeakageConstraint",
    "MaskingConstraint", "NoFlowConstraint", "Obligation",
    "SecurityConstraint", "compile_and_check",
    "MODEL_LIMITS", "RiskEntry", "RiskRegister", "Severity",
    "register_from_composition",
    "TableIRow", "render_table_i", "table_i",
]

"""repro.flow — the unified pass-manager IR for secure flows.

Every netlist transform in the repo is a registered
:class:`~repro.flow.passes.Pass` declaring which security properties it
preserves, establishes, or invalidates; :class:`~repro.flow.manager.
PassManager` runs pipelines, re-verifies only what a pass invalidated
(the paper's re-check loop, made incremental), shares expensive
analyses through an epoch-keyed :class:`~repro.flow.analysis.
AnalysisCache`, and records machine-readable provenance in a
:class:`~repro.flow.manager.FlowTrace`.
"""

from .properties import (
    ALL_PROPERTIES,
    PropertyCheck,
    SecurityProperty,
    default_checkers,
    fault_detection_check,
    fault_detection_checker,
    masking_check,
    masking_checker,
    no_flow_check,
    fia_exposure_checker,
    layout_checkers,
    probing_exposure_checker,
    scan_leakage_check,
    scan_leakage_checker,
    trojan_insertability_checker,
    tvla_check,
    tvla_checker,
)
from .analysis import AnalysisCache
from .passes import (
    Effects,
    Pass,
    PassResult,
    conservative,
    create_pass,
    effects,
    preserves_all,
    register_pass,
    registered_passes,
)
from .manager import (
    FlowContext,
    FlowRunResult,
    FlowTrace,
    PassManager,
    PassProvenance,
    PropertyRecheck,
    strip_wall_times,
)
from . import library as library  # noqa: F401  (populates the registry)
from . import layout_library as layout_library  # noqa: F401  (registry)
from .layout_library import (
    BuryCriticalNetsPass,
    EcoFillerPass,
    RoutingPass,
    ShieldInsertionPass,
)
from .library import (
    AtpgPass,
    BistSignaturePass,
    BufferSweepPass,
    CamouflagePass,
    ConstantPropagationPass,
    DeadGateSweepPass,
    DoubleInversionPass,
    DuplicationDetectPass,
    FunctionalValidationPass,
    LogicLockingPass,
    MaskInsertionPass,
    ParityDetectPass,
    PlacementPass,
    ReassociationPass,
    ScanInsertionPass,
    SecureSynthesisPass,
    SfllLockPass,
    StaSignoffPass,
    StructuralHashingPass,
    SynthesisStagePass,
    WddlPass,
)
from .pipelines import (
    SecurePlacementPass,
    classical_pipeline,
    netlist_design,
    secure_pipeline,
)

__all__ = [
    "ALL_PROPERTIES", "PropertyCheck", "SecurityProperty",
    "default_checkers", "fault_detection_check", "fault_detection_checker",
    "masking_check", "masking_checker",
    "no_flow_check", "scan_leakage_check", "scan_leakage_checker",
    "tvla_check", "tvla_checker",
    "fia_exposure_checker", "layout_checkers",
    "probing_exposure_checker", "trojan_insertability_checker",
    "AnalysisCache",
    "Effects", "Pass", "PassResult", "conservative", "create_pass",
    "effects", "preserves_all", "register_pass", "registered_passes",
    "FlowContext", "FlowRunResult", "FlowTrace", "PassManager",
    "PassProvenance", "PropertyRecheck", "strip_wall_times",
    "AtpgPass", "BistSignaturePass", "BufferSweepPass",
    "CamouflagePass", "ConstantPropagationPass", "DeadGateSweepPass",
    "DoubleInversionPass", "DuplicationDetectPass",
    "FunctionalValidationPass", "LogicLockingPass", "MaskInsertionPass",
    "ParityDetectPass", "PlacementPass", "ReassociationPass",
    "ScanInsertionPass", "SecureSynthesisPass", "SfllLockPass",
    "StaSignoffPass", "StructuralHashingPass", "SynthesisStagePass",
    "WddlPass",
    "BuryCriticalNetsPass", "EcoFillerPass", "RoutingPass",
    "ShieldInsertionPass",
    "SecurePlacementPass",
    "classical_pipeline", "netlist_design",
    "secure_pipeline",
]

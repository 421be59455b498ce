"""Testing substrate: scan, ATPG, fault grading, BIST, scan attacks, DFX."""

from .scan import (
    SCAN_ENABLE,
    SCAN_IN,
    SCAN_OUT,
    ScanDesign,
    insert_scan,
    scan_load,
    scan_unload,
)
from .faultsim import CoverageReport, detection_words, grade_vectors
from .atpg import (
    AtpgResult,
    IncrementalAtpg,
    run_atpg,
)
from .bist import BistResult, Lfsr, Misr, run_bist
from .scan_attack import (
    ScanAttackResult,
    ScanChipModel,
    netlist_scan_attack,
    scan_attack,
    test_access_still_works,
)
from .dfx import ChipState, DfxController, DfxEventLog

__all__ = [
    "SCAN_ENABLE", "SCAN_IN", "SCAN_OUT", "ScanDesign", "insert_scan",
    "scan_load", "scan_unload",
    "CoverageReport", "detection_words", "grade_vectors",
    "AtpgResult", "IncrementalAtpg", "run_atpg",
    "BistResult", "Lfsr", "Misr", "run_bist",
    "ScanAttackResult", "ScanChipModel", "netlist_scan_attack",
    "scan_attack",
    "test_access_still_works",
    "ChipState", "DfxController", "DfxEventLog",
]

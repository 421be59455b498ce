"""Hardware Trojans: insertion, MERO, fingerprinting, monitors."""

from .insert import (
    TrojanInstance,
    insert_rare_trigger_trojan,
    rare_nodes,
    signal_probabilities,
)
from .mero import (
    DetectionOutcome,
    MeroTestSet,
    apply_test_set,
    detection_rate,
    generate_mero_tests,
    pair_trigger_coverage,
    random_test_set,
)
from .fingerprint import (
    DelayFingerprint,
    build_fingerprint,
    golden_population_delays,
    measure_chip,
    screen_population,
)
from .sidechannel import (
    IddqDetector,
    RoNetwork,
    build_ro_network,
    calibrate_iddq,
    regional_leakage,
    ro_detection,
    screen_iddq,
)
from .monitors import (
    BisaFill,
    MonitoredDesign,
    bisa_fill,
    insert_monitors,
    insertion_feasibility,
)

__all__ = [
    "TrojanInstance", "insert_rare_trigger_trojan", "rare_nodes",
    "signal_probabilities",
    "DetectionOutcome", "MeroTestSet", "apply_test_set", "detection_rate",
    "generate_mero_tests", "pair_trigger_coverage", "random_test_set",
    "DelayFingerprint", "build_fingerprint", "golden_population_delays",
    "measure_chip", "screen_population",
    "IddqDetector", "RoNetwork", "build_ro_network", "calibrate_iddq",
    "regional_leakage", "ro_detection", "screen_iddq",
    "BisaFill", "MonitoredDesign", "bisa_fill", "insert_monitors",
    "insertion_feasibility",
]

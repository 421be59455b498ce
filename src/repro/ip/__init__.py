"""IP protection: locking, SAT attack, camouflaging, split mfg., PUFs."""

from .locking import (
    LockedCircuit,
    apply_key,
    lock_xor,
    score_candidate_keys,
    wrong_key_error_rate,
)
from .sat_attack import (
    SatAttackResult,
    attack_locked_circuit,
    sat_attack,
    verify_recovered_key,
)
from .antisat import antisat_lock
from .sfll import SfllCircuit, sfll_hd_lock
from .camouflage import (
    CAMO_CANDIDATES,
    CamouflagedCircuit,
    camouflage,
    decamouflage_to_locked,
)
from .split import (
    FeolView,
    ProximityAttackResult,
    build_feol_view,
    lift_critical_nets,
    perturb_placement,
    proximity_attack,
    reconstruction_error_rate,
)
from .puf import (
    ArbiterPuf,
    PufMetrics,
    RingOscillatorPuf,
    evaluate_arbiter_population,
    evaluate_ro_population,
    model_attack_arbiter,
)
from .structural import (
    StructuralAttackResult,
    resynthesis_resistance,
    structural_key_attack,
)
from .metering import (
    MeteredChip,
    MeteringAuthority,
    overbuild_attack,
)

__all__ = [
    "LockedCircuit", "apply_key", "lock_xor", "score_candidate_keys",
    "wrong_key_error_rate",
    "SatAttackResult", "attack_locked_circuit", "sat_attack",
    "verify_recovered_key",
    "antisat_lock",
    "SfllCircuit", "sfll_hd_lock",
    "CAMO_CANDIDATES", "CamouflagedCircuit", "camouflage",
    "decamouflage_to_locked",
    "FeolView", "ProximityAttackResult", "build_feol_view",
    "lift_critical_nets", "perturb_placement", "proximity_attack",
    "reconstruction_error_rate",
    "ArbiterPuf", "PufMetrics", "RingOscillatorPuf",
    "evaluate_arbiter_population", "evaluate_ro_population",
    "model_attack_arbiter",
    "StructuralAttackResult", "resynthesis_resistance",
    "structural_key_attack",
    "MeteredChip", "MeteringAuthority", "overbuild_attack",
]

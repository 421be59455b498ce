"""Side-channel analysis: leakage simulation, TVLA, CPA, masking, WDDL."""

from .power_model import (
    HW8,
    bits_to_traces,
    family_leakage_traces,
    family_net_bit_matrix,
    leakage_traces,
)
from .tvla import TVLA_THRESHOLD, TvlaResult, tvla, tvla_sweep, welch_t
from .cpa import (
    CpaResult,
    cpa_attack,
    traces_to_disclosure,
)
from .masking import (
    GadgetTrace,
    decode_shares,
    encode_shares,
    isw_and,
    isw_and_netlist,
    probing_security_first_order,
    random_share_columns,
    random_share_stimulus,
)
from .masked_synthesis import MaskedCircuit, mask_netlist
from .wddl import dual_rail_stimulus, to_and_or_not, wddl_transform
from .glitch import GlitchReport, glitch_simulate
from .seq_leakage import (
    sequential_leakage_traces,
)
from .mia import (
    MiaResult,
    mia_attack,
    mutual_information,
)
from .localize import (
    NetLeakage,
    assessed_nets,
    leaking_gate_report,
    locate_leaking_nets,
    net_t_statistics,
)

__all__ = [
    "HW8", "bits_to_traces", "family_leakage_traces",
    "family_net_bit_matrix", "leakage_traces",
    "TVLA_THRESHOLD", "TvlaResult", "tvla", "tvla_sweep", "welch_t",
    "CpaResult", "cpa_attack", "traces_to_disclosure",
    "GadgetTrace", "decode_shares", "encode_shares", "isw_and",
    "isw_and_netlist", "probing_security_first_order",
    "random_share_columns", "random_share_stimulus",
    "MaskedCircuit", "mask_netlist",
    "dual_rail_stimulus", "to_and_or_not", "wddl_transform",
    "GlitchReport", "glitch_simulate", "sequential_leakage_traces",
    "MiaResult", "mia_attack", "mutual_information",
    "NetLeakage", "assessed_nets", "leaking_gate_report",
    "locate_leaking_nets", "net_t_statistics",
]

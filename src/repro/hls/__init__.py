"""High-level synthesis: DFG, scheduling, binding, IFT/QIF, secure passes."""

from .dfg import Dfg, Label, Operation, OpType, aes_first_round_dfg
from .schedule import (
    OP_LATENCY,
    Schedule,
    UNIT_CLASS,
    alap_schedule,
    asap_schedule,
    list_schedule,
)
from .binding import (
    Binding,
    Lifetime,
    bind,
    left_edge_allocate,
    value_lifetimes,
)
from .ift import (
    TaintReport,
    dfg_output_leakage,
    qif_channel_capacity,
    taint_analysis,
)
from .secure import (
    HlsLeakageResult,
    evaluate_hls_cpa,
    flushed_exposure,
    hls_power_trace,
    insert_register_flushes,
    mask_sbox_kernel,
    multi_byte_kernel,
)

__all__ = [
    "Dfg", "Label", "Operation", "OpType", "aes_first_round_dfg",
    "OP_LATENCY", "Schedule", "UNIT_CLASS", "alap_schedule",
    "asap_schedule", "list_schedule",
    "Binding", "Lifetime", "bind", "left_edge_allocate",
    "value_lifetimes",
    "TaintReport", "dfg_output_leakage", "qif_channel_capacity",
    "taint_analysis",
    "HlsLeakageResult", "evaluate_hls_cpa", "flushed_exposure",
    "hls_power_trace", "insert_register_flushes", "mask_sbox_kernel",
    "multi_byte_kernel",
]

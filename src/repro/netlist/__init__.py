"""Gate-level netlist substrate: IR, simulation, BENCH I/O, generators, PPA."""

from .gates import GateType, evaluate, check_arity
from .netlist import Gate, Netlist, NetlistError, cone_extract
from .engine import (
    CompiledNetlist,
    EngineCache,
    VariantFamily,
    VariantSpec,
    engine_cache,
    get_compiled,
    reset_engine_cache,
)
from .simulate import (
    simulate,
    simulate_reference,
    output_values,
    step_sequential,
    pack_patterns,
    random_stimulus,
    encode_int,
    decode_int,
    exhaustive_truth_table,
)
from .bench import load, loads, dump, dumps
from .serialize import (
    canonical_json,
    netlist_from_dict,
    netlist_to_dict,
    stable_hash,
    transport_hash,
)
from .generators import (
    c17,
    full_adder,
    ripple_carry_adder,
    array_multiplier,
    parity_tree,
    random_circuit,
    from_truth_tables,
)
from .metrics import (
    CellCost,
    DEFAULT_COSTS,
    PPAReport,
    area,
    arrival_times,
    critical_path_delay,
    leakage_power,
    ppa_report,
)

__all__ = [
    "GateType", "evaluate", "check_arity",
    "Gate", "Netlist", "NetlistError", "cone_extract",
    "CompiledNetlist", "EngineCache", "VariantFamily", "VariantSpec",
    "engine_cache", "get_compiled", "reset_engine_cache",
    "simulate", "simulate_reference", "output_values", "step_sequential",
    "pack_patterns", "random_stimulus", "encode_int", "decode_int",
    "exhaustive_truth_table",
    "load", "loads", "dump", "dumps",
    "canonical_json", "netlist_from_dict", "netlist_to_dict",
    "stable_hash", "transport_hash",
    "c17", "full_adder", "ripple_carry_adder", "array_multiplier",
    "parity_tree", "random_circuit", "from_truth_tables",
    "CellCost", "DEFAULT_COSTS", "PPAReport", "area", "arrival_times",
    "critical_path_delay", "leakage_power", "ppa_report",
]

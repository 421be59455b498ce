"""Logic synthesis: optimization passes, restructuring, technology mapping."""

from .passes import (
    BufferSweep,
    ConstantPropagation,
    DeadGateSweep,
    DoubleInversionElimination,
    PassReport,
    StructuralHashing,
    SynthesisPass,
)
from .restructure import (
    XorTree,
    balance_trees,
    collect_trees,
    reassociate_for_timing,
)
from .library import (
    Cell,
    CellLibrary,
    nand_inv_library,
    standard_library,
)
from .techmap import decompose_variadic, map_to_library, to_nand_inv
from .optimizer import (
    SynthesisFlow,
    SynthesisResult,
    default_passes,
    synthesize,
)

__all__ = [
    "BufferSweep", "ConstantPropagation", "DeadGateSweep",
    "DoubleInversionElimination", "PassReport", "StructuralHashing",
    "SynthesisPass",
    "XorTree", "balance_trees", "collect_trees", "reassociate_for_timing",
    "Cell", "CellLibrary", "nand_inv_library", "standard_library",
    "decompose_variadic", "map_to_library", "to_nand_inv",
    "SynthesisFlow", "SynthesisResult", "default_passes", "synthesize",
]
